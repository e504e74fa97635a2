//! Integration: the CRDT menagerie really forms join-semilattices, and
//! the kernel's `CrdtMerge` resolution layer agrees with direct merges.
//!
//! Each module in `crdt` carries its own targeted proptests; this suite
//! asserts the three semilattice laws — commutativity, associativity,
//! idempotence — uniformly across register, counter, set, map, and
//! sequence types from *replica histories* (states built by actors
//! applying operations, the only states a running system can reach).
//! Convergence of the replication layer reduces to exactly these laws,
//! so they are tested at the integration level where the kernel's
//! `ResolvingStore::apply` is also cross-checked against merging the
//! same CRDT states by hand.

use proptest::prelude::*;
use rethinking_ec::clocks::LamportClock;
use rethinking_ec::crdt::{
    CvRdt, GCounter, GSet, LwwRegister, MvRegister, OrMap, OrSet, PnCounter, Rga, TwoPSet,
};
use rethinking_ec::replication::kernel::resolution::{Item, ResolutionPolicy, ResolvingStore};
use rethinking_ec::replication::kernel::Probed;
use rethinking_ec::simnet::NodeId;

/// Assert the three semilattice laws for three replica states.
fn assert_lattice_laws<T: CvRdt + PartialEq + std::fmt::Debug>(a: &T, b: &T, c: &T) {
    // Commutativity: a ∨ b = b ∨ a.
    assert_eq!(a.clone().merged(b), b.clone().merged(a), "merge must commute");
    // Associativity: (a ∨ b) ∨ c = a ∨ (b ∨ c).
    assert_eq!(
        a.clone().merged(b).merged(c),
        a.clone().merged(&b.clone().merged(c)),
        "merge must associate"
    );
    // Idempotence: a ∨ a = a.
    assert_eq!(a.clone().merged(a), *a, "merge must be idempotent");
    // Upper bound: merging the join back into either input is a no-op.
    let join = a.clone().merged(b);
    assert_eq!(join.clone().merged(a), join, "join must dominate both inputs");
}

/// Ops one replica performs: `(key-ish, amount, flag)` triples that each
/// builder interprets for its own type.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, bool)>> {
    proptest::collection::vec((0u8..6, 1u8..9, proptest::bool::ANY), 0..10)
}

fn pn_counter(actor: u64, ops: &[(u8, u8, bool)]) -> PnCounter {
    let mut c = PnCounter::new();
    for &(_, n, add) in ops {
        if add {
            c.increment(actor, n as u64);
        } else {
            c.decrement(actor, n as u64);
        }
    }
    c
}

fn g_counter(actor: u64, ops: &[(u8, u8, bool)]) -> GCounter {
    let mut c = GCounter::new();
    for &(_, n, _) in ops {
        c.increment(actor, n as u64);
    }
    c
}

fn lww_register(actor: u64, ops: &[(u8, u8, bool)]) -> LwwRegister<u8> {
    let mut clock = LamportClock::new();
    let mut r = LwwRegister::new();
    for &(_, v, _) in ops {
        r.set(clock.tick(actor), v);
    }
    r
}

fn mv_register(actor: u64, ops: &[(u8, u8, bool)]) -> MvRegister<u8> {
    let mut r = MvRegister::new();
    for &(_, v, _) in ops {
        r.set(actor, v);
    }
    r
}

fn g_set(ops: &[(u8, u8, bool)]) -> GSet<u8> {
    let mut s = GSet::new();
    for &(k, _, _) in ops {
        s.insert(k);
    }
    s
}

fn two_p_set(ops: &[(u8, u8, bool)]) -> TwoPSet<u8> {
    let mut s = TwoPSet::new();
    for &(k, _, add) in ops {
        if add {
            s.insert(k);
        } else {
            s.remove(&k);
        }
    }
    s
}

fn or_set(actor: u64, ops: &[(u8, u8, bool)]) -> OrSet<u8> {
    let mut s = OrSet::new();
    for &(k, _, add) in ops {
        if add {
            s.insert(actor, k);
        } else {
            s.remove(&k);
        }
    }
    s
}

fn or_map(actor: u64, ops: &[(u8, u8, bool)]) -> OrMap<u8, PnCounter> {
    let mut m = OrMap::new();
    for &(k, n, add) in ops {
        if add {
            m.update(actor, k, |c: &mut PnCounter| c.increment(actor, n as u64));
        } else {
            m.remove(&k);
        }
    }
    m
}

fn rga(actor: u64, ops: &[(u8, u8, bool)]) -> Rga<u8> {
    let mut r = Rga::new();
    for &(_, v, add) in ops {
        if add || r.is_empty() {
            r.push(actor, v);
        } else {
            r.remove_at(0);
        }
    }
    r
}

proptest! {
    #[test]
    fn counters_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&pn_counter(0, &a), &pn_counter(1, &b), &pn_counter(2, &c));
        assert_lattice_laws(&g_counter(0, &a), &g_counter(1, &b), &g_counter(2, &c));
    }

    #[test]
    fn registers_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&lww_register(0, &a), &lww_register(1, &b), &lww_register(2, &c));
    }

    /// MvRegister keeps siblings in arrival order, so the laws hold up to
    /// *observable* state (the sibling value set), not struct equality.
    #[test]
    fn mv_register_is_a_semilattice_observably(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        fn canon(r: &MvRegister<u8>) -> Vec<u8> {
            let mut v: Vec<u8> = r.get().into_iter().copied().collect();
            v.sort_unstable();
            v
        }
        let (a, b, c) = (mv_register(0, &a), mv_register(1, &b), mv_register(2, &c));
        prop_assert_eq!(canon(&a.clone().merged(&b)), canon(&b.clone().merged(&a)));
        prop_assert_eq!(
            canon(&a.clone().merged(&b).merged(&c)),
            canon(&a.clone().merged(&b.clone().merged(&c)))
        );
        prop_assert_eq!(canon(&a.clone().merged(&a)), canon(&a));
    }

    #[test]
    fn sets_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&g_set(&a), &g_set(&b), &g_set(&c));
        assert_lattice_laws(&two_p_set(&a), &two_p_set(&b), &two_p_set(&c));
        assert_lattice_laws(&or_set(0, &a), &or_set(1, &b), &or_set(2, &c));
    }

    #[test]
    fn maps_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&or_map(0, &a), &or_map(1, &b), &or_map(2, &c));
    }

    #[test]
    fn rga_is_a_semilattice(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&rga(0, &a), &rga(1, &b), &rga(2, &c));
    }

    /// The kernel's CrdtMerge store is the same machine as merging the
    /// counter states directly: apply the three replicas' states to a
    /// `ResolvingStore` in two different orders and compare both against
    /// the hand-merged `PnCounter`.
    #[test]
    fn kernel_crdt_merge_matches_direct_merge(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        let key = 7u64;
        let states = [pn_counter(0, &a), pn_counter(1, &b), pn_counter(2, &c)];

        let direct = states[0].clone().merged(&states[1]).merged(&states[2]);

        let mut clock = LamportClock::new();
        for order in [[0usize, 1, 2], [2, 0, 1]] {
            let mut store = Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge));
            for i in order {
                store.apply(vec![Item::Counter { key, state: states[i].clone() }], &mut clock);
            }
            prop_assert_eq!(store.counter_value(key).unwrap_or(0), direct.value());
        }
    }

    /// `write_local` under CrdtMerge is an increment by the written
    /// amount attributed to the writing node.
    #[test]
    fn kernel_crdt_write_local_is_an_increment(amounts in proptest::collection::vec(1u64..50, 1..8)) {
        let key = 3u64;
        let mut clock = LamportClock::new();
        let mut store = ResolvingStore::new(ResolutionPolicy::CrdtMerge);
        let mut expect = 0i64;
        for (i, &n) in amounts.iter().enumerate() {
            let me = NodeId((i % 3) as u32);
            store.write_local(
                me,
                key,
                n,
                (0, 0),
                &rethinking_ec::clocks::VersionVector::new(),
                0,
                &mut clock,
            );
            expect += n as i64;
        }
        prop_assert_eq!(store.counter_value(key), Some(expect));
    }
}
