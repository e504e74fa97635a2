//! Integration: the CRDTs really form join-semilattices, and the
//! kernel's `CrdtMerge` resolution layer agrees with direct merges.
//!
//! Each module in `crdt` carries its own targeted proptests; this suite
//! asserts the three semilattice laws — commutativity, associativity,
//! idempotence — uniformly across the counter and set types from
//! *replica histories* (states built by actors applying operations, the
//! only states a running system can reach).
//! Convergence of the replication layer reduces to exactly these laws,
//! so they are tested at the integration level where the kernel's
//! `ResolvingStore::apply` is also cross-checked against merging the
//! same CRDT states by hand.
//!
//! The last section holds the definitions the anti-entropy path used
//! before it stopped copying — "clone, merge, compare" for `apply`, a
//! map lookup per key for `missing_at_remote` — as the oracles of what
//! replaced them: comparison by `leq`, copy-on-write counters and the
//! merge-join over sorted digests.

use proptest::prelude::*;
use rethinking_ec::clocks::{LamportClock, LamportTimestamp, VersionVector};
use rethinking_ec::crdt::{CvRdt, GCounter, OrSet, PnCounter};
use rethinking_ec::kvstore::{Key, MvStore, SiblingStore, Value};
use rethinking_ec::replication::kernel::resolution::{
    Digest, DigestCache, Item, ResolutionPolicy, ResolvingStore,
};
use rethinking_ec::replication::kernel::Probed;
use rethinking_ec::simnet::NodeId;
use std::collections::BTreeMap;
use std::rc::Rc;

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

proptest! {
    #[test]
    fn counters_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&pn_counter(0, &a), &pn_counter(1, &b), &pn_counter(2, &c));
        assert_lattice_laws(&g_counter(0, &a), &g_counter(1, &b), &g_counter(2, &c));
    }

    #[test]
    fn sets_are_semilattices(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        assert_lattice_laws(&or_set(0, &a), &or_set(1, &b), &or_set(2, &c));
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
                let state = Rc::new(states[i].clone());
                store.apply(&[Item::Counter { key, state }], &mut clock);
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
                &VersionVector::new(),
                0,
                &mut clock,
            );
            expect += n as i64;
        }
        prop_assert_eq!(store.counter_value(key), Some(expect));
    }
}

// ---- The replaced definitions, as oracles -------------------------------

/// `(actor, amount)` increments over few actors; amount 0 leaves a
/// zero-count entry behind, which the structural order must see.
fn arb_increments() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4, 0u64..4), 0..6)
}

fn g_counter_of(incs: &[(u64, u64)]) -> GCounter {
    let mut c = GCounter::new();
    for &(actor, n) in incs {
        c.increment(actor, n);
    }
    c
}

fn pn_counter_of(incs: &[(u64, u64)], decs: &[(u64, u64)]) -> PnCounter {
    let mut c = PnCounter::new();
    for &(actor, n) in incs {
        c.increment(actor, n);
    }
    for &(actor, n) in decs {
        c.decrement(actor, n);
    }
    c
}

/// What one drain of a replica's changed keys reports.
type Drained = Vec<(Key, Option<u64>)>;

/// A counter replica as it was before copy-on-write: plain counters, and
/// an `apply` that learns whether a merge changed anything by cloning
/// the state first and comparing afterwards.
#[derive(Default)]
struct CloneMergeCompare {
    counters: BTreeMap<Key, PnCounter>,
    marked: std::collections::BTreeSet<Key>,
}

impl CloneMergeCompare {
    fn write_local(&mut self, me: u64, key: Key, amount: u64) {
        self.counters.entry(key).or_default().increment(me, amount);
        self.marked.insert(key);
    }

    fn apply(&mut self, items: &[(Key, PnCounter)]) {
        for (key, state) in items {
            match self.counters.get_mut(key) {
                None => {
                    self.counters.insert(*key, PnCounter::default().merged(state));
                    self.marked.insert(*key);
                }
                Some(e) => {
                    let before = e.clone();
                    e.merge(state);
                    if *e != before {
                        self.marked.insert(*key);
                    }
                }
            }
        }
    }

    fn ship(&self) -> Vec<(Key, PnCounter)> {
        self.counters.iter().map(|(&k, c)| (k, c.clone())).collect()
    }

    fn drain(&mut self) -> Drained {
        std::mem::take(&mut self.marked)
            .into_iter()
            .map(|k| (k, self.counters.get(&k).map(|c| c.value() as u64)))
            .collect()
    }
}

fn drain(store: &mut Probed<ResolvingStore>) -> Drained {
    let mut out = Vec::new();
    store.drain_changed_versions(&mut |k, v| out.push((k, v)));
    out
}

fn counters(store: &ResolvingStore) -> BTreeMap<Key, PnCounter> {
    match store {
        ResolvingStore::Crdt(m) => m.iter().map(|(k, c)| (k, PnCounter::clone(c))).collect(),
        other => panic!("not a counter store: {other:?}"),
    }
}

/// `missing_at_remote` as it was before the merge-join: the received
/// digest collected into a map, one lookup per stored key.
fn missing_by_map_lookup(
    store: &ResolvingStore,
    digest: &Digest<LamportTimestamp>,
    vv_digest: &Digest<VersionVector>,
) -> Vec<Item> {
    match store {
        ResolvingStore::Lww(s) => {
            let remote: BTreeMap<Key, LamportTimestamp> = digest.iter().copied().collect();
            s.scan(..)
                .filter(|(k, v)| remote.get(k).map(|&ts| v.ts > ts).unwrap_or(true))
                .map(|(k, v)| Item::Lww {
                    key: k,
                    value: v.value.as_u64().unwrap_or(0),
                    ts: v.ts,
                    written_at: v.written_at,
                })
                .collect()
        }
        ResolvingStore::Sib(s) => {
            let remote: BTreeMap<Key, &VersionVector> =
                vv_digest.iter().map(|(k, vv)| (*k, vv)).collect();
            let mut items = Vec::new();
            for k in s.keys().collect::<Vec<_>>() {
                for sib in s.siblings(k) {
                    let unseen = remote.get(&k).map(|vv| !sib.dvv.covered_by(vv)).unwrap_or(true);
                    if unseen {
                        items.push(Item::Sib { key: k, sibling: sib.clone() });
                    }
                }
            }
            items
        }
        ResolvingStore::Crdt(_) => unreachable!("counters ship everything"),
    }
}

/// Both directions of one exchange between `a` and `b`.
fn assert_merge_join_matches_map_lookup(a: ResolvingStore, b: ResolvingStore) {
    let (a, b) = (Probed::new(a), Probed::new(b));
    for (local, remote) in [(&a, &b), (&b, &a)] {
        let (digest, vv_digest) = remote.digest();
        assert_eq!(
            DigestCache::default().missing_at_remote(local, NodeId(1), &digest, &vv_digest)[..],
            missing_by_map_lookup(local, &digest, &vv_digest)[..],
            "local {local:?}\nremote {remote:?}"
        );
    }
}

proptest! {
    /// `leq` decides by comparison what a merge would do: `a ≤ b` iff
    /// merging `a` into `b` leaves `b` structurally as it was — also
    /// when `a` names an actor `b` lacks with a count of zero.
    #[test]
    fn leq_is_merge_is_identity(
        ap in arb_increments(), an in arb_increments(),
        bp in arb_increments(), bn in arb_increments(),
    ) {
        let (a, b) = (g_counter_of(&ap), g_counter_of(&bp));
        prop_assert_eq!(a.leq(&b), b.clone().merged(&a) == b, "{:?} vs {:?}", a, b);
        let (a, b) = (pn_counter_of(&ap, &an), pn_counter_of(&bp, &bn));
        prop_assert_eq!(a.leq(&b), b.clone().merged(&a) == b, "{:?} vs {:?}", a, b);
    }

    /// Two counter replicas that write, ship their whole state to each
    /// other (sharing it) and receive arbitrary states — zero-count
    /// entries included — end in the state, and mark exactly the keys,
    /// that "clone, merge, compare" over unshared counters does.
    #[test]
    fn crdt_apply_matches_clone_merge_compare(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..2, 0u64..3, 1u64..5, arb_increments(), arb_increments()),
            0..24,
        ),
    ) {
        let mut clock = LamportClock::new();
        let new_store = || Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge));
        let mut stores = [new_store(), new_store()];
        let mut caches = [DigestCache::default(), DigestCache::default()];
        let mut oracles = [CloneMergeCompare::default(), CloneMergeCompare::default()];
        let (no_digest, no_vv) = stores[0].digest();
        for (kind, at, key, amount, incs, decs) in ops {
            match kind {
                // A local increment.
                0 | 1 => {
                    let me = NodeId(at as u32);
                    stores[at].write_local(me, key, amount, (0, 0), &VersionVector::new(), 0, &mut clock);
                    oracles[at].write_local(at as u64, key, amount);
                }
                // One anti-entropy push of everything to the other side,
                // delivered once or twice.
                2 | 3 => {
                    let to = 1 - at;
                    for _delivery in 1..kind {
                        let items = caches[at].missing_at_remote(&stores[at], NodeId(to as u32), &no_digest, &no_vv);
                        stores[to].apply(&items, &mut clock);
                        let shipped = oracles[at].ship();
                        oracles[to].apply(&shipped);
                    }
                }
                // A state from elsewhere.
                _ => {
                    let state = pn_counter_of(&incs, &decs);
                    stores[at].apply(&[Item::Counter { key, state: Rc::new(state.clone()) }], &mut clock);
                    oracles[at].apply(&[(key, state)]);
                }
            }
            for (store, oracle) in stores.iter_mut().zip(&mut oracles) {
                prop_assert_eq!(drain(store), oracle.drain(), "marked keys");
            }
        }
        for (store, oracle) in stores.iter().zip(&oracles) {
            prop_assert_eq!(&counters(store), &oracle.counters, "final state");
        }
    }

    /// LWW stores holding random subsets of one pool of versions: keys on
    /// one side only, equal stamps, newer on either side, empty stores
    /// and empty digests.
    #[test]
    fn lww_merge_join_matches_map_lookup(
        pool in proptest::collection::vec(
            (0u64..6, 1u64..5, 0u64..2, proptest::bool::ANY, proptest::bool::ANY),
            0..12,
        ),
    ) {
        let (mut a, mut b) = (MvStore::new(), MvStore::new());
        for (key, counter, actor, in_a, in_b) in pool {
            let ts = LamportTimestamp::new(counter, actor);
            for (store, wanted) in [(&mut a, in_a), (&mut b, in_b)] {
                if wanted {
                    store.put(key, Value::from_u64(counter * 10 + actor), ts, counter);
                }
            }
        }
        assert_merge_join_matches_map_lookup(ResolvingStore::Lww(a), ResolvingStore::Lww(b));
    }

    /// Sibling stores after a random history of blind and contextual
    /// writes, some of them replicated to the other side.
    #[test]
    fn sibling_merge_join_matches_map_lookup(
        script in proptest::collection::vec(
            (0usize..2, 0u64..4, proptest::bool::ANY, proptest::bool::ANY),
            0..16,
        ),
    ) {
        let mut reps = [SiblingStore::new(0), SiblingStore::new(1)];
        for (i, (r, key, read_first, replicate)) in script.into_iter().enumerate() {
            let ctx = if read_first { reps[r].read(key).context } else { VersionVector::new() };
            reps[r].write(key, Value::from_u64(i as u64), &ctx, 0);
            if replicate {
                for sibling in reps[r].siblings(key).to_vec() {
                    reps[1 - r].apply_remote(key, sibling);
                }
            }
        }
        let [a, b] = reps;
        assert_merge_join_matches_map_lookup(ResolvingStore::Sib(a), ResolvingStore::Sib(b));
    }
}
