//! Property battery for the consistent-hashing ring (satellite of the
//! ring-sharding PR): ownership cardinality, minimal remapping on
//! membership change, join/leave/rejoin identity, and determinism of
//! preference lists — each over 100 random seeds. A `Ring` is a handle
//! on a shared immutable snapshot that remembers its successor; the
//! last four properties hold it to value semantics (a ring is what
//! `Ring::new` over its member set is, a clone never sees a later
//! change) and the memo to being only a memo (a hit shares the table, a
//! miss is as correct as a hit, and history is not kept alive).

use rethinking_ec::replication::sharded::Ring;
use rethinking_ec::simnet::{NodeId, SimRng};
use std::collections::BTreeSet;

const SEEDS: u64 = 100;
const KEYS: u64 = 512;

/// A random ring config drawn from a seed: 1–4 replication, enough
/// nodes to cover it, 1–32 vnodes.
fn random_ring(seed: u64) -> Ring {
    let mut rng = SimRng::new(seed ^ 0x71f6_0bee);
    let replication = 1 + rng.below(4) as usize;
    let nodes = replication + rng.below(20) as usize;
    let vnodes = 1 + rng.below(32) as usize;
    Ring::new(replication, vnodes, (0..nodes as u32).map(NodeId))
}

/// Random keys spread across the hash space (the ring hashes keys
/// itself, so raw integers are fine; draw them wide anyway).
fn random_keys(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0xd00d_cafe);
    (0..KEYS).map(|_| rng.below(u64::MAX)).collect()
}

#[test]
fn every_key_has_exactly_n_distinct_owners() {
    for seed in 0..SEEDS {
        let ring = random_ring(seed);
        let want = ring.replication().min(ring.len());
        for key in random_keys(seed) {
            let owners = ring.owners(key);
            assert_eq!(owners.len(), want, "seed {seed} key {key}: wrong owner count");
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), owners.len(), "seed {seed} key {key}: duplicate owner");
            for o in owners {
                assert!(ring.contains(o), "seed {seed}: owner {} not a member", o.0);
            }
        }
    }
}

#[test]
fn leave_only_remaps_keys_owned_by_the_departed_node() {
    for seed in 0..SEEDS {
        let ring = random_ring(seed);
        if ring.len() < 2 {
            continue;
        }
        let keys = random_keys(seed);
        let mut rng = SimRng::new(seed ^ 0x1eaf);
        let departing = NodeId(rng.index(ring.len()) as u32);
        let mut after = ring.clone();
        assert!(after.leave(departing));

        let mut remapped = 0u64;
        let mut owned_by_departed = 0u64;
        for &key in &keys {
            let before_owners = ring.owners(key);
            if before_owners.contains(&departing) {
                owned_by_departed += 1;
            }
            let after_owners = after.owners(key);
            if before_owners == after_owners {
                continue;
            }
            remapped += 1;
            // A key may only change owners if the departed node was one
            // of them (consistent hashing's minimal-disruption bound).
            assert!(
                before_owners.contains(&departing),
                "seed {seed} key {key}: remapped but node {} was not an owner",
                departing.0
            );
            // Surviving owners keep their copies: the change is additive.
            for o in before_owners.iter().filter(|&&o| o != departing) {
                assert!(
                    after_owners.contains(o),
                    "seed {seed} key {key}: surviving owner {} lost the key",
                    o.0
                );
            }
        }
        // The remap set is *exactly* the departed node's keys: losing an
        // owner always changes the list, and nothing else may change.
        assert_eq!(
            remapped, owned_by_departed,
            "seed {seed}: remapped keys must be exactly the departed node's keys"
        );
    }
}

#[test]
fn remap_volume_tracks_the_k_over_nodes_bound_with_enough_vnodes() {
    // With many vnodes per node the arcs even out and the departed
    // node's share of keys approaches replication/nodes — the classic
    // consistent-hashing ~K/nodes disruption bound.
    let ring = Ring::new(3, 64, (0..20).map(NodeId));
    let keys = random_keys(7);
    let mut after = ring.clone();
    assert!(after.leave(NodeId(4)));
    let remapped = keys.iter().filter(|&&k| ring.owners(k) != after.owners(k)).count();
    let expected = KEYS as f64 * 3.0 / 20.0;
    assert!(
        (remapped as f64) < 2.0 * expected,
        "{remapped} keys remapped, expected ~{expected:.0} (2x slack)"
    );
}

#[test]
fn join_leave_rejoin_restores_the_identical_ring() {
    for seed in 0..SEEDS {
        let ring = random_ring(seed);
        if ring.len() < 2 {
            continue;
        }
        let mut rng = SimRng::new(seed ^ 0x0707);
        let node = NodeId(rng.index(ring.len()) as u32);
        let mut churned = ring.clone();
        assert!(churned.leave(node));
        assert_ne!(churned, ring);
        assert!(churned.join(node));
        assert_eq!(churned, ring, "seed {seed}: leave+rejoin must be identity");

        // And a brand-new node joining then leaving is also identity.
        let newcomer = NodeId(ring.len() as u32 + 100);
        assert!(churned.join(newcomer));
        assert!(churned.leave(newcomer));
        assert_eq!(churned, ring, "seed {seed}: join+leave of a newcomer must be identity");
    }
}

#[test]
fn preference_lists_are_deterministic_and_order_independent() {
    for seed in 0..SEEDS {
        let ring = random_ring(seed);
        // Rebuild the same membership in a different insertion order:
        // the ring is a pure function of the member *set*.
        let mut members: Vec<NodeId> = ring.members().collect();
        members.reverse();
        let reordered = Ring::new(ring.replication(), ring.vnodes(), members);
        assert_eq!(reordered, ring, "seed {seed}: member order must not matter");
        for key in random_keys(seed).into_iter().take(64) {
            assert_eq!(
                ring.preference_list(key, ring.replication() + 2),
                reordered.preference_list(key, ring.replication() + 2),
                "seed {seed} key {key}: preference lists must be deterministic"
            );
        }
    }
}

#[test]
fn spares_extend_the_preference_list_without_overlap() {
    for seed in 0..SEEDS {
        let ring = random_ring(seed);
        for key in random_keys(seed).into_iter().take(64) {
            let owners = ring.owners(key);
            let spares = ring.spares(key, 2);
            for s in &spares {
                assert!(!owners.contains(s), "seed {seed} key {key}: spare {} is an owner", s.0);
            }
        }
    }
}

/// `ring` is the ring `Ring::new` builds over `members`: equal as a
/// value, and the same owners and spares for 1 000 keys.
fn assert_is_fresh_ring_over(ring: &Ring, members: &BTreeSet<u32>, seed: u64) {
    let fresh = Ring::new(ring.replication(), ring.vnodes(), members.iter().copied().map(NodeId));
    assert_eq!(*ring, fresh, "seed {seed}: not the ring of its member set");
    let mut rng = SimRng::new(seed ^ 0x0dd_ba11);
    for _ in 0..1_000 {
        let key = rng.below(u64::MAX);
        assert_eq!(ring.owners(key), fresh.owners(key), "seed {seed} key {key}: owners");
        assert_eq!(ring.spares(key, 2), fresh.spares(key, 2), "seed {seed} key {key}: spares");
    }
}

#[test]
fn any_change_sequence_lands_on_the_ring_of_the_resulting_member_set() {
    for seed in 0..SEEDS {
        let mut ring = random_ring(seed);
        let mut members: BTreeSet<u32> = ring.members().map(|n| n.0).collect();
        let mut rng = SimRng::new(seed ^ 0x5e9_0e5);
        let (mut refused, mut applied) = (0, 0);
        for _ in 0..40 {
            // Ids past the initial members make absent leaves and fresh
            // joins; ids inside make duplicate joins and real leaves.
            let node = rng.below(members.len() as u64 + 4) as u32;
            let join = rng.chance(0.5);
            let before = ring.clone();
            let changed = if join { ring.join(NodeId(node)) } else { ring.leave(NodeId(node)) };
            let expected = if join {
                members.insert(node)
            } else {
                // The last member's leave is refused.
                members.len() > 1 && members.remove(&node)
            };
            assert_eq!(changed, expected, "seed {seed}: node {node} join={join}");
            assert_eq!(changed, ring != before, "seed {seed}: a refused change is no change");
            if changed {
                applied += 1;
            } else {
                refused += 1;
            }
        }
        assert!(applied > 0 && refused > 0, "seed {seed}: {applied} applied, {refused} refused");
        assert_is_fresh_ring_over(&ring, &members, seed);
    }
}

#[test]
fn a_clone_taken_before_a_change_never_observes_it() {
    for seed in 0..SEEDS {
        let mut ring = random_ring(seed);
        let members: BTreeSet<u32> = ring.members().map(|n| n.0).collect();
        let snapshot = ring.clone();
        let newcomer = NodeId(ring.len() as u32 + 7);
        assert!(ring.join(newcomer));
        if ring.len() > 2 {
            assert!(ring.leave(NodeId(0)));
        }
        assert_ne!(snapshot, ring, "seed {seed}");
        assert!(!snapshot.contains(newcomer), "seed {seed}: the clone saw the join");
        assert_is_fresh_ring_over(&snapshot, &members, seed);
    }
}

#[test]
fn the_successor_memo_is_shared_on_a_hit_and_harmless_on_a_miss() {
    for seed in 0..SEEDS {
        let origin = random_ring(seed);
        if origin.len() < 3 {
            continue;
        }
        let members: BTreeSet<u32> = origin.members().map(|n| n.0).collect();
        let without = |gone: &[u32]| -> BTreeSet<u32> {
            members.iter().copied().filter(|m| !gone.contains(m)).collect()
        };
        let mut rng = SimRng::new(seed ^ 0x3e30);
        let x = rng.index(origin.len()) as u32;
        let y = (x + 1) % origin.len() as u32;

        // The hit: two handles of one snapshot, the same change — equal,
        // and one table between them.
        let (mut a, mut b) = (origin.clone(), origin.clone());
        assert!(a.shares_table_with(&b));
        assert!(a.leave(NodeId(x)) && b.leave(NodeId(x)));
        assert_eq!(a, b, "seed {seed}");
        assert!(a.shares_table_with(&b), "seed {seed}: the second handle rebuilt the table");
        assert!(!a.shares_table_with(&origin));

        // The miss: a third handle of the same snapshot applies another
        // change and gets its own, correct, ring; the first two keep theirs.
        let mut c = origin.clone();
        assert!(c.leave(NodeId(y)));
        assert!(!c.shares_table_with(&a));
        assert_is_fresh_ring_over(&c, &without(&[y]), seed);
        assert_is_fresh_ring_over(&a, &without(&[x]), seed);

        // A handle an epoch behind: `c` overwrote the origin's memo, so
        // a late handle repeating the *first* change builds its own table
        // rather than adopting the wrong one.
        let mut late = origin.clone();
        assert!(late.leave(NodeId(x)));
        assert_eq!(late, a, "seed {seed}");
        assert_is_fresh_ring_over(&late, &without(&[x]), seed);

        // A handle two epochs behind: nobody holds the successor the
        // origin remembers any more, so the memo is dead, not wrong.
        let (mut ahead, mut behind) = (origin.clone(), origin.clone());
        assert!(ahead.leave(NodeId(x)) && ahead.join(NodeId(x)));
        assert!(behind.leave(NodeId(x)));
        assert_is_fresh_ring_over(&behind, &without(&[x]), seed);
        assert!(behind.join(NodeId(x)));
        assert_eq!(behind, origin, "seed {seed}");

        // A handle at a different epoch shares no memo with the origin:
        // it reaches the same member set by the other order of the same
        // two leaves, through tables of its own.
        assert!(a.leave(NodeId(y)) && c.leave(NodeId(x)));
        assert_eq!(a, c, "seed {seed}: the order of two leaves must not matter");
        assert!(!a.shares_table_with(&c));
        assert_is_fresh_ring_over(&a, &without(&[x, y]), seed);
        assert_eq!(origin.len(), members.len(), "seed {seed}: the origin moved");
    }
}

#[test]
fn churn_on_shared_handles_keeps_no_history_alive() {
    for seed in 0..SEEDS {
        let origin = random_ring(seed);
        if origin.len() < 2 {
            continue;
        }
        // A cluster: every node holds a handle and sees every change.
        let mut handles: Vec<Ring> = (0..8).map(|_| origin.clone()).collect();
        let mut tables = vec![origin.table_liveness()];
        for round in 0..100u32 {
            let node = NodeId(round % origin.len() as u32);
            for join in [false, true] {
                for ring in &mut handles {
                    assert!(if join { ring.join(node) } else { ring.leave(node) });
                }
                assert!(
                    handles.iter().all(|ring| ring.shares_table_with(&handles[0])),
                    "seed {seed} round {round}: a change was computed more than once"
                );
                tables.push(handles[0].table_liveness());
            }
        }
        assert_eq!(handles[0], origin, "seed {seed}: 100 leave/rejoin rounds are the identity");
        // 201 epochs were visited; only the one the cluster is at and
        // the one `origin` still holds are alive.
        let alive = tables.iter().filter(|alive| alive()).count();
        assert_eq!(alive, 2, "seed {seed}: {alive} of {} point tables alive", tables.len());
        drop(origin);
        assert_eq!(tables.iter().filter(|alive| alive()).count(), 1, "seed {seed}");
    }
}
