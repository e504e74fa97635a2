//! Differential: the ring's ownership diff against the loop it replaced.
//!
//! `replication::kernel::ring::rebalance_pushes` walks one ring per
//! stored key and drops the key unless the changed node is among its
//! owners there; `tests/oracle/ring_rebalance.rs` is the unfiltered loop
//! `QuorumNode::on_membership` used to run, which walks both rings for
//! every key. Same `(key, target)` pushes in the same order and the same
//! rebalanced-key count, on every small ring shape where the filter
//! could go wrong: owner lists that clamp because the ring has no more
//! members than N (the changed node is then an owner of *every* key,
//! yet a leave gains nobody), changes that are refused, and the changed
//! node itself as the one asked.

#[path = "oracle/ring_rebalance.rs"]
mod oracle;

use rethinking_ec::replication::kernel::ring::rebalance_pushes;
use rethinking_ec::replication::sharded::Ring;
use rethinking_ec::simnet::{NodeId, SimRng};

const SEEDS: u64 = 100;
const STORED_KEYS: usize = 200;
/// Ids a ring draws its members from; wider than the largest ring so
/// there is always an absent node to join.
const ID_POOL: u32 = 16;

#[test]
fn rebalance_pushes_equal_the_unfiltered_loop() {
    let (mut cases, mut moving_cases, mut clamped_leaves) = (0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed ^ 0x0b5e_55ed);
        let replication = [1, 2, 3, 5][rng.index(4)];
        let mut ids: Vec<u32> = (0..ID_POOL).collect();
        rng.shuffle(&mut ids);
        let (members, absent) = ids.split_at(1 + rng.index(12));
        let vnodes = 1 + rng.index(16);
        let old = Ring::new(replication, vnodes, members.iter().copied().map(NodeId));
        let stored: Vec<u64> = (0..STORED_KEYS).map(|_| rng.below(u64::MAX)).collect();

        let present = NodeId(members[rng.index(members.len())]);
        let stranger = NodeId(absent[rng.index(absent.len())]);
        for (changed, join) in
            [(present, false), (stranger, true), (present, true), (stranger, false)]
        {
            let mut new = old.clone();
            let applied = if join { new.join(changed) } else { new.leave(changed) };
            // A duplicate join, an absent leave and the last member's
            // leave are refused; the diff of a ring with itself is empty.
            assert_eq!(applied, new != old, "seed {seed}");
            let askers = old.members().chain([changed]);
            for me in askers {
                let want = oracle::rebalance_pushes(&old, &new, me, stored.iter().copied());
                let got = rebalance_pushes(&old, &new, changed, me, stored.iter().copied());
                assert_eq!(
                    got,
                    want,
                    "seed {seed}: N={replication}, {} members x {vnodes} vnodes, node {} {}, \
                     asked of node {}",
                    old.len(),
                    changed.0,
                    if join { "joins" } else { "leaves" },
                    me.0
                );
                assert!(applied || got.0.is_empty(), "seed {seed}: a refused change moved keys");
                cases += 1;
                moving_cases += u64::from(!got.0.is_empty());
            }
            clamped_leaves += u64::from(applied && !join && old.len() <= replication);
        }
    }
    // The test must not pass on silence.
    assert!(moving_cases >= 100, "only {moving_cases} of {cases} cases moved a key");
    assert!(clamped_leaves >= 5, "only {clamped_leaves} leaves from a ring no larger than N");
}
