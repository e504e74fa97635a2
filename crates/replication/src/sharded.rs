//! Ring-sharded quorum deployments.
//!
//! The classic [`crate::quorum`] layer places every key on the *same* N
//! home replicas (nodes `0..n`), which is faithful to the tutorial's
//! single-shard analysis but cannot say anything about cluster-scale
//! effects: membership churn, rebalancing cost, or how sloppy-quorum
//! availability behaves when spares are *other data-carrying nodes*
//! rather than dedicated hint parks. This module composes the [`Ring`]
//! consistent-hashing layer with [`crate::quorum::QuorumNode`] to model
//! a Dynamo-style cluster:
//!
//! - every physical node owns the keys whose hash walk reaches it first,
//! - each key's preference list is its first `n` distinct owners,
//! - sloppy quorums fall through to the *next* distinct nodes on the
//!   walk (per-key spares) instead of a fixed spare pool, and
//! - membership changes rebalance only the keys whose preference list
//!   actually changed (the consistent-hashing guarantee).
//!
//! The cluster holds one point table per membership epoch, not one per
//! node: [`initial_ring`] builds the first, every node takes a clone of
//! the handle, and on a change the first node to hear of it builds the
//! next table while the others adopt it ([`Ring`]'s module docs). What a
//! change costs the host is then one table plus one ring walk per stored
//! key, whatever the cluster size; `tests/ring_membership_allocs.rs`
//! counts it.
//!
//! See `docs/RING.md` for the layout, hint lifecycle, and churn model.

use crate::kernel::Composition;
use simnet::{NodeId, SimTime};

pub use crate::kernel::ring::Ring;

/// Panics unless a cluster of `nodes` physical nodes can host `inner`'s
/// preference lists.
fn check_cluster(inner: &Composition, nodes: usize) {
    assert!(
        nodes >= inner.replicas,
        "ring cluster must have at least as many nodes ({nodes}) as the preference list ({})",
        inner.replicas
    );
    assert!(
        nodes <= u32::MAX as usize,
        "ring cluster of {nodes} nodes exceeds compact u32 NodeId addressing (max {})",
        u32::MAX
    );
}

/// Panics unless every `(time, node, join)` membership event names one
/// of the cluster's `nodes` servers. The ring takes any id it is told
/// joined: `NodeId(nodes)` is the first *client* actor, which would
/// become an owner that never answers a replica request, and an id past
/// the last actor is a message to nobody.
pub fn check_membership(nodes: usize, events: &[(SimTime, NodeId, bool)]) {
    for &(at, node, join) in events {
        assert!(
            node.index() < nodes,
            "membership event at {at} ({} of node {}) does not name a server: \
             the ring cluster has {nodes} nodes (ids 0..{nodes})",
            if join { "join" } else { "leave" },
            node.0
        );
    }
}

/// The initial ring of a sharded cluster: nodes `0..nodes` with `vnodes`
/// points each, preference lists of `inner.replicas` owners. Every
/// [`crate::quorum::QuorumNode`] of the cluster starts from a clone of
/// it — a handle on the same point table, not a copy of it.
///
/// Panics if the cluster is smaller than the preference list or
/// ([`Ring::new`]) if `vnodes` is zero.
pub fn initial_ring(inner: &Composition, nodes: usize, vnodes: usize) -> Ring {
    check_cluster(inner, nodes);
    Ring::new(inner.replicas, vnodes, (0..nodes as u32).map(NodeId))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{unique_value, ScriptOp, TargetPolicy};
    use crate::quorum::{Msg, QuorumClient, QuorumNode};

    #[test]
    fn cluster_accepts_node_count_at_u32_boundary() {
        // Must not panic: u32::MAX nodes are addressable with compact
        // ids. (Only validates; no cluster of this size is built.)
        check_cluster(&Composition::quorum(3, 2, 2, true, 0), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "exceeds compact u32 NodeId addressing")]
    fn cluster_rejects_node_count_above_u32() {
        check_cluster(&Composition::quorum(3, 2, 2, true, 0), u32::MAX as usize + 1);
    }

    /// A test cluster: the per-key quorum composition, the physical node
    /// count and the virtual nodes per physical node.
    struct Cluster {
        inner: Composition,
        nodes: usize,
        vnodes: usize,
    }

    impl Cluster {
        fn new(spares: usize, nodes: usize, vnodes: usize) -> Self {
            Cluster { inner: Composition::quorum(3, 2, 2, true, spares), nodes, vnodes }
        }

        fn ring(&self) -> Ring {
            initial_ring(&self.inner, self.nodes, self.vnodes)
        }
    }
    use crate::sink;
    use kvstore::Key;
    use obs::Counter;
    use simnet::{Duration, FaultSchedule, LatencyModel, OpKind, Sim, SimConfig, SimTime};

    fn build(
        cfg: &Cluster,
        clients: Vec<QuorumClient>,
        seed: u64,
        faults: FaultSchedule,
        recorder: obs::Recorder,
    ) -> Sim<Msg> {
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(faults)
                .recorder(recorder),
        );
        let ring = cfg.ring();
        for _ in 0..cfg.nodes {
            sim.add_node(Box::new(QuorumNode::new(&cfg.inner, Some(ring.clone()))));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    fn script(ops: &[(OpKind, Key)]) -> Vec<ScriptOp> {
        ops.iter().map(|&(kind, key)| ScriptOp { gap_us: 2_000, kind, key }).collect()
    }

    #[test]
    fn ring_write_lands_on_owners_and_read_finds_it() {
        let cfg = Cluster::new(0, 8, 16);
        let trace = sink::shared_trace();
        let keys: Vec<Key> = (0..10).collect();
        let writer = QuorumClient::new(
            1,
            script(&keys.iter().map(|&k| (OpKind::Write, k)).collect::<Vec<_>>()),
            trace.clone(),
            cfg.nodes,
            TargetPolicy::Random,
        );
        let reader = QuorumClient::new(
            2,
            keys.iter()
                .map(|&k| ScriptOp { gap_us: 2_000, kind: OpKind::Read, key: k })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|mut op| {
                    op.gap_us = 30_000;
                    op
                })
                .collect(),
            trace.clone(),
            cfg.nodes,
            TargetPolicy::Random,
        );
        let mut sim =
            build(&cfg, vec![writer, reader], 7, FaultSchedule::none(), obs::Recorder::disabled());
        sim.run_until(SimTime::from_secs(2));

        // Every read observes the prior write for its key.
        let t = trace.borrow();
        for (i, _) in keys.iter().enumerate() {
            let read = t.records().iter().filter(|r| r.kind == OpKind::Read).nth(i).unwrap();
            assert!(read.ok, "ring read {i} failed");
            assert_eq!(read.value_read, vec![unique_value(1, i as u64 + 1)]);
        }

        // And the stored versions live exactly on the ring owners.
        let ring = cfg.ring();
        for (node, key, _) in sim.key_versions() {
            if node.index() < cfg.nodes {
                assert!(
                    ring.owners(key).contains(&node),
                    "node {} stores key {key} it does not own",
                    node.0
                );
            }
        }
    }

    #[test]
    fn ring_sloppy_quorum_hints_under_partition_and_drains_on_heal() {
        // Partition two of the key's three owners away so the write
        // quorum (W=2) cannot be met from homes alone; the sloppy write
        // must park hints on ring spares, then drain them after the heal.
        let cfg = Cluster::new(2, 6, 8);
        let key: Key = 3;
        let owners = cfg.ring().owners(key);
        let cut = owners[0];
        let faults = FaultSchedule::none().partition(
            vec![cut, owners[2]],
            SimTime::from_millis(5),
            SimTime::from_secs(4),
        );
        let trace = sink::shared_trace();
        let coordinator = owners[1];
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, key)]),
            trace.clone(),
            cfg.nodes,
            TargetPolicy::Sticky(coordinator),
        );
        let recorder = obs::Recorder::enabled();
        let mut sim = build(&cfg, vec![writer], 5, faults, recorder.clone());
        sim.run_until(SimTime::from_secs(8));

        let t = trace.borrow();
        let write = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
        assert!(write.ok, "sloppy write should succeed despite a partitioned owner");

        drop(sim);
        let metrics = recorder.report();
        assert!(metrics.counter(Counter::HintsStored) >= 1, "no hint was parked on a spare");
        assert_eq!(
            metrics.counter(Counter::HintsStored),
            metrics.counter(Counter::HintsDrained),
            "every hint should drain home after the heal"
        );

        // The partitioned owner ends up holding the value.
        // (key_versions was consumed by drop; re-run to inspect.)
        let mut sim2 = build(
            &cfg,
            vec![QuorumClient::new(
                1,
                script(&[(OpKind::Write, key)]),
                sink::shared_trace(),
                cfg.nodes,
                TargetPolicy::Sticky(coordinator),
            )],
            5,
            FaultSchedule::none().partition(
                vec![cut, owners[2]],
                SimTime::from_millis(5),
                SimTime::from_secs(4),
            ),
            obs::Recorder::disabled(),
        );
        sim2.run_until(SimTime::from_secs(8));
        assert!(
            sim2.key_versions().iter().any(|&(n, k, _)| n == cut && k == key),
            "hinted write never reached its home replica"
        );
    }

    #[test]
    fn membership_leave_rebalances_keys_to_new_owners() {
        let cfg = Cluster::new(0, 6, 8);
        let key: Key = 11;
        let old_ring = cfg.ring();
        let owners = old_ring.owners(key);
        let leaver = owners[0];
        let mut new_ring = old_ring.clone();
        new_ring.leave(leaver);
        let gained: Vec<_> =
            new_ring.owners(key).into_iter().filter(|n| !owners.contains(n)).collect();
        assert!(!gained.is_empty(), "pick a key whose ownership actually moves");

        let trace = sink::shared_trace();
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, key)]),
            trace.clone(),
            cfg.nodes,
            TargetPolicy::Sticky(owners[1]),
        );
        let faults = FaultSchedule::none().membership(SimTime::from_millis(500), leaver, false);
        let recorder = obs::Recorder::enabled();
        let mut sim = build(&cfg, vec![writer], 9, faults, recorder.clone());
        sim.run_until(SimTime::from_secs(3));

        // The new owner received the key via a rebalance push.
        for target in &gained {
            assert!(
                sim.key_versions().iter().any(|&(n, k, _)| n == *target && k == key),
                "new owner {} never received rebalanced key {key}",
                target.0
            );
        }
        drop(sim);
        assert!(
            recorder.report().counter(Counter::RebalancedKeys) >= 1,
            "rebalanced_keys counter should record the push"
        );
    }
}
