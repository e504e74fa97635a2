//! Integration: what an anti-entropy exchange costs the host does not
//! grow with the number of stored keys.
//!
//! A digest is a shared snapshot rebuilt once per store generation, a
//! received digest is merge-joined against the store scan, and counter
//! state travels and is compared by reference
//! (`replication::kernel::resolution`). So once replicas have converged,
//! a gossip message allocates a small constant — the item buffer of a
//! state-carrying message — however many keys the stores hold. A deep
//! clone per key anywhere on that path (the CRDT arm used to make two
//! per key per state-carrying message, the LWW arm a digest `Vec` and a
//! `BTreeMap` of it per exchange) shows here as a count that follows the
//! key count. Exact, not timed: this binary installs
//! [`CountingAlloc`], and a seeded run allocates the same every time.

use rethinking_ec::obs::{alloc_totals, CountingAlloc};
use rethinking_ec::replication::common::{Guarantees, ScriptOp, TargetPolicy};
use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, GossipConfig, Msg};
use rethinking_ec::replication::kernel::{Composition, ResolutionPolicy};
use rethinking_ec::simnet::{
    optrace, Duration, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime,
};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per delivered message over one quiet second of `comp`,
/// after a session per replica has written every one of `keys` keys and
/// gossip has made the replicas agree.
fn quiet_allocs_per_message(comp: &Composition, keys: u64) -> f64 {
    let trace = optrace::shared_trace();
    let mut sim: Sim<Msg> = Sim::new(
        SimConfig::default().seed(7).latency(LatencyModel::Constant(Duration::from_millis(1))),
    );
    for _ in 0..comp.replicas {
        sim.add_node(Box::new(EventualReplica::new(comp)));
    }
    for replica in 0..comp.replicas as u32 {
        let script =
            (0..keys).map(|key| ScriptOp { gap_us: 200, kind: OpKind::Write, key }).collect();
        sim.add_node(Box::new(EventualClient::new(
            replica as u64 + 1,
            script,
            trace.clone(),
            comp,
            TargetPolicy::Sticky(NodeId(replica)),
            Guarantees::none(),
        )));
    }
    // 2.2 ms an op, closed loop; then two seconds of gossip alone.
    let settled = SimTime::from_millis(keys * 22 / 10 + 2_000);
    sim.run_until(settled);
    assert_eq!(trace.borrow().len() as u64, keys * comp.replicas as u64, "every write acked");
    let mut holders: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for (_, key, version) in sim.key_versions() {
        *holders.entry((key, version)).or_default() += 1;
    }
    assert_eq!(holders.len() as u64, keys, "one version a key: the replicas agree");
    assert!(holders.values().all(|&n| n == comp.replicas), "every replica holds every key");

    let (allocs_before, delivered_before) = (alloc_totals().1, sim.delivered_messages);
    sim.run_until(settled + Duration::from_secs(1));
    let delivered = sim.delivered_messages - delivered_before;
    assert!(delivered >= 100, "gossip keeps running in the quiet tail ({delivered} messages)");
    (alloc_totals().1 - allocs_before) as f64 / delivered as f64
}

/// Per message, at every key count. Measured: 2.54 (counters, 3
/// replicas) and 2.28 (LWW, 8 replicas) at 64 and at 1 024 keys alike —
/// the event queue's slot buffers, the round's target sample and the
/// item buffer of a state-carrying message. The parent of the change
/// that introduced this test measured 87.9 → 1 367.9 and 14.5 → 106.5.
const ALLOCS_PER_MESSAGE_BOUND: f64 = 4.0;

#[test]
fn quiet_gossip_allocations_do_not_follow_the_key_count() {
    let gossip_only_lww = Composition::eventual(
        8,
        false,
        Some(GossipConfig { interval: Duration::from_millis(50), fanout: 2 }),
        ResolutionPolicy::LwwRegister,
    );
    for comp in [Composition::mm_gossip_crdt(3), gossip_only_lww] {
        let label = comp.label();
        let few = quiet_allocs_per_message(&comp, 64);
        let many = quiet_allocs_per_message(&comp, 1_024);
        for (keys, per_message) in [(64, few), (1_024, many)] {
            assert!(
                per_message <= ALLOCS_PER_MESSAGE_BOUND,
                "{label}: {per_message:.2} allocations per quiet gossip message at {keys} keys"
            );
        }
        assert!(
            many - few < 0.5,
            "{label}: 16 times the keys took allocations per message from {few:.2} to {many:.2}"
        );
    }
}
