//! Integration: what an anti-entropy exchange costs the host does not
//! grow with the number of stored keys — neither in allocations nor in
//! allocated bytes.
//!
//! A digest is a shared snapshot rebuilt once per store generation, a
//! received digest is merge-joined against the store's own, and counter
//! state travels as one shared snapshot per generation and is compared
//! by reference (`replication::kernel::resolution`). So once replicas
//! have converged, no gossip message builds anything: what is left is a
//! fraction of an allocation a message — the round's target sample and
//! the simulator's own bookkeeping — however many keys the stores hold.
//! Anything built per message shows here: an item buffer of N references
//! per state-carrying message (the CRDT arm until this file gained its
//! byte bound: 1.01 allocations and 3 418 → 54 618 B a message at 64 →
//! 1 024 keys), a reference-counted buffer that allocates even when
//! empty (every quiet LWW answer), a deep clone per key (87.9 → 1 367.9
//! allocations a message before digests and counters were shared).
//! Exact, not timed: this binary installs [`CountingAlloc`], and a
//! seeded run allocates the same every time.

use rethinking_ec::obs::{alloc_totals, CountingAlloc};
use rethinking_ec::replication::common::{Guarantees, ScriptOp, TargetPolicy};
use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, GossipConfig, Msg};
use rethinking_ec::replication::kernel::{Composition, ResolutionPolicy};
use rethinking_ec::replication::sink;
use rethinking_ec::simnet::{Duration, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations and allocated bytes per delivered message over one quiet
/// second of `comp`, after a session per replica has written every one
/// of `keys` keys and gossip has made the replicas agree.
fn quiet_cost_per_message(comp: &Composition, keys: u64) -> (f64, f64) {
    let trace = sink::shared_trace();
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

    let ((bytes_before, allocs_before), delivered_before) =
        (alloc_totals(), sim.delivered_messages);
    sim.run_until(settled + Duration::from_secs(1));
    let delivered = (sim.delivered_messages - delivered_before) as f64;
    assert!(delivered >= 100.0, "gossip keeps running in the quiet tail ({delivered} messages)");
    let (bytes, allocs) = alloc_totals();
    ((allocs - allocs_before) as f64 / delivered, (bytes - bytes_before) as f64 / delivered)
}

/// What a quiet message may cost: the measured allocations per message
/// (0.34 for counters at 3 replicas, 0.52 for LWW at 8, at 64 and at
/// 1 024 keys alike) + 0.25, and 64 B — measured 4.8 / 4.5 B and 19.0 /
/// 17.8 B at 64 / 1 024 keys; the per-message buffer that could come back,
/// one 80-byte `Item` per key, is 5 KiB at 64 keys.
const BYTES_PER_MESSAGE_BOUND: f64 = 64.0;
/// How far 16 times the keys may move the bytes per message.
const BYTES_PER_MESSAGE_DRIFT: f64 = 8.0;

#[test]
fn quiet_gossip_allocations_do_not_follow_the_key_count() {
    let gossip_only_lww = Composition::eventual(
        8,
        false,
        Some(GossipConfig { interval: Duration::from_millis(50), fanout: 2 }),
        ResolutionPolicy::LwwRegister,
    );
    for (comp, allocs_bound) in [(Composition::mm_gossip_crdt(3), 0.59), (gossip_only_lww, 0.77)] {
        let label = comp.label();
        let few = quiet_cost_per_message(&comp, 64);
        let many = quiet_cost_per_message(&comp, 1_024);
        for (keys, (allocs, bytes)) in [(64, few), (1_024, many)] {
            assert!(
                allocs <= allocs_bound,
                "{label}: {allocs:.2} allocations per quiet gossip message at {keys} keys"
            );
            assert!(
                bytes <= BYTES_PER_MESSAGE_BOUND,
                "{label}: {bytes:.1} B allocated per quiet gossip message at {keys} keys"
            );
        }
        assert!(
            (many.1 - few.1).abs() <= BYTES_PER_MESSAGE_DRIFT,
            "{label}: 16 times the keys took bytes per message from {:.1} to {:.1}",
            few.1,
            many.1
        );
    }
}
