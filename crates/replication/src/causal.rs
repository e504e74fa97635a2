//! Causally consistent multi-master replication (COPS-style "causal+").
//!
//! Each replica accepts local reads and writes with no coordination; a
//! write is broadcast with a **dependency vector**: the version vector of
//! everything the origin replica had applied when the write happened.
//! Receivers buffer a remote write until its dependencies are satisfied
//! locally, so no replica ever exposes a state that is not causally
//! closed. Convergent conflict resolution (LWW on Lamport stamps, whose
//! order extends causality) gives the "+" in causal+.
//!
//! Clients are sticky to a home replica — causal consistency is a
//! *replica-local* property here; session migration without tokens
//! reintroduces anomalies, which is exactly what experiment E3
//! demonstrates on the `eventual` protocol.

use crate::common::{ClientProtocol, IssueOp, OpOutcome, Reply, ScriptOp, SessionClient};
use crate::kernel::durability;
use crate::kernel::propagation::PeerCache;
use crate::kernel::telemetry::{ProbeVersions, Probed};
use crate::sink::SharedTrace;
use clocks::{LamportClock, LamportTimestamp, VersionVector};
use kvstore::{Key, MvStore, Value, Wal};
use obs::EventKind;
use simnet::{Actor, Context, Duration, NodeId, OpKind, SimTime, SpanStatus};
use std::collections::BTreeMap;

/// A replicated write with its causal dependencies.
#[derive(Debug, Clone)]
pub struct CausalWrite {
    /// Origin replica.
    pub origin: u64,
    /// Origin-local sequence number (1-based, contiguous per origin).
    pub seq: u64,
    /// Everything the origin had applied *before* this write.
    pub deps: VersionVector,
    /// Key.
    pub key: Key,
    /// Unique write id.
    pub value: u64,
    /// LWW stamp (Lamport order extends causal order).
    pub ts: LamportTimestamp,
    /// Origin wall time (µs).
    pub written_at: u64,
}

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client read (local).
    Get {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
    },
    /// Read response.
    GetResp {
        /// Client op id.
        op_id: u64,
        /// Value if present.
        value: Option<u64>,
        /// Stamp of the version.
        stamp: Option<(u64, u64)>,
        /// Origin write time (µs).
        version_ts: Option<u64>,
    },
    /// Client write (local).
    Put {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
        /// Unique write id.
        value: u64,
    },
    /// Write ack.
    PutResp {
        /// Client op id.
        op_id: u64,
        /// Assigned stamp.
        stamp: (u64, u64),
    },
    /// Replication of a causal write.
    Replicate {
        /// The write and its dependency vector.
        write: CausalWrite,
    },
}

impl simnet::MsgMeta for Msg {
    fn variant_name(&self) -> &'static str {
        match self {
            Msg::Get { .. } => "get",
            Msg::GetResp { .. } => "get_resp",
            Msg::Put { .. } => "put",
            Msg::PutResp { .. } => "put_resp",
            Msg::Replicate { .. } => "replicate",
        }
    }
}

/// A causal replica.
pub struct CausalReplica {
    replicas: usize,
    store: Probed<MvStore>,
    /// Durable log of applied writes. The replication metadata (`applied`,
    /// `versions`, `my_seq`) is modeled as fsynced alongside each append:
    /// rolling the applied vector back after a restart would break
    /// origin-seq contiguity and wedge dependency buffering forever.
    /// Appends go to the log directly (not `durability::log`):
    /// `apply` has no simulator context, so appends here are un-evented —
    /// the WAL metrics contract covers the store protocols' data path.
    wal: Wal,
    clock: LamportClock,
    /// `applied[r]` = how many of replica r's writes have been applied.
    applied: VersionVector,
    /// My own write counter.
    my_seq: u64,
    /// Writes waiting for their dependencies.
    buffer: Vec<CausalWrite>,
    /// `(origin, seq)` of the version currently stored per key, used to
    /// detect concurrent (conflicting) overwrites.
    versions: BTreeMap<Key, (u64, u64)>,
    /// High-water mark of buffered-then-applied writes (metric: how much
    /// delaying causality actually required).
    pub delayed_applies: u64,
    /// Reusable fan-out peer list (membership is fixed for a run).
    peer_cache: PeerCache,
}

impl CausalReplica {
    /// Create a replica for a deployment of `replicas` nodes.
    pub fn new(replicas: usize) -> Self {
        CausalReplica {
            replicas,
            store: Probed::new(MvStore::new()),
            wal: Wal::new(),
            clock: LamportClock::new(),
            applied: VersionVector::new(),
            my_seq: 0,
            buffer: Vec::new(),
            versions: BTreeMap::new(),
            delayed_applies: 0,
            peer_cache: PeerCache::default(),
        }
    }

    fn deps_satisfied(&self, w: &CausalWrite) -> bool {
        // All of the origin's earlier writes, and everything the origin had
        // seen, must be applied here first.
        self.applied.get(w.origin) == w.seq - 1 && self.applied.dominates(&w.deps)
    }

    /// Apply a write; returns `true` if it was concurrent with (and LWW-
    /// resolved against) the version it replaced or lost to.
    fn apply(&mut self, w: &CausalWrite) -> bool {
        // The stored version conflicts iff the incoming write did not
        // causally observe it (it is neither the origin's own earlier
        // write nor covered by the dependency vector).
        let conflict = self
            .versions
            .get(&w.key)
            .is_some_and(|&(o, s)| !(o == w.origin && s < w.seq) && w.deps.get(o) < s);
        self.clock.observe(w.ts, 0);
        if self.store.put(w.key, Value::from_u64(w.value), w.ts, w.written_at) {
            self.wal.append(w.key, Value::from_u64(w.value), w.ts, w.written_at);
            self.versions.insert(w.key, (w.origin, w.seq));
        }
        self.applied.observe(w.origin, w.seq);
        conflict
    }

    /// Apply every buffered write whose dependencies are now satisfied;
    /// returns the keys where an apply LWW-resolved a concurrent write.
    fn drain_buffer(&mut self) -> Vec<Key> {
        let mut conflicted = Vec::new();
        while let Some(pos) = self.buffer.iter().position(|w| self.deps_satisfied(w)) {
            let w = self.buffer.swap_remove(pos);
            if self.apply(&w) {
                conflicted.push(w.key);
            }
            self.delayed_applies += 1;
        }
        conflicted
    }

    /// Record one detected-and-LWW-resolved conflict on `key`.
    fn record_conflict(ctx: &mut Context<Msg>, key: Key) {
        let node = ctx.self_id().0 as u64;
        ctx.record(EventKind::ConflictDetected { node, key, siblings: 2 });
        ctx.record(EventKind::ConflictResolved { node, key, survivors: 1 });
    }
}

impl Actor<Msg> for CausalReplica {
    fn role(&self) -> &'static str {
        "replica"
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>, amnesia: bool) {
        if !amnesia {
            return;
        }
        // Rebuild the store and clock from the WAL; `applied`, `versions`,
        // and `my_seq` are durable (see the `wal` field). The dependency
        // buffer is volatile: buffered writes were never acknowledged or
        // counted in `applied`, so dropping them leaves the replica
        // causally closed — it merely loses un-applied remote writes,
        // which this protocol (no anti-entropy) also loses to a partition.
        self.buffer.clear();
        self.store.replace(durability::replay(&self.wal, ctx, None, Some(&mut self.clock)));
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let me = ctx.self_id();
        match msg {
            Msg::Get { op_id, key } => {
                let span = ctx.span_open("replica_read");
                let v = self.store.get(key);
                ctx.send(
                    from,
                    Msg::GetResp {
                        op_id,
                        value: v.and_then(|x| x.value.as_u64()),
                        stamp: v.map(|x| (x.ts.counter, x.ts.actor)),
                        version_ts: v.map(|x| x.written_at),
                    },
                );
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::Put { op_id, key, value } => {
                let span = ctx.span_open("replica_write");
                let deps = self.applied.clone();
                self.my_seq += 1;
                let ts = self.clock.tick(me.0 as u64);
                let w = CausalWrite {
                    origin: me.0 as u64,
                    seq: self.my_seq,
                    deps,
                    key,
                    value,
                    ts,
                    written_at: ctx.now().as_micros(),
                };
                self.apply(&w);
                ctx.send(from, Msg::PutResp { op_id, stamp: (ts.counter, ts.actor) });
                // Replicate fan-out still inside the replica span, so the
                // propagation hops belong to the write's span tree. The
                // write (and its dependency vector) moves into the last
                // send instead of a clone — this is the write hot path.
                let all_peers = self.peer_cache.take(self.replicas, me);
                if let Some((&last, rest)) = all_peers.split_last() {
                    for &peer in rest {
                        ctx.send(peer, Msg::Replicate { write: w.clone() });
                    }
                    ctx.send(last, Msg::Replicate { write: w });
                }
                self.peer_cache.restore(all_peers);
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::Replicate { write } => {
                if self.applied.get(write.origin) >= write.seq {
                    return; // duplicate
                }
                let span = ctx.span_open("replicate_apply");
                if self.deps_satisfied(&write) {
                    let key = write.key;
                    if self.apply(&write) {
                        Self::record_conflict(ctx, key);
                    }
                    for k in self.drain_buffer() {
                        Self::record_conflict(ctx, k);
                    }
                } else {
                    self.buffer.push(write);
                }
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::GetResp { .. } | Msg::PutResp { .. } => {}
        }
    }

    fn key_versions(&self) -> Vec<(u64, u64)> {
        self.store.key_versions()
    }

    fn drain_changed_versions(&mut self, sink: &mut dyn FnMut(u64, Option<u64>)) {
        self.store.drain_changed_versions(sink);
    }
}

/// The causal protocol as a client speaks it: everything at `home`.
pub struct CausalSession {
    home: NodeId,
}

/// A sticky client for the causal protocol.
pub type CausalClient = SessionClient<CausalSession>;

impl CausalClient {
    /// Create a client attached to `home`.
    pub fn new(session: u64, script: Vec<ScriptOp>, trace: SharedTrace, home: NodeId) -> Self {
        SessionClient::with_protocol(session, script, trace, CausalSession { home })
    }
}

impl ClientProtocol for CausalSession {
    type Msg = Msg;
    const OP_TIMEOUT: Duration = Duration::from_millis(500);

    fn target(&mut self, _ctx: &mut Context<Msg>) -> NodeId {
        self.home
    }

    fn request(&self, op: IssueOp) -> Msg {
        match op.kind {
            OpKind::Read => Msg::Get { op_id: op.op_id, key: op.key },
            OpKind::Write => Msg::Put {
                op_id: op.op_id,
                key: op.key,
                value: op.value.expect("write without value"),
            },
        }
    }

    fn on_reply(
        &mut self,
        _ctx: &mut Context<Msg>,
        _from: NodeId,
        msg: Msg,
        _in_flight: Option<IssueOp>,
    ) -> Reply {
        match msg {
            Msg::GetResp { op_id, value, stamp, version_ts } => Reply::Done(
                op_id,
                OpOutcome {
                    ok: true,
                    values: value.into_iter().collect(),
                    stamp,
                    version_ts: version_ts.map(SimTime::from_micros),
                },
            ),
            Msg::PutResp { op_id, stamp } => Reply::Done(
                op_id,
                OpOutcome { ok: true, values: vec![], stamp: Some(stamp), version_ts: None },
            ),
            _ => Reply::Ignore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::unique_value;
    use crate::sink;
    use simnet::{LatencyModel, Sim, SimConfig};

    /// Recorded message `bytes` are `size_of::<Msg>()` (see
    /// `docs/METRICS.md`), so the enum's size is part of every pinned
    /// event log.
    #[test]
    fn msg_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Msg>(), 88);
    }

    fn build(replicas: usize, clients: Vec<CausalClient>, seed: u64) -> Sim<Msg> {
        let mut sim = Sim::new(SimConfig::default().seed(seed).latency(LatencyModel::Uniform {
            min: Duration::from_millis(2),
            max: Duration::from_millis(40),
        }));
        for _ in 0..replicas {
            sim.add_node(Box::new(CausalReplica::new(replicas)));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    #[test]
    fn local_write_read_cycle() {
        let trace = sink::shared_trace();
        let c = CausalClient::new(
            1,
            vec![
                ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: 1 },
                ScriptOp { gap_us: 1_000, kind: OpKind::Read, key: 1 },
            ],
            trace.clone(),
            NodeId(0),
        );
        let mut sim = build(3, vec![c], 1);
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].value_read, vec![unique_value(1, 1)]);
    }

    #[test]
    fn dependency_delays_out_of_order_delivery() {
        // Unit-level: a write with seq 2 from origin 0 arriving before
        // seq 1 must be buffered, then both applied in order.
        let mut r = CausalReplica::new(2);
        let w1 = CausalWrite {
            origin: 0,
            seq: 1,
            deps: VersionVector::new(),
            key: 1,
            value: 10,
            ts: LamportTimestamp::new(1, 0),
            written_at: 0,
        };
        let mut deps2 = VersionVector::new();
        deps2.observe(0, 1);
        let w2 = CausalWrite {
            origin: 0,
            seq: 2,
            deps: deps2,
            key: 1,
            value: 20,
            ts: LamportTimestamp::new(2, 0),
            written_at: 0,
        };
        assert!(!r.deps_satisfied(&w2));
        r.buffer.push(w2);
        assert!(r.deps_satisfied(&w1));
        r.apply(&w1);
        r.drain_buffer();
        assert_eq!(r.applied.get(0), 2);
        assert_eq!(r.store.get(1).unwrap().value.as_u64(), Some(20));
        assert_eq!(r.delayed_applies, 1);
    }

    #[test]
    fn cross_key_causality_preserved() {
        // The COPS photo-ACL anomaly: session A writes k1 then k2 at
        // replica 0; replica 1's client reading k2's new value must also
        // see k1's new value (replication of k2 depends on k1).
        // With random latencies this is exactly what dependency buffering
        // guarantees; run many sessions and check the invariant on the
        // trace directly.
        let trace = sink::shared_trace();
        let writer = CausalClient::new(
            1,
            vec![
                ScriptOp { gap_us: 10_000, kind: OpKind::Write, key: 1 },
                ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: 2 },
            ],
            trace.clone(),
            NodeId(0),
        );
        // Readers at replica 1 poll k2 then k1 in tight loops.
        let mut reader_script = Vec::new();
        for _ in 0..30 {
            reader_script.push(ScriptOp { gap_us: 3_000, kind: OpKind::Read, key: 2 });
            reader_script.push(ScriptOp { gap_us: 100, kind: OpKind::Read, key: 1 });
        }
        let reader = CausalClient::new(2, reader_script, trace.clone(), NodeId(1));
        let mut sim = build(2, vec![writer, reader], 7);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        let v_k1 = unique_value(1, 1);
        let v_k2 = unique_value(1, 2);
        // Scan reader's ops in order: once k2's new value is visible, the
        // *next* read of k1 must return k1's new value.
        let mut saw_k2 = false;
        for r in t.records().iter().filter(|r| r.session == 2) {
            if r.key == 2 && r.value_read == vec![v_k2] {
                saw_k2 = true;
            }
            if saw_k2 && r.key == 1 {
                assert_eq!(
                    r.value_read,
                    vec![v_k1],
                    "causal anomaly: saw k2's write but not its dependency k1"
                );
            }
        }
        assert!(saw_k2, "test vacuous: k2's write never observed");
    }

    #[test]
    fn replicas_converge_after_quiescence() {
        let trace = sink::shared_trace();
        let mut clients = Vec::new();
        for s in 1..=3u64 {
            let script: Vec<ScriptOp> = (0..10)
                .map(|i| ScriptOp { gap_us: 2_000, kind: OpKind::Write, key: i % 4 })
                .collect();
            clients.push(CausalClient::new(s, script, trace.clone(), NodeId(s as u32 - 1)));
        }
        // Late readers at every replica for every key must agree.
        for (s, home) in [(10u64, 0u32), (11, 1), (12, 2)] {
            let script: Vec<ScriptOp> =
                (0..4).map(|k| ScriptOp { gap_us: 800_000, kind: OpKind::Read, key: k }).collect();
            clients.push(CausalClient::new(s, script, trace.clone(), NodeId(home)));
        }
        let mut sim = build(3, clients, 9);
        sim.run_until(SimTime::from_secs(10));
        let t = trace.borrow();
        for key in 0..4u64 {
            let mut per_reader: Vec<Vec<u64>> = Vec::new();
            for s in 10..=12u64 {
                let vals: Vec<u64> = t
                    .records()
                    .iter()
                    .filter(|r| r.session == s && r.key == key && r.kind == OpKind::Read)
                    .flat_map(|r| r.value_read.clone())
                    .collect();
                per_reader.push(vals);
            }
            assert_eq!(per_reader[0], per_reader[1], "key {key} diverged (0 vs 1)");
            assert_eq!(per_reader[1], per_reader[2], "key {key} diverged (1 vs 2)");
        }
    }
}
