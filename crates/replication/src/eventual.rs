//! Asynchronous multi-master replication ("eventual consistency proper").
//!
//! Every replica accepts reads and writes locally and propagates updates
//! by eager one-way broadcast ([`PropagationPolicy::EagerBroadcast`])
//! and/or periodic push-pull anti-entropy gossip
//! ([`PropagationPolicy::AntiEntropyGossip`]). This is the kernel's
//! multi-master replica: storage and merges come from
//! [`crate::kernel::resolution::ResolvingStore`], crash behaviour from
//! [`crate::kernel::durability`], and gossip/ack mechanics from
//! [`crate::kernel::propagation`]. An anti-entropy exchange is three
//! messages — `SyncReq` (the initiator's digest), `SyncResp` (what the
//! responder has beyond it, plus its own digest), `SyncPush` (the
//! reverse fill, when there is one) — and ships snapshots, not copies:
//! digests and counter state are shared by reference count, and what a
//! receiver does with them follows what differs, not what was shipped
//! (see [`crate::kernel::resolution`]). Conflicts are resolved by the
//! composition's [`ResolutionPolicy`] (named by a [`ConflictMode`] in
//! the `Scheme::Eventual` preset):
//!
//! * [`ResolutionPolicy::LwwRegister`] — last-writer-wins on Lamport
//!   stamps (loses one of two concurrent writes; experiment E6 counts
//!   how many).
//! * [`ResolutionPolicy::VersionVectorSiblings`] — dotted-version-vector
//!   siblings exposed to the client (the Dynamo model).
//! * [`ResolutionPolicy::CrdtMerge`] — values are PN-counters merged as
//!   CRDTs (writes are increments; nothing is ever lost).
//!
//! Two more axes of the [`Composition`] apply: `EagerBroadcast::acks`
//! withholds the client ack until that many peers confirm durable
//! application (a synchronous flavour of update-anywhere), and the
//! [`DurabilityPolicy`] chooses what an amnesia crash erases (`WalReplay`
//! persists exactly the adopted LWW versions; `FsyncedState` keeps
//! everything).
//!
//! Clients are scripted sessions ([`EventualClient`]) that can enforce the
//! four Bayou session guarantees client-side (see
//! [`crate::common::Guarantees`]): read floors with bounded retries for
//! RYW/MR, Lamport-stamp piggybacking for MW/WFR.

use crate::common::{
    ClientProtocol, Guarantees, IssueOp, OpOutcome, Reply, ScriptOp, SessionClient, TargetPolicy,
};
use crate::kernel::durability::{self, DurabilityPolicy};
use crate::kernel::propagation::{AckTracker, Gossip, PeerCache, PropagationPolicy};
use crate::kernel::resolution::{
    Digest, DigestCache, Items, JoinedSnapshots, ResolutionPolicy, ResolvingStore, WriteEffect,
};
use crate::kernel::telemetry::{ProbeVersions, Probed};
use crate::kernel::Composition;
use crate::sink::SharedTrace;
use clocks::{LamportClock, LamportTimestamp, VersionVector};
use kvstore::{Key, Wal};
use obs::EventKind;
use simnet::{Actor, Context, Duration, NodeId, OpKind, SimTime, SpanStatus};
use std::collections::BTreeMap;

pub use crate::kernel::propagation::GossipConfig;
pub use crate::kernel::resolution::{ConflictMode, Item};

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client read request.
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
        /// Observed values (unique write ids); empty if key absent.
        values: Vec<u64>,
        /// Max stamp across returned versions (LWW/sibling modes).
        stamp: Option<(u64, u64)>,
        /// Origin write time of the newest returned version (µs).
        version_ts: Option<u64>,
        /// Causal context (sibling mode; empty otherwise).
        ctx: VersionVector,
    },
    /// Client write request.
    Put {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
        /// Unique write id (or increment amount in counter mode).
        value: u64,
        /// Highest stamp the session has observed (MW/WFR piggyback).
        observed: (u64, u64),
        /// Client causal context (sibling mode).
        ctx: VersionVector,
    },
    /// Write acknowledgement.
    PutResp {
        /// Client op id.
        op_id: u64,
        /// Stamp the replica assigned.
        stamp: (u64, u64),
    },
    /// Eager asynchronous replication of fresh writes.
    Replicate {
        /// Items to apply.
        items: Items,
        /// When set, the receiver confirms durable application with a
        /// [`Msg::ReplicateAck`] carrying this request id (the
        /// eager-acked composition; `None` is fire-and-forget).
        ack: Option<u64>,
    },
    /// Durable-application confirmation for an acked [`Msg::Replicate`].
    ReplicateAck {
        /// The originator's request id.
        req: u64,
    },
    /// Gossip round 1: the initiator's digest.
    SyncReq {
        /// `(key, latest stamp)` for LWW; `(key, context summary)` is
        /// carried via `vv_digest` for sibling mode.
        digest: Digest<LamportTimestamp>,
        /// Sibling-mode digest: per-key joint event sets.
        vv_digest: Digest<VersionVector>,
    },
    /// Gossip round 2: items the responder has that the initiator lacks,
    /// plus the responder's digest for the reverse fill.
    SyncResp {
        /// Items newer at the responder.
        items: Items,
        /// Responder's digest.
        digest: Digest<LamportTimestamp>,
        /// Responder's sibling-mode digest.
        vv_digest: Digest<VersionVector>,
    },
    /// Gossip round 3: reverse fill.
    SyncPush {
        /// Items newer at the initiator.
        items: Items,
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
            Msg::ReplicateAck { .. } => "replicate_ack",
            Msg::SyncReq { .. } => "sync_req",
            Msg::SyncResp { .. } => "sync_resp",
            Msg::SyncPush { .. } => "sync_push",
        }
    }
}

const TAG_GOSSIP: u64 = 1;

/// A write awaiting peer acks before the client is acknowledged
/// (volatile coordination state: an amnesia crash drops it and the
/// client times out).
#[derive(Debug)]
struct PendingWrite {
    client: NodeId,
    op_id: u64,
    stamp: (u64, u64),
    tracker: AckTracker,
}

/// A replica actor.
pub struct EventualReplica {
    replicas: usize,
    /// Eagerly broadcast each write to all peers.
    eager: bool,
    /// Peer acks required before the client's write is acknowledged
    /// (only with `eager`; 0 = fire-and-forget).
    eager_acks: usize,
    /// Periodic anti-entropy; `None` disables gossip.
    gossip: Option<GossipConfig>,
    /// What survives an amnesia crash. Under `WalReplay` adopted LWW
    /// versions are logged and replayed; sibling and counter state is
    /// modeled volatile (anti-entropy refills it from peers).
    durability: DurabilityPolicy,
    store: Probed<ResolvingStore>,
    /// The store's anti-entropy digests and, for counters, its state
    /// snapshot, kept while the store's generation stands.
    digests: DigestCache,
    /// The state snapshots the store has joined already, by sender.
    joined: JoinedSnapshots,
    /// Durable log of adopted LWW versions; replayed on amnesia restart
    /// under [`DurabilityPolicy::WalReplay`].
    wal: Wal,
    clock: LamportClock,
    /// Eager-acked writes awaiting their peer quorum.
    pending: BTreeMap<u64, PendingWrite>,
    next_req: u64,
    /// Reusable fan-out peer list (membership is fixed for a run).
    peer_cache: PeerCache,
}

impl EventualReplica {
    /// Create a replica of a multi-master `EagerBroadcast` or
    /// `AntiEntropyGossip` composition (its node id is assigned by the
    /// simulator; the replica learns it from the context on first
    /// callback).
    pub fn new(comp: &Composition) -> Self {
        let (eager, eager_acks, gossip) = match comp.propagation {
            PropagationPolicy::EagerBroadcast { acks, gossip } => (true, acks, gossip),
            PropagationPolicy::AntiEntropyGossip(g) => (false, 0, Some(g)),
            _ => panic!("{} is not an eager/gossip multi-master composition", comp.label()),
        };
        EventualReplica {
            replicas: comp.replicas,
            eager,
            eager_acks,
            gossip,
            durability: comp.durability,
            store: Probed::new(ResolvingStore::new(comp.resolution)),
            digests: DigestCache::default(),
            joined: JoinedSnapshots::default(),
            wal: Wal::new(),
            clock: LamportClock::new(),
            pending: BTreeMap::new(),
            next_req: 1,
            peer_cache: PeerCache::default(),
        }
    }

    /// Whether adopted LWW versions go to the WAL under the configured
    /// durability policy.
    fn wal_enabled(&self) -> bool {
        matches!(self.durability, DurabilityPolicy::WalReplay | DurabilityPolicy::CheckpointedWal)
    }

    fn gossip(&self) -> Option<Gossip> {
        self.gossip.map(|g| Gossip::new(g, TAG_GOSSIP))
    }

    /// Log and record a local write's durable/observable effect.
    fn apply_effect(&mut self, ctx: &mut Context<Msg>, effect: WriteEffect) {
        let node = ctx.self_id().0 as u64;
        match effect {
            WriteEffect::Adopted { key, value, ts, written_at } => {
                if self.wal_enabled() {
                    durability::log(&mut self.wal, ctx, key, value, ts, written_at);
                }
            }
            WriteEffect::SiblingConflict { key, siblings } => {
                ctx.record(EventKind::ConflictDetected { node, key, siblings });
            }
            WriteEffect::SiblingResolved { key } => {
                ctx.record(EventKind::ConflictResolved { node, key, survivors: 1 });
            }
            WriteEffect::None => {}
        }
    }

    /// Apply what `from` shipped and log whatever the WAL must capture;
    /// returns the keys left with concurrent siblings.
    fn apply_and_log(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        items: &Items,
    ) -> Vec<(Key, u64)> {
        let out = self.joined.apply(&mut self.store, from, items, &mut self.clock);
        if self.wal_enabled() {
            for (key, value, ts, written_at) in out.adopted {
                durability::log(&mut self.wal, ctx, key, value, ts, written_at);
            }
        }
        out.conflicts
    }

    /// Record one [`EventKind::ConflictDetected`] per conflicted key.
    fn record_conflicts(ctx: &mut Context<Msg>, conflicts: Vec<(Key, u64)>) {
        let node = ctx.self_id().0 as u64;
        for (key, siblings) in conflicts {
            ctx.record(EventKind::ConflictDetected { node, key, siblings });
        }
    }

    fn handle_get(&mut self, ctx: &mut Context<Msg>, from: NodeId, op_id: u64, key: Key) {
        let span = ctx.span_open("replica_read");
        let view = self.store.read(key);
        ctx.send(
            from,
            Msg::GetResp {
                op_id,
                values: view.values,
                stamp: view.stamp,
                version_ts: view.version_ts,
                ctx: view.ctx,
            },
        );
        ctx.span_close(span, SpanStatus::Ok);
    }

    #[allow(clippy::too_many_arguments)] // one parameter per wire field
    fn handle_put(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        op_id: u64,
        key: Key,
        value: u64,
        observed: (u64, u64),
        client_ctx: VersionVector,
    ) {
        let me = ctx.self_id();
        let span = ctx.span_open("replica_write");
        let now_us = ctx.now().as_micros();
        let out =
            self.store.write_local(me, key, value, observed, &client_ctx, now_us, &mut self.clock);
        self.apply_effect(ctx, out.effect);
        let items = Items::Built(out.items);
        let all_peers = self.peer_cache.take(self.replicas, me);
        let need = if self.eager { self.eager_acks.min(all_peers.len()) } else { 0 };
        if need == 0 {
            ctx.send(from, Msg::PutResp { op_id, stamp: out.stamp });
            if self.eager {
                // Still inside the replica span, so the eager fan-out is
                // part of the write's span tree. The last peer takes the
                // item buffer itself instead of a clone — this fan-out is
                // the write hot path.
                if let Some((&last, rest)) = all_peers.split_last() {
                    for &p in rest {
                        ctx.send(p, Msg::Replicate { items: items.clone(), ack: None });
                    }
                    ctx.send(last, Msg::Replicate { items, ack: None });
                }
            }
        } else {
            // Eager-acked composition: the client ack waits for `need`
            // peers to confirm durable application.
            let req = self.next_req;
            self.next_req += 1;
            self.pending.insert(
                req,
                PendingWrite {
                    client: from,
                    op_id,
                    stamp: out.stamp,
                    tracker: AckTracker::new(need),
                },
            );
            // As above: move the buffer into the final send.
            if let Some((&last, rest)) = all_peers.split_last() {
                for &p in rest {
                    ctx.send(p, Msg::Replicate { items: items.clone(), ack: Some(req) });
                }
                ctx.send(last, Msg::Replicate { items, ack: Some(req) });
            }
        }
        self.peer_cache.restore(all_peers);
        ctx.span_close(span, SpanStatus::Ok);
    }

    fn start_gossip_round(&mut self, ctx: &mut Context<Msg>) {
        let me = ctx.self_id();
        let all_peers = self.peer_cache.take(self.replicas, me);
        if all_peers.is_empty() {
            self.peer_cache.restore(all_peers);
            return;
        }
        let gossip = self.gossip().expect("gossip round without gossip config");
        let fanout = gossip.cfg.fanout.min(all_peers.len());
        ctx.record(EventKind::AntiEntropyRound { node: me.0 as u64, fanout: fanout as u64 });
        // One snapshot for the whole fan-out: a target costs two
        // reference counts.
        let (digest, vv_digest) = self.digests.get(&self.store);
        for target in gossip.choose_targets(ctx, &all_peers) {
            ctx.send(target, Msg::SyncReq { digest: digest.clone(), vv_digest: vv_digest.clone() });
        }
        self.peer_cache.restore(all_peers);
    }
}

impl Actor<Msg> for EventualReplica {
    fn role(&self) -> &'static str {
        "replica"
    }

    fn key_versions(&self) -> Vec<(u64, u64)> {
        self.store.key_versions()
    }

    fn drain_changed_versions(&mut self, sink: &mut dyn FnMut(u64, Option<u64>)) {
        self.store.drain_changed_versions(sink);
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        if let Some(g) = self.gossip() {
            // Desynchronize replicas' rounds.
            g.arm_jittered(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, tag: u64) {
        if tag == TAG_GOSSIP {
            if let Some(g) = self.gossip() {
                self.start_gossip_round(ctx);
                g.rearm(ctx);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>, amnesia: bool) {
        if amnesia {
            // In-flight ack coordination is always volatile: affected
            // clients time out and retry.
            self.pending.clear();
            match self.durability {
                // Everything applied was fsynced before acknowledgement;
                // the store survives as-is.
                DurabilityPolicy::FsyncedState => {}
                DurabilityPolicy::WalReplay | DurabilityPolicy::CheckpointedWal => {
                    match self.store.policy() {
                        // LWW versions are durable: rebuild store and
                        // clock from the WAL.
                        ResolutionPolicy::LwwRegister => {
                            self.store.replace(ResolvingStore::Lww(durability::replay(
                                &self.wal,
                                ctx,
                                None,
                                Some(&mut self.clock),
                            )));
                        }
                        // Sibling and counter state is modeled volatile:
                        // the replica restarts empty and anti-entropy
                        // refills it from peers — the convergence path
                        // the protocol already has.
                        ResolutionPolicy::VersionVectorSiblings | ResolutionPolicy::CrdtMerge => {
                            self.store.reset()
                        }
                    }
                }
                DurabilityPolicy::Volatile => self.store.reset(),
            }
        }
        // A gossip timer that came due during the outage was discarded,
        // which ends the chain; re-arm it with the same jitter `on_start`
        // uses. (One due after the recovery still fires — see
        // `Actor::on_recover`.)
        if let Some(g) = self.gossip() {
            g.arm_jittered(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Get { op_id, key } => self.handle_get(ctx, from, op_id, key),
            Msg::Put { op_id, key, value, observed, ctx: client_ctx } => {
                self.handle_put(ctx, from, op_id, key, value, observed, client_ctx)
            }
            Msg::Replicate { items, ack } => {
                // Traced when the originating write was (envelope context);
                // inert for untraced background traffic.
                let span = ctx.span_open("replicate_apply");
                let conflicts = self.apply_and_log(ctx, from, &items);
                Self::record_conflicts(ctx, conflicts);
                if let Some(req) = ack {
                    // The WAL append above is the durable point; confirm.
                    ctx.send(from, Msg::ReplicateAck { req });
                }
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::ReplicateAck { req } => {
                if let Some(p) = self.pending.get_mut(&req) {
                    if p.tracker.ack(from) {
                        let p = self.pending.remove(&req).expect("pending entry exists");
                        ctx.send(p.client, Msg::PutResp { op_id: p.op_id, stamp: p.stamp });
                    }
                }
            }
            Msg::SyncReq { digest, vv_digest } => {
                // The answer carries this generation's digest anyway; taken
                // first, it is also what the join reads.
                let (my_digest, my_vv) = self.digests.get(&self.store);
                let items = self.digests.missing_at_remote(&self.store, from, &digest, &vv_digest);
                ctx.send(from, Msg::SyncResp { items, digest: my_digest, vv_digest: my_vv });
            }
            Msg::SyncResp { items, digest, vv_digest } => {
                let conflicts = self.apply_and_log(ctx, from, &items);
                Self::record_conflicts(ctx, conflicts);
                let back = self.digests.missing_at_remote(&self.store, from, &digest, &vv_digest);
                if !back.is_empty() {
                    ctx.send(from, Msg::SyncPush { items: back });
                }
            }
            Msg::SyncPush { items } => {
                let conflicts = self.apply_and_log(ctx, from, &items);
                Self::record_conflicts(ctx, conflicts);
            }
            // Responses are client-side messages; a replica ignores them.
            Msg::GetResp { .. } | Msg::PutResp { .. } => {}
        }
    }
}

const TAG_RETRY: u64 = 2;
/// Bounded retries per read for guarantee enforcement.
const MAX_RETRIES: u32 = 20;

/// The eventual protocol as a client speaks it: read floors with bounded
/// retries for RYW/MR, Lamport-stamp piggybacking for MW/WFR, per-key
/// causal contexts in sibling mode.
pub struct EventualSession {
    replicas: usize,
    policy: TargetPolicy,
    guarantees: Guarantees,
    resolution: ResolutionPolicy,
    /// Per-key stamp floors for RYW/MR retries.
    floors: BTreeMap<Key, (u64, u64)>,
    /// Highest stamp observed (MW/WFR piggyback).
    observed: (u64, u64),
    /// Per-key causal contexts (sibling mode).
    contexts: BTreeMap<Key, VersionVector>,
}

/// A scripted client session for the eventual protocol.
pub type EventualClient = SessionClient<EventualSession>;

impl EventualClient {
    /// Create a client session of the deployment `comp` describes.
    pub fn new(
        session: u64,
        script: Vec<ScriptOp>,
        trace: SharedTrace,
        comp: &Composition,
        policy: TargetPolicy,
        guarantees: Guarantees,
    ) -> Self {
        SessionClient::with_protocol(
            session,
            script,
            trace,
            EventualSession {
                replicas: comp.replicas,
                policy,
                guarantees,
                resolution: comp.resolution,
                floors: BTreeMap::new(),
                observed: (0, 0),
                contexts: BTreeMap::new(),
            },
        )
    }
}

impl EventualSession {
    /// Does `stamp` satisfy the session's floor for `key`?
    fn floor_met(&self, key: Key, stamp: Option<(u64, u64)>) -> bool {
        match self.floors.get(&key) {
            None => true,
            Some(&floor) => stamp.map(|s| s >= floor).unwrap_or(false),
        }
    }
}

impl ClientProtocol for EventualSession {
    type Msg = Msg;
    const OP_TIMEOUT: Duration = Duration::from_millis(500);

    fn target(&mut self, ctx: &mut Context<Msg>) -> NodeId {
        self.policy.pick(ctx, self.replicas)
    }

    fn request(&self, op: IssueOp) -> Msg {
        match op.kind {
            OpKind::Read => Msg::Get { op_id: op.op_id, key: op.key },
            OpKind::Write => Msg::Put {
                op_id: op.op_id,
                key: op.key,
                value: op.value.expect("write without value"),
                observed: self.observed,
                ctx: self.contexts.get(&op.key).cloned().unwrap_or_default(),
            },
        }
    }

    fn on_timer(
        &mut self,
        ctx: &mut Context<Msg>,
        tag: u64,
        _in_flight: Option<IssueOp>,
    ) -> Option<NodeId> {
        (tag == TAG_RETRY).then(|| self.target(ctx))
    }

    fn on_reply(
        &mut self,
        ctx: &mut Context<Msg>,
        _from: NodeId,
        msg: Msg,
        in_flight: Option<IssueOp>,
    ) -> Reply {
        // A response for anything but the operation in flight is late
        // (that operation timed out).
        let pending = |op_id| in_flight.filter(|p| p.op_id == op_id);
        match msg {
            Msg::GetResp { op_id, values, stamp, version_ts, ctx: read_ctx } => {
                let Some(IssueOp { key, retries, .. }) = pending(op_id) else {
                    return Reply::Ignore;
                };
                // Guarantee enforcement: retry while below the floor.
                if self.guarantees.any_read_guarantee()
                    && self.resolution == ResolutionPolicy::LwwRegister
                    && !self.floor_met(key, stamp)
                    && retries < MAX_RETRIES
                {
                    ctx.set_timer(Duration::from_millis(2), TAG_RETRY);
                    return Reply::Ignore;
                }
                if self.resolution == ResolutionPolicy::VersionVectorSiblings {
                    self.contexts.insert(key, read_ctx);
                }
                if let Some(s) = stamp {
                    if self.guarantees.monotonic_reads {
                        let f = self.floors.entry(key).or_insert((0, 0));
                        *f = (*f).max(s);
                    }
                    if self.guarantees.writes_follow_reads {
                        self.observed = self.observed.max(s);
                    }
                }
                let version_ts = version_ts.map(SimTime::from_micros);
                Reply::Done(op_id, OpOutcome { ok: true, values, stamp, version_ts })
            }
            Msg::PutResp { op_id, stamp } => {
                let Some(IssueOp { key, .. }) = pending(op_id) else {
                    return Reply::Ignore;
                };
                if self.guarantees.read_your_writes {
                    let f = self.floors.entry(key).or_insert((0, 0));
                    *f = (*f).max(stamp);
                }
                if self.guarantees.monotonic_writes {
                    self.observed = self.observed.max(stamp);
                }
                Reply::Done(
                    op_id,
                    OpOutcome { ok: true, values: vec![], stamp: Some(stamp), version_ts: None },
                )
            }
            _ => Reply::Ignore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::unique_value;
    use crate::kernel::ResolutionPolicy;
    use crate::sink;
    use simnet::{FaultSchedule, LatencyModel, Sim, SimConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Recorded message `bytes` are `size_of::<Msg>()` (see
    /// `docs/METRICS.md`), so the enum's size is part of every pinned
    /// event log.
    #[test]
    fn msg_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Msg>(), 96);
    }

    fn build_sim(cfg: &Composition, clients: Vec<EventualClient>, seed: u64) -> Sim<Msg> {
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(5))),
        );
        for _ in 0..cfg.replicas {
            sim.add_node(Box::new(EventualReplica::new(cfg)));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    fn script(ops: &[(OpKind, Key)]) -> Vec<ScriptOp> {
        ops.iter().map(|&(kind, key)| ScriptOp { gap_us: 1_000, kind, key }).collect()
    }

    #[test]
    fn write_then_read_same_replica() {
        let trace = sink::shared_trace();
        let cfg = Composition::eventual_lww(3);
        let client = EventualClient::new(
            1,
            script(&[(OpKind::Write, 7), (OpKind::Read, 7)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let mut sim = build_sim(&cfg, vec![client], 1);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        assert_eq!(t.len(), 2);
        let read = &t.records()[1];
        assert!(read.ok);
        assert_eq!(read.value_read, vec![unique_value(1, 1)]);
        assert!(read.stamp.is_some());
    }

    #[test]
    fn eager_broadcast_converges_replicas() {
        // Eager-only (no gossip): a write at replica 0 must be readable at
        // every other replica shortly after one network delay.
        let trace = sink::shared_trace();
        let cfg = Composition::eventual(3, true, None, ResolutionPolicy::LwwRegister);
        let writer = EventualClient::new(
            1,
            script(&[(OpKind::Write, 1)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let mut clients = vec![writer];
        for (s, replica) in [(2u64, 1u32), (3, 2)] {
            clients.push(EventualClient::new(
                s,
                vec![ScriptOp { gap_us: 100_000, kind: OpKind::Read, key: 1 }],
                trace.clone(),
                &cfg,
                TargetPolicy::Sticky(NodeId(replica)),
                Guarantees::none(),
            ));
        }
        let mut sim = build_sim(&cfg, clients, 2);
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let reads: Vec<_> = t.records().iter().filter(|r| r.kind == OpKind::Read).collect();
        assert_eq!(reads.len(), 2);
        for r in reads {
            assert_eq!(
                r.value_read,
                vec![unique_value(1, 1)],
                "replica {} did not receive the eager broadcast",
                r.replica
            );
        }
    }

    #[test]
    fn gossip_propagates_without_eager() {
        let trace = sink::shared_trace();
        let gossip = GossipConfig { interval: Duration::from_millis(20), fanout: 2 };
        let cfg = Composition::eventual(3, false, Some(gossip), ResolutionPolicy::LwwRegister);
        // Writer writes at replica 0; reader reads key at replica 2 after
        // plenty of gossip rounds.
        let writer = EventualClient::new(
            1,
            script(&[(OpKind::Write, 5)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let mut reader_script = vec![ScriptOp { gap_us: 500_000, kind: OpKind::Read, key: 5 }];
        reader_script.push(ScriptOp { gap_us: 1_000, kind: OpKind::Read, key: 5 });
        let reader = EventualClient::new(
            2,
            reader_script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(2)),
            Guarantees::none(),
        );
        let mut sim = build_sim(&cfg, vec![writer, reader], 3);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        let reads: Vec<_> = t.records().iter().filter(|r| r.kind == OpKind::Read).collect();
        assert_eq!(reads.len(), 2);
        assert_eq!(
            reads[0].value_read,
            vec![unique_value(1, 1)],
            "gossip must have propagated the write within 500ms"
        );
    }

    #[test]
    fn floor_mechanism() {
        // Unit-level check of the RYW/MR floor predicate.
        let mut c = EventualSession {
            replicas: 2,
            policy: TargetPolicy::Sticky(NodeId(0)),
            guarantees: Guarantees::all(),
            resolution: ResolutionPolicy::LwwRegister,
            floors: BTreeMap::new(),
            observed: (0, 0),
            contexts: BTreeMap::new(),
        };
        assert!(c.floor_met(1, None));
        c.floors.insert(1, (5, 0));
        assert!(!c.floor_met(1, Some((4, 9))));
        assert!(c.floor_met(1, Some((5, 0))));
        assert!(c.floor_met(1, Some((6, 0))));
        assert!(!c.floor_met(1, None));
    }

    #[test]
    fn ryw_enforcement_retries_until_fresh() {
        // A session with Random targets writes then reads many times with
        // gossip-only propagation. With RYW on, every read that follows a
        // write of the same key must return a stamp >= the write's stamp.
        let trace = sink::shared_trace();
        let gossip = GossipConfig { interval: Duration::from_millis(10), fanout: 1 };
        let cfg = Composition::eventual(3, false, Some(gossip), ResolutionPolicy::LwwRegister);
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push((OpKind::Write, 7));
            ops.push((OpKind::Read, 7));
        }
        let client = EventualClient::new(
            1,
            script(&ops),
            trace.clone(),
            &cfg,
            TargetPolicy::Random,
            Guarantees { read_your_writes: true, ..Guarantees::none() },
        );
        let mut sim = build_sim(&cfg, vec![client], 11);
        sim.run_until(SimTime::from_secs(10));
        let t = trace.borrow();
        assert_eq!(t.len(), 20, "all ops completed");
        let mut last_write_stamp: Option<(u64, u64)> = None;
        for r in t.records() {
            match r.kind {
                OpKind::Write => last_write_stamp = r.stamp,
                OpKind::Read => {
                    if let Some(w) = last_write_stamp {
                        let s = r.stamp.expect("read returned a stamp");
                        assert!(s >= w, "RYW violated: read {s:?} < write {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn counter_mode_sums_concurrent_increments() {
        let trace = sink::shared_trace();
        let gossip = GossipConfig { interval: Duration::from_millis(10), fanout: 2 };
        let cfg = Composition::eventual(3, true, Some(gossip), ResolutionPolicy::CrdtMerge);
        // Three sessions increment the same counter key at three replicas;
        // a final read must see the sum (increment amount = the unique
        // value, so expected sum = sum of unique values).
        let mut clients = Vec::new();
        let mut expected: i64 = 0;
        for s in 1..=3u64 {
            expected += unique_value(s, 1) as i64;
            clients.push(EventualClient::new(
                s,
                script(&[(OpKind::Write, 9)]),
                trace.clone(),
                &cfg,
                TargetPolicy::Sticky(NodeId((s - 1) as u32)),
                Guarantees::none(),
            ));
        }
        clients.push(EventualClient::new(
            4,
            vec![ScriptOp { gap_us: 300_000, kind: OpKind::Read, key: 9 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
            Guarantees::none(),
        ));
        let mut sim = build_sim(&cfg, clients, 5);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).expect("read recorded");
        assert_eq!(read.value_read, vec![expected as u64]);
    }

    #[test]
    fn sibling_mode_exposes_concurrent_writes() {
        let trace = sink::shared_trace();
        let gossip = GossipConfig { interval: Duration::from_millis(10), fanout: 2 };
        let cfg =
            Composition::eventual(2, true, Some(gossip), ResolutionPolicy::VersionVectorSiblings);
        let w1 = EventualClient::new(
            1,
            script(&[(OpKind::Write, 4)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let w2 = EventualClient::new(
            2,
            script(&[(OpKind::Write, 4)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
            Guarantees::none(),
        );
        let reader = EventualClient::new(
            3,
            vec![ScriptOp { gap_us: 200_000, kind: OpKind::Read, key: 4 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let mut sim = build_sim(&cfg, vec![w1, w2, reader], 6);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        let mut vals = read.value_read.clone();
        vals.sort_unstable();
        assert_eq!(
            vals,
            vec![unique_value(1, 1), unique_value(2, 1)],
            "both concurrent writes must surface as siblings"
        );
    }

    #[test]
    fn eager_acked_defers_put_resp_until_all_peers_apply() {
        // acks = replicas - 1: by the time the client sees PutResp, every
        // replica holds the write, so an immediate read anywhere is fresh.
        let trace = sink::shared_trace();
        let cfg = Composition::mm_eager_acked(3);
        let writer = EventualClient::new(
            1,
            script(&[(OpKind::Write, 7), (OpKind::Read, 7)]),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        // A remote reader that reads right after the writer's ack window.
        let reader = EventualClient::new(
            2,
            vec![ScriptOp { gap_us: 50_000, kind: OpKind::Read, key: 7 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(2)),
            Guarantees::none(),
        );
        let mut sim = build_sim(&cfg, vec![writer, reader], 9);
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        assert_eq!(t.len(), 3, "all ops completed");
        let write = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
        assert!(write.ok, "acked write must complete once peers confirm");
        for r in t.records().iter().filter(|r| r.kind == OpKind::Read) {
            assert_eq!(
                r.value_read,
                vec![unique_value(1, 1)],
                "replica {} must hold the write before the client ack",
                r.replica
            );
        }
    }

    /// Stands in for replica 1: writes key 7 at replica 0, then asks it
    /// for its digest on every timer and keeps the keys it answers with.
    struct DigestProbe {
        answers: Rc<RefCell<Vec<Vec<Key>>>>,
    }

    impl Actor<Msg> for DigestProbe {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            let put = Msg::Put {
                op_id: 1,
                key: 7,
                value: 70,
                observed: (0, 0),
                ctx: VersionVector::new(),
            };
            ctx.send(NodeId(0), put);
            for at_ms in [100, 400] {
                ctx.set_timer(Duration::from_millis(at_ms), 0);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, _tag: u64) {
            let (digest, vv_digest) = ResolvingStore::new(ResolutionPolicy::LwwRegister).digest();
            ctx.send(NodeId(0), Msg::SyncReq { digest, vv_digest });
        }

        fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if let Msg::SyncResp { digest, .. } = msg {
                self.answers.borrow_mut().push(digest.iter().map(|&(k, _)| k).collect());
            }
        }
    }

    #[test]
    fn amnesia_recovery_answers_with_the_post_recovery_digest() {
        // The first SyncReq fills the replica's digest cache; the crash
        // then empties the volatile store. A cache that outlived the
        // replacement would advertise key 7 again.
        let cfg = Composition {
            durability: DurabilityPolicy::Volatile,
            ..Composition::eventual(2, true, None, ResolutionPolicy::LwwRegister)
        };
        let answers = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(8)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(FaultSchedule::none().crash_amnesia(
                    NodeId(0),
                    SimTime::from_millis(200),
                    SimTime::from_millis(300),
                )),
        );
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
        sim.add_node(Box::new(DigestProbe { answers: answers.clone() }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*answers.borrow(), vec![vec![7], vec![]]);
    }

    #[test]
    fn fsynced_counter_state_survives_amnesia() {
        // Durable-CRDT composition: a counter incremented before a crash
        // with amnesia must read back its full value afterwards without
        // any gossip refill (gossip is disabled here on a 1-replica
        // deployment so the only possible source is the fsynced state).
        let trace = sink::shared_trace();
        let cfg = Composition {
            durability: DurabilityPolicy::FsyncedState,
            ..Composition::eventual(1, false, None, ResolutionPolicy::CrdtMerge)
        };
        let client = EventualClient::new(
            1,
            vec![
                ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: 3 },
                ScriptOp { gap_us: 2_000_000, kind: OpKind::Read, key: 3 },
            ],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
            Guarantees::none(),
        );
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(4)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(FaultSchedule::none().crash_amnesia(
                    NodeId(0),
                    SimTime::from_millis(500),
                    SimTime::from_millis(900),
                )),
        );
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
        sim.add_node(Box::new(client));
        sim.run_until(SimTime::from_secs(4));
        let t = trace.borrow();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).expect("read recorded");
        assert!(read.ok);
        assert_eq!(
            read.value_read,
            vec![unique_value(1, 1)],
            "fsynced counter state must survive the amnesia crash"
        );
    }
}
