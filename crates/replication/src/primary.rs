//! Primary-copy replication: one master, log-shipping backups.
//!
//! All writes execute at the primary, which appends to its write-ahead log
//! and replicates the log suffix to backups. Two propagation modes
//! ([`ShipMode`]):
//!
//! * [`ShipMode::Sync`] — the primary acknowledges a write only after
//!   every backup has durably applied it (the classic
//!   synchronous-replication latency cost measured in E10). If the
//!   backups are unreachable, writes *block and fail* — the CP corner of
//!   CAP (E4).
//! * [`ShipMode::Async`] — the primary acknowledges immediately and
//!   ships the log every `interval`; backups lag by up to one
//!   interval plus network delay — the staleness window E9 sweeps.
//!
//! Reads are served locally by *any* replica (that is the whole point of
//! read scale-out), so reads at backups can be stale; bounded-staleness
//! read policies reject a backup whose applied timestamp is too old
//! (enforced client-side via the returned stamp, measured in E9).
//!
//! **Failover** is optional (`PrimaryShip::failover`): when enabled,
//! backups track primary heartbeats and run a round-robin view change
//! (view `v` is led by node `v mod n`, Viewstamped-Replication style);
//! the successor promotes itself after a silence proportional to its
//! distance from the current view, installs snapshots into stragglers,
//! and resumes the sequence space from its applied position. With
//! failover *off* (the default), a crashed primary means unavailable
//! writes — the window E4 measures; the ablation is the point.
//! Async-mode failover can lose the un-replicated log tail, exactly as
//! real asynchronous replication does.

use crate::common::{
    ClientProtocol, IssueOp, OpOutcome, Reply, ScriptOp, SessionClient, TargetPolicy,
};
use crate::kernel::durability;
use crate::kernel::propagation::{PeerCache, PropagationPolicy, ShipMode};
use crate::kernel::telemetry::{ProbeVersions, Probed};
use crate::kernel::Composition;
use crate::sink::SharedTrace;
use clocks::LamportTimestamp;
use kvstore::{Key, LogRecord, MvStore, Value, Wal};
use obs::{EventKind, QuorumKind};
use simnet::{Actor, Context, Duration, NodeId, OpKind, SimTime, SpanId, SpanStatus};
use std::collections::BTreeMap;

/// Primary-side wait before failing a sync write.
const WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// How often a sync primary re-ships, so dropped `Append`s (loss, healed
/// partitions) eventually land.
const SYNC_RESHIP_INTERVAL: Duration = Duration::from_millis(50);
/// Primary heartbeat interval (failover mode).
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);
/// Base silence before the next-in-line backup promotes itself.
const FAILOVER_TIMEOUT: Duration = Duration::from_millis(150);

/// The `(ship mode, failover)` of a `PrimaryShip` composition.
fn primary_ship(comp: &Composition) -> (ShipMode, bool) {
    match comp.propagation {
        PropagationPolicy::PrimaryShip { ship, failover } => (ship, failover),
        _ => panic!("{} is not a primary-copy composition", comp.label()),
    }
}

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client write (sent to any replica; forwarded to the primary).
    Put {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
        /// Unique write id.
        value: u64,
        /// Where the ack should go (set on forward).
        reply_to: NodeId,
    },
    /// Write ack.
    PutResp {
        /// Client op id.
        op_id: u64,
        /// Success.
        ok: bool,
        /// Log-sequence stamp `(seq, 0)`.
        stamp: (u64, u64),
    },
    /// Client read (served locally by the receiving replica).
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
        /// Value, if present.
        value: Option<u64>,
        /// Stamp of the version returned.
        stamp: Option<(u64, u64)>,
        /// Origin write time (µs).
        version_ts: Option<u64>,
        /// The replica's applied log position (bounded-staleness signal).
        applied_seq: u64,
    },
    /// Primary → backup: log suffix starting after the backup's ack point.
    Append {
        /// The sender's view; backups ignore appends from stale views
        /// (a crashed ex-primary that recovered may still ship its old
        /// log until a higher-view heartbeat demotes it).
        view: u64,
        /// Records in sequence order.
        records: Vec<LogRecord>,
    },
    /// Backup → primary: applied through this sequence number.
    AppendAck {
        /// Highest contiguously applied sequence.
        seq: u64,
    },
    /// Primary liveness + view announcement (failover mode).
    Heartbeat {
        /// The sender's view.
        view: u64,
    },
    /// Primary → straggler backup: full-state catch-up when the log
    /// suffix it needs was discarded (promotion resets the log).
    Snapshot {
        /// The sender's view; stale-view snapshots are ignored.
        view: u64,
        /// Log position the snapshot covers.
        through: u64,
        /// Latest version per key: `(key, value, seq-stamp, written_at)`.
        items: Vec<(Key, u64, u64, u64)>,
    },
}

impl simnet::MsgMeta for Msg {
    fn variant_name(&self) -> &'static str {
        match self {
            Msg::Put { .. } => "put",
            Msg::PutResp { .. } => "put_resp",
            Msg::Get { .. } => "get",
            Msg::GetResp { .. } => "get_resp",
            Msg::Append { .. } => "append",
            Msg::AppendAck { .. } => "append_ack",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::Snapshot { .. } => "snapshot",
        }
    }
}

/// A sync write waiting for backup acks at the primary.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    client: NodeId,
    op_id: u64,
    done: bool,
    /// Virtual time (µs) the primary appended the write.
    issued_at: u64,
    /// Primary-side span of the write, closed when the op resolves.
    span: SpanId,
}

const TAG_SHIP: u64 = 1;
const TAG_HEARTBEAT: u64 = 2;
const TAG_FAILOVER_CHECK: u64 = 3;
const TAG_WRITE_TIMEOUT_BASE: u64 = 1_000;

/// A primary-copy replica. Node 0 is the initial primary (view 0); the
/// rest are backups.
pub struct PrimaryReplica {
    replicas: usize,
    ship: ShipMode,
    /// View-change failover; off = static primary (writes fail while the
    /// primary is down).
    failover: bool,
    store: Probed<MvStore>,
    /// Checkpointed log: truncated at each checkpoint, and
    /// recovery replays the tail over the snapshot.
    wal: Wal,
    /// Backup: highest contiguously applied seq.
    applied_seq: u64,
    /// Primary: per-backup acked seq.
    acked: BTreeMap<NodeId, u64>,
    /// Primary: pending sync writes by seq.
    pending: BTreeMap<u64, PendingWrite>,
    /// Backup: out-of-order buffer.
    reorder: BTreeMap<u64, LogRecord>,
    /// Modeled on-disk checkpoint: set whenever the log is truncated
    /// (snapshot install, promotion/demotion resets), so an amnesia
    /// restart can rebuild the store as `checkpoint + WAL tail`.
    durable_snapshot: Option<MvStore>,
    /// Current view (failover mode; 0 = the static deployment view).
    /// Modeled durable, Viewstamped-Replication style: a recovering node
    /// must not regress to an older view.
    view: u64,
    /// When the current primary was last heard from (µs).
    last_heartbeat_us: u64,
    /// Reusable fan-out peer list (membership is fixed for a run).
    peer_cache: PeerCache,
    /// Primary: reusable scratch for the ack-driven quorum sweep.
    ready_scratch: Vec<u64>,
}

impl PrimaryReplica {
    /// Create a replica of a `PrimaryShip` composition.
    pub fn new(comp: &Composition) -> Self {
        let (ship, failover) = primary_ship(comp);
        PrimaryReplica {
            replicas: comp.replicas,
            ship,
            failover,
            store: Probed::new(MvStore::new()),
            wal: Wal::new(),
            applied_seq: 0,
            acked: BTreeMap::new(),
            pending: BTreeMap::new(),
            reorder: BTreeMap::new(),
            durable_snapshot: None,
            view: 0,
            last_heartbeat_us: 0,
            peer_cache: PeerCache::default(),
            ready_scratch: Vec::new(),
        }
    }

    /// The primary this replica currently believes in (round-robin by
    /// view).
    fn current_primary(&self) -> NodeId {
        NodeId((self.view % self.replicas as u64) as u32)
    }

    /// How often this replica ships its log while it is primary.
    fn ship_interval(&self) -> Duration {
        match self.ship {
            ShipMode::Async { interval } => interval,
            ShipMode::Sync => SYNC_RESHIP_INTERVAL,
        }
    }

    fn ship_to(&mut self, ctx: &mut Context<Msg>, backup: NodeId) {
        let from = self.acked.get(&backup).copied().unwrap_or(0);
        if from < self.wal.truncated_through() {
            // The suffix the backup needs predates this primary's log
            // (it was promoted with `reset_to`): install a snapshot.
            let items: Vec<(Key, u64, u64, u64)> = self
                .store
                .scan(..)
                .map(|(k, v)| (k, v.value.as_u64().unwrap_or(0), v.ts.counter, v.written_at))
                .collect();
            ctx.send(
                backup,
                Msg::Snapshot { view: self.view, through: self.wal.truncated_through(), items },
            );
        }
        let records = self.wal.tail(from.max(self.wal.truncated_through())).to_vec();
        if !records.is_empty() {
            ctx.send(backup, Msg::Append { view: self.view, records });
        }
    }

    /// Truncate the log at the applied position, first checkpointing the
    /// store so an amnesia restart can still rebuild everything the
    /// discarded prefix contained.
    fn checkpoint_and_reset_log(&mut self) {
        self.durable_snapshot = Some(MvStore::clone(&self.store));
        self.wal.reset_to(self.applied_seq);
    }

    fn is_primary(&self, me: NodeId) -> bool {
        me == self.current_primary()
    }

    /// Promote this backup to primary of the smallest view it leads.
    fn promote(&mut self, ctx: &mut Context<Msg>) {
        let me = ctx.self_id();
        let n = self.replicas as u64;
        let mut v = self.view + 1;
        while v % n != me.0 as u64 {
            v += 1;
        }
        self.view = v;
        // Continue the sequence space from what this replica applied; any
        // un-replicated tail of the old primary is lost (async semantics).
        self.checkpoint_and_reset_log();
        self.acked.clear();
        self.reorder.clear();
        let peers = self.peer_cache.take(self.replicas, me);
        for &b in &peers {
            ctx.send(b, Msg::Heartbeat { view: self.view });
        }
        self.peer_cache.restore(peers);
        ctx.set_timer(Duration::from_micros(1), TAG_SHIP);
        if self.failover {
            ctx.set_timer(HEARTBEAT_INTERVAL, TAG_HEARTBEAT);
        }
    }

    fn handle_put(
        &mut self,
        ctx: &mut Context<Msg>,
        op_id: u64,
        key: Key,
        value: u64,
        reply_to: NodeId,
    ) {
        let me = ctx.self_id();
        let primary = self.current_primary();
        if me != primary {
            // Forward to the primary, preserving the client address.
            ctx.send(primary, Msg::Put { op_id, key, value, reply_to });
            return;
        }
        let span = ctx.span_open("primary_write");
        let val = Value::from_u64(value);
        // Stamp the record with the seq the WAL is about to assign, so a
        // replay rebuilds the store with the exact same timestamps.
        let now_us = ctx.now().as_micros();
        let seq = self.wal.next_seq();
        let ts = LamportTimestamp::new(seq, 0);
        let appended = durability::log(&mut self.wal, ctx, key, val, ts, now_us);
        debug_assert_eq!(appended, seq);
        self.store.put(key, Value::from_u64(value), ts, now_us);
        match self.ship {
            ShipMode::Sync => {
                self.pending.insert(
                    seq,
                    PendingWrite { client: reply_to, op_id, done: false, issued_at: now_us, span },
                );
                // Span still active: the synchronous log-ship fan-out and
                // the write timeout below carry it.
                let backups = self.peer_cache.take(self.replicas, me);
                for &b in &backups {
                    self.ship_to(ctx, b);
                }
                self.peer_cache.restore(backups);
                ctx.set_timer(WRITE_TIMEOUT, TAG_WRITE_TIMEOUT_BASE + seq);
                if self.replicas <= 1 {
                    self.try_finish_write(ctx, seq);
                }
            }
            ShipMode::Async { .. } => {
                ctx.send(reply_to, Msg::PutResp { op_id, ok: true, stamp: (seq, 0) });
                ctx.span_close(span, SpanStatus::Ok);
            }
        }
    }

    fn try_finish_write(&mut self, ctx: &mut Context<Msg>, seq: u64) {
        // A sync write needs every backup's ack.
        let acks_required = self.replicas.saturating_sub(1);
        let acks = self.acked.values().filter(|&&a| a >= seq).count();
        let quorum = match self.pending.get(&seq) {
            Some(p) => !p.done && acks >= acks_required,
            None => false,
        };
        if !quorum {
            return;
        }
        // Acknowledged writes leave `pending` immediately (the write
        // timer finds nothing and no-ops), so the ack-driven sweep in
        // `AppendAck` only ever walks writes still waiting for quorum
        // instead of every write of the last timeout window.
        let p = self.pending.remove(&seq).expect("checked above");
        ctx.record(EventKind::QuorumWait {
            node: ctx.self_id().0 as u64,
            kind: QuorumKind::Write,
            waited_us: ctx.now().as_micros().saturating_sub(p.issued_at),
            acks: acks as u64,
            needed: acks_required as u64,
        });
        ctx.send(p.client, Msg::PutResp { op_id: p.op_id, ok: true, stamp: (seq, 0) });
        ctx.span_close(p.span, SpanStatus::Ok);
    }

    fn apply_ready(&mut self, ctx: &mut Context<Msg>) {
        while let Some(rec) = self.reorder.remove(&(self.applied_seq + 1)) {
            // A backup's apply is durable: the record lands in its own
            // WAL before the store, so an amnesia restart replays it.
            let seq = durability::log(
                &mut self.wal,
                ctx,
                rec.key,
                rec.value.clone(),
                rec.ts,
                rec.written_at,
            );
            debug_assert_eq!(seq, rec.seq);
            // Backup stores with the seq as stamp; written_at comes from
            // the record's origin time.
            self.store.put(
                rec.key,
                rec.value.clone(),
                LamportTimestamp::new(rec.seq, 0),
                rec.written_at,
            );
            self.applied_seq += 1;
        }
    }

    /// Adopt a (possibly newer) view observed on an incoming message.
    /// Returns `false` if the message came from a stale view and must be
    /// ignored.
    fn observe_view(&mut self, ctx: &mut Context<Msg>, view: u64) -> bool {
        if view < self.view {
            return false;
        }
        let was_primary = self.is_primary(ctx.self_id());
        self.view = view;
        self.last_heartbeat_us = ctx.now().as_micros();
        if was_primary && !self.is_primary(ctx.self_id()) {
            // Demoted: discard the un-replicated tail; future state
            // arrives from the new primary. Restart the failover watch
            // (its chain ended at promotion).
            self.checkpoint_and_reset_log();
            self.acked.clear();
            if self.failover {
                ctx.set_timer(FAILOVER_TIMEOUT, TAG_FAILOVER_CHECK);
            }
        }
        true
    }
}

impl Actor<Msg> for PrimaryReplica {
    fn role(&self) -> &'static str {
        "replica"
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        if ctx.self_id() == NodeId(0) {
            ctx.set_timer(self.ship_interval(), TAG_SHIP);
            if self.failover {
                ctx.set_timer(HEARTBEAT_INTERVAL, TAG_HEARTBEAT);
            }
        } else if self.failover {
            self.last_heartbeat_us = ctx.now().as_micros();
            ctx.set_timer(FAILOVER_TIMEOUT, TAG_FAILOVER_CHECK);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>, amnesia: bool) {
        let me = ctx.self_id();
        if amnesia {
            // RAM is gone; the disk (WAL, checkpoint, view number)
            // survives. Rebuild the store as checkpoint + log tail and
            // drop everything that only lived in memory.
            for (_, p) in std::mem::take(&mut self.pending) {
                ctx.span_close(p.span, SpanStatus::Abandoned);
            }
            self.reorder.clear();
            self.acked.clear();
            self.store.replace(durability::replay(
                &self.wal,
                ctx,
                self.durable_snapshot.as_ref(),
                None,
            ));
            self.applied_seq = self.wal.last_seq();
        }
        // The simulator discarded every timer that came due during the
        // outage, which breaks a periodic chain; re-arm the chains for
        // whatever role the durable view implies. (A timer due *after*
        // the recovery was not discarded: after an outage shorter than
        // the interval the old chain runs on beside the new one —
        // ROADMAP item 2(c).)
        self.last_heartbeat_us = ctx.now().as_micros();
        if self.is_primary(me) {
            ctx.set_timer(self.ship_interval(), TAG_SHIP);
            if self.failover {
                ctx.set_timer(HEARTBEAT_INTERVAL, TAG_HEARTBEAT);
            }
        } else if self.failover {
            ctx.set_timer(FAILOVER_TIMEOUT, TAG_FAILOVER_CHECK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, tag: u64) {
        if tag == TAG_SHIP {
            let me = ctx.self_id();
            if !self.is_primary(me) {
                return; // demoted: stop shipping (timer chain ends)
            }
            let backups = self.peer_cache.take(self.replicas, me);
            for &b in &backups {
                self.ship_to(ctx, b);
            }
            self.peer_cache.restore(backups);
            ctx.set_timer(self.ship_interval(), TAG_SHIP);
        } else if tag == TAG_HEARTBEAT {
            let me = ctx.self_id();
            if !self.is_primary(me) {
                return; // demoted: stop heartbeating
            }
            let peers = self.peer_cache.take(self.replicas, me);
            let view = self.view;
            for &b in &peers {
                ctx.send(b, Msg::Heartbeat { view });
            }
            self.peer_cache.restore(peers);
            if self.failover {
                ctx.set_timer(HEARTBEAT_INTERVAL, TAG_HEARTBEAT);
            }
        } else if tag == TAG_FAILOVER_CHECK {
            let me = ctx.self_id();
            if self.is_primary(me) {
                return; // became primary: the check chain ends
            }
            // How many views ahead is my next turn? Wait proportionally,
            // so successors contend in order instead of racing.
            let n = self.replicas as u64;
            let mut steps = 1u64;
            while (self.view + steps) % n != me.0 as u64 {
                steps += 1;
            }
            let silence = ctx.now().as_micros().saturating_sub(self.last_heartbeat_us);
            if silence > FAILOVER_TIMEOUT.as_micros().saturating_mul(steps) {
                self.promote(ctx);
            } else {
                ctx.set_timer(FAILOVER_TIMEOUT, TAG_FAILOVER_CHECK);
            }
        } else if tag >= TAG_WRITE_TIMEOUT_BASE {
            let seq = tag - TAG_WRITE_TIMEOUT_BASE;
            if let Some(p) = self.pending.remove(&seq) {
                if !p.done {
                    // Close before the failure response so the reply
                    // carries the client's root span, not this one.
                    ctx.span_close(p.span, SpanStatus::Failed);
                    ctx.send(p.client, Msg::PutResp { op_id: p.op_id, ok: false, stamp: (0, 0) });
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Put { op_id, key, value, reply_to } => {
                // First hop from the client: reply_to is the client itself.
                let reply = if reply_to == NodeId(u32::MAX) { from } else { reply_to };
                self.handle_put(ctx, op_id, key, value, reply);
            }
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
                        applied_seq: self.applied_seq,
                    },
                );
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::Append { view, records } => {
                if !self.observe_view(ctx, view) {
                    return; // stale ex-primary still shipping its old log
                }
                let span = ctx.span_open("backup_apply");
                for rec in records {
                    if rec.seq > self.applied_seq {
                        self.reorder.insert(rec.seq, rec);
                    }
                }
                self.apply_ready(ctx);
                ctx.send(from, Msg::AppendAck { seq: self.applied_seq });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::Heartbeat { view } => {
                self.observe_view(ctx, view);
            }
            Msg::Snapshot { view, through, items } => {
                if !self.observe_view(ctx, view) {
                    return;
                }
                let span = ctx.span_open("backup_apply");
                if through > self.applied_seq {
                    for (key, value, seq, written_at) in items {
                        self.store.put(
                            key,
                            Value::from_u64(value),
                            LamportTimestamp::new(seq, 0),
                            written_at,
                        );
                    }
                    self.applied_seq = through;
                    // The installed state is durable: checkpoint it and
                    // realign the local log with the primary's seq space.
                    self.checkpoint_and_reset_log();
                    self.reorder.retain(|&s, _| s > through);
                    self.apply_ready(ctx);
                }
                ctx.send(from, Msg::AppendAck { seq: self.applied_seq });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::AppendAck { seq } => {
                let prev = self.acked.entry(from).or_insert(0);
                *prev = (*prev).max(seq);
                // Any pending write at or below the new ack level may now
                // have its quorum. This is the protocol's hottest
                // handler; the sweep buffer is reused across acks and
                // `pending` holds only unacknowledged writes.
                let mut ready = std::mem::take(&mut self.ready_scratch);
                ready.clear();
                ready.extend(self.pending.range(..=seq).map(|(&s, _)| s));
                for &s in &ready {
                    self.try_finish_write(ctx, s);
                }
                self.ready_scratch = ready;
            }
            Msg::PutResp { .. } | Msg::GetResp { .. } => {}
        }
    }

    fn key_versions(&self) -> Vec<(u64, u64)> {
        self.store.key_versions()
    }

    fn drain_changed_versions(&mut self, sink: &mut dyn FnMut(u64, Option<u64>)) {
        self.store.drain_changed_versions(sink);
    }
}

/// The primary-copy protocol as a client speaks it: reads at the
/// session's replica, writes to the primary.
pub struct PrimarySession {
    replicas: usize,
    failover: bool,
    /// Where reads go: a fixed replica (a geo-local backup, or node 0 for
    /// fresh reads without scale-out) or a random one per read.
    read_from: TargetPolicy,
}

/// A scripted client for primary-copy deployments.
pub type PrimaryClient = SessionClient<PrimarySession>;

impl PrimaryClient {
    /// Create a client session of the deployment `comp` describes.
    pub fn new(
        session: u64,
        script: Vec<ScriptOp>,
        trace: SharedTrace,
        comp: &Composition,
        read_from: TargetPolicy,
    ) -> Self {
        let proto =
            PrimarySession { replicas: comp.replicas, failover: primary_ship(comp).1, read_from };
        SessionClient::with_protocol(session, script, trace, proto)
    }
}

impl ClientProtocol for PrimarySession {
    type Msg = Msg;
    const OP_TIMEOUT: Duration = Duration::from_millis(800);

    fn target(&mut self, ctx: &mut Context<Msg>) -> NodeId {
        self.read_from.pick(ctx, self.replicas)
    }

    fn request(&self, op: IssueOp) -> Msg {
        match op.kind {
            OpKind::Read => Msg::Get { op_id: op.op_id, key: op.key },
            OpKind::Write => Msg::Put {
                op_id: op.op_id,
                key: op.key,
                value: op.value.expect("write without value"),
                reply_to: NodeId(u32::MAX),
            },
        }
    }

    fn issue(&mut self, ctx: &mut Context<Msg>, op: IssueOp, read_target: NodeId) {
        // With failover enabled, a write is routed via the session's
        // replica, which forwards to whatever primary its view names;
        // static deployments go straight to node 0.
        let to = match op.kind {
            OpKind::Write if !self.failover => NodeId(0),
            _ => read_target,
        };
        ctx.send(to, self.request(op));
    }

    fn on_reply(
        &mut self,
        _ctx: &mut Context<Msg>,
        _from: NodeId,
        msg: Msg,
        _in_flight: Option<IssueOp>,
    ) -> Reply {
        match msg {
            Msg::PutResp { op_id, ok, stamp } => Reply::Done(
                op_id,
                OpOutcome { ok, values: vec![], stamp: Some(stamp), version_ts: None },
            ),
            Msg::GetResp { op_id, value, stamp, version_ts, applied_seq: _ } => Reply::Done(
                op_id,
                OpOutcome {
                    ok: true,
                    values: value.into_iter().collect(),
                    stamp,
                    version_ts: version_ts.map(SimTime::from_micros),
                },
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
    use simnet::{FaultSchedule, LatencyModel, Sim, SimConfig};

    /// Recorded message `bytes` are `size_of::<Msg>()` (see
    /// `docs/METRICS.md`), so the enum's size is part of every pinned
    /// event log.
    #[test]
    fn msg_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Msg>(), 72);
    }

    fn build(
        cfg: &Composition,
        clients: Vec<PrimaryClient>,
        seed: u64,
        faults: FaultSchedule,
    ) -> Sim<Msg> {
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(faults),
        );
        for _ in 0..cfg.replicas {
            sim.add_node(Box::new(PrimaryReplica::new(cfg)));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    fn one_write() -> Vec<ScriptOp> {
        vec![ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: 1 }]
    }

    #[test]
    fn sync_write_then_backup_read_is_fresh() {
        let trace = sink::shared_trace();
        let cfg = Composition::primary(3, ShipMode::Sync, false);
        let writer = PrimaryClient::new(
            1,
            one_write(),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let reader = PrimaryClient::new(
            2,
            vec![ScriptOp { gap_us: 100_000, kind: OpKind::Read, key: 1 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(2)),
        );
        let mut sim = build(&cfg, vec![writer, reader], 1, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert_eq!(read.value_read, vec![unique_value(1, 1)]);
    }

    #[test]
    fn sync_write_latency_includes_backup_round_trip() {
        let trace = sink::shared_trace();
        let cfg = Composition::primary(3, ShipMode::Sync, false);
        let writer = PrimaryClient::new(
            1,
            one_write(),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build(&cfg, vec![writer], 2, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let w = &t.records()[0];
        assert!(w.ok);
        // client->primary (5) + primary->backup (5) + ack (5) + resp (5) = 20ms
        assert!(w.latency() >= Duration::from_millis(20), "latency {:?}", w.latency());
    }

    #[test]
    fn async_write_acks_after_one_hop() {
        let trace = sink::shared_trace();
        let cfg = Composition::primary(
            3,
            ShipMode::Async { interval: Duration::from_millis(100) },
            false,
        );
        let writer = PrimaryClient::new(
            1,
            one_write(),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build(&cfg, vec![writer], 3, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let w = &t.records()[0];
        assert!(w.ok);
        // One round trip: 10ms.
        assert!(w.latency() <= Duration::from_millis(12), "latency {:?}", w.latency());
    }

    #[test]
    fn async_backup_read_is_stale_within_lag_window() {
        let trace = sink::shared_trace();
        let cfg = Composition::primary(
            2,
            ShipMode::Async { interval: Duration::from_millis(200) },
            false,
        );
        let writer = PrimaryClient::new(
            1,
            one_write(),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        // Read the backup 20ms after the write: inside the 200ms shipping
        // window, so it must miss the write.
        let early_reader = PrimaryClient::new(
            2,
            vec![ScriptOp { gap_us: 30_000, kind: OpKind::Read, key: 1 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        // Read again at 600ms: shipped by now.
        let late_reader = PrimaryClient::new(
            3,
            vec![ScriptOp { gap_us: 600_000, kind: OpKind::Read, key: 1 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim =
            build(&cfg, vec![writer, early_reader, late_reader], 4, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(2));
        let t = trace.borrow();
        let early = t.records().iter().find(|r| r.session == 2).unwrap();
        let late = t.records().iter().find(|r| r.session == 3).unwrap();
        assert!(early.value_read.is_empty(), "early read saw {:?}", early.value_read);
        assert_eq!(late.value_read, vec![unique_value(1, 1)]);
    }

    #[test]
    fn forwarded_write_reaches_primary() {
        // A write injected at a *backup* must be forwarded to the primary,
        // applied there, and become visible to a later read at the primary.
        let trace = sink::shared_trace();
        let cfg = Composition::primary(3, ShipMode::Sync, false);
        let reader = PrimaryClient::new(
            1,
            vec![ScriptOp { gap_us: 300_000, kind: OpKind::Read, key: 7 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build(&cfg, vec![reader], 5, FaultSchedule::none());
        let injector = NodeId(cfg.replicas as u32); // the reader client's node id
        sim.inject_at(
            SimTime::from_millis(1),
            injector,
            NodeId(2), // a backup: must forward
            Msg::Put { op_id: 99, key: 7, value: 4242, reply_to: NodeId(u32::MAX) },
        );
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let rd = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert_eq!(rd.value_read, vec![4242], "forwarded write visible at primary");
    }

    #[test]
    fn failover_promotes_backup_and_writes_resume() {
        // Async primary with view-change failover: node 0 crashes at
        // 200ms; a write issued at 1.5s (routed via replica 1, which by
        // then leads view 1) must succeed, and a later read at replica 1
        // must see it.
        let trace = sink::shared_trace();
        let cfg =
            Composition::primary(3, ShipMode::Async { interval: Duration::from_millis(50) }, true);
        let faults = FaultSchedule::none().crash(
            NodeId(0),
            SimTime::from_millis(200),
            SimTime::from_secs(60),
        );
        let writer = PrimaryClient::new(
            1,
            vec![ScriptOp { gap_us: 1_500_000, kind: OpKind::Write, key: 4 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let reader = PrimaryClient::new(
            2,
            vec![ScriptOp { gap_us: 3_000_000, kind: OpKind::Read, key: 4 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![writer, reader], 31, faults);
        sim.run_until(SimTime::from_secs(5));
        let t = trace.borrow();
        let w = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
        let rd = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert!(w.ok, "write after failover must succeed");
        assert_eq!(rd.value_read, vec![unique_value(1, 1)]);
    }

    #[test]
    fn recovered_old_primary_rejoins_as_follower_and_catches_up() {
        // Node 0 crashes, node 1 takes over and accepts a write; node 0
        // recovers, is demoted by the higher view, and receives the state
        // (snapshot + log): a late read at replica 0 sees the write.
        let trace = sink::shared_trace();
        let cfg =
            Composition::primary(3, ShipMode::Async { interval: Duration::from_millis(50) }, true);
        let faults = FaultSchedule::none().crash(
            NodeId(0),
            SimTime::from_millis(200),
            SimTime::from_secs(2),
        );
        let writer = PrimaryClient::new(
            1,
            vec![ScriptOp { gap_us: 1_500_000, kind: OpKind::Write, key: 7 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let reader_at_old_primary = PrimaryClient::new(
            2,
            vec![ScriptOp { gap_us: 4_000_000, kind: OpKind::Read, key: 7 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build(&cfg, vec![writer, reader_at_old_primary], 32, faults);
        sim.run_until(SimTime::from_secs(6));
        let t = trace.borrow();
        let rd = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert_eq!(
            rd.value_read,
            vec![unique_value(1, 1)],
            "recovered ex-primary must be caught up by the new primary"
        );
    }

    #[test]
    fn primary_crash_blocks_writes_but_backups_serve_reads() {
        let trace = sink::shared_trace();
        let cfg = Composition::primary(3, ShipMode::Sync, false);
        let faults = FaultSchedule::none().crash(
            NodeId(0),
            SimTime::from_millis(50),
            SimTime::from_secs(60),
        );
        // Write before the crash; write after the crash; read after.
        let early_writer = PrimaryClient::new(
            1,
            one_write(),
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let late_writer = PrimaryClient::new(
            2,
            vec![ScriptOp { gap_us: 200_000, kind: OpKind::Write, key: 2 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let reader = PrimaryClient::new(
            3,
            vec![ScriptOp { gap_us: 500_000, kind: OpKind::Read, key: 1 }],
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![early_writer, late_writer, reader], 6, faults);
        sim.run_until(SimTime::from_secs(3));
        let t = trace.borrow();
        let w1 = t.records().iter().find(|r| r.session == 1).unwrap();
        let w2 = t.records().iter().find(|r| r.session == 2).unwrap();
        let rd = t.records().iter().find(|r| r.session == 3).unwrap();
        assert!(w1.ok, "pre-crash write succeeds");
        assert!(!w2.ok, "write during primary crash must fail (no failover)");
        assert!(rd.ok, "backup still serves reads");
        assert_eq!(rd.value_read, vec![unique_value(1, 1)]);
    }
}
