//! Dynamo-style quorum replication with tunable N / R / W.
//!
//! Every node is both a storage replica and a coordinator. A client sends
//! each operation to one coordinator, which fans out to all `n` replicas
//! and answers after `w` write acks (resp. `r` read responses), returning
//! the newest version seen. With `r + w > n` read and write quorums
//! intersect and reads are fresh; **partial quorums** (`r + w <= n`) trade
//! freshness for latency — the probabilistic staleness the PBS work
//! quantifies and experiment E1 reproduces.
//!
//! Optional read repair pushes the newest version to stale replicas after
//! every read (ablation in E1).

use crate::common::{
    ClientProtocol, IssueOp, OpOutcome, Reply, ScriptOp, SessionClient, TargetPolicy,
};
use crate::kernel::durability;
use crate::kernel::propagation::PropagationPolicy;
use crate::kernel::ring::{rebalance_pushes, Ring};
use crate::kernel::telemetry::{ProbeVersions, Probed};
use crate::kernel::Composition;
use crate::sink::SharedTrace;
use clocks::{LamportClock, LamportTimestamp};
use kvstore::{Key, MvStore, Value, Wal};
use obs::{Counter, EventKind, QuorumKind};
use simnet::{Actor, Context, Duration, NodeId, OpKind, SimTime, SpanId, SpanStatus};
use std::collections::BTreeMap;

/// How long a coordinator waits for a quorum before failing the op.
const OP_TIMEOUT: Duration = Duration::from_millis(250);
/// How often a node holding hints retries delivering them.
const HANDOFF_INTERVAL: Duration = Duration::from_millis(100);

/// A replicated version in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireVersion {
    /// Unique write id.
    pub value: u64,
    /// LWW stamp.
    pub ts: LamportTimestamp,
    /// Origin write time (µs).
    pub written_at: u64,
}

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client read.
    Get {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
    },
    /// Client write.
    Put {
        /// Client op id.
        op_id: u64,
        /// Key.
        key: Key,
        /// Unique write id.
        value: u64,
    },
    /// Read response to client.
    GetResp {
        /// Client op id.
        op_id: u64,
        /// Success (quorum reached).
        ok: bool,
        /// Newest version among the quorum, if any.
        version: Option<WireVersion>,
    },
    /// Write response to client.
    PutResp {
        /// Client op id.
        op_id: u64,
        /// Success (quorum reached).
        ok: bool,
        /// Stamp assigned by the coordinator.
        stamp: (u64, u64),
    },
    /// Coordinator → replica read probe.
    RGet {
        /// Coordinator request id.
        req_id: u64,
        /// Key.
        key: Key,
    },
    /// Replica → coordinator read reply.
    RGetResp {
        /// Coordinator request id.
        req_id: u64,
        /// The replica's newest version, if any.
        version: Option<WireVersion>,
    },
    /// Coordinator → replica write.
    RPut {
        /// Coordinator request id.
        req_id: u64,
        /// Key.
        key: Key,
        /// The version to store.
        version: WireVersion,
    },
    /// Replica → coordinator write ack.
    RPutAck {
        /// Coordinator request id.
        req_id: u64,
    },
    /// Read-repair push (no ack needed).
    Repair {
        /// Key.
        key: Key,
        /// The version to store.
        version: WireVersion,
    },
    /// Coordinator → spare: store this write as a hint for `target`.
    HintedPut {
        /// Coordinator request id (counts toward the write quorum).
        req_id: u64,
        /// The home replica that should eventually hold the write.
        target: NodeId,
        /// Key.
        key: Key,
        /// The version.
        version: WireVersion,
    },
    /// Spare → coordinator: hint durably stored.
    HintAck {
        /// Coordinator request id.
        req_id: u64,
    },
    /// Spare → home replica: deliver a hinted write.
    HintDeliver {
        /// Spare-local hint id.
        hint_id: u64,
        /// Key.
        key: Key,
        /// The version.
        version: WireVersion,
    },
    /// Home replica → spare: hint received; the spare can drop it.
    HintDeliverAck {
        /// Spare-local hint id.
        hint_id: u64,
    },
}

impl simnet::MsgMeta for Msg {
    fn variant_name(&self) -> &'static str {
        match self {
            Msg::Get { .. } => "get",
            Msg::Put { .. } => "put",
            Msg::GetResp { .. } => "get_resp",
            Msg::PutResp { .. } => "put_resp",
            Msg::RGet { .. } => "r_get",
            Msg::RGetResp { .. } => "r_get_resp",
            Msg::RPut { .. } => "r_put",
            Msg::RPutAck { .. } => "r_put_ack",
            Msg::Repair { .. } => "repair",
            Msg::HintedPut { .. } => "hinted_put",
            Msg::HintAck { .. } => "hint_ack",
            Msg::HintDeliver { .. } => "hint_deliver",
            Msg::HintDeliverAck { .. } => "hint_deliver_ack",
        }
    }
}

#[derive(Debug)]
enum PendingOp {
    Read {
        client: NodeId,
        op_id: u64,
        key: Key,
        responses: Vec<(NodeId, Option<WireVersion>)>,
        needed: usize,
        done: bool,
        /// Virtual time (µs) the coordinator issued the fan-out, for the
        /// recorded quorum-wait latency.
        issued_at: u64,
        /// The version returned to the client (for async read repair of
        /// responses that arrive after the quorum was reached).
        winner: Option<WireVersion>,
        /// Coordinator span of the fan-out, closed when the op resolves.
        span: SpanId,
    },
    Write {
        client: NodeId,
        op_id: u64,
        key: Key,
        version: WireVersion,
        acks: usize,
        /// Which home replicas have acked (for hint targeting).
        acked_from: Vec<NodeId>,
        needed: usize,
        stamp: LamportTimestamp,
        done: bool,
        hinted: bool,
        /// Virtual time (µs) the coordinator issued the fan-out.
        issued_at: u64,
        /// Coordinator span of the fan-out, closed when the op resolves.
        span: SpanId,
    },
}

impl PendingOp {
    fn span(&self) -> SpanId {
        match self {
            PendingOp::Read { span, .. } | PendingOp::Write { span, .. } => *span,
        }
    }
}

/// Timer tags carry their kind in the low two bits and, for the two
/// per-request kinds, the request id above them (`timer_tag`), so the
/// three kinds stay apart whatever the request id.
const TAG_KIND_BITS: u32 = 2;
/// Spare hint-retry timer.
const TAG_HINT_RETRY: u64 = 0;
/// Sloppy-quorum sub-timeout of one write.
const TAG_SLOPPY: u64 = 1;
/// Coordinator timeout of one operation.
const TAG_OPTIMEOUT: u64 = 2;

fn timer_tag(kind: u64, req_id: u64) -> u64 {
    req_id << TAG_KIND_BITS | kind
}

/// A quorum node: storage replica + coordinator.
pub struct QuorumNode {
    /// Number of home replicas (the strict preference list).
    n: usize,
    /// Read quorum size.
    r: usize,
    /// Write quorum size.
    w: usize,
    /// Push the newest version to stale replicas after each read.
    read_repair: bool,
    /// Sloppy quorum when non-zero: if home replicas don't ack in time,
    /// hand the write to this many spare nodes, which store a *hint* and
    /// deliver it to the real owner when it becomes reachable (Dynamo's
    /// hinted handoff). Write availability goes up; reads can miss hinted
    /// writes until delivery — exactly the tutorial's trade.
    spares: usize,
    store: Probed<MvStore>,
    /// Durable log of every version this replica has adopted. On an
    /// amnesia restart the store is rebuilt by replaying it.
    wal: Wal,
    clock: LamportClock,
    pending: BTreeMap<u64, PendingOp>,
    next_req: u64,
    /// Spare role: undelivered hints (hint id → target, key, version).
    hints: BTreeMap<u64, (NodeId, Key, WireVersion)>,
    next_hint: u64,
    /// Sharded mode: the consistent-hashing ring mapping each key to its
    /// preference list; every node is replica, coordinator, *and*
    /// potential spare for some keys, and `spares` counts the ring
    /// successors past the preference list a sloppy write may fall
    /// through to. `None` = classic mode (every node replicates the whole
    /// keyspace, spares are the dedicated tail ids `n..n+spares`).
    ring: Option<Ring>,
    /// Ring mode: whether the lazy hint-retry timer chain is running.
    /// (Classic spares keep a perpetual chain instead.)
    hint_timer_armed: bool,
    /// Reusable buffer for per-operation home-set walks (one ring walk
    /// or classic enumeration per read/write — the coordinator hot path).
    homes_scratch: Vec<NodeId>,
}

impl QuorumNode {
    /// Create a node of a `QuorumFanout` composition, in sharded mode
    /// when given the cluster's `ring` (whose replication factor must be
    /// the composition's N).
    pub fn new(comp: &Composition, ring: Option<Ring>) -> Self {
        let PropagationPolicy::QuorumFanout { r, w, read_repair, spares } = comp.propagation else {
            panic!("{} is not a quorum composition", comp.label());
        };
        let n = comp.replicas;
        assert!(n >= 1 && r >= 1 && w >= 1, "quorum sizes must be positive");
        assert!(r <= n && w <= n, "quorum sizes cannot exceed n");
        assert!(
            ring.as_ref().is_none_or(|ring| ring.replication() == n),
            "ring replication factor must equal the quorum's N"
        );
        QuorumNode {
            n,
            r,
            w,
            read_repair,
            spares,
            store: Probed::new(MvStore::new()),
            wal: Wal::new(),
            clock: LamportClock::new(),
            pending: BTreeMap::new(),
            next_req: 0,
            hints: BTreeMap::new(),
            next_hint: 0,
            ring,
            hint_timer_armed: false,
            homes_scratch: Vec::new(),
        }
    }

    /// The key's home replicas in ascending node-id order: the ring's
    /// preference list in sharded mode, all of `0..n` in classic mode.
    /// Ascending order keeps the fan-out byte-identical to the classic
    /// `peers()` path when the ring degenerates to full replication.
    ///
    /// The home set is computed once per read/write/handoff, so it goes
    /// through a reusable scratch buffer: take it here, hand it back via
    /// [`QuorumNode::restore_homes`] (forgetting to merely costs one
    /// allocation on the next operation).
    fn take_homes(&mut self, key: Key) -> Vec<NodeId> {
        let mut out = std::mem::take(&mut self.homes_scratch);
        out.clear();
        match &self.ring {
            Some(ring) => {
                ring.owners_into(key, &mut out);
                out.sort_unstable_by_key(|n| n.0);
            }
            None => out.extend((0..self.n as u32).map(NodeId)),
        }
        out
    }

    fn restore_homes(&mut self, buf: Vec<NodeId>) {
        self.homes_scratch = buf;
    }

    fn local_version(&self, key: Key) -> Option<WireVersion> {
        self.store.get(key).map(|v| WireVersion {
            value: v.value.as_u64().unwrap_or(0),
            ts: v.ts,
            written_at: v.written_at,
        })
    }

    fn apply_version(&mut self, ctx: &mut Context<Msg>, key: Key, v: WireVersion) {
        self.clock.observe(v.ts, 0);
        let value = Value::from_u64(v.value);
        // Log only versions the store actually adopts, so replay rebuilds
        // this exact store.
        if self.store.put(key, value.clone(), v.ts, v.written_at) {
            durability::log(&mut self.wal, ctx, key, value, v.ts, v.written_at);
        }
    }

    fn start_read(&mut self, ctx: &mut Context<Msg>, client: NodeId, op_id: u64, key: Key) {
        self.next_req += 1;
        let req_id = self.next_req;
        let me = ctx.self_id();
        // Child of the client's op span: the fan-out sends and the op
        // timeout below all carry this coordinator span.
        let span = ctx.span_open("quorum_read");
        let homes = self.take_homes(key);
        let mut responses = Vec::with_capacity(self.n);
        if homes.contains(&me) {
            responses.push((me, self.local_version(key)));
        }
        let pending = PendingOp::Read {
            client,
            op_id,
            key,
            responses,
            needed: self.r,
            done: false,
            winner: None,
            issued_at: ctx.now().as_micros(),
            span,
        };
        self.pending.insert(req_id, pending);
        for peer in homes.iter().copied().filter(|&p| p != me) {
            ctx.send(peer, Msg::RGet { req_id, key });
        }
        self.restore_homes(homes);
        ctx.set_timer(OP_TIMEOUT, timer_tag(TAG_OPTIMEOUT, req_id));
        self.try_finish_read(ctx, req_id);
    }

    fn start_write(
        &mut self,
        ctx: &mut Context<Msg>,
        client: NodeId,
        op_id: u64,
        key: Key,
        value: u64,
    ) {
        self.next_req += 1;
        let req_id = self.next_req;
        let me = ctx.self_id();
        let ts = self.clock.tick(me.0 as u64);
        let version = WireVersion { value, ts, written_at: ctx.now().as_micros() };
        let span = ctx.span_open("quorum_write");
        let homes = self.take_homes(key);
        // A coordinator that happens to own the key stores and acks its
        // own copy; a non-owner coordinator (sharded mode with sticky
        // clients) only fans out.
        let is_owner = homes.contains(&me);
        if is_owner {
            self.apply_version(ctx, key, version);
        }
        self.pending.insert(
            req_id,
            PendingOp::Write {
                client,
                op_id,
                key,
                version,
                acks: usize::from(is_owner),
                acked_from: if is_owner { vec![me] } else { Vec::new() },
                needed: self.w,
                stamp: ts,
                done: false,
                hinted: false,
                issued_at: ctx.now().as_micros(),
                span,
            },
        );
        for peer in homes.iter().copied().filter(|&p| p != me) {
            ctx.send(peer, Msg::RPut { req_id, key, version });
        }
        self.restore_homes(homes);
        ctx.set_timer(OP_TIMEOUT, timer_tag(TAG_OPTIMEOUT, req_id));
        if self.spares > 0 {
            // If home acks don't arrive promptly, hand off to spares.
            ctx.set_timer(
                Duration::from_micros(OP_TIMEOUT.as_micros() / 3),
                timer_tag(TAG_SLOPPY, req_id),
            );
        }
        self.try_finish_write(ctx, req_id);
    }

    fn try_finish_read(&mut self, ctx: &mut Context<Msg>, req_id: u64) {
        let Some(PendingOp::Read {
            client,
            op_id,
            key,
            responses,
            needed,
            done,
            winner,
            issued_at,
            span,
        }) = self.pending.get_mut(&req_id)
        else {
            return;
        };
        if *done || responses.len() < *needed {
            return;
        }
        *done = true;
        ctx.record(EventKind::QuorumWait {
            node: ctx.self_id().0 as u64,
            kind: QuorumKind::Read,
            waited_us: ctx.now().as_micros().saturating_sub(*issued_at),
            acks: responses.len() as u64,
            needed: *needed as u64,
        });
        let (client, op_id, key, span) = (*client, *op_id, *key, *span);
        let newest = responses.iter().filter_map(|(_, v)| *v).max_by_key(|v| v.ts);
        *winner = newest;
        let stale: Vec<NodeId> = match newest {
            Some(best) => responses
                .iter()
                .filter(|(_, v)| v.map(|x| x.ts < best.ts).unwrap_or(true))
                .map(|(n, _)| *n)
                .collect(),
            None => Vec::new(),
        };
        ctx.send(client, Msg::GetResp { op_id, ok: true, version: newest });
        if self.read_repair {
            if let Some(best) = newest {
                let me = ctx.self_id();
                for node in stale {
                    ctx.recorder().count_node(me.0 as u64, Counter::ReadRepairs, 1);
                    if node == me {
                        self.apply_version(ctx, key, best);
                    } else {
                        ctx.send(node, Msg::Repair { key, version: best });
                    }
                }
            }
        }
        // Closed after the synchronous read-repair pushes so those hops
        // belong to the coordinator span too.
        ctx.span_close(span, SpanStatus::Ok);
    }

    fn try_finish_write(&mut self, ctx: &mut Context<Msg>, req_id: u64) {
        let Some(PendingOp::Write {
            client,
            op_id,
            acks,
            needed,
            stamp,
            done,
            issued_at,
            span,
            ..
        }) = self.pending.get_mut(&req_id)
        else {
            return;
        };
        if *done || *acks < *needed {
            return;
        }
        *done = true;
        ctx.record(EventKind::QuorumWait {
            node: ctx.self_id().0 as u64,
            kind: QuorumKind::Write,
            waited_us: ctx.now().as_micros().saturating_sub(*issued_at),
            acks: *acks as u64,
            needed: *needed as u64,
        });
        let (client, op_id, stamp, span) = (*client, *op_id, *stamp, *span);
        ctx.send(client, Msg::PutResp { op_id, ok: true, stamp: (stamp.counter, stamp.actor) });
        ctx.span_close(span, SpanStatus::Ok);
    }

    fn fail_pending(&mut self, ctx: &mut Context<Msg>, req_id: u64) {
        match self.pending.remove(&req_id) {
            Some(PendingOp::Read { client, op_id, done: false, span, .. }) => {
                ctx.span_close(span, SpanStatus::Failed);
                ctx.send(client, Msg::GetResp { op_id, ok: false, version: None });
            }
            Some(PendingOp::Write { client, op_id, done: false, span, .. }) => {
                ctx.span_close(span, SpanStatus::Failed);
                ctx.send(client, Msg::PutResp { op_id, ok: false, stamp: (0, 0) });
            }
            _ => {}
        }
    }
}

impl QuorumNode {
    /// Sloppy handoff: the sub-timeout fired and the write still lacks a
    /// quorum — send the version to spares on behalf of the silent home
    /// replicas. Spare acks count toward W.
    fn sloppy_handoff(&mut self, ctx: &mut Context<Msg>, req_id: u64) {
        let Some(PendingOp::Write { key, version, acks, acked_from, needed, done, hinted, .. }) =
            self.pending.get_mut(&req_id)
        else {
            return;
        };
        if *done || *hinted || *acks >= *needed {
            return;
        }
        *hinted = true;
        let (key, version) = (*key, *version);
        // Borrow the entry's ack list while the homes walk needs `&mut
        // self`, then hand it back — the handoff path used to clone it.
        let acked = std::mem::take(acked_from);
        let mut missing = self.take_homes(key);
        missing.retain(|nid| !acked.contains(nid));
        if let Some(PendingOp::Write { acked_from, .. }) = self.pending.get_mut(&req_id) {
            *acked_from = acked;
        }
        let spares: Vec<NodeId> = match &self.ring {
            // Sharded mode: the next distinct nodes on the key's walk.
            Some(ring) => ring.spares(key, self.spares),
            // Classic mode: the dedicated spare tail.
            None => (self.n as u32..(self.n + self.spares) as u32).map(NodeId).collect(),
        };
        if !spares.is_empty() {
            for (i, &target) in missing.iter().enumerate() {
                let spare = spares[i % spares.len()];
                ctx.send(spare, Msg::HintedPut { req_id, target, key, version });
            }
        }
        self.restore_homes(missing);
    }
}

impl Actor<Msg> for QuorumNode {
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
        if self.ring.is_none() && ctx.self_id().index() >= self.n {
            // Classic spare role: periodically retry hint delivery. In
            // ring mode any node can hold hints, so the retry chain is
            // armed lazily on the first hint instead.
            ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>, amnesia: bool) {
        let me = ctx.self_id();
        if amnesia {
            // Coordinator bookkeeping and spare-held hints are volatile:
            // in-flight ops are lost (their clients time out) and hinted
            // writes die with the spare — the durability edge sloppy
            // quorums trade away. The replica's own data is durable:
            // rebuild the store and clock by replaying the WAL. The
            // req/hint id counters survive (modeled as derived from a
            // durable restart epoch) so stale pre-crash acks can never
            // collide with post-restart request ids.
            for (_, op) in std::mem::take(&mut self.pending) {
                // The fan-out died with the coordinator; its span is
                // abandoned now rather than lingering to the horizon.
                ctx.span_close(op.span(), SpanStatus::Abandoned);
            }
            if !self.hints.is_empty() {
                ctx.recorder().count_node(
                    me.0 as u64,
                    Counter::HintsDropped,
                    self.hints.len() as u64,
                );
            }
            self.hints.clear();
            self.store.replace(durability::replay(&self.wal, ctx, None, Some(&mut self.clock)));
        }
        // The outage discarded every timer that came due during it, so
        // the hint-retry chain must be re-armed in both recovery modes.
        // (One due after the recovery still fires — see
        // `Actor::on_recover`.)
        if self.ring.is_none() {
            if me.index() >= self.n {
                ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
            }
        } else {
            self.hint_timer_armed = !self.hints.is_empty();
            if self.hint_timer_armed {
                ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
            }
        }
    }

    fn on_membership(&mut self, ctx: &mut Context<Msg>, node: NodeId, join: bool) {
        // Classic mode has no ring to rebalance; membership events are
        // meaningless there.
        let Some(ring) = self.ring.as_mut() else { return };
        // A handle, not a table: the first node to see this change
        // builds the next snapshot, every other node adopts it.
        let old = ring.clone();
        let changed = if join { ring.join(node) } else { ring.leave(node) };
        if !changed {
            return;
        }
        let me = ctx.self_id();
        let keys = self.store.scan(..).map(|(key, _)| key);
        let (pushes, rebalanced) = rebalance_pushes(&old, ring, node, me, keys);
        if rebalanced > 0 {
            ctx.recorder().count_node(me.0 as u64, Counter::RebalancedKeys, rebalanced);
        }
        // Repair is idempotent LWW apply, so duplicates and reorderings
        // are harmless; under a partition the push is simply lost, and
        // read repair picks up the slack after the heal.
        for (key, target) in pushes {
            let version = self.local_version(key).expect("a scanned key has a version");
            ctx.send(target, Msg::Repair { key, version });
        }
    }

    fn on_shutdown(&mut self, ctx: &mut Context<Msg>) {
        // Hints still parked here at the end of the run never reached
        // their home replica — account for them so the conservation
        // identity hints_stored == hints_drained + hints_dropped holds.
        if !self.hints.is_empty() {
            ctx.recorder().count_node(
                ctx.self_id().0 as u64,
                Counter::HintsDropped,
                self.hints.len() as u64,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, tag: u64) {
        let req_id = tag >> TAG_KIND_BITS;
        match tag & ((1 << TAG_KIND_BITS) - 1) {
            TAG_SLOPPY => self.sloppy_handoff(ctx, req_id),
            TAG_OPTIMEOUT => self.fail_pending(ctx, req_id),
            TAG_HINT_RETRY => {
                for (&hint_id, &(target, key, version)) in &self.hints {
                    ctx.send(target, Msg::HintDeliver { hint_id, key, version });
                }
                if self.ring.is_none() {
                    // Classic spare: perpetual retry chain.
                    ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
                } else if !self.hints.is_empty() {
                    ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
                } else {
                    // Ring mode: let the chain die once every hint drained;
                    // the next HintedPut re-arms it.
                    self.hint_timer_armed = false;
                }
            }
            _ => unreachable!("timer tag {tag} names no timer kind"),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Get { op_id, key } => self.start_read(ctx, from, op_id, key),
            Msg::Put { op_id, key, value } => self.start_write(ctx, from, op_id, key, value),
            Msg::RGet { req_id, key } => {
                let span = ctx.span_open("replica_read");
                let version = self.local_version(key);
                ctx.send(from, Msg::RGetResp { req_id, version });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::RGetResp { req_id, version } => {
                let mut late_repair: Option<(Key, WireVersion, NodeId)> = None;
                if let Some(PendingOp::Read { responses, done, winner, key, .. }) =
                    self.pending.get_mut(&req_id)
                {
                    responses.push((from, version));
                    if *done && self.read_repair {
                        // Async read repair: a response arriving after the
                        // quorum still tells us whether that replica lags.
                        match (*winner, version) {
                            (Some(best), v) if v.map(|x| x.ts < best.ts).unwrap_or(true) => {
                                late_repair = Some((*key, best, from));
                            }
                            (_, Some(v)) => {
                                // The late responder is *newer*: adopt it
                                // locally so future reads here are fresher.
                                // Only if we are a home replica for the key —
                                // a ring coordinator outside the preference
                                // list must not grow a stray copy.
                                let key = *key;
                                let homes = self.take_homes(key);
                                let is_home = homes.contains(&ctx.self_id());
                                self.restore_homes(homes);
                                if is_home {
                                    self.apply_version(ctx, key, v);
                                }
                            }
                            _ => {}
                        }
                    }
                }
                if let Some((key, version, node)) = late_repair {
                    ctx.recorder().count_node(ctx.self_id().0 as u64, Counter::ReadRepairs, 1);
                    ctx.send(node, Msg::Repair { key, version });
                }
                self.try_finish_read(ctx, req_id);
            }
            Msg::RPut { req_id, key, version } => {
                let span = ctx.span_open("replica_write");
                self.apply_version(ctx, key, version);
                ctx.send(from, Msg::RPutAck { req_id });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::RPutAck { req_id } => {
                if let Some(PendingOp::Write { acks, acked_from, .. }) =
                    self.pending.get_mut(&req_id)
                {
                    *acks += 1;
                    acked_from.push(from);
                    self.try_finish_write(ctx, req_id);
                }
            }
            Msg::HintedPut { req_id, target, key, version } => {
                // Spare role: store the hint, ack toward the write quorum.
                let span = ctx.span_open("hint_store");
                self.next_hint += 1;
                self.hints.insert(self.next_hint, (target, key, version));
                ctx.recorder().count_node(ctx.self_id().0 as u64, Counter::HintsStored, 1);
                if self.ring.is_some() && !self.hint_timer_armed {
                    self.hint_timer_armed = true;
                    ctx.set_timer(HANDOFF_INTERVAL, TAG_HINT_RETRY);
                }
                ctx.send(from, Msg::HintAck { req_id });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::HintAck { req_id } => {
                if let Some(PendingOp::Write { acks, .. }) = self.pending.get_mut(&req_id) {
                    *acks += 1;
                    self.try_finish_write(ctx, req_id);
                }
            }
            Msg::HintDeliver { hint_id, key, version } => {
                self.apply_version(ctx, key, version);
                ctx.send(from, Msg::HintDeliverAck { hint_id });
            }
            Msg::HintDeliverAck { hint_id } => {
                if self.hints.remove(&hint_id).is_some() {
                    ctx.recorder().count_node(ctx.self_id().0 as u64, Counter::HintsDrained, 1);
                }
            }
            Msg::Repair { key, version } => {
                let span = ctx.span_open("repair_apply");
                self.apply_version(ctx, key, version);
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::GetResp { .. } | Msg::PutResp { .. } => {}
        }
    }
}

/// The quorum protocol as a client speaks it: one request to a
/// coordinator, one response.
pub struct QuorumSession {
    /// Addressable coordinators `0..servers`.
    servers: usize,
    policy: TargetPolicy,
}

/// A scripted client for the quorum protocol.
pub type QuorumClient = SessionClient<QuorumSession>;

impl QuorumClient {
    /// Create a client session whose coordinator per operation is
    /// `policy`'s choice among nodes `0..servers`.
    pub fn new(
        session: u64,
        script: Vec<ScriptOp>,
        trace: SharedTrace,
        servers: usize,
        policy: TargetPolicy,
    ) -> Self {
        SessionClient::with_protocol(session, script, trace, QuorumSession { servers, policy })
    }
}

impl ClientProtocol for QuorumSession {
    type Msg = Msg;
    const OP_TIMEOUT: Duration = Duration::from_millis(800);

    fn target(&mut self, ctx: &mut Context<Msg>) -> NodeId {
        self.policy.pick(ctx, self.servers)
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
            Msg::GetResp { op_id, ok, version } => Reply::Done(
                op_id,
                OpOutcome {
                    ok,
                    values: version.map(|v| v.value).into_iter().collect(),
                    stamp: version.map(|v| (v.ts.counter, v.ts.actor)),
                    version_ts: version.map(|v| SimTime::from_micros(v.written_at)),
                },
            ),
            Msg::PutResp { op_id, ok, stamp } => Reply::Done(
                op_id,
                OpOutcome { ok, values: vec![], stamp: Some(stamp), version_ts: None },
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
        assert_eq!(std::mem::size_of::<Msg>(), 56);
    }

    fn majority(n: usize) -> Composition {
        Composition::quorum(n, n / 2 + 1, n / 2 + 1, true, 0)
    }

    fn build(
        cfg: &Composition,
        clients: Vec<QuorumClient>,
        seed: u64,
        faults: FaultSchedule,
    ) -> Sim<Msg> {
        build_from(cfg, clients, seed, faults, 0)
    }

    /// [`build`] with every coordinator's last request id preset to
    /// `next_req`, as after that many operations.
    fn build_from(
        cfg: &Composition,
        clients: Vec<QuorumClient>,
        seed: u64,
        faults: FaultSchedule,
        next_req: u64,
    ) -> Sim<Msg> {
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(5)))
                .faults(faults),
        );
        for _ in 0..cfg.server_node_count() {
            let mut node = QuorumNode::new(cfg, None);
            node.next_req = next_req;
            sim.add_node(Box::new(node));
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
    fn majority_quorum_read_sees_prior_write() {
        let trace = sink::shared_trace();
        let cfg = majority(3);
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 9)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let reader = QuorumClient::new(
            2,
            vec![ScriptOp { gap_us: 100_000, kind: OpKind::Read, key: 9 }],
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![writer, reader], 1, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert!(read.ok);
        assert_eq!(read.value_read, vec![unique_value(1, 1)]);
    }

    #[test]
    fn r1_partial_quorum_admits_stale_read_after_ack() {
        // PBS in miniature: with R=W=1, there exists a schedule (under
        // jittery latency) where a read *invoked after the write was
        // acknowledged* still misses the write. With constant latency no
        // such window exists (ack and fan-out travel equally fast), so we
        // search seeds under jitter for a deterministic witness.
        let mut witness = None;
        for seed in 0..100u64 {
            let trace = sink::shared_trace();
            let cfg = Composition::quorum(3, 1, 1, false, 0);
            let writer = QuorumClient::new(
                1,
                script(&[(OpKind::Write, 9)]),
                trace.clone(),
                3,
                TargetPolicy::Sticky(NodeId(0)),
            );
            // Probe every 2ms: any probe invoked after the write ack that
            // still sees nothing is a stale-after-ack witness.
            let reader = QuorumClient::new(
                2,
                (0..40).map(|_| ScriptOp { gap_us: 2_000, kind: OpKind::Read, key: 9 }).collect(),
                trace.clone(),
                3,
                TargetPolicy::Sticky(NodeId(1)),
            );
            let mut sim =
                Sim::new(SimConfig::default().seed(seed).latency(LatencyModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(30),
                }));
            for _ in 0..cfg.replicas {
                sim.add_node(Box::new(QuorumNode::new(&cfg, None)));
            }
            sim.add_node(Box::new(writer));
            sim.add_node(Box::new(reader));
            sim.run_until(SimTime::from_secs(1));
            let t = trace.borrow();
            let write = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
            let stale_after_ack = t.records().iter().any(|r| {
                r.kind == OpKind::Read
                    && r.ok
                    && r.invoked > write.completed
                    && r.value_read.is_empty()
            });
            if write.ok && stale_after_ack {
                witness = Some(seed);
                break;
            }
        }
        assert!(
            witness.is_some(),
            "no stale-after-ack schedule found in 100 seeds — partial quorums should admit one"
        );
    }

    #[test]
    fn read_repair_spreads_version_to_all_replicas() {
        let trace = sink::shared_trace();
        let cfg = Composition::quorum(3, 1, 2, true, 0);
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 3)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        // One repaired read, then an R=1-style late probe at each
        // coordinator: after repair every replica must serve the value.
        let reader = QuorumClient::new(
            2,
            vec![ScriptOp { gap_us: 100_000, kind: OpKind::Read, key: 3 }],
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut probes = Vec::new();
        for (s, node) in [(3u64, 0u32), (4, 1), (5, 2)] {
            probes.push(QuorumClient::new(
                s,
                vec![ScriptOp { gap_us: 400_000, kind: OpKind::Read, key: 3 }],
                trace.clone(),
                3,
                TargetPolicy::Sticky(NodeId(node)),
            ));
        }
        let mut clients = vec![writer, reader];
        clients.extend(probes);
        let mut sim = build(&cfg, clients, 3, FaultSchedule::none());
        sim.run_until(SimTime::from_secs(1));
        let t = trace.borrow();
        for r in t.records().iter().filter(|r| r.session >= 3) {
            assert_eq!(
                r.value_read,
                vec![unique_value(1, 1)],
                "replica behind coordinator for session {} still stale",
                r.session
            );
        }
    }

    #[test]
    fn minority_partition_blocks_majority_quorum_ops() {
        let trace = sink::shared_trace();
        let cfg = majority(3);
        // Side A holds node 0 *and* its client (node 3); the fine client
        // (node 4) stays with the majority.
        let faults = FaultSchedule::none().partition(
            vec![NodeId(0), NodeId(3)],
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let blocked = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 1)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let fine = QuorumClient::new(
            2,
            script(&[(OpKind::Write, 2)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![blocked, fine], 4, faults);
        sim.run_until(SimTime::from_secs(5));
        let t = trace.borrow();
        let by_session = |s: u64| t.records().iter().find(|r| r.session == s).unwrap();
        assert!(!by_session(1).ok, "coordinator in minority partition must fail");
        assert!(by_session(2).ok, "majority side keeps working");
    }

    #[test]
    fn coordinator_timeout_produces_client_failure_quickly() {
        let trace = sink::shared_trace();
        let cfg = majority(3);
        // The client (node 3) sits on node 0's side of the cut so its
        // request reaches the coordinator, whose op timeout then fires.
        let faults = FaultSchedule::none().partition(
            vec![NodeId(0), NodeId(3)],
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let c = QuorumClient::new(
            1,
            script(&[(OpKind::Read, 1)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build(&cfg, vec![c], 5, faults);
        sim.run_until(SimTime::from_secs(5));
        let t = trace.borrow();
        let r = &t.records()[0];
        assert!(!r.ok);
        assert!(r.latency() < Duration::from_millis(300), "latency {:?}", r.latency());
    }

    #[test]
    fn r1w1_is_available_in_both_partition_sides() {
        // CAP in one test: R=W=1 keeps serving on both sides of a cut.
        let trace = sink::shared_trace();
        let cfg = Composition::quorum(3, 1, 1, true, 0);
        // The minority client (node 3) is co-located with node 0.
        let faults = FaultSchedule::none().partition(
            vec![NodeId(0), NodeId(3)],
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let minority = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 1)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let majority = QuorumClient::new(
            2,
            script(&[(OpKind::Write, 1)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![minority, majority], 6, faults);
        sim.run_until(SimTime::from_secs(5));
        let t = trace.borrow();
        assert!(t.records().iter().all(|r| r.ok), "R=W=1 stays available everywhere");
    }

    /// Whether one write through coordinator 0 succeeds while home
    /// replicas 1 and 2 are cut off, with or without one spare, its
    /// request id the one after `next_req`.
    fn write_with_homes_down(sloppy: bool, next_req: u64) -> bool {
        let trace = sink::shared_trace();
        let cfg = Composition::quorum(3, 2, 2, true, usize::from(sloppy));
        let total = cfg.server_node_count();
        // Side A: coordinator 0, the spare (if any), and the client.
        let mut side_a = vec![NodeId(0), NodeId(total as u32)];
        if sloppy {
            side_a.push(NodeId(3));
        }
        let faults = FaultSchedule::none().partition(side_a, SimTime::ZERO, SimTime::from_secs(5));
        let client = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 9)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        let mut sim = build_from(&cfg, vec![client], 21, faults, next_req);
        sim.run_until(SimTime::from_secs(3));
        let t = trace.borrow();
        t.records()[0].ok
    }

    #[test]
    fn sloppy_quorum_writes_survive_home_replica_outage() {
        // A strict majority write must fail, while a sloppy one succeeds
        // through hinted handoff to the spare (node 3).
        assert!(!write_with_homes_down(false, 0), "strict majority must fail with two homes down");
        assert!(write_with_homes_down(true, 0), "sloppy quorum must succeed via hinted handoff");
    }

    #[test]
    fn sloppy_handoff_fires_at_every_request_id() {
        // The sub-timeout and the op timeout of one request must never
        // share a tag range: request 500 000 once armed its handoff in
        // the op-timeout range, and the handoff never happened.
        for next_req in [499_998, 499_999, 999_999, 1 << 40] {
            assert!(write_with_homes_down(true, next_req), "request {}", next_req + 1);
        }
    }

    #[test]
    fn hints_deliver_after_partition_heals() {
        // Write lands via hints during the outage; after the heal the
        // spare hands the version to the real owners, and an R=1 read at
        // node 1 sees it.
        let trace = sink::shared_trace();
        let cfg = Composition::quorum(3, 1, 2, true, 1);
        let total = cfg.server_node_count();
        let faults = FaultSchedule::none().partition(
            vec![NodeId(0), NodeId(3), NodeId(total as u32)],
            SimTime::ZERO,
            SimTime::from_secs(2),
        );
        let writer = QuorumClient::new(
            1,
            script(&[(OpKind::Write, 9)]),
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(0)),
        );
        // Read at node 1, 4 seconds in (partition healed at 2s, handoff
        // retries every 100ms).
        let reader = QuorumClient::new(
            2,
            vec![ScriptOp { gap_us: 4_000_000, kind: OpKind::Read, key: 9 }],
            trace.clone(),
            3,
            TargetPolicy::Sticky(NodeId(1)),
        );
        let mut sim = build(&cfg, vec![writer, reader], 22, faults);
        sim.run_until(SimTime::from_secs(6));
        let t = trace.borrow();
        let write = t.records().iter().find(|r| r.kind == OpKind::Write).unwrap();
        let read = t.records().iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert!(write.ok, "hinted write succeeds during the outage");
        assert_eq!(
            read.value_read,
            vec![unique_value(1, 1)],
            "hint must be delivered to the home replica after the heal"
        );
    }

    #[test]
    #[should_panic(expected = "cannot exceed n")]
    fn invalid_quorum_config_panics() {
        QuorumNode::new(&Composition::quorum(3, 4, 1, true, 0), None);
    }
}
