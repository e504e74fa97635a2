//! The one client actor, shared by all protocols.
//!
//! A [`SessionClient`] is a scripted session: it issues operations (with
//! think-time gaps), arms per-operation timeouts, and records every
//! completion — success or timeout — into the shared operation trace.
//! What differs between protocols is a [`ClientProtocol`]: which replica
//! to address, how an operation looks on the wire, and how a reply reads
//! back as an [`OpOutcome`]. `EventualClient` … `CausalClient` are names
//! for `SessionClient<…>` with that protocol's implementation.

use crate::sink::SharedTrace;
use kvstore::Key;
use obs::TsMetric;
use serde::{Deserialize, Serialize};
use simnet::{
    Actor, Context, Duration, MsgMeta, NodeId, OpKind, OpRecord, SimTime, SpanId, SpanStatus,
};

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptOp {
    /// Gap before issuing, in microseconds (after the previous response
    /// for closed-loop scripts).
    pub gap_us: u64,
    /// Read or write.
    pub kind: OpKind,
    /// The key.
    pub key: Key,
}

/// Session guarantees a client can enforce (Terry et al., Bayou).
///
/// Enforcement mechanics (all client-side, as the tutorial describes):
/// * **Read-your-writes / monotonic reads** — the client keeps per-key
///   floors (stamps of its own writes and of versions it has read) and
///   retries a read whose returned stamp is below the floor.
/// * **Monotonic writes / writes-follow-reads** — the client piggybacks
///   the highest stamp it has seen on every write; replicas tick their
///   Lamport clocks past it before stamping, ordering the new write after
///   everything the session depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Guarantees {
    /// Reads reflect the session's own writes.
    pub read_your_writes: bool,
    /// Successive reads never go backwards.
    pub monotonic_reads: bool,
    /// The session's writes are ordered.
    pub monotonic_writes: bool,
    /// Writes are ordered after the reads they depend on.
    pub writes_follow_reads: bool,
}

impl Guarantees {
    /// No guarantees (raw eventual consistency).
    pub fn none() -> Self {
        Self::default()
    }

    /// All four session guarantees.
    pub fn all() -> Self {
        Guarantees {
            read_your_writes: true,
            monotonic_reads: true,
            monotonic_writes: true,
            writes_follow_reads: true,
        }
    }

    /// True if any read-side guarantee is on.
    pub fn any_read_guarantee(&self) -> bool {
        self.read_your_writes || self.monotonic_reads
    }
}

/// What a completed operation looked like to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Whether it succeeded.
    pub ok: bool,
    /// For reads: observed value(s) (unique write ids); empty if absent.
    pub values: Vec<u64>,
    /// Logical stamp (write: assigned; read: max returned).
    pub stamp: Option<(u64, u64)>,
    /// Origin wall time of the version read.
    pub version_ts: Option<SimTime>,
}

impl OpOutcome {
    /// A timeout/unavailable outcome.
    pub fn failed() -> Self {
        OpOutcome { ok: false, values: Vec::new(), stamp: None, version_ts: None }
    }
}

/// Which replica a session addresses, per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicy {
    /// Always the same ("home" / nearest) replica.
    Sticky(NodeId),
    /// A uniformly random replica per operation (load-balanced anycast —
    /// the setting where session-guarantee violations show up).
    Random,
}

impl TargetPolicy {
    /// The replica to address now, among servers `0..servers`. `Random`
    /// draws from the actor's RNG on every call.
    pub fn pick<M>(self, ctx: &mut Context<M>, servers: usize) -> NodeId {
        match self {
            TargetPolicy::Sticky(n) => n,
            TargetPolicy::Random => NodeId(ctx.rng().index(servers) as u32),
        }
    }
}

/// A fully-described operation to issue; also what a protocol hook is
/// told about the operation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOp {
    /// Trace-unique op id (also used to match responses).
    pub op_id: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Key.
    pub key: Key,
    /// For writes: the globally unique value to write.
    pub value: Option<u64>,
    /// How often it has been re-issued (0 on the first attempt).
    pub retries: u32,
}

/// What a delivered message means for the session.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Operation `.0` finished with this outcome (ignored if that
    /// operation already timed out).
    Done(u64, OpOutcome),
    /// Re-issue the operation in flight to this replica.
    Retry(NodeId),
    /// Not for the session (late, or handled inside the hook).
    Ignore,
}

/// The protocol-specific part of a client session. A new protocol is one
/// replica actor, one implementation of this trait and one runner arm.
pub trait ClientProtocol {
    /// The protocol's wire messages.
    type Msg: MsgMeta;

    /// How long the session waits for an operation, retries included,
    /// before recording it as failed.
    const OP_TIMEOUT: Duration;

    /// The replica the session addresses now.
    fn target(&mut self, ctx: &mut Context<Self::Msg>) -> NodeId;

    /// `op` as this protocol's request message.
    fn request(&self, op: IssueOp) -> Self::Msg;

    /// Send `op` (a first issue or a retry). `target` is what
    /// [`ClientProtocol::target`] or the retry chose and what the trace
    /// row records; a protocol that routes some requests elsewhere or
    /// guards each attempt with a timer overrides this.
    fn issue(&mut self, ctx: &mut Context<Self::Msg>, op: IssueOp, target: NodeId) {
        ctx.send(target, self.request(op));
    }

    /// Read a delivered message.
    fn on_reply(
        &mut self,
        ctx: &mut Context<Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
        in_flight: Option<IssueOp>,
    ) -> Reply;

    /// A timer the protocol set itself (any tag below `u64::MAX / 2`)
    /// fired; `Some(replica)` re-issues the operation in flight there.
    fn on_timer(
        &mut self,
        _ctx: &mut Context<Self::Msg>,
        _tag: u64,
        _in_flight: Option<IssueOp>,
    ) -> Option<NodeId> {
        None
    }
}

#[derive(Debug)]
struct Pending {
    op: IssueOp,
    invoked: SimTime,
    replica: NodeId,
    timeout_timer: u64,
    /// Root span of the operation's trace, closed at completion/timeout.
    span: SpanId,
}

/// A scripted client session speaking protocol `P`.
#[derive(Debug)]
pub struct SessionClient<P> {
    proto: P,
    session: u64,
    script: Vec<ScriptOp>,
    next_idx: usize,
    trace: SharedTrace,
    pending: Option<Pending>,
}

/// Session timer tags; a protocol's own tags stay below `TAG_TIMEOUT_BASE`.
const TAG_ISSUE: u64 = u64::MAX;
const TAG_TIMEOUT_BASE: u64 = u64::MAX / 2;

/// Globally unique value for `session`'s `op_id` (sessions are assumed
/// < 2^32 and ops per session < 2^32).
pub fn unique_value(session: u64, op_id: u64) -> u64 {
    (session << 32) | (op_id & 0xffff_ffff)
}

impl<P: ClientProtocol> SessionClient<P> {
    /// A session that will replay `script` over `proto`.
    pub fn with_protocol(
        session: u64,
        script: Vec<ScriptOp>,
        trace: SharedTrace,
        proto: P,
    ) -> Self {
        SessionClient { proto, session, script, next_idx: 0, trace, pending: None }
    }

    fn schedule_next(&mut self, ctx: &mut Context<P::Msg>) {
        if let Some(op) = self.script.get(self.next_idx) {
            ctx.set_timer(Duration::from_micros(op.gap_us), TAG_ISSUE);
        }
    }

    fn in_flight(&self) -> Option<IssueOp> {
        self.pending.as_ref().map(|p| p.op)
    }

    /// Issue the next scripted operation to `target`.
    fn issue_next(&mut self, ctx: &mut Context<P::Msg>, target: NodeId) {
        let Some(&next) = self.script.get(self.next_idx) else { return };
        self.next_idx += 1;
        // Op ids count the session's operations from 1.
        let op_id = self.next_idx as u64;
        let value = (next.kind == OpKind::Write).then(|| unique_value(self.session, op_id));
        let op = IssueOp { op_id, kind: next.kind, key: next.key, value, retries: 0 };
        // Every client operation roots a new trace; the timeout timer and
        // the protocol's request then carry its context through the
        // envelope.
        let span = ctx.start_trace(match op.kind {
            OpKind::Read => "op_read",
            OpKind::Write => "op_write",
        });
        let timeout_timer = ctx.set_timer(P::OP_TIMEOUT, TAG_TIMEOUT_BASE + op_id);
        // The row records `target`, the replica this session addresses,
        // not where the protocol then routes the request: a primary-copy
        // write goes to the primary yet records the session's read
        // replica. Checkers only consult a *read's* replica (the node
        // that served it); a write's is pinned as is by
        // `tests/trace_golden.rs` and the benchmark digests.
        self.pending =
            Some(Pending { op, invoked: ctx.now(), replica: target, timeout_timer, span });
        self.proto.issue(ctx, op, target);
    }

    /// Re-issue the pending operation to `target` (guarantee enforcement,
    /// leader redirect, failover). The retry keeps the original
    /// invocation time so the recorded latency includes every attempt.
    fn retry(&mut self, ctx: &mut Context<P::Msg>, target: NodeId) {
        let Some(p) = self.pending.as_mut() else { return };
        p.op.retries += 1;
        p.replica = target;
        // Re-enter the operation's trace so the re-send carries it even
        // when the triggering callback was untraced (attempt timers,
        // stale responses).
        ctx.resume_span(p.span);
        let op = p.op;
        self.proto.issue(ctx, op, target);
    }

    /// Complete the pending operation with `outcome` (ignores op ids that
    /// already timed out): cancel the timeout, record the trace row,
    /// schedule the next scripted op.
    fn complete(&mut self, ctx: &mut Context<P::Msg>, op_id: u64, outcome: OpOutcome) {
        let Some(p) = self.pending.as_ref().filter(|p| p.op.op_id == op_id) else { return };
        ctx.cancel_timer(p.timeout_timer);
        ctx.span_close(p.span, if outcome.ok { SpanStatus::Ok } else { SpanStatus::Failed });
        if outcome.ok && p.op.kind == OpKind::Read && ctx.recorder().is_enabled() {
            // Windowed consistency telemetry: how many acknowledged
            // writes the read missed, and how far behind it ran.
            let (missed, lag_us) =
                self.trace.borrow().read_staleness(p.op.key, p.invoked, &outcome.values);
            let now_us = ctx.now().as_micros();
            ctx.recorder().sample(now_us, TsMetric::StalenessVersions, missed);
            ctx.recorder().sample(now_us, TsMetric::VisibilityLagUs, lag_us);
        }
        self.record(ctx, outcome);
        self.schedule_next(ctx);
    }

    fn record(&mut self, ctx: &mut Context<P::Msg>, outcome: OpOutcome) {
        let now = ctx.now();
        let p = self.pending.take().expect("record without pending op");
        // Mirror the trace row into the event stream so online monitors
        // (the streaming consistency checkers) can observe completions
        // without access to the in-process SharedTrace. The event owns a
        // copy of the values read, so it is only built for an event log
        // that will keep it.
        ctx.recorder().record_op_complete(now.as_micros(), || obs::OpCompletion {
            session: self.session,
            op: p.op.op_id,
            key: p.op.key,
            kind: match p.op.kind {
                OpKind::Read => obs::ClientOpKind::Read,
                OpKind::Write => obs::ClientOpKind::Write,
            },
            ok: outcome.ok,
            invoked_us: p.invoked.as_micros(),
            replica: p.replica.0,
            value: p.op.value,
            values: outcome.values.clone(),
            stamp: outcome.stamp,
            version_ts_us: outcome.version_ts.map(|t| t.as_micros()),
        });
        self.trace.borrow_mut().record(OpRecord {
            session: self.session,
            op_id: p.op.op_id,
            key: p.op.key,
            kind: p.op.kind,
            value_written: p.op.value,
            value_read: outcome.values,
            invoked: p.invoked,
            completed: now,
            replica: p.replica,
            ok: outcome.ok,
            version_ts: outcome.version_ts,
            stamp: outcome.stamp,
        });
    }
}

impl<P: ClientProtocol> Actor<P::Msg> for SessionClient<P> {
    fn role(&self) -> &'static str {
        "client"
    }

    fn on_start(&mut self, ctx: &mut Context<P::Msg>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<P::Msg>, _id: u64, tag: u64) {
        if tag < TAG_TIMEOUT_BASE {
            if let Some(target) = self.proto.on_timer(ctx, tag, self.in_flight()) {
                self.retry(ctx, target);
            }
            return;
        }
        // Chosen on every session timer, although a timeout has no use
        // for it: a `Random` session's draw sequence is part of the
        // seeded run (`tests/trace_golden.rs`).
        let target = self.proto.target(ctx);
        if tag == TAG_ISSUE {
            self.issue_next(ctx, target);
        } else if let Some(p) =
            self.pending.as_ref().filter(|p| p.op.op_id == tag - TAG_TIMEOUT_BASE)
        {
            ctx.span_close(p.span, SpanStatus::Failed);
            self.record(ctx, OpOutcome::failed());
            self.schedule_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<P::Msg>, from: NodeId, msg: P::Msg) {
        match self.proto.on_reply(ctx, from, msg, self.in_flight()) {
            Reply::Done(op_id, outcome) => self.complete(ctx, op_id, outcome),
            Reply::Retry(target) => self.retry(ctx, target),
            Reply::Ignore => {}
        }
    }
}

/// Convert a workload script (`(gap_us, WorkloadOp, key)`) into session
/// script ops, expanding read-modify-writes into a read followed
/// immediately by a write.
pub fn expand_script(ops: &[(u64, workload_op::WorkloadOp, Key)]) -> Vec<ScriptOp> {
    let mut out = Vec::with_capacity(ops.len());
    for &(gap, op, key) in ops {
        match op {
            workload_op::WorkloadOp::Read => {
                out.push(ScriptOp { gap_us: gap, kind: OpKind::Read, key })
            }
            workload_op::WorkloadOp::Write => {
                out.push(ScriptOp { gap_us: gap, kind: OpKind::Write, key })
            }
            workload_op::WorkloadOp::ReadModifyWrite => {
                out.push(ScriptOp { gap_us: gap, kind: OpKind::Read, key });
                out.push(ScriptOp { gap_us: 1, kind: OpKind::Write, key });
            }
        }
    }
    out
}

/// Re-export of the workload op enum under a private name so `replication`
/// does not take a hard dependency on workload internals beyond this enum.
pub mod workload_op {
    pub use workload::WorkloadOp;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use simnet::{Sim, SimConfig};

    #[test]
    fn unique_values_encode_session() {
        let v = unique_value(7, 3);
        assert_eq!(v >> 32, 7);
        assert_ne!(unique_value(1, 1), unique_value(1, 2));
        assert_ne!(unique_value(1, 1), unique_value(2, 1));
    }

    #[test]
    fn guarantees_flags() {
        assert!(!Guarantees::none().any_read_guarantee());
        assert!(Guarantees::all().any_read_guarantee());
        let ryw = Guarantees { read_your_writes: true, ..Guarantees::none() };
        assert!(ryw.any_read_guarantee());
    }

    #[test]
    fn expand_script_expands_rmw() {
        use workload::WorkloadOp::*;
        let script = expand_script(&[(10, Read, 1), (20, ReadModifyWrite, 2), (30, Write, 3)]);
        assert_eq!(script.len(), 4);
        assert_eq!(script[1].kind, OpKind::Read);
        assert_eq!(script[2].kind, OpKind::Write);
        assert_eq!(script[2].gap_us, 1);
        assert_eq!(script[2].key, 2);
    }

    /// A self-contained echo "protocol" to drive the session end to end:
    /// the client sends (op_id, key) to a server that echoes it back;
    /// every even op is dropped so timeouts are exercised.
    #[derive(Debug, Clone)]
    enum TestMsg {
        Req { op_id: u64, drop: bool },
        Resp { op_id: u64 },
    }

    impl MsgMeta for TestMsg {}

    struct Server;
    impl Actor<TestMsg> for Server {
        fn on_message(&mut self, ctx: &mut Context<TestMsg>, from: NodeId, msg: TestMsg) {
            if let TestMsg::Req { op_id, drop } = msg {
                if !drop {
                    ctx.send(from, TestMsg::Resp { op_id });
                }
            }
        }
    }

    struct Echo {
        server: NodeId,
    }
    impl ClientProtocol for Echo {
        type Msg = TestMsg;
        const OP_TIMEOUT: Duration = Duration::from_millis(50);

        fn target(&mut self, _ctx: &mut Context<TestMsg>) -> NodeId {
            self.server
        }

        fn request(&self, op: IssueOp) -> TestMsg {
            TestMsg::Req { op_id: op.op_id, drop: op.op_id.is_multiple_of(2) }
        }

        fn on_reply(
            &mut self,
            _ctx: &mut Context<TestMsg>,
            _from: NodeId,
            msg: TestMsg,
            _in_flight: Option<IssueOp>,
        ) -> Reply {
            match msg {
                TestMsg::Resp { op_id } => Reply::Done(
                    op_id,
                    OpOutcome { ok: true, values: vec![], stamp: None, version_ts: None },
                ),
                TestMsg::Req { .. } => Reply::Ignore,
            }
        }
    }

    #[test]
    fn session_drives_script_with_timeouts() {
        let trace = sink::shared_trace();
        let script: Vec<ScriptOp> =
            (0..6).map(|i| ScriptOp { gap_us: 100, kind: OpKind::Read, key: i }).collect();
        let mut sim: Sim<TestMsg> = Sim::new(SimConfig::default().seed(3));
        let server = sim.add_node(Box::new(Server));
        sim.add_node(Box::new(SessionClient::with_protocol(
            1,
            script,
            trace.clone(),
            Echo { server },
        )));
        sim.run_until(SimTime::from_secs(5));
        let t = trace.borrow();
        assert_eq!(t.len(), 6, "all ops recorded");
        // Odd op ids (1,3,5) succeed; even (2,4,6) time out.
        for r in t.records() {
            assert_eq!(r.ok, r.op_id % 2 == 1, "op {} ok={}", r.op_id, r.ok);
            if !r.ok {
                assert_eq!(r.latency(), Duration::from_millis(50));
            }
        }
    }
}
