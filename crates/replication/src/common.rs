//! Shared client plumbing for all protocols.
//!
//! A protocol's client actor owns a [`ClientCore`]: a scripted session
//! that issues operations (with think-time gaps), arms per-operation
//! timeouts, and records every completion — success or timeout — into the
//! shared operation trace. The protocol actor supplies only the
//! protocol-specific envelope (message types, replica choice).

use kvstore::Key;
use obs::TsMetric;
use serde::{Deserialize, Serialize};
use simnet::{
    Context, Duration, NodeId, OpKind, OpRecord, SharedTrace, SimTime, SpanId, SpanStatus,
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

    /// True if any write-side guarantee is on.
    pub fn any_write_guarantee(&self) -> bool {
        self.monotonic_writes || self.writes_follow_reads
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

/// What the core asks the protocol wrapper to do after a timer fires.
#[derive(Debug, Clone, PartialEq)]
pub enum TimerAction {
    /// Issue this operation now (send the protocol request).
    Issue(IssueOp),
    /// The pending operation timed out and has been recorded; nothing to
    /// send (the wrapper may cancel protocol state for the op id).
    TimedOut(u64),
    /// Not a client-core timer / nothing to do.
    None,
}

/// A fully-described operation to issue.
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
}

#[derive(Debug)]
struct Pending {
    op_id: u64,
    kind: OpKind,
    key: Key,
    value: Option<u64>,
    invoked: SimTime,
    replica: NodeId,
    timeout_timer: u64,
    retries: u32,
    /// Root span of the operation's trace, closed at completion/timeout.
    span: SpanId,
}

/// Scripted-session state machine shared by every protocol's client actor.
#[derive(Debug)]
pub struct ClientCore {
    session: u64,
    script: Vec<ScriptOp>,
    next_idx: usize,
    trace: SharedTrace,
    pending: Option<Pending>,
    timeout: Duration,
    issued: u64,
}

/// Timer tags used by the core (protocol wrappers must not reuse these).
const TAG_ISSUE: u64 = u64::MAX;
const TAG_TIMEOUT_BASE: u64 = u64::MAX / 2;

impl ClientCore {
    /// Create a session that will replay `script`.
    pub fn new(session: u64, script: Vec<ScriptOp>, trace: SharedTrace, timeout: Duration) -> Self {
        ClientCore { session, script, next_idx: 0, trace, pending: None, timeout, issued: 0 }
    }

    /// The session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// True once every scripted op has completed (or timed out).
    pub fn done(&self) -> bool {
        self.next_idx >= self.script.len() && self.pending.is_none()
    }

    /// Globally unique value for this session's `op_id` (sessions are
    /// assumed < 2^32 and ops per session < 2^32).
    pub fn unique_value(session: u64, op_id: u64) -> u64 {
        (session << 32) | (op_id & 0xffff_ffff)
    }

    /// Decode the writing session from a unique value.
    pub fn session_of_value(value: u64) -> u64 {
        value >> 32
    }

    /// Schedule the first operation. Call from `Actor::on_start`.
    pub fn start<M>(&mut self, ctx: &mut Context<M>) {
        self.schedule_next(ctx);
    }

    fn schedule_next<M>(&mut self, ctx: &mut Context<M>) {
        if let Some(op) = self.script.get(self.next_idx) {
            ctx.set_timer(Duration::from_micros(op.gap_us), TAG_ISSUE);
        }
    }

    /// Handle a timer. Returns what the protocol wrapper should do.
    /// `replica` is the target the wrapper will send to (recorded for the
    /// trace); the wrapper passes its current choice in.
    pub fn handle_timer<M>(
        &mut self,
        ctx: &mut Context<M>,
        tag: u64,
        replica: NodeId,
    ) -> TimerAction {
        if tag == TAG_ISSUE {
            let Some(&op) = self.script.get(self.next_idx) else {
                return TimerAction::None;
            };
            self.next_idx += 1;
            self.issued += 1;
            let op_id = self.issued;
            let value = (op.kind == OpKind::Write).then(|| Self::unique_value(self.session, op_id));
            // Every client operation roots a new trace; the timeout timer
            // (and the wrapper's protocol send, which happens after this
            // returns) then carry its context through the envelope.
            let span = ctx.start_trace(match op.kind {
                OpKind::Read => "op_read",
                OpKind::Write => "op_write",
            });
            let timer = ctx.set_timer(self.timeout, TAG_TIMEOUT_BASE + op_id);
            self.pending = Some(Pending {
                op_id,
                kind: op.kind,
                key: op.key,
                value,
                invoked: ctx.now(),
                replica,
                timeout_timer: timer,
                retries: 0,
                span,
            });
            TimerAction::Issue(IssueOp { op_id, kind: op.kind, key: op.key, value })
        } else if tag >= TAG_TIMEOUT_BASE {
            let op_id = tag - TAG_TIMEOUT_BASE;
            match &self.pending {
                Some(p) if p.op_id == op_id => {
                    ctx.span_close(p.span, SpanStatus::Failed);
                    self.record(ctx, OpOutcome::failed());
                    self.schedule_next(ctx);
                    TimerAction::TimedOut(op_id)
                }
                _ => TimerAction::None,
            }
        } else {
            TimerAction::None
        }
    }

    /// Re-issue the pending operation (used by retry-based guarantee
    /// enforcement and failover). Returns the op to send, or `None` if
    /// nothing is pending. The retry keeps the original invocation time so
    /// the recorded latency includes every attempt.
    pub fn retry<M>(&mut self, ctx: &mut Context<M>, replica: NodeId) -> Option<IssueOp> {
        let p = self.pending.as_mut()?;
        p.retries += 1;
        p.replica = replica;
        // Re-enter the operation's trace so the wrapper's re-send carries
        // it even when the triggering callback was untraced (failover
        // timers, stale responses).
        ctx.resume_span(p.span);
        Some(IssueOp { op_id: p.op_id, kind: p.kind, key: p.key, value: p.value })
    }

    /// Number of retries the pending op has had.
    pub fn pending_retries(&self) -> u32 {
        self.pending.as_ref().map(|p| p.retries).unwrap_or(0)
    }

    /// The pending op id, if any.
    pub fn pending_op(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.op_id)
    }

    /// The pending op's key, if any.
    pub fn pending_key(&self) -> Option<Key> {
        self.pending.as_ref().map(|p| p.key)
    }

    /// Complete the pending operation with `outcome` (ignores op ids that
    /// already timed out). Cancels the timeout timer, records the trace
    /// row, and schedules the next scripted op.
    pub fn complete<M>(&mut self, ctx: &mut Context<M>, op_id: u64, outcome: OpOutcome) -> bool {
        match &self.pending {
            Some(p) if p.op_id == op_id => {
                ctx.cancel_timer(p.timeout_timer);
                ctx.span_close(
                    p.span,
                    if outcome.ok { SpanStatus::Ok } else { SpanStatus::Failed },
                );
                if outcome.ok && p.kind == OpKind::Read && ctx.recorder().is_enabled() {
                    // Windowed consistency telemetry: how many acknowledged
                    // writes the read missed, and how far behind it ran.
                    let (missed, lag_us) =
                        self.trace.borrow().read_staleness(p.key, p.invoked, &outcome.values);
                    let now_us = ctx.now().as_micros();
                    ctx.recorder().sample(now_us, TsMetric::StalenessVersions, missed);
                    ctx.recorder().sample(now_us, TsMetric::VisibilityLagUs, lag_us);
                }
                self.record(ctx, outcome);
                self.schedule_next(ctx);
                true
            }
            _ => false,
        }
    }

    fn record<M>(&mut self, ctx: &mut Context<M>, outcome: OpOutcome) {
        let now = ctx.now();
        let p = self.pending.take().expect("record without pending op");
        // Mirror the trace row into the event stream so online monitors
        // (the streaming consistency checkers) can observe completions
        // without access to the in-process SharedTrace. The event owns a
        // copy of the values read, so it is only built for a recorder
        // that will take it.
        if ctx.recorder().is_enabled() {
            ctx.recorder().record(
                now.as_micros(),
                obs::EventKind::OpComplete {
                    session: self.session,
                    op: p.op_id,
                    key: p.key,
                    kind: match p.kind {
                        OpKind::Read => obs::ClientOpKind::Read,
                        OpKind::Write => obs::ClientOpKind::Write,
                    },
                    ok: outcome.ok,
                    invoked_us: p.invoked.as_micros(),
                    replica: p.replica.0 as u64,
                    value: p.value,
                    values: outcome.values.clone(),
                    stamp: outcome.stamp,
                    version_ts_us: outcome.version_ts.map(|t| t.as_micros()),
                },
            );
        }
        self.trace.borrow_mut().push(OpRecord {
            session: self.session,
            op_id: p.op_id,
            key: p.key,
            kind: p.kind,
            value_written: p.value,
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

/// Convert a workload script (`(gap_us, WorkloadOp, key)`) into client-core
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
    use simnet::{optrace, Actor, Sim, SimConfig};

    #[test]
    fn unique_values_encode_session() {
        let v = ClientCore::unique_value(7, 3);
        assert_eq!(ClientCore::session_of_value(v), 7);
        assert_ne!(ClientCore::unique_value(1, 1), ClientCore::unique_value(1, 2));
        assert_ne!(ClientCore::unique_value(1, 1), ClientCore::unique_value(2, 1));
    }

    #[test]
    fn guarantees_flags() {
        assert!(!Guarantees::none().any_read_guarantee());
        assert!(Guarantees::all().any_read_guarantee());
        assert!(Guarantees::all().any_write_guarantee());
        let ryw = Guarantees { read_your_writes: true, ..Guarantees::none() };
        assert!(ryw.any_read_guarantee());
        assert!(!ryw.any_write_guarantee());
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

    /// A self-contained echo "protocol" to drive the core end to end: the
    /// client sends (op_id, key) to a server that echoes it back; every
    /// odd op is dropped so timeouts are exercised.
    #[derive(Debug, Clone)]
    enum TestMsg {
        Req { op_id: u64, drop: bool },
        Resp { op_id: u64 },
    }

    impl simnet::MsgMeta for TestMsg {}

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

    struct TestClient {
        core: ClientCore,
        server: NodeId,
    }
    impl Actor<TestMsg> for TestClient {
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            self.core.start(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Context<TestMsg>, _id: u64, tag: u64) {
            match self.core.handle_timer(ctx, tag, self.server) {
                TimerAction::Issue(op) => {
                    ctx.send(
                        self.server,
                        TestMsg::Req { op_id: op.op_id, drop: op.op_id % 2 == 0 },
                    );
                }
                TimerAction::TimedOut(_) | TimerAction::None => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Context<TestMsg>, _from: NodeId, msg: TestMsg) {
            if let TestMsg::Resp { op_id } = msg {
                self.core.complete(
                    ctx,
                    op_id,
                    OpOutcome { ok: true, values: vec![], stamp: None, version_ts: None },
                );
            }
        }
    }

    #[test]
    fn core_drives_script_with_timeouts() {
        let trace = optrace::shared_trace();
        let script: Vec<ScriptOp> =
            (0..6).map(|i| ScriptOp { gap_us: 100, kind: OpKind::Read, key: i }).collect();
        let mut sim: Sim<TestMsg> = Sim::new(SimConfig::default().seed(3));
        let server = sim.add_node(Box::new(Server));
        sim.add_node(Box::new(TestClient {
            core: ClientCore::new(1, script, trace.clone(), Duration::from_millis(50)),
            server,
        }));
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
