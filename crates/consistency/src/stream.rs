//! Driving the checkers: the operator contract, the fold, the verifier.
//!
//! Each of [`crate::session`], [`crate::staleness`], [`crate::monotonic`]
//! and [`crate::convergence`] states its guarantee **once**, as an
//! incremental operator: a [`StreamChecker`] that consumes one completed
//! operation at a time, flags violations as they appear, and — when
//! given a bounded window — evicts state the advancing [`Watermark`]
//! proves it will never need again. There are two ways to drive one:
//!
//! * **over a finished trace** — `check_session_guarantees`,
//!   `measure_staleness`, `check_monotonic_values` and
//!   `check_convergence` fold the unbounded operator (`window: None`)
//!   over a resident [`simnet::OpTrace`];
//! * **online** — a [`StreamVerifier`] bundles all four behind one feed
//!   point, fed while the run executes (`Experiment::run_monitored`) or
//!   from a JSONL log (`tracequery check --stream`), in flat memory
//!   when windowed.
//!
//! Both run the same code, so they agree by construction. What says the
//! code is *right* is a third, independent statement of each guarantee:
//! the all-pairs oracle under `tests/oracle/`, compared three ways by
//! `tests/checker_stream_parity.rs` and
//! `tests/checker_stream_properties.rs`. With a bounded window the
//! operators can only *under*-report: eviction drops old floors and old
//! acknowledged writes, so every violation a bounded run flags is one an
//! unbounded run flags too, and violations whose evidence lies inside
//! the window are still caught (same property suite).
//!
//! # Feed-order contract
//!
//! Operations must be fed in `(completed, session, op_id)` order — the
//! order [`simnet::OpTrace::sort_by_completion`] produces. Two
//! consequences the operators rely on:
//!
//! * per key, acknowledged writes arrive in completion order, so the
//!   staleness index stays sorted by construction;
//! * per session, ops arrive in issue (`op_id`) order — true for the
//!   closed-loop clients used throughout this workspace, where an op
//!   completes before the next is issued, and enforced by the
//!   tie-breaking sort key even when completion times collide.
//!
//! # Watermarks and eviction
//!
//! [`Watermark`] `t` is a promise from the feeder: *no future operation
//! completes before `t`*. A checker constructed with window `w` may then
//! discard state last touched before `t - w`. Everything evicted is
//! counted (exported as the `checker_events_evicted` counter; violations
//! flagged online bump `stream_violations`) so a bounded run is never
//! silently lossy. Semantics per checker are documented in
//! `docs/CHECKERS.md`.

use crate::convergence::{ConvergenceReport, ConvergenceStream};
use crate::monotonic::{MonotonicStream, MonotonicValueReport};
use crate::session::{SessionReport, SessionStream};
use crate::staleness::{StalenessReport, StalenessStream};
use obs::{Counter, Recorder};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpRecord, OpTrace, SimTime};

/// A virtual-time watermark: the feeder's promise that every operation
/// fed from now on has `completed >= t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Watermark {
    /// The promised lower bound on future completion times (virtual).
    pub t: SimTime,
}

impl Watermark {
    /// A watermark at virtual time `t`.
    pub fn at(t: SimTime) -> Self {
        Watermark { t }
    }
}

/// Which guarantee a streamed operation violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A session read missed its own earlier write (RYW).
    ReadYourWrites,
    /// A session read went backwards in stamp order (MR).
    MonotonicReads,
    /// A session write was ordered before an earlier one (MW).
    MonotonicWrites,
    /// A session write was ordered before something it read (WFR).
    WritesFollowReads,
    /// A read missed at least one acknowledged write (PBS staleness).
    StaleRead,
    /// A session watched an inflationary value go backwards.
    ValueRegression,
    /// Post-quiescence reads of a key disagreed (convergence failure).
    Divergence,
}

impl ViolationKind {
    /// Stable snake_case name for display and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::ReadYourWrites => "read_your_writes",
            ViolationKind::MonotonicReads => "monotonic_reads",
            ViolationKind::MonotonicWrites => "monotonic_writes",
            ViolationKind::WritesFollowReads => "writes_follow_reads",
            ViolationKind::StaleRead => "stale_read",
            ViolationKind::ValueRegression => "value_regression",
            ViolationKind::Divergence => "divergence",
        }
    }
}

/// One violation flagged online by a streaming checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamViolation {
    /// The violated guarantee.
    pub kind: ViolationKind,
    /// The violating session.
    pub session: u64,
    /// The violating operation (0 for finish-time divergence findings).
    pub op_id: u64,
    /// The key involved.
    pub key: u64,
    /// Virtual time of the finding (µs): the op's completion, or the
    /// quiescence point for divergence.
    pub t_us: u64,
}

impl StreamViolation {
    /// `op` violated `kind`, found at the op's completion.
    pub(crate) fn of(kind: ViolationKind, op: &OpRecord) -> Self {
        StreamViolation {
            kind,
            session: op.session,
            op_id: op.op_id,
            key: op.key,
            t_us: op.completed.as_micros(),
        }
    }
}

/// An incremental consistency checker over the completed-operation
/// stream. Each implementation is the one definition of its guarantee;
/// see the module docs for the feed-order contract.
pub trait StreamChecker {
    /// Consume one completed operation, appending any violations it
    /// exposes to `out`.
    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>);

    /// Observe a watermark advance: state only needed for operations
    /// completing before `wm.t - window` may be evicted.
    fn advance(&mut self, wm: Watermark);

    /// Total state entries evicted so far (watermark eviction plus any
    /// feed-time invalidation, e.g. convergence view clearing).
    fn events_evicted(&self) -> u64;
}

/// Eviction cutoff for a watermark under an optional window: state last
/// touched before the returned time is reclaimable.
pub(crate) fn cutoff(wm: Watermark, window: Option<Duration>) -> Option<SimTime> {
    window.map(|w| SimTime::from_micros(wm.t.as_micros().saturating_sub(w.0)))
}

/// Feed a finished trace through `checker` in the feed-order contract's
/// `(completed, session, op_id)` order and hand the checker back — how
/// the whole-trace entry points drive their operator. A trace already in
/// that order (anything a run produced) is walked in place; a hand-built
/// one is fed through a sorted vector of references.
pub(crate) fn fold<C: StreamChecker>(trace: &OpTrace, mut checker: C) -> C {
    let order = |r: &OpRecord| (r.completed, r.session, r.op_id);
    let mut flagged = Vec::new();
    let mut feed = |op: &OpRecord| {
        checker.feed(op, &mut flagged);
        flagged.clear(); // the report carries the counts; keep memory flat
    };
    let records = trace.records();
    if records.windows(2).all(|w| order(&w[0]) <= order(&w[1])) {
        records.iter().for_each(&mut feed);
    } else {
        let mut sorted: Vec<&OpRecord> = records.iter().collect();
        sorted.sort_by_key(|r| order(r));
        sorted.into_iter().for_each(&mut feed);
    }
    checker
}

/// Configuration for a [`StreamVerifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Eviction window; `None` never evicts, and the reports equal the
    /// whole-trace entry points'. A windowed verifier also drops the
    /// per-read staleness samples (see [`StalenessStream`]).
    pub window: Option<Duration>,
    /// Convergence grace period (must be non-zero).
    pub grace: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { window: None, grace: Duration::from_millis(500) }
    }
}

/// Final reports from a [`StreamVerifier`], one per operator, plus the
/// online violation log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReports {
    /// Session-guarantee report.
    pub session: SessionReport,
    /// Staleness report (no per-read samples when windowed).
    pub staleness: StalenessReport,
    /// Value-monotonicity report.
    pub monotonic: MonotonicValueReport,
    /// Convergence report; `None` if no write was acknowledged.
    pub convergence: Option<ConvergenceReport>,
    /// Every violation flagged, in feed order (divergences last).
    pub violations: Vec<StreamViolation>,
    /// Total state entries evicted across all operators.
    pub events_evicted: u64,
}

/// All four streaming checkers behind one feed point, with optional
/// [`Recorder`] export of the `stream_violations` /
/// `checker_events_evicted` counters.
#[derive(Debug)]
pub struct StreamVerifier {
    session: SessionStream,
    staleness: StalenessStream,
    monotonic: MonotonicStream,
    convergence: ConvergenceStream,
    violations: Vec<StreamViolation>,
    recorder: Option<Recorder>,
    reported_evicted: u64,
}

impl StreamVerifier {
    /// A verifier running all four operators under `config`.
    pub fn new(config: StreamConfig) -> Self {
        StreamVerifier {
            session: SessionStream::new(config.window),
            staleness: StalenessStream::new(config.window),
            monotonic: MonotonicStream::new(config.window),
            convergence: ConvergenceStream::new(config.grace),
            violations: Vec::new(),
            recorder: None,
            reported_evicted: 0,
        }
    }

    /// Export counters into `recorder` as the run progresses.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Feed one completed operation (see the module docs for the
    /// required order). Returns how many violations it exposed.
    pub fn feed(&mut self, op: &OpRecord) -> usize {
        let before = self.violations.len();
        self.session.feed(op, &mut self.violations);
        self.staleness.feed(op, &mut self.violations);
        self.monotonic.feed(op, &mut self.violations);
        self.convergence.feed(op, &mut self.violations);
        let found = self.violations.len() - before;
        if let Some(rec) = &self.recorder {
            if found > 0 {
                rec.count(Counter::StreamViolations, found as u64);
            }
        }
        found
    }

    /// Feed a completion-ordered slice and then advance the watermark to
    /// the last completion time — the shape the live monitor uses.
    pub fn feed_slice(&mut self, ops: &[OpRecord]) {
        for op in ops {
            self.feed(op);
        }
        if let Some(last) = ops.last() {
            self.advance(Watermark::at(last.completed));
        }
    }

    /// Advance the watermark on every operator, evicting what the
    /// window allows.
    pub fn advance(&mut self, wm: Watermark) {
        self.session.advance(wm);
        self.staleness.advance(wm);
        self.monotonic.advance(wm);
        self.convergence.advance(wm);
        let total = self.events_evicted();
        if let Some(rec) = &self.recorder {
            if total > self.reported_evicted {
                rec.count(Counter::CheckerEventsEvicted, total - self.reported_evicted);
            }
        }
        self.reported_evicted = total;
    }

    /// Total state entries evicted across all operators so far.
    pub fn events_evicted(&self) -> u64 {
        self.session.events_evicted()
            + self.staleness.events_evicted()
            + self.monotonic.events_evicted()
            + self.convergence.events_evicted()
    }

    /// Violations flagged so far, in feed order.
    pub fn violations(&self) -> &[StreamViolation] {
        &self.violations
    }

    /// Finish the stream: classify convergence, append divergence
    /// findings to the violation log, and return every report.
    pub fn finish(mut self) -> StreamReports {
        let convergence = self.convergence.report();
        if let Some(report) = &convergence {
            let mut fresh = 0;
            for d in &report.diverged {
                self.violations.push(StreamViolation {
                    kind: ViolationKind::Divergence,
                    session: 0,
                    op_id: 0,
                    key: d.key,
                    t_us: report.quiescence_at.as_micros(),
                });
                fresh += 1;
            }
            if let (Some(rec), true) = (&self.recorder, fresh > 0) {
                rec.count(Counter::StreamViolations, fresh);
            }
        }
        let events_evicted = self.events_evicted();
        StreamReports {
            session: self.session.into_report(),
            staleness: self.staleness.into_report(),
            monotonic: self.monotonic.into_report(),
            convergence,
            violations: self.violations,
            events_evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::check_convergence;
    use crate::monotonic::check_monotonic_values;
    use crate::session::check_session_guarantees;
    use crate::staleness::measure_staleness;
    use simnet::{NodeId, OpKind};

    #[allow(clippy::too_many_arguments)]
    fn op(
        session: u64,
        op_id: u64,
        key: u64,
        kind: OpKind,
        stamp: Option<(u64, u64)>,
        values: Vec<u64>,
        invoked_ms: u64,
        completed_ms: u64,
        replica: u32,
    ) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key,
            kind,
            value_written: (kind == OpKind::Write).then_some(op_id),
            value_read: values,
            invoked: SimTime::from_millis(invoked_ms),
            completed: SimTime::from_millis(completed_ms),
            replica: NodeId(replica),
            ok: true,
            version_ts: None,
            stamp,
        }
    }

    /// A small mixed trace with RYW, staleness, value-regression, and
    /// divergence problems.
    fn anomalous_trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.push(op(1, 1, 5, OpKind::Write, Some((10, 0)), vec![], 9, 10, 0));
        t.push(op(2, 1, 5, OpKind::Read, Some((10, 0)), vec![10], 19, 20, 0));
        // Session 1 reads an older version than its own write: RYW, and
        // a stale read (the (10,0) write was acked at 10ms).
        t.push(op(1, 2, 5, OpKind::Read, Some((4, 0)), vec![4], 30, 31, 1));
        // Session 2's counter goes backwards.
        t.push(op(2, 2, 5, OpKind::Read, Some((10, 0)), vec![4], 40, 41, 1));
        // Post-quiescence reads disagree between replicas.
        t.push(op(3, 1, 5, OpKind::Read, Some((10, 0)), vec![10], 600, 601, 0));
        t.push(op(4, 1, 5, OpKind::Read, Some((4, 0)), vec![4], 610, 611, 1));
        t.sort_by_completion();
        t
    }

    fn feed_all(verifier: &mut StreamVerifier, trace: &OpTrace) {
        for r in trace.records() {
            verifier.feed(r);
        }
    }

    fn whole_trace_reports(trace: &OpTrace, grace: Duration) -> StreamReports {
        StreamReports {
            session: check_session_guarantees(trace),
            staleness: measure_staleness(trace),
            monotonic: check_monotonic_values(trace),
            convergence: check_convergence(trace, grace),
            violations: Vec::new(),
            events_evicted: 0,
        }
    }

    /// The reports on the anomalous trace, worked out by hand from the
    /// definitions — not from either way of driving the operators.
    #[test]
    fn reports_on_the_anomalous_trace_are_the_hand_derived_ones() {
        let trace = anomalous_trace();
        let grace = Duration::from_millis(500);
        let expected = StreamReports {
            // Session 1 misses its own write; session 2 re-reads (10,0).
            session: SessionReport {
                ryw_checked: 1,
                ryw_violations: 1,
                mr_checked: 1,
                ..SessionReport::default()
            },
            // The (4,0) reads at 30 ms and 610 ms each miss the one write
            // acked at 10 ms.
            staleness: StalenessReport {
                fresh_reads: 3,
                stale_reads: 2,
                unclassified_reads: 0,
                k_staleness: vec![1, 1],
                t_staleness_ms: vec![20.0, 600.0],
            },
            monotonic: MonotonicValueReport { checked: 1, violations: 1 },
            // Quiescence at 10 + 500 ms; the reads at 600 and 610 disagree.
            convergence: Some(ConvergenceReport {
                converged_keys: 0,
                diverged: vec![crate::Divergence {
                    key: 5,
                    views: vec![(vec![4], 1), (vec![10], 0)],
                }],
                unverified_keys: 0,
                quiescence_at: SimTime::from_millis(510),
            }),
            violations: Vec::new(),
            events_evicted: 0,
        };
        assert_eq!(whole_trace_reports(&trace, grace), expected);

        let mut v = StreamVerifier::new(StreamConfig { grace, ..StreamConfig::default() });
        feed_all(&mut v, &trace);
        let online = v.finish();
        assert_eq!(online.violations.len(), 5, "RYW, 2 stale, regression, divergence");
        assert_eq!(StreamReports { violations: Vec::new(), ..online }, expected);
    }

    /// The whole-trace entry points accept records in any order: pushed
    /// in reverse completion order, with completion times that tie
    /// across sessions, they report what they report once the trace is
    /// sorted.
    #[test]
    fn fold_sorts_a_hand_built_out_of_order_trace() {
        let mut t = OpTrace::new();
        t.push(op(4, 1, 5, OpKind::Read, Some((4, 0)), vec![4], 610, 611, 1));
        t.push(op(3, 1, 5, OpKind::Read, Some((10, 0)), vec![10], 600, 611, 0));
        t.push(op(2, 2, 5, OpKind::Read, Some((10, 0)), vec![4], 30, 31, 1));
        t.push(op(1, 2, 5, OpKind::Read, Some((4, 0)), vec![4], 30, 31, 1));
        t.push(op(2, 1, 5, OpKind::Read, Some((10, 0)), vec![10], 19, 20, 0));
        t.push(op(1, 1, 5, OpKind::Write, Some((10, 0)), vec![], 9, 10, 0));
        let grace = Duration::from_millis(500);
        let unsorted = whole_trace_reports(&t, grace);
        assert_eq!(unsorted.session.ryw_violations, 1, "the trace must not be vacuous");
        assert_eq!(unsorted.staleness.k_staleness, vec![1, 1]);
        assert!(!unsorted.convergence.as_ref().expect("one acked write").converged());
        t.sort_by_completion();
        assert_eq!(t.records()[0].kind, OpKind::Write, "sorting moved the write first");
        assert_eq!(whole_trace_reports(&t, grace), unsorted);
    }

    #[test]
    fn violations_are_flagged_online_by_kind() {
        let trace = anomalous_trace();
        let mut v = StreamVerifier::new(StreamConfig::default());
        feed_all(&mut v, &trace);
        let reports = v.finish();
        let kinds: Vec<ViolationKind> = reports.violations.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&ViolationKind::ReadYourWrites));
        assert!(kinds.contains(&ViolationKind::StaleRead));
        assert!(kinds.contains(&ViolationKind::ValueRegression));
        assert!(kinds.contains(&ViolationKind::Divergence));
        assert!(!reports.convergence.unwrap().converged());
    }

    #[test]
    fn recorder_export_counts_violations_and_evictions() {
        let trace = anomalous_trace();
        let rec = Recorder::enabled();
        let mut v = StreamVerifier::new(StreamConfig {
            window: Some(Duration::from_millis(1)),
            ..StreamConfig::default()
        })
        .with_recorder(rec.clone());
        for r in trace.records() {
            v.feed(r);
            v.advance(Watermark::at(r.completed));
        }
        let reports = v.finish();
        let metrics = rec.report();
        let get = |name: &str| {
            metrics.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(get("stream_violations"), reports.violations.len() as u64);
        assert_eq!(get("checker_events_evicted"), reports.events_evicted);
        assert!(reports.events_evicted > 0, "tight window must evict something");
    }

    #[test]
    fn bounded_window_only_under_reports() {
        let trace = anomalous_trace();
        let mut exact = StreamVerifier::new(StreamConfig::default());
        feed_all(&mut exact, &trace);
        let exact = exact.finish();

        let mut bounded = StreamVerifier::new(StreamConfig {
            window: Some(Duration::from_millis(5)),
            ..StreamConfig::default()
        });
        for r in trace.records() {
            bounded.feed(r);
            bounded.advance(Watermark::at(r.completed));
        }
        let bounded = bounded.finish();
        assert!(bounded.session.ryw_violations <= exact.session.ryw_violations);
        assert!(bounded.session.mr_violations <= exact.session.mr_violations);
        assert!(bounded.staleness.stale_reads <= exact.staleness.stale_reads);
        assert!(bounded.monotonic.violations <= exact.monotonic.violations);
    }

    #[test]
    fn violations_inside_window_are_still_caught() {
        // Cause (the write) and effect (the stale RYW read) are 21ms
        // apart; a 100ms window must keep the evidence.
        let mut t = OpTrace::new();
        t.push(op(1, 1, 5, OpKind::Write, Some((10, 0)), vec![], 9, 10, 0));
        t.push(op(1, 2, 5, OpKind::Read, Some((4, 0)), vec![4], 30, 31, 1));
        t.sort_by_completion();
        let mut v = StreamVerifier::new(StreamConfig {
            window: Some(Duration::from_millis(100)),
            ..StreamConfig::default()
        });
        for r in t.records() {
            v.feed(r);
            v.advance(Watermark::at(r.completed));
        }
        let reports = v.finish();
        assert_eq!(reports.session.ryw_violations, 1);
        assert_eq!(reports.staleness.stale_reads, 1);
    }

    #[test]
    fn feed_slice_advances_watermark() {
        let trace = anomalous_trace();
        let mut v = StreamVerifier::new(StreamConfig {
            window: Some(Duration::from_millis(1)),
            ..StreamConfig::default()
        });
        v.feed_slice(trace.records());
        assert!(v.events_evicted() > 0);
    }
}
