//! Driving the checkers: the one verifier and the fold.
//!
//! Each of [`crate::session`], [`crate::staleness`], [`crate::monotonic`]
//! and [`crate::convergence`] states its guarantee **once**, as a `judge`
//! function: it takes one completed, successful operation and the
//! guarantee's table, updates the table, counts the check in the report
//! and flags each violation as it appears. The tables themselves have
//! one owner, [`StreamVerifier`], which hands every op to all four judges
//! and — when given a bounded window — evicts the state the advancing
//! [`Watermark`] proves no future op can need. There are two ways to
//! drive a judge:
//!
//! * **over a finished trace** — `check_session_guarantees`,
//!   `measure_staleness`, `check_monotonic_values` and
//!   `check_convergence` each fold their own judge over a fresh table of
//!   their own (never evicting) across a resident [`simnet::OpTrace`];
//! * **online** — a [`StreamVerifier`] judges all four behind one feed
//!   point, fed while the run executes (`Experiment::run_monitored`) or
//!   from a JSONL log (`tracequery check --stream`), in flat memory
//!   when windowed.
//!
//! Both run the same judges, so they agree by construction. What says
//! the code is *right* is a third, independent statement of each
//! guarantee: the all-pairs oracle under `tests/oracle/`, compared three
//! ways by `tests/checker_stream_parity.rs` and
//! `tests/checker_stream_properties.rs`. With a bounded window the
//! verifier can only *under*-report: eviction drops old floors and old
//! acknowledged writes, so every violation a bounded run flags is one an
//! unbounded run flags too, and violations whose evidence lies inside
//! the window are still caught (same property suite).
//!
//! # Feed-order contract
//!
//! Operations must be fed in `(completed, session, op_id)` order — the
//! order [`simnet::OpTrace::sort_by_completion`] produces. Two
//! consequences the judges rely on:
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
//! completes before `t`*. A verifier constructed with window `w` may then
//! discard state last touched before `t - w`. Everything evicted is
//! counted once ([`StreamReports::events_evicted`]) so a bounded run is
//! never silently lossy. Semantics per guarantee are documented in
//! `docs/CHECKERS.md`. (The `stream_violations` and
//! `checker_events_evicted` counters in `obs` have no producer: labbench
//! digests hash every counter name, so they go with its next re-pin.)

use crate::convergence::{self, Convergence, ConvergenceReport};
use crate::monotonic::{self, MonotonicValueReport, ValueFloors};
use crate::session::{self, SessionReport, Sessions};
use crate::staleness::{self, AckedWrites, StalenessReport};
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

obs::names! {
    /// Which guarantee a streamed operation violated.
    #[derive(Serialize, Deserialize)]
    ViolationKind, "violation kind" {
        /// A session read missed its own earlier write (RYW).
        ReadYourWrites = "read_your_writes",
        /// A session read went backwards in stamp order (MR).
        MonotonicReads = "monotonic_reads",
        /// A session write was ordered before an earlier one (MW).
        MonotonicWrites = "monotonic_writes",
        /// A session write was ordered before something it read (WFR).
        WritesFollowReads = "writes_follow_reads",
        /// A read missed at least one acknowledged write (PBS staleness).
        StaleRead = "stale_read",
        /// A session watched an inflationary value go backwards.
        ValueRegression = "value_regression",
        /// Post-quiescence reads of a key disagreed (convergence failure).
        Divergence = "divergence",
    }
}

/// One violation flagged online by a judge.
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

/// Hand a finished trace's successful operations to `judge` in the
/// feed-order contract's `(completed, session, op_id)` order — how each
/// whole-trace entry point folds its own judge over its own table. A
/// trace already in that order (anything a run produced) is walked in
/// place; a hand-built one is fed through a sorted vector of references.
pub(crate) fn fold(trace: &OpTrace, mut judge: impl FnMut(&OpRecord, &mut Vec<StreamViolation>)) {
    let order = |r: &OpRecord| (r.completed, r.session, r.op_id);
    let mut flagged = Vec::new();
    let mut feed = |op: &OpRecord| {
        if op.ok {
            judge(op, &mut flagged);
            flagged.clear(); // the report carries the counts; keep memory flat
        }
    };
    let records = trace.records();
    if records.windows(2).all(|w| order(&w[0]) <= order(&w[1])) {
        records.iter().for_each(&mut feed);
    } else {
        let mut sorted: Vec<&OpRecord> = records.iter().collect();
        sorted.sort_by_key(|r| order(r));
        sorted.into_iter().for_each(feed);
    }
}

/// Configuration for a [`StreamVerifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Eviction window; `None` never evicts, and the reports equal the
    /// whole-trace entry points'. A windowed verifier also drops the
    /// per-read staleness samples (they grow with the stale reads).
    pub window: Option<Duration>,
    /// Convergence grace period (must be non-zero).
    pub grace: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { window: None, grace: Duration::from_millis(500) }
    }
}

/// Final reports from a [`StreamVerifier`], one per guarantee, plus the
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
    /// Total state entries evicted across all guarantees.
    pub events_evicted: u64,
}

/// The one owner of checker state: every guarantee's table, judged op by
/// op behind one feed point, evicted behind one watermark.
#[derive(Debug)]
pub struct StreamVerifier {
    window: Option<Duration>,
    /// Per session: the RYW/MR floors and the MW/WFR stamps.
    sessions: Sessions,
    /// Per `(session, key)`: the value floor and when it was last touched.
    value_floors: ValueFloors,
    /// Per key: the acknowledged writes, in completion order.
    writes: AckedWrites,
    /// Convergence's own state: written keys, post-quiescence views.
    convergence: Convergence,
    session: SessionReport,
    staleness: StalenessReport,
    monotonic: MonotonicValueReport,
    violations: Vec<StreamViolation>,
    /// State entries evicted so far: watermark eviction plus
    /// convergence's feed-time view clearing.
    evicted: u64,
}

impl StreamVerifier {
    /// A verifier judging all four guarantees under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.grace` is zero (see `check_convergence`).
    pub fn new(config: StreamConfig) -> Self {
        StreamVerifier {
            window: config.window,
            sessions: Sessions::default(),
            value_floors: ValueFloors::default(),
            writes: AckedWrites::default(),
            convergence: Convergence::new(config.grace),
            session: SessionReport::default(),
            staleness: StalenessReport::default(),
            monotonic: MonotonicValueReport::default(),
            violations: Vec::new(),
            evicted: 0,
        }
    }

    /// Feed one completed operation (see the module docs for the
    /// required order). Returns how many violations it exposed.
    pub fn feed(&mut self, op: &OpRecord) -> usize {
        if !op.ok {
            return 0;
        }
        let out = &mut self.violations;
        let before = out.len();
        session::judge(&mut self.sessions, &mut self.session, op, out);
        let samples = self.window.is_none();
        staleness::judge(&mut self.writes, &mut self.staleness, samples, op, out);
        monotonic::judge(&mut self.value_floors, &mut self.monotonic, op, out);
        self.evicted += convergence::judge(&mut self.convergence, op);
        out.len() - before
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

    /// Advance the watermark, evicting what the window allows: state
    /// last touched before `wm.t - window`. Eviction drops floors and
    /// evidence, never adds them, so a bounded run can only miss
    /// violations, never invent them.
    pub fn advance(&mut self, wm: Watermark) {
        if let Some(window) = self.window {
            let cut = SimTime::from_micros(wm.t.as_micros().saturating_sub(window.0));
            let evicted = &mut self.evicted;
            // Session: whole sessions idle since the cutoff. A later op
            // of one restarts it with empty floors.
            self.sessions.retain(|_, st| {
                let keep = st.last_touch >= cut;
                if !keep {
                    *evicted += st.entries();
                }
                keep
            });
            // Staleness: writes acknowledged before the cutoff, a prefix
            // of each key's completion-ordered index.
            self.writes.retain(|_, ws| {
                let keep_from = ws.partition_point(|&(c, _)| c < cut);
                *evicted += keep_from as u64;
                ws.drain(..keep_from);
                !ws.is_empty()
            });
            // Monotonic: value floors idle since the cutoff. (Convergence
            // evicts at feed time: each write clears the views.)
            let floors = self.value_floors.len();
            self.value_floors.retain(|_, &mut (_, touch)| touch >= cut);
            *evicted += (floors - self.value_floors.len()) as u64;
        }
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
            let t_us = report.quiescence_at.as_micros();
            self.violations.extend(report.diverged.iter().map(|d| StreamViolation {
                kind: ViolationKind::Divergence,
                session: 0,
                op_id: 0,
                key: d.key,
                t_us,
            }));
        }
        StreamReports {
            session: self.session,
            staleness: self.staleness,
            monotonic: self.monotonic,
            convergence,
            violations: self.violations,
            events_evicted: self.evicted,
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
    /// definitions — not from either way of driving the judges.
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
    fn violation_kind_names_round_trip() {
        // Round-tripping every variant also proves the names unique: a
        // shared name would parse back to the first of its variants.
        for kind in ViolationKind::ALL {
            assert_eq!(ViolationKind::from_name(kind.name()), Ok(kind));
        }
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
        assert!(v.finish().events_evicted > 0);
    }
}
