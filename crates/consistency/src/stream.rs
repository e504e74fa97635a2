//! Streaming, bounded-memory consistency checking.
//!
//! The materialized checkers ([`crate::session`], [`crate::staleness`],
//! [`crate::monotonic`], [`crate::convergence`]) each walk a fully
//! resident [`simnet::OpTrace`], which caps verifiable run length at
//! whatever fits in memory. This module re-expresses them as **incremental
//! streaming operators**: each [`StreamChecker`] consumes one completed
//! operation at a time, flags violations online, and — when given a
//! bounded window — evicts state the advancing [`Watermark`] proves it
//! will never need again.
//!
//! The materialized checkers remain the executable reference oracle:
//! with an unbounded window (`window: None`), feeding a trace in
//! completion order produces reports **identical** to the batch
//! checkers' (`tests/checker_stream_parity.rs` enforces this
//! byte-for-byte across every scheme family). With a bounded window the
//! operators run in flat memory and can only *under*-report: eviction
//! drops old floors and old acknowledged writes, so every violation the
//! bounded checker flags is one the oracle flags too, and violations
//! whose evidence lies inside the window are still caught
//! (`tests/checker_stream_properties.rs`).
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

use crate::convergence::{ConvergenceReport, Divergence};
use crate::monotonic::MonotonicValueReport;
use crate::session::SessionReport;
use crate::staleness::StalenessReport;
use obs::{Counter, Recorder};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpKind, OpRecord, SimTime};
use std::collections::{BTreeMap, BTreeSet};

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

/// An incremental consistency checker over the completed-operation
/// stream.
///
/// Implementations mirror one materialized checker each and must agree
/// with it exactly when never asked to evict (unbounded window); see the
/// module docs for the feed-order contract.
pub trait StreamChecker {
    /// The checker's stable name (used in logs and `tracequery`).
    fn name(&self) -> &'static str;

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
fn cutoff(wm: Watermark, window: Option<Duration>) -> Option<SimTime> {
    window.map(|w| SimTime::from_micros(wm.t.as_micros().saturating_sub(w.0)))
}

// ---------------------------------------------------------------------------
// Session guarantees
// ---------------------------------------------------------------------------

/// Per-session floors for the four Bayou session guarantees.
#[derive(Debug, Default)]
struct SessionState {
    write_floor: BTreeMap<u64, (u64, u64)>,
    read_floor: BTreeMap<u64, (u64, u64)>,
    last_write_stamp: Option<(u64, u64)>,
    max_read_stamp: Option<(u64, u64)>,
    last_touch: SimTime,
}

impl SessionState {
    fn entries(&self) -> u64 {
        self.write_floor.len() as u64
            + self.read_floor.len() as u64
            + self.last_write_stamp.is_some() as u64
            + self.max_read_stamp.is_some() as u64
    }
}

/// Streaming form of [`crate::session::check_session_guarantees`].
///
/// State is per session: two per-key stamp floors plus two scalar
/// stamps. Eviction drops whole sessions idle for longer than the
/// window; a session that writes again after eviction restarts with
/// empty floors, so bounded runs can only miss checks, never invent
/// violations.
#[derive(Debug)]
pub struct SessionStream {
    window: Option<Duration>,
    sessions: BTreeMap<u64, SessionState>,
    report: SessionReport,
    evicted: u64,
}

impl SessionStream {
    /// A session-guarantee stream; `window: None` never evicts (exact
    /// batch parity).
    pub fn new(window: Option<Duration>) -> Self {
        SessionStream {
            window,
            sessions: BTreeMap::new(),
            report: SessionReport::default(),
            evicted: 0,
        }
    }

    /// The accumulated report (identical to the batch checker's when
    /// unbounded and fed in order).
    pub fn report(&self) -> &SessionReport {
        &self.report
    }

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> SessionReport {
        self.report
    }
}

impl StreamChecker for SessionStream {
    fn name(&self) -> &'static str {
        "session"
    }

    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        let st = self.sessions.entry(op.session).or_default();
        st.last_touch = op.completed;
        let violation = |kind| StreamViolation {
            kind,
            session: op.session,
            op_id: op.op_id,
            key: op.key,
            t_us: op.completed.as_micros(),
        };
        match op.kind {
            OpKind::Read => {
                if let Some(&w) = st.write_floor.get(&op.key) {
                    self.report.ryw_checked += 1;
                    if op.stamp.map(|s| s < w).unwrap_or(true) {
                        self.report.ryw_violations += 1;
                        out.push(violation(ViolationKind::ReadYourWrites));
                    }
                }
                if let Some(&f) = st.read_floor.get(&op.key) {
                    self.report.mr_checked += 1;
                    if op.stamp.map(|s| s < f).unwrap_or(true) {
                        self.report.mr_violations += 1;
                        out.push(violation(ViolationKind::MonotonicReads));
                    }
                }
                if let Some(s) = op.stamp {
                    let f = st.read_floor.entry(op.key).or_insert(s);
                    *f = (*f).max(s);
                    st.max_read_stamp = Some(st.max_read_stamp.map_or(s, |m: (u64, u64)| m.max(s)));
                }
            }
            OpKind::Write => {
                let Some(s) = op.stamp else { return };
                if let Some(prev) = st.last_write_stamp {
                    self.report.mw_checked += 1;
                    if s < prev {
                        self.report.mw_violations += 1;
                        out.push(violation(ViolationKind::MonotonicWrites));
                    }
                }
                if let Some(r) = st.max_read_stamp {
                    self.report.wfr_checked += 1;
                    if s < r {
                        self.report.wfr_violations += 1;
                        out.push(violation(ViolationKind::WritesFollowReads));
                    }
                }
                st.last_write_stamp = Some(st.last_write_stamp.map_or(s, |p: (u64, u64)| p.max(s)));
                let f = st.write_floor.entry(op.key).or_insert(s);
                *f = (*f).max(s);
            }
        }
    }

    fn advance(&mut self, wm: Watermark) {
        let Some(cut) = cutoff(wm, self.window) else { return };
        let mut dropped = 0;
        self.sessions.retain(|_, st| {
            if st.last_touch < cut {
                dropped += st.entries();
                false
            } else {
                true
            }
        });
        self.evicted += dropped;
    }

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

// ---------------------------------------------------------------------------
// Staleness
// ---------------------------------------------------------------------------

/// Streaming form of [`crate::staleness::measure_staleness`].
///
/// State is the per-key index of acknowledged writes `(completed,
/// stamp)`, kept sorted by construction (feed order is completion
/// order). Eviction drops writes acknowledged before the window; a read
/// can then only miss *fewer* acked writes than the oracle sees, so
/// bounded runs under-count staleness and never over-count.
///
/// `retain_samples: false` drops the per-read `k_staleness` /
/// `t_staleness_ms` sample vectors (which grow with the number of stale
/// reads) for true flat-memory monitoring; the scalar counts are always
/// kept.
/// Per-key acknowledged-write index entries: `(ack time, stamp)`,
/// completion-sorted by construction.
type KeyWrites = Vec<(SimTime, (u64, u64))>;

#[derive(Debug)]
pub struct StalenessStream {
    window: Option<Duration>,
    retain_samples: bool,
    writes: BTreeMap<u64, KeyWrites>,
    report: StalenessReport,
    evicted: u64,
}

impl StalenessStream {
    /// A staleness stream; `window: None` never evicts.
    pub fn new(window: Option<Duration>, retain_samples: bool) -> Self {
        StalenessStream {
            window,
            retain_samples,
            writes: BTreeMap::new(),
            report: StalenessReport::default(),
            evicted: 0,
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &StalenessReport {
        &self.report
    }

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> StalenessReport {
        self.report
    }
}

impl StreamChecker for StalenessStream {
    fn name(&self) -> &'static str {
        "staleness"
    }

    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        match op.kind {
            OpKind::Write => {
                if let Some(s) = op.stamp {
                    self.writes.entry(op.key).or_default().push((op.completed, s));
                }
            }
            OpKind::Read => {
                let Some(ws) = self.writes.get(&op.key) else {
                    self.report.unclassified_reads += 1;
                    return;
                };
                // Writes acknowledged strictly before the read was
                // invoked; the index is completion-sorted, so this is
                // the same prefix the batch checker's `take_while`
                // selects.
                let acked = &ws[..ws.partition_point(|&(c, _)| c < op.invoked)];
                if acked.is_empty() {
                    self.report.unclassified_reads += 1;
                    return;
                }
                let returned = op.stamp.unwrap_or((0, 0));
                let missed = acked.iter().filter(|&&(_, s)| s > returned);
                let (k, oldest) = missed.fold((0u64, None::<SimTime>), |(k, oldest), &(c, _)| {
                    (k + 1, Some(oldest.map_or(c, |o| o.min(c))))
                });
                match oldest {
                    None => self.report.fresh_reads += 1,
                    Some(oldest_missed_ack) => {
                        self.report.stale_reads += 1;
                        if self.retain_samples {
                            self.report.k_staleness.push(k);
                            self.report.t_staleness_ms.push(
                                op.invoked.saturating_since(oldest_missed_ack).as_millis_f64(),
                            );
                        }
                        out.push(StreamViolation {
                            kind: ViolationKind::StaleRead,
                            session: op.session,
                            op_id: op.op_id,
                            key: op.key,
                            t_us: op.completed.as_micros(),
                        });
                    }
                }
            }
        }
    }

    fn advance(&mut self, wm: Watermark) {
        let Some(cut) = cutoff(wm, self.window) else { return };
        let mut dropped = 0;
        self.writes.retain(|_, ws| {
            let keep_from = ws.partition_point(|&(c, _)| c < cut);
            dropped += keep_from as u64;
            ws.drain(..keep_from);
            !ws.is_empty()
        });
        self.evicted += dropped;
    }

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

// ---------------------------------------------------------------------------
// Monotonic values
// ---------------------------------------------------------------------------

/// Streaming form of [`crate::monotonic::check_monotonic_values`].
///
/// State is one `(floor, last_touch)` per `(session, key)`. Eviction of
/// idle floors means a later read re-establishes a (lower) floor, so
/// bounded runs can only miss regressions, never invent them.
#[derive(Debug)]
pub struct MonotonicStream {
    window: Option<Duration>,
    floors: BTreeMap<(u64, u64), (u64, SimTime)>,
    report: MonotonicValueReport,
    evicted: u64,
}

impl MonotonicStream {
    /// A value-monotonicity stream; `window: None` never evicts.
    pub fn new(window: Option<Duration>) -> Self {
        MonotonicStream {
            window,
            floors: BTreeMap::new(),
            report: MonotonicValueReport::default(),
            evicted: 0,
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &MonotonicValueReport {
        &self.report
    }

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> MonotonicValueReport {
        self.report
    }
}

impl StreamChecker for MonotonicStream {
    fn name(&self) -> &'static str {
        "monotonic"
    }

    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok || op.kind != OpKind::Read {
            return;
        }
        let v: u64 = op.value_read.iter().sum();
        match self.floors.entry((op.session, op.key)) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let (floor, touch) = e.get_mut();
                self.report.checked += 1;
                if v < *floor {
                    self.report.violations += 1;
                    out.push(StreamViolation {
                        kind: ViolationKind::ValueRegression,
                        session: op.session,
                        op_id: op.op_id,
                        key: op.key,
                        t_us: op.completed.as_micros(),
                    });
                }
                *floor = (*floor).max(v);
                *touch = op.completed;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((v, op.completed));
            }
        }
    }

    fn advance(&mut self, wm: Watermark) {
        let Some(cut) = cutoff(wm, self.window) else { return };
        let before = self.floors.len();
        self.floors.retain(|_, &mut (_, touch)| touch >= cut);
        self.evicted += (before - self.floors.len()) as u64;
    }

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

// ---------------------------------------------------------------------------
// Convergence
// ---------------------------------------------------------------------------

/// Streaming form of [`crate::convergence::check_convergence`].
///
/// The batch checker needs the *final* quiescence point (last write ack
/// plus grace) before it can classify any read, which looks inherently
/// offline. The streaming form exploits that each acknowledged write
/// *moves* quiescence past everything already seen: every stored
/// post-quiescence view was invoked at or before its own completion,
/// which precedes the new write's ack, which precedes the new quiescence
/// point (strictly, since grace > 0). So a write simply clears all
/// stored views — exactly reproducing the batch classification while
/// holding only post-quiescence state. Clearing is counted as eviction.
///
/// The written-key set and post-quiescence views are bounded by the
/// keyspace, not the trace length; watermark advances have nothing
/// further to evict.
#[derive(Debug)]
pub struct ConvergenceStream {
    grace: Duration,
    last_write_ack: Option<SimTime>,
    written: BTreeSet<u64>,
    views: BTreeMap<u64, BTreeMap<Vec<u64>, u32>>,
    evicted: u64,
}

impl ConvergenceStream {
    /// A convergence stream with the given propagation grace period.
    ///
    /// # Panics
    ///
    /// Panics if `grace` is zero: the clear-on-write equivalence proof
    /// needs quiescence strictly after the clearing write's ack.
    pub fn new(grace: Duration) -> Self {
        assert!(grace > Duration::ZERO, "ConvergenceStream requires a non-zero grace period");
        ConvergenceStream {
            grace,
            last_write_ack: None,
            written: BTreeSet::new(),
            views: BTreeMap::new(),
            evicted: 0,
        }
    }

    /// The quiescence estimate so far (last write ack + grace).
    pub fn quiescence_at(&self) -> Option<SimTime> {
        self.last_write_ack.map(|t| t + self.grace)
    }

    /// Classify every written key from the surviving views, exactly as
    /// the batch checker does at the same quiescence point. `None` if no
    /// write was ever acknowledged.
    pub fn report(&self) -> Option<ConvergenceReport> {
        let quiescence_at = self.quiescence_at()?;
        let mut report = ConvergenceReport { quiescence_at, ..Default::default() };
        for &key in &self.written {
            match self.views.get(&key) {
                None => report.unverified_keys += 1,
                Some(v) if v.len() == 1 => report.converged_keys += 1,
                Some(v) => report.diverged.push(Divergence {
                    key,
                    views: v.iter().map(|(vals, rep)| (vals.clone(), *rep)).collect(),
                }),
            }
        }
        Some(report)
    }
}

impl StreamChecker for ConvergenceStream {
    fn name(&self) -> &'static str {
        "convergence"
    }

    fn feed(&mut self, op: &OpRecord, _out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        match op.kind {
            OpKind::Write => {
                self.written.insert(op.key);
                self.last_write_ack =
                    Some(self.last_write_ack.map_or(op.completed, |t| t.max(op.completed)));
                // Quiescence just moved strictly past every stored view.
                self.evicted += self.views.values().map(|v| v.len() as u64).sum::<u64>();
                self.views.clear();
            }
            OpKind::Read => {
                if let Some(q) = self.quiescence_at() {
                    if op.invoked >= q {
                        let mut vals = op.value_read.clone();
                        vals.sort_unstable();
                        self.views.entry(op.key).or_default().entry(vals).or_insert(op.replica.0);
                    }
                }
            }
        }
    }

    fn advance(&mut self, _wm: Watermark) {}

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

// ---------------------------------------------------------------------------
// Verifier bundle
// ---------------------------------------------------------------------------

/// Configuration for a [`StreamVerifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Eviction window; `None` never evicts (exact batch parity).
    pub window: Option<Duration>,
    /// Convergence grace period (must be non-zero).
    pub grace: Duration,
    /// Keep the per-read staleness sample vectors (needed for batch
    /// parity; turn off for flat-memory monitoring).
    pub retain_samples: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { window: None, grace: Duration::from_millis(500), retain_samples: true }
    }
}

/// Final reports from a [`StreamVerifier`], one per operator, plus the
/// online violation log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReports {
    /// Session-guarantee report (batch-identical when unbounded).
    pub session: SessionReport,
    /// Staleness report (batch-identical when unbounded).
    pub staleness: StalenessReport,
    /// Value-monotonicity report (batch-identical when unbounded).
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
            staleness: StalenessStream::new(config.window, config.retain_samples),
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
    use simnet::{NodeId, OpTrace};

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

    #[test]
    fn unbounded_stream_matches_batch_reports_exactly() {
        let trace = anomalous_trace();
        let grace = Duration::from_millis(500);
        let mut v = StreamVerifier::new(StreamConfig { grace, ..StreamConfig::default() });
        feed_all(&mut v, &trace);
        let reports = v.finish();
        assert_eq!(reports.session, check_session_guarantees(&trace));
        assert_eq!(reports.staleness, measure_staleness(&trace));
        assert_eq!(reports.monotonic, check_monotonic_values(&trace));
        assert_eq!(reports.convergence, check_convergence(&trace, grace));
        assert_eq!(
            reports.events_evicted, 0,
            "unbounded run with one leading write evicts nothing"
        );
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
    fn convergence_stream_requires_nonzero_grace() {
        let result = std::panic::catch_unwind(|| ConvergenceStream::new(Duration::ZERO));
        assert!(result.is_err());
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
