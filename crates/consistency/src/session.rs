//! Session-guarantee checking (Terry et al.'s four guarantees).
//!
//! Operationalization over the recorded trace, using the Lamport
//! `(counter, actor)` stamps replicas assign to versions (the Lamport
//! total order extends the version installation order):
//!
//! * **Read-your-writes** — after a session writes key `k` with stamp `w`,
//!   every later read of `k` by that session must return a stamp `>= w`.
//! * **Monotonic reads** — per key, a session's read stamps never
//!   decrease.
//! * **Monotonic writes** — a session's write stamps are increasing in
//!   issue order (the install order of its writes respects program order).
//! * **Writes-follow-reads** — a session's write stamp exceeds the stamps
//!   of everything the session read before it.
//!
//! Reads that return nothing (key absent) have no stamp: they violate any
//! floor the session holds for that key (RYW/MR) since an installed
//! version disappeared from the session's view.
//!
//! Only successful operations participate. The definition is over
//! per-session issue order (`op_id`); the checker examines operations in
//! `(completed, session, op_id)` order, which is the same order for the
//! closed-loop clients used in the experiments (an op completes before
//! the session issues the next).
//!
//! The guarantees are written once, as [`SessionStream`]: it judges one
//! completed operation at a time, and [`check_session_guarantees`] is
//! that operator folded over a finished trace.

use crate::stream::{cutoff, fold, StreamChecker, StreamViolation, ViolationKind, Watermark};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::BTreeMap;

/// Violation counts for one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Read-your-writes: checks performed / violations found.
    pub ryw_checked: u64,
    /// RYW violations.
    pub ryw_violations: u64,
    /// Monotonic-reads checks.
    pub mr_checked: u64,
    /// MR violations.
    pub mr_violations: u64,
    /// Monotonic-writes checks.
    pub mw_checked: u64,
    /// MW violations.
    pub mw_violations: u64,
    /// Writes-follow-reads checks.
    pub wfr_checked: u64,
    /// WFR violations.
    pub wfr_violations: u64,
}

impl SessionReport {
    /// Violation rate for a `(checked, violations)` pair, 0 when unchecked.
    fn rate(checked: u64, violations: u64) -> f64 {
        if checked == 0 {
            0.0
        } else {
            violations as f64 / checked as f64
        }
    }

    /// RYW violation rate.
    pub fn ryw_rate(&self) -> f64 {
        Self::rate(self.ryw_checked, self.ryw_violations)
    }

    /// MR violation rate.
    pub fn mr_rate(&self) -> f64 {
        Self::rate(self.mr_checked, self.mr_violations)
    }

    /// MW violation rate.
    pub fn mw_rate(&self) -> f64 {
        Self::rate(self.mw_checked, self.mw_violations)
    }

    /// WFR violation rate.
    pub fn wfr_rate(&self) -> f64 {
        Self::rate(self.wfr_checked, self.wfr_violations)
    }

    /// True if no guarantee was ever violated.
    pub fn clean(&self) -> bool {
        self.ryw_violations + self.mr_violations + self.mw_violations + self.wfr_violations == 0
    }
}

/// Per-session floors for the four guarantees.
#[derive(Debug, Default)]
struct SessionState {
    write_floor: BTreeMap<u64, (u64, u64)>, // key -> own write stamp
    read_floor: BTreeMap<u64, (u64, u64)>,  // key -> last read stamp
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

/// The session-guarantee checker, one completed operation at a time
/// (feed-order contract in [`crate::stream`]).
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
    /// A session-guarantee stream; `window: None` never evicts.
    pub fn new(window: Option<Duration>) -> Self {
        SessionStream {
            window,
            sessions: BTreeMap::new(),
            report: SessionReport::default(),
            evicted: 0,
        }
    }

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> SessionReport {
        self.report
    }
}

impl StreamChecker for SessionStream {
    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        let st = self.sessions.entry(op.session).or_default();
        st.last_touch = op.completed;
        match op.kind {
            OpKind::Read => {
                if let Some(&w) = st.write_floor.get(&op.key) {
                    self.report.ryw_checked += 1;
                    if op.stamp.map(|s| s < w).unwrap_or(true) {
                        self.report.ryw_violations += 1;
                        out.push(StreamViolation::of(ViolationKind::ReadYourWrites, op));
                    }
                }
                if let Some(&f) = st.read_floor.get(&op.key) {
                    self.report.mr_checked += 1;
                    if op.stamp.map(|s| s < f).unwrap_or(true) {
                        self.report.mr_violations += 1;
                        out.push(StreamViolation::of(ViolationKind::MonotonicReads, op));
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
                        out.push(StreamViolation::of(ViolationKind::MonotonicWrites, op));
                    }
                }
                if let Some(r) = st.max_read_stamp {
                    self.report.wfr_checked += 1;
                    if s < r {
                        self.report.wfr_violations += 1;
                        out.push(StreamViolation::of(ViolationKind::WritesFollowReads, op));
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

/// Check all four session guarantees over a finished trace: the
/// unbounded [`SessionStream`] folded over it.
pub fn check_session_guarantees(trace: &OpTrace) -> SessionReport {
    fold(trace, SessionStream::new(None)).into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord, SimTime};

    fn rec(
        session: u64,
        op_id: u64,
        key: u64,
        kind: OpKind,
        stamp: Option<(u64, u64)>,
        ok: bool,
    ) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key,
            kind,
            value_written: (kind == OpKind::Write).then_some(op_id),
            value_read: if kind == OpKind::Read && stamp.is_some() { vec![1] } else { vec![] },
            invoked: SimTime::from_millis(op_id),
            completed: SimTime::from_millis(op_id + 1),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp,
        }
    }

    #[test]
    fn clean_session_reports_clean() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((1, 0)), true));
        t.push(rec(1, 2, 5, OpKind::Read, Some((1, 0)), true));
        t.push(rec(1, 3, 5, OpKind::Read, Some((2, 0)), true));
        let r = check_session_guarantees(&t);
        assert!(r.clean());
        assert_eq!(r.ryw_checked, 2);
        assert_eq!(r.mr_checked, 1);
    }

    #[test]
    fn ryw_violation_detected() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((10, 0)), true));
        t.push(rec(1, 2, 5, OpKind::Read, Some((4, 0)), true)); // older version
        let r = check_session_guarantees(&t);
        assert_eq!(r.ryw_violations, 1);
        assert!((r.ryw_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_read_after_write_is_ryw_violation() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((10, 0)), true));
        t.push(rec(1, 2, 5, OpKind::Read, None, true)); // key vanished
        let r = check_session_guarantees(&t);
        assert_eq!(r.ryw_violations, 1);
    }

    #[test]
    fn mr_violation_detected() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Read, Some((10, 0)), true));
        t.push(rec(1, 2, 5, OpKind::Read, Some((3, 0)), true)); // went backwards
        let r = check_session_guarantees(&t);
        assert_eq!(r.mr_violations, 1);
        assert_eq!(r.ryw_checked, 0, "no write: RYW not in play");
    }

    #[test]
    fn mw_violation_detected() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((10, 0)), true));
        t.push(rec(1, 2, 6, OpKind::Write, Some((4, 0)), true)); // ordered before
        let r = check_session_guarantees(&t);
        assert_eq!(r.mw_checked, 1);
        assert_eq!(r.mw_violations, 1);
    }

    #[test]
    fn wfr_violation_detected() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Read, Some((10, 0)), true));
        t.push(rec(1, 2, 6, OpKind::Write, Some((4, 0)), true)); // before the read
        let r = check_session_guarantees(&t);
        assert_eq!(r.wfr_checked, 1);
        assert_eq!(r.wfr_violations, 1);
    }

    #[test]
    fn sessions_are_independent() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((10, 0)), true));
        // Session 2 reading an old version of key 5 is NOT session 1's
        // RYW problem.
        t.push(rec(2, 1, 5, OpKind::Read, Some((3, 0)), true));
        let r = check_session_guarantees(&t);
        assert_eq!(r.ryw_checked, 0);
        assert!(r.clean());
    }

    #[test]
    fn failed_ops_are_ignored() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Write, Some((10, 0)), false)); // failed
        t.push(rec(1, 2, 5, OpKind::Read, Some((3, 0)), true));
        let r = check_session_guarantees(&t);
        assert_eq!(r.ryw_checked, 0);
        assert!(r.clean());
    }

    #[test]
    fn reads_of_different_keys_do_not_interact_for_mr() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 5, OpKind::Read, Some((10, 0)), true));
        t.push(rec(1, 2, 6, OpKind::Read, Some((3, 0)), true)); // other key
        let r = check_session_guarantees(&t);
        assert_eq!(r.mr_checked, 0);
        assert!(r.clean());
    }
}
