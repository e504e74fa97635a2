//! Monotonic reads over *values* rather than stamps.
//!
//! The session checker ([`crate::session`]) judges monotonic reads by
//! comparing Lamport stamps, which is the right lens for register
//! semantics: a version's stamp names its place in the install order.
//! CRDT counter reads don't fit that lens — a merged `crdt` counter has
//! no single installing write, and replicas stamp counter reads with
//! whatever their local clock happens to hold. What *is* meaningful for
//! an inflationary CRDT (a counter that only ever grows under merge) is
//! the read value itself: within a session, per key, the observed value
//! must never go backwards. A backwards step means the session's replica
//! lost state it had already exposed — e.g. a crash-amnesia restart of a
//! scheme whose durability layer was supposed to persist merged state.
//!
//! A read that returns nothing after the session has observed a non-zero
//! value is the degenerate backwards step (the counter "reset to 0") and
//! counts as a violation. Only successful operations participate, in
//! the same order as the session checker ([`crate::session`]).
//!
//! The definition is written once, as [`MonotonicStream`];
//! [`check_monotonic_values`] is that operator folded over a finished
//! trace.

use crate::stream::{cutoff, fold, StreamChecker, StreamViolation, ViolationKind, Watermark};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::btree_map::{BTreeMap, Entry};

/// Outcome of the value-monotonicity check for one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonotonicValueReport {
    /// Reads compared against an established per-session floor.
    pub checked: u64,
    /// Reads that observed a smaller value than an earlier read of the
    /// same key in the same session.
    pub violations: u64,
}

impl MonotonicValueReport {
    /// True when no read went backwards.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// The value-monotonicity checker, one completed operation at a time
/// (feed-order contract in [`crate::stream`]).
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

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> MonotonicValueReport {
        self.report
    }
}

impl StreamChecker for MonotonicStream {
    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok || op.kind != OpKind::Read {
            return;
        }
        // The scalar observed: a counter read returns a single element;
        // an empty read sums to 0.
        let v: u64 = op.value_read.iter().sum();
        match self.floors.entry((op.session, op.key)) {
            Entry::Occupied(mut e) => {
                let (floor, touch) = e.get_mut();
                self.report.checked += 1;
                if v < *floor {
                    self.report.violations += 1;
                    out.push(StreamViolation::of(ViolationKind::ValueRegression, op));
                }
                *floor = (*floor).max(v);
                *touch = op.completed;
            }
            Entry::Vacant(e) => {
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

/// Check that per-session, per-key read values never decrease over a
/// finished trace: the unbounded [`MonotonicStream`] folded over it.
pub fn check_monotonic_values(trace: &OpTrace) -> MonotonicValueReport {
    fold(trace, MonotonicStream::new(None)).into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord, SimTime};

    fn read(session: u64, op_id: u64, key: u64, values: Vec<u64>, ok: bool) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key,
            kind: OpKind::Read,
            value_written: None,
            value_read: values,
            invoked: SimTime::from_millis(op_id),
            completed: SimTime::from_millis(op_id + 1),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn non_decreasing_values_are_clean() {
        let mut t = OpTrace::new();
        t.push(read(1, 1, 5, vec![3], true));
        t.push(read(1, 2, 5, vec![3], true));
        t.push(read(1, 3, 5, vec![9], true));
        let r = check_monotonic_values(&t);
        assert_eq!(r.checked, 2);
        assert!(r.clean());
    }

    #[test]
    fn backwards_value_is_a_violation() {
        let mut t = OpTrace::new();
        t.push(read(1, 1, 5, vec![9], true));
        t.push(read(1, 2, 5, vec![3], true));
        let r = check_monotonic_values(&t);
        assert_eq!((r.checked, r.violations), (1, 1));
    }

    #[test]
    fn empty_read_after_nonzero_is_a_violation() {
        let mut t = OpTrace::new();
        t.push(read(1, 1, 5, vec![4], true));
        t.push(read(1, 2, 5, vec![], true));
        let r = check_monotonic_values(&t);
        assert_eq!(r.violations, 1);
    }

    #[test]
    fn sessions_and_keys_are_independent() {
        let mut t = OpTrace::new();
        t.push(read(1, 1, 5, vec![9], true));
        t.push(read(2, 1, 5, vec![3], true)); // other session
        t.push(read(1, 2, 6, vec![1], true)); // other key
        let r = check_monotonic_values(&t);
        assert_eq!(r.checked, 0);
        assert!(r.clean());
    }

    #[test]
    fn failed_reads_are_ignored() {
        let mut t = OpTrace::new();
        t.push(read(1, 1, 5, vec![9], true));
        t.push(read(1, 2, 5, vec![0], false));
        let r = check_monotonic_values(&t);
        assert_eq!(r.checked, 0);
        assert!(r.clean());
    }
}
