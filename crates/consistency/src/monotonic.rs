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
//! The definition is written once, as `judge`;
//! [`check_monotonic_values`] folds it over a finished trace, and
//! [`crate::StreamVerifier`] feeds it online.

use crate::stream::{fold, StreamViolation, ViolationKind};
use serde::{Deserialize, Serialize};
use simnet::{IdHashMap, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::hash_map::Entry;

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

/// The value-floor table: one `(floor, last_touch)` per `(session, key)`.
pub(crate) type ValueFloors = IdHashMap<(u64, u64), (u64, SimTime)>;

/// Judge one completed, successful operation (feed-order contract in
/// [`crate::stream`]): a read is checked against its `(session, key)`
/// floor, then raises it; the first read of a pair sets the floor.
pub(crate) fn judge(
    floors: &mut ValueFloors,
    report: &mut MonotonicValueReport,
    op: &OpRecord,
    out: &mut Vec<StreamViolation>,
) {
    if op.kind != OpKind::Read {
        return;
    }
    // The scalar observed: a counter read returns a single element; an
    // empty read sums to 0.
    let v: u64 = op.value_read.iter().sum();
    match floors.entry((op.session, op.key)) {
        Entry::Occupied(mut e) => {
            let (floor, touch) = e.get_mut();
            report.checked += 1;
            if v < *floor {
                report.violations += 1;
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

/// Check that per-session, per-key read values never decrease over a
/// finished trace: `judge` folded over it with a table of its own.
pub fn check_monotonic_values(trace: &OpTrace) -> MonotonicValueReport {
    let (mut floors, mut report) = (ValueFloors::default(), MonotonicValueReport::default());
    fold(trace, |op, out| judge(&mut floors, &mut report, op, out));
    report
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
