//! Operation traces.
//!
//! Every experiment records the client-visible history of the run — one
//! [`OpRecord`] per completed (or failed) operation — into an [`OpTrace`].
//! The consistency checkers in the `consistency` crate consume *only* this
//! trace, never protocol internals, so a buggy protocol cannot hide from
//! its checker.
//!
//! Values are `u64`s; experiments give every write a globally unique value
//! so that reads unambiguously identify which write they observed (the
//! standard trick in linearizability checking).

use crate::sim::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read a key.
    Read,
    /// Write a key.
    Write,
}

/// One completed client operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// The session (client) that issued the operation.
    pub session: u64,
    /// Per-trace unique operation id, in issue order per session.
    pub op_id: u64,
    /// Key operated on.
    pub key: u64,
    /// Read or write.
    pub kind: OpKind,
    /// For writes: the (globally unique) value written.
    pub value_written: Option<u64>,
    /// For reads: the observed value(s). Multiple values = siblings returned
    /// by a multi-value register under concurrent writes; empty = key absent.
    pub value_read: Vec<u64>,
    /// When the client invoked the operation.
    pub invoked: SimTime,
    /// When the response arrived at the client.
    pub completed: SimTime,
    /// The replica that served the operation.
    pub replica: NodeId,
    /// Whether the operation succeeded (false = timeout / unavailable).
    pub ok: bool,
    /// For reads: the write-timestamp of the version returned, if the
    /// protocol exposes one (used for staleness measurement).
    pub version_ts: Option<SimTime>,
    /// Logical version stamp as a `(counter, actor)` Lamport pair: for
    /// writes, the stamp the replica assigned; for reads, the stamp of the
    /// version returned (maximum across siblings). Session-guarantee
    /// checkers compare these under the Lamport total order.
    pub stamp: Option<(u64, u64)>,
}

impl OpRecord {
    /// Client-observed latency of this operation.
    pub fn latency(&self) -> crate::time::Duration {
        self.completed.saturating_since(self.invoked)
    }
}

/// A full run's operation history: its records and nothing else.
///
/// The wire shape is `{"records": [...]}`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpTrace {
    records: Vec<OpRecord>,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `rows` records, so a run that knows
    /// how many rows its scripts end in allocates its buffer once.
    pub fn with_capacity(rows: usize) -> Self {
        OpTrace { records: Vec::with_capacity(rows) }
    }

    /// Append a record.
    pub fn push(&mut self, r: OpRecord) {
        self.records.push(r);
    }

    /// Records the buffer has room for. Test probe.
    #[doc(hidden)]
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// All records, in append order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one session, in issue order.
    pub fn session(&self, session: u64) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(move |r| r.session == session)
    }

    /// All successful records.
    pub fn successful(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.ok)
    }

    /// Distinct session ids present in the trace, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self.records.iter().map(|r| r.session).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Sort records by completion time (checkers want real-time order),
    /// in place. Records are appended as ops complete, so only
    /// same-instant completions of different sessions can be out of
    /// order. In any trace a run produces `(completed, session, op_id)`
    /// is unique, so the unstable sort gives the order a stable sort
    /// would, without its scratch buffer.
    pub fn sort_by_completion(&mut self) {
        self.records.sort_unstable_by_key(|r| (r.completed, r.session, r.op_id));
    }

    /// Fraction of operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.ok).count() as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(session: u64, op_id: u64, kind: OpKind, ok: bool) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key: 1,
            kind,
            value_written: (kind == OpKind::Write).then_some(op_id),
            value_read: if kind == OpKind::Read { vec![42] } else { vec![] },
            invoked: SimTime::from_millis(op_id),
            completed: SimTime::from_millis(op_id + 5),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn latency_is_completion_minus_invocation() {
        let r = rec(0, 3, OpKind::Read, true);
        assert_eq!(r.latency(), crate::time::Duration::from_millis(5));
    }

    #[test]
    fn session_filter() {
        let mut t = OpTrace::new();
        t.push(rec(0, 0, OpKind::Write, true));
        t.push(rec(1, 1, OpKind::Read, true));
        t.push(rec(0, 2, OpKind::Read, true));
        assert_eq!(t.session(0).count(), 2);
        assert_eq!(t.session(1).count(), 1);
        assert_eq!(t.sessions(), vec![0, 1]);
    }

    #[test]
    fn success_rate() {
        let mut t = OpTrace::new();
        assert_eq!(t.success_rate(), 1.0);
        t.push(rec(0, 0, OpKind::Write, true));
        t.push(rec(0, 1, OpKind::Write, false));
        assert_eq!(t.success_rate(), 0.5);
        assert_eq!(t.successful().count(), 1);
    }

    #[test]
    fn sort_by_completion_orders_records() {
        let mut t = OpTrace::new();
        t.push(rec(0, 9, OpKind::Read, true));
        t.push(rec(0, 1, OpKind::Read, true));
        t.sort_by_completion();
        assert!(t.records()[0].completed <= t.records()[1].completed);
        assert_eq!(t.records()[0].op_id, 1);
    }

    /// A trace as a run pushes it: completion times never go back, each
    /// session numbers its ops upwards, and sessions completing in the
    /// same µs arrive in any order. `(gap_us, session)` per record.
    fn pushed(ops: &[(u64, u64)]) -> OpTrace {
        let mut trace = OpTrace::with_capacity(ops.len());
        let (mut now, mut next_op) = (0, [0u64; 4]);
        for &(gap, session) in ops {
            now += gap;
            next_op[session as usize] += 1;
            let mut r = rec(session, next_op[session as usize], OpKind::Read, true);
            r.completed = SimTime::from_micros(now);
            trace.push(r);
        }
        trace
    }

    proptest::proptest! {
        #[test]
        fn sorting_in_place_equals_the_stable_sort(
            ops in proptest::collection::vec((0u64..2, 0u64..4), 0..200)
        ) {
            let mut trace = pushed(&ops);
            let mut reference = trace.records().to_vec();
            reference.sort_by_key(|r| (r.completed, r.session, r.op_id));
            let (buffer, capacity) = (trace.records().as_ptr(), trace.capacity());
            trace.sort_by_completion();
            proptest::prop_assert_eq!(trace.records(), &reference[..]);
            proptest::prop_assert_eq!(trace.records().as_ptr(), buffer, "the sort moved the buffer");
            proptest::prop_assert_eq!(trace.capacity(), capacity);
        }
    }

    #[test]
    fn the_wire_shape_is_the_records() {
        let mut t = OpTrace::new();
        t.push(rec(0, 1, OpKind::Write, true));
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.starts_with("{\"records\":[{\"session\":0,"), "{json}");
        let back: OpTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records(), t.records());
    }
}
