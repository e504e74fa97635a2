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
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

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

/// One acknowledged write in the per-key staleness index.
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    completed: SimTime,
    /// `None` only for hand-built records: such a write can never be the
    /// version a read observed, so it counts as missed forever.
    value: Option<u64>,
}

/// A full run's operation history.
///
/// Besides the records the trace keeps, per key, the acknowledged
/// writes in record order, so [`OpTrace::read_staleness`] never rescans
/// the history. The index is derived state: it is rebuilt by
/// [`OpTrace::sort_by_completion`] and on deserialisation, and the wire
/// shape stays `{"records": [...]}`.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    records: Vec<OpRecord>,
    acked_writes: BTreeMap<u64, Vec<AckedWrite>>,
}

impl Serialize for OpTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![("records".to_string(), self.records.to_value())])
    }
}

impl Deserialize for OpTrace {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let records =
            v.get("records").ok_or_else(|| serde::Error::custom("missing field `records`"))?;
        let mut trace =
            OpTrace { records: Vec::from_value(records)?, acked_writes: BTreeMap::new() };
        trace.reindex();
        Ok(trace)
    }
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: OpRecord) {
        Self::index(&mut self.acked_writes, &r);
        self.records.push(r);
    }

    fn index(acked_writes: &mut BTreeMap<u64, Vec<AckedWrite>>, r: &OpRecord) {
        if r.kind == OpKind::Write && r.ok {
            acked_writes
                .entry(r.key)
                .or_default()
                .push(AckedWrite { completed: r.completed, value: r.value_written });
        }
    }

    fn reindex(&mut self) {
        self.acked_writes.clear();
        for r in &self.records {
            Self::index(&mut self.acked_writes, r);
        }
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

    /// Sort records by completion time (checkers want real-time order).
    /// Records are appended as ops complete, so a trace is usually in
    /// order already; then nothing moves and the index stands.
    pub fn sort_by_completion(&mut self) {
        let order = |r: &OpRecord| (r.completed, r.session, r.op_id);
        if self.records.is_sorted_by_key(order) {
            return;
        }
        self.records.sort_by_key(order);
        self.reindex();
    }

    /// Staleness of a read against the writes committed before it was
    /// invoked: how many acknowledged writes to `key` (completed at or
    /// before `at`) are newer than the version the read returned, and
    /// how long ago (µs) the newest such missed write was acknowledged.
    /// Returns `(0, 0)` for a perfectly fresh read.
    ///
    /// Records are appended at completion time, so `completed` is
    /// non-decreasing within a key's acknowledged writes and the
    /// committed prefix is found by binary search; the walk then runs
    /// newest-first and stops at the version the read observed. Cost:
    /// O(log writes-to-key + missed), whatever the history's length.
    pub fn read_staleness(&self, key: u64, at: SimTime, values_read: &[u64]) -> (u64, u64) {
        self.read_staleness_counted(key, at, values_read).0
    }

    /// [`OpTrace::read_staleness`] plus the number of index entries it
    /// examined (binary-search probes and entries walked) — what the
    /// complexity guard among `rec_core::runner`'s tests holds flat as
    /// sessions grow.
    #[doc(hidden)]
    pub fn read_staleness_counted(
        &self,
        key: u64,
        at: SimTime,
        values_read: &[u64],
    ) -> ((u64, u64), u64) {
        let Some(writes) = self.acked_writes.get(&key) else {
            return ((0, 0), 0);
        };
        let prefix = writes.partition_point(|w| w.completed <= at);
        let mut visited = (usize::BITS - writes.len().leading_zeros()) as u64;
        let mut missed = 0u64;
        for w in writes[..prefix].iter().rev() {
            visited += 1;
            if w.value.is_some_and(|v| values_read.contains(&v)) {
                break; // writes older than the version read were superseded, not missed
            }
            missed += 1;
        }
        let lag_us = match missed {
            0 => 0,
            _ => at.saturating_since(writes[prefix - 1].completed).as_micros(),
        };
        ((missed, lag_us), visited)
    }

    /// Fraction of operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.ok).count() as f64 / self.records.len() as f64
    }
}

/// A trace shared between client actors in a single-threaded simulation.
pub type SharedTrace = Rc<RefCell<OpTrace>>;

/// Create an empty shared trace.
pub fn shared_trace() -> SharedTrace {
    Rc::new(RefCell::new(OpTrace::new()))
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

    #[test]
    fn shared_trace_is_shared() {
        let s = shared_trace();
        let s2 = s.clone();
        s.borrow_mut().push(rec(0, 0, OpKind::Write, true));
        assert_eq!(s2.borrow().len(), 1);
    }
}
