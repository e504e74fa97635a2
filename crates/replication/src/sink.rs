//! The run's trace sink.
//!
//! Every session client of a run pushes its rows into one [`TraceSink`]
//! behind a [`SharedTrace`] handle. Besides the [`OpTrace`] it fills, the
//! sink keeps, per key, the acknowledged writes in push order, so a
//! client can ask how stale the read it just completed was
//! ([`TraceSink::read_staleness`]) without rescanning the history. The
//! index lives and dies with the simulation: the runner takes the trace
//! out with [`TraceSink::into_trace`] and the index goes with the sink.

use simnet::{OpKind, OpRecord, OpTrace, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::rc::Rc;

/// One acknowledged write in the per-key staleness index.
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    completed: SimTime,
    /// `None` only for hand-built records: such a write can never be the
    /// version a read observed, so it counts as missed forever.
    value: Option<u64>,
}

/// An [`OpTrace`] being filled by a running simulation, with the
/// staleness index its clients read. Reads of the trace go through
/// `Deref`; rows come in only through [`TraceSink::record`].
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: OpTrace,
    acked_writes: BTreeMap<u64, Vec<AckedWrite>>,
}

impl TraceSink {
    /// An empty sink whose trace has room for `rows` records.
    pub fn with_capacity(rows: usize) -> Self {
        TraceSink { trace: OpTrace::with_capacity(rows), acked_writes: BTreeMap::new() }
    }

    /// Append a record to the trace, indexing it if it is an
    /// acknowledged write. The sink derefs to its trace, but not
    /// mutably, so every row comes in here and the index misses none.
    pub fn record(&mut self, r: OpRecord) {
        if r.kind == OpKind::Write && r.ok {
            self.acked_writes
                .entry(r.key)
                .or_default()
                .push(AckedWrite { completed: r.completed, value: r.value_written });
        }
        self.trace.push(r);
    }

    /// The trace, in push order; the index is dropped.
    pub fn into_trace(self) -> OpTrace {
        self.trace
    }

    /// Staleness of a read against the writes committed before it was
    /// invoked: how many acknowledged writes to `key` (completed at or
    /// before `at`) are newer than the version the read returned, and
    /// how long ago (µs) the newest such missed write was acknowledged.
    /// Returns `(0, 0)` for a perfectly fresh read.
    ///
    /// Records are pushed at completion time, so `completed` is
    /// non-decreasing within a key's acknowledged writes and the
    /// committed prefix is found by binary search; the walk then runs
    /// newest-first (in push order) and stops at the version the read
    /// observed. Cost: O(log writes-to-key + missed), whatever the
    /// history's length.
    pub fn read_staleness(&self, key: u64, at: SimTime, values_read: &[u64]) -> (u64, u64) {
        self.read_staleness_counted(key, at, values_read).0
    }

    /// [`TraceSink::read_staleness`] plus the number of index entries it
    /// examined (binary-search probes and entries walked). Test probe:
    /// `tests/staleness_index.rs` holds it flat as sessions grow.
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
}

impl Deref for TraceSink {
    type Target = OpTrace;

    fn deref(&self) -> &OpTrace {
        &self.trace
    }
}

/// A trace sink shared between the client actors of a single-threaded
/// simulation.
pub type SharedTrace = Rc<RefCell<TraceSink>>;

/// Create an empty shared trace sink.
pub fn shared_trace() -> SharedTrace {
    Rc::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn write(session: u64, op_id: u64) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key: 1,
            kind: OpKind::Write,
            value_written: Some(op_id),
            value_read: vec![],
            invoked: SimTime::from_millis(op_id),
            completed: SimTime::from_millis(op_id + 5),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn shared_trace_is_shared() {
        let s = shared_trace();
        let s2 = s.clone();
        s.borrow_mut().record(write(0, 0));
        assert_eq!(s2.borrow().len(), 1);
    }

    /// `Sim` and `SharedTrace` are deliberately !Send (`Rc<RefCell<..>>`
    /// inside); this is a documentation anchor, not an assertion — the
    /// compiler enforces it at every cross-thread use site.
    #[test]
    fn shared_trace_is_thread_local_by_construction() {
        let trace: SharedTrace = shared_trace();
        assert_eq!(trace.borrow().records().len(), 0);
    }

    #[test]
    fn the_trace_leaves_the_sink_as_pushed_with_the_room_it_was_given() {
        let mut sink = TraceSink::with_capacity(3);
        sink.record(write(1, 1));
        sink.record(write(0, 2));
        // Having read op 1's value at 10 ms, the read missed op 2's
        // write, acknowledged at 7 ms.
        assert_eq!(sink.read_staleness(1, SimTime::from_millis(10), &[1]), (1, 3_000));
        let trace = sink.into_trace();
        assert_eq!(trace.capacity(), 3);
        let sessions: Vec<u64> = trace.records().iter().map(|r| r.session).collect();
        assert_eq!(sessions, [1, 0]);
    }
}
