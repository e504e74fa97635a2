//! Linearizability of single-key register histories, decided exactly by
//! the zone check.
//!
//! A history of timed read/write intervals over one register is
//! linearizable if some total order of its operations (a) respects
//! real-time order — op *a* precedes op *b* iff `a.ret < b.invoke`, so
//! equal times count as concurrent — and (b) makes every read return the
//! value of the latest write before it.
//!
//! Every write carries a unique value, so a read names the write it
//! observed, and for such histories the question is decidable exactly in
//! O(n log n): Gibbons & Korach (*Testing Shared Memories*, SIAM J.
//! Comput. 1997), in the zone form of Golab, Li & Shah (*Analyzing
//! Consistency Properties for Fun and Profit*, PODC 2011).
//!
//! * Each write forms a *group* with the reads that returned its value.
//!   Reads of `None` form the *initial group*, whose virtual write
//!   precedes everything.
//! * A read of a value no write in the history wrote, or a read that
//!   returned before its write was invoked (`r.ret < w.invoke`), fails.
//! * A group's zone runs between *f*, its earliest response, and *s*, its
//!   latest invocation. It is *forward* if `f < s` and spans `[f, s]`;
//!   otherwise it is *backward* and spans `[s, f]`.
//! * The history is linearizable iff, besides, no two forward zones
//!   overlap (sorted by *f*: `next.f < prev.s`) and no backward zone
//!   `[s, f]` lies strictly inside a forward zone `[f_D, s_D]`
//!   (`f_D < s` and `f < s_D`).
//!
//! Unique values are the lab's convention
//! (`replication::common::unique_value`): a history that writes one value
//! twice is outside the check's domain, and the check panics on it. The
//! reference the check is held to is the memoised Wing & Gong search in
//! `tests/oracle/lin.rs`.

use simnet::{IdHashMap, OpKind, OpTrace};
use std::collections::BTreeMap;

/// A register operation for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// Write of a unique value.
    Write(u64),
    /// Read returning a value (`None` = register unwritten/empty).
    Read(Option<u64>),
}

/// A timed operation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Invocation time (µs).
    pub invoke: u64,
    /// Response time (µs).
    pub ret: u64,
    /// The operation.
    pub op: RegOp,
}

/// Why a trace failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinCheckError {
    /// A key's history admits no legal linearization.
    NotLinearizable {
        /// The offending key.
        key: u64,
    },
}

/// One value's write and the reads that returned it.
struct Group {
    /// The write's invocation, once the write is seen.
    write_invoke: Option<u64>,
    /// The earliest response in the group (*f*).
    f: u64,
    /// The latest invocation in the group (*s*).
    s: u64,
}

/// Whether one register history is linearizable.
///
/// Zone ends are `Option<u64>`, where `None` is the initial group's
/// virtual write at −∞: `None` orders before every `Some`.
///
/// # Panics
/// If two writes in the history write the same value.
pub fn check_linearizable_register(history: &[Interval]) -> bool {
    let mut groups: IdHashMap<u64, Group> = IdHashMap::default();
    // The latest invocation of a read of `None`.
    let mut initial_s = None;
    for iv in history {
        let value = match iv.op {
            RegOp::Read(None) => {
                initial_s = initial_s.max(Some(iv.invoke));
                continue;
            }
            RegOp::Read(Some(v)) | RegOp::Write(v) => v,
        };
        let g = groups.entry(value).or_insert(Group { write_invoke: None, f: u64::MAX, s: 0 });
        g.f = g.f.min(iv.ret);
        g.s = g.s.max(iv.invoke);
        if let RegOp::Write(_) = iv.op {
            assert!(g.write_invoke.replace(iv.invoke).is_none(), "value {value} written twice");
        }
    }
    let mut forward: Vec<(Option<u64>, Option<u64>)> =
        initial_s.map(|s| (None, Some(s))).into_iter().collect();
    let mut backward = Vec::new();
    for g in groups.values() {
        // No write, or a read that returned before the write was invoked
        // (the write's own response never comes before its invocation).
        match g.write_invoke {
            Some(invoke) if g.f >= invoke => {}
            _ => return false,
        }
        if g.f < g.s {
            forward.push((Some(g.f), Some(g.s)));
        } else {
            backward.push((g.s, g.f));
        }
    }
    forward.sort_unstable();
    if forward.windows(2).any(|z| z[1].0 < z[0].1) {
        return false;
    }
    // Disjoint and sorted by f, the forward zones are sorted by s too, so
    // the last one that starts before a backward zone reaches furthest.
    backward.iter().all(|&(s, f)| {
        let before = forward.partition_point(|&(f_d, _)| f_d < Some(s));
        before == 0 || Some(f) >= forward[before - 1].1
    })
}

/// Check a whole trace: each key's successful ops form one register
/// history, and keys are judged in ascending order, the first failing
/// key reported. Reads that returned multiple siblings fail the check (a
/// register has one value); protocols exposing siblings are not
/// linearizable by construction.
pub fn check_trace_linearizable(trace: &OpTrace) -> Result<(), LinCheckError> {
    // Per key: whether a read returned siblings, and the history.
    let mut keys: BTreeMap<u64, (bool, Vec<Interval>)> = BTreeMap::new();
    for r in trace.successful() {
        let (multivalue, history) = keys.entry(r.key).or_default();
        let op = match r.kind {
            OpKind::Write => RegOp::Write(r.value_written.expect("write has a value")),
            OpKind::Read => {
                *multivalue |= r.value_read.len() > 1;
                RegOp::Read(r.value_read.first().copied())
            }
        };
        history.push(Interval { invoke: r.invoked.as_micros(), ret: r.completed.as_micros(), op });
    }
    match keys
        .iter()
        .find(|(_, (multivalue, history))| *multivalue || !check_linearizable_register(history))
    {
        Some((&key, _)) => Err(LinCheckError::NotLinearizable { key }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord, SimTime};

    fn w(invoke: u64, ret: u64, v: u64) -> Interval {
        Interval { invoke, ret, op: RegOp::Write(v) }
    }

    fn r(invoke: u64, ret: u64, v: Option<u64>) -> Interval {
        Interval { invoke, ret, op: RegOp::Read(v) }
    }

    /// A successful op of session 1 on `key`.
    fn record(key: u64, kind: OpKind, val: u64, inv: u64, comp: u64, read: Vec<u64>) -> OpRecord {
        OpRecord {
            session: 1,
            op_id: inv,
            key,
            kind,
            value_written: (kind == OpKind::Write).then_some(val),
            value_read: read,
            invoked: SimTime::from_micros(inv),
            completed: SimTime::from_micros(comp),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable_register(&[]));
    }

    #[test]
    fn sequential_history_is_linearizable() {
        assert!(check_linearizable_register(&[
            w(0, 10, 1),
            r(20, 30, Some(1)),
            w(40, 50, 2),
            r(60, 70, Some(2)),
        ]));
    }

    #[test]
    fn read_of_overwritten_value_after_completion_fails() {
        // w(1) completes, then w(2) completes, then a read returns 1.
        assert!(!check_linearizable_register(&[w(0, 10, 1), w(20, 30, 2), r(40, 50, Some(1)),]));
    }

    #[test]
    fn concurrent_write_allows_either_read_value() {
        // w(2) overlaps the read: the read may see 1 or 2.
        let base = [w(0, 10, 1), w(20, 60, 2)];
        let mut h1 = base.to_vec();
        h1.push(r(30, 40, Some(1)));
        assert!(check_linearizable_register(&h1));
        let mut h2 = base.to_vec();
        h2.push(r(30, 40, Some(2)));
        assert!(check_linearizable_register(&h2));
    }

    #[test]
    fn new_old_inversion_fails() {
        // Two sequential reads during no writes: second read going
        // backwards is the classic non-linearizable inversion.
        assert!(!check_linearizable_register(&[
            w(0, 10, 1),
            w(15, 25, 2),
            r(30, 40, Some(2)),
            r(50, 60, Some(1)),
        ]));
    }

    #[test]
    fn read_empty_before_any_write_ok() {
        assert!(check_linearizable_register(&[r(0, 5, None), w(10, 20, 1)]));
        // But reading empty after a completed write fails.
        assert!(!check_linearizable_register(&[w(0, 5, 1), r(10, 20, None)]));
    }

    #[test]
    fn overlapping_writes_any_final_order() {
        // Two overlapping writes then a read of either value is fine.
        assert!(check_linearizable_register(&[w(0, 100, 1), w(10, 90, 2), r(200, 210, Some(1)),]));
        assert!(check_linearizable_register(&[w(0, 100, 1), w(10, 90, 2), r(200, 210, Some(2)),]));
        // But both reads disagreeing sequentially is not.
        assert!(!check_linearizable_register(&[
            w(0, 100, 1),
            w(10, 90, 2),
            r(200, 210, Some(1)),
            r(220, 230, Some(2)),
            r(240, 250, Some(1)),
        ]));
    }

    #[test]
    fn single_op_histories_are_linearizable() {
        // A lone write, a lone read of nothing, and a lone read of an
        // unwritten value: the first two linearize trivially; the third
        // has no producing write, so it must fail.
        assert!(check_linearizable_register(&[w(0, 10, 1)]));
        assert!(check_linearizable_register(&[r(0, 10, None)]));
        assert!(!check_linearizable_register(&[r(0, 10, Some(7))]));
    }

    #[test]
    fn identical_timestamp_concurrent_writes() {
        // Two writes sharing the exact same interval: either order is
        // legal, so a subsequent read may return either value — but a
        // read of a third value may not.
        let base = [w(0, 10, 1), w(0, 10, 2)];
        for v in [1u64, 2] {
            let mut h = base.to_vec();
            h.push(r(20, 30, Some(v)));
            assert!(check_linearizable_register(&h), "read of {v} must linearize");
        }
        let mut h = base.to_vec();
        h.push(r(20, 30, Some(3)));
        assert!(!check_linearizable_register(&h));
        // Reads with identical timestamps too: both orders of two
        // same-interval reads returning the two values are legal while
        // the writes are still in flight.
        assert!(check_linearizable_register(&[
            w(0, 100, 1),
            w(0, 100, 2),
            r(50, 60, Some(1)),
            r(50, 60, Some(2)),
        ]));
    }

    #[test]
    fn zero_duration_ops_respect_real_time_order() {
        // Instantaneous ops (invoke == ret) still order by real time:
        // a zero-width read strictly after a zero-width write must see it.
        assert!(check_linearizable_register(&[w(10, 10, 1), r(20, 20, Some(1))]));
        assert!(!check_linearizable_register(&[w(10, 10, 1), r(20, 20, None)]));
        // At the *same* instant they count as concurrent (neither returned
        // strictly before the other was invoked): both outcomes legal.
        assert!(check_linearizable_register(&[w(10, 10, 1), r(10, 10, Some(1))]));
        assert!(check_linearizable_register(&[w(10, 10, 1), r(10, 10, None)]));
    }

    #[test]
    fn long_sequential_history_is_judged() {
        // 10 000 ops on one key, each write read back before the next.
        let mut records: Vec<OpRecord> = (0..5_000u64)
            .flat_map(|i| {
                let t = i * 40;
                [
                    record(9, OpKind::Write, i, t, t + 10, vec![]),
                    record(9, OpKind::Read, 0, t + 20, t + 30, vec![i]),
                ]
            })
            .collect();
        let trace = |records: &[OpRecord]| {
            let mut t = OpTrace::new();
            records.iter().cloned().for_each(|r| t.push(r));
            t
        };
        assert_eq!(check_trace_linearizable(&trace(&records)), Ok(()));
        // The last read returns the first write: stale.
        records[9_999].value_read = vec![0];
        assert_eq!(
            check_trace_linearizable(&trace(&records)),
            Err(LinCheckError::NotLinearizable { key: 9 })
        );
    }

    #[test]
    fn many_concurrent_writes_admit_any_final_value() {
        // 20 writes over one interval, then a read: any of the 20 values
        // may be the last write, but nothing else may be read.
        let mut h: Vec<Interval> = (0..20).map(|i| w(0, 1_000, i)).collect();
        for v in [0, 7, 19] {
            h.push(r(2_000, 2_010, Some(v)));
            assert!(check_linearizable_register(&h), "read of {v} must linearize");
            h.pop();
        }
        h.push(r(2_000, 2_010, Some(20)));
        assert!(!check_linearizable_register(&h));
    }

    #[test]
    fn trace_level_check_partitions_by_key() {
        let mut t = OpTrace::new();
        // Key 1: fine. Key 2: stale read -> not linearizable.
        t.push(record(1, OpKind::Write, 11, 0, 10, vec![]));
        t.push(record(1, OpKind::Read, 0, 20, 30, vec![11]));
        t.push(record(2, OpKind::Write, 21, 0, 10, vec![]));
        t.push(record(2, OpKind::Write, 22, 20, 30, vec![]));
        t.push(record(2, OpKind::Read, 0, 40, 50, vec![21]));
        assert_eq!(check_trace_linearizable(&t), Err(LinCheckError::NotLinearizable { key: 2 }));
    }
}
