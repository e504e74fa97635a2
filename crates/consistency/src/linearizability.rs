//! A Wing & Gong linearizability checker for single-key registers.
//!
//! Given a history of timed read/write intervals over one register, the
//! checker searches for a legal linearization: a total order of operations
//! that (a) respects real-time order (an op that completed before another
//! was invoked must come first) and (b) makes every read return the value
//! of the latest preceding write. Unique write values keep the register
//! state a single `Option<u64>`, and memoization on `(done-set, state)`
//! keeps the search tractable (Lowe's optimization).
//!
//! Cost is exponential in the worst case; histories are capped at 126 ops
//! per key (a `u128` mask), which is ample for the experiment suite's
//! per-key contention levels.

use simnet::{OpKind, OpTrace};
use std::collections::HashSet;

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
    /// A key had more than 126 operations (mask overflow).
    HistoryTooLarge {
        /// The offending key.
        key: u64,
        /// Its operation count.
        ops: usize,
    },
    /// The search exceeded its state budget before reaching a verdict
    /// (highly concurrent histories can be exponentially expensive).
    SearchBudgetExceeded {
        /// The offending key.
        key: u64,
    },
}

/// Default state budget for the search (~tens of ms of work).
pub const DEFAULT_SEARCH_BUDGET: u64 = 2_000_000;

/// Check one register history for linearizability; `None` if the state
/// budget ran out before a verdict was reached.
///
/// # Panics
/// If the history exceeds 126 ops.
pub fn check_linearizable_register_bounded(history: &[Interval], budget: u64) -> Option<bool> {
    let n = history.len();
    assert!(n <= 126, "history too large for the bitmask search");
    if n == 0 {
        return Some(true);
    }
    let full: u128 = (1u128 << n) - 1;
    let mut visited: HashSet<(u128, Option<u64>)> = HashSet::new();
    let mut budget = budget;
    search(history, 0, None, full, &mut visited, &mut budget)
}

fn search(
    hist: &[Interval],
    done: u128,
    state: Option<u64>,
    full: u128,
    visited: &mut HashSet<(u128, Option<u64>)>,
    budget: &mut u64,
) -> Option<bool> {
    if done == full {
        return Some(true);
    }
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    if !visited.insert((done, state)) {
        return Some(false);
    }
    // An op may linearize next iff no *other* pending op returned before
    // this op was invoked (real-time order would be violated otherwise).
    let min_ret = hist
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, iv)| iv.ret)
        .min()
        .expect("pending op exists");
    for (i, iv) in hist.iter().enumerate() {
        if done & (1 << i) != 0 || iv.invoke > min_ret {
            continue;
        }
        match iv.op {
            RegOp::Write(v) => {
                match search(hist, done | (1 << i), Some(v), full, visited, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            RegOp::Read(v) => {
                if v == state {
                    match search(hist, done | (1 << i), state, full, visited, budget) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => return None,
                    }
                }
            }
        }
    }
    Some(false)
}

/// Check a whole trace: each key's successful ops form one register
/// history. Reads that returned multiple siblings fail the check (a
/// register has one value); protocols exposing siblings are not
/// linearizable by construction.
pub fn check_trace_linearizable(trace: &OpTrace) -> Result<(), LinCheckError> {
    let mut keys: Vec<u64> = trace.successful().map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let mut history = Vec::new();
        let mut multivalue = false;
        for r in trace.successful().filter(|r| r.key == key) {
            let op = match r.kind {
                OpKind::Write => RegOp::Write(r.value_written.expect("write has a value")),
                OpKind::Read => {
                    if r.value_read.len() > 1 {
                        multivalue = true;
                    }
                    RegOp::Read(r.value_read.first().copied())
                }
            };
            history.push(Interval {
                invoke: r.invoked.as_micros(),
                ret: r.completed.as_micros(),
                op,
            });
        }
        if multivalue {
            return Err(LinCheckError::NotLinearizable { key });
        }
        if history.len() > 126 {
            return Err(LinCheckError::HistoryTooLarge { key, ops: history.len() });
        }
        match check_linearizable_register_bounded(&history, DEFAULT_SEARCH_BUDGET) {
            Some(true) => {}
            Some(false) => return Err(LinCheckError::NotLinearizable { key }),
            None => return Err(LinCheckError::SearchBudgetExceeded { key }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(invoke: u64, ret: u64, v: u64) -> Interval {
        Interval { invoke, ret, op: RegOp::Write(v) }
    }

    fn r(invoke: u64, ret: u64, v: Option<u64>) -> Interval {
        Interval { invoke, ret, op: RegOp::Read(v) }
    }

    /// The verdict under the default budget, which these histories never
    /// exhaust.
    fn check_linearizable_register(history: &[Interval]) -> bool {
        check_linearizable_register_bounded(history, DEFAULT_SEARCH_BUDGET)
            .expect("linearizability search budget exceeded")
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
    fn bounded_search_exhausts_budget_to_none() {
        // A pile of fully-concurrent writes forces exponential search;
        // with a tiny budget the checker must give up, not lie.
        let h: Vec<Interval> = (0..20).map(|i| w(0, 1000, i)).collect();
        assert_eq!(check_linearizable_register_bounded(&h, 5), None);
        // Zero budget gives up immediately on any non-empty history...
        assert_eq!(check_linearizable_register_bounded(&[w(0, 1, 1)], 0), None);
        // ...but the empty history needs no search at all.
        assert_eq!(check_linearizable_register_bounded(&[], 0), Some(true));
    }

    #[test]
    fn oversized_history_is_rejected_not_searched() {
        use simnet::{NodeId, OpRecord, SimTime};
        let mut t = OpTrace::new();
        for i in 0..127u64 {
            t.push(OpRecord {
                session: 1,
                op_id: i,
                key: 9,
                kind: OpKind::Write,
                value_written: Some(i),
                value_read: vec![],
                invoked: SimTime::from_micros(i * 10),
                completed: SimTime::from_micros(i * 10 + 5),
                replica: NodeId(0),
                ok: true,
                version_ts: None,
                stamp: None,
            });
        }
        assert_eq!(
            check_trace_linearizable(&t),
            Err(LinCheckError::HistoryTooLarge { key: 9, ops: 127 })
        );
    }

    #[test]
    fn trace_level_check_partitions_by_key() {
        use simnet::{NodeId, OpRecord, SimTime};
        let mut t = OpTrace::new();
        let mk = |key: u64, kind: OpKind, val: u64, inv: u64, comp: u64, read: Vec<u64>| OpRecord {
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
        };
        // Key 1: fine. Key 2: stale read -> not linearizable.
        t.push(mk(1, OpKind::Write, 11, 0, 10, vec![]));
        t.push(mk(1, OpKind::Read, 0, 20, 30, vec![11]));
        t.push(mk(2, OpKind::Write, 21, 0, 10, vec![]));
        t.push(mk(2, OpKind::Write, 22, 20, 30, vec![]));
        t.push(mk(2, OpKind::Read, 0, 40, 50, vec![21]));
        assert_eq!(check_trace_linearizable(&t), Err(LinCheckError::NotLinearizable { key: 2 }));
    }
}
