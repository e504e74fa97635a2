//! The reference the consistency checkers are held to: each guarantee
//! transcribed from its definition as a quantification over *pairs* of
//! operations (Roohitavaf, *Consistency in Distributed Data Stores*,
//! states the session guarantees this way; the staleness and convergence
//! definitions are the module docs of `consistency::{staleness,
//! convergence}`).
//!
//! Deliberately naive, and deliberately unlike `crates/consistency`: for
//! every operation it re-scans the whole history for the operations the
//! definition relates it to. There is no per-key index, no per-session
//! floor, no window and no dependence on the order records are stored
//! in — "earlier in the session" is read off `op_id`. That is O(n²), so
//! it is for histories of a few hundred operations, which is what the
//! suites that include this module (`checker_stream_parity`,
//! `checker_stream_properties`) give it.
//!
//! It shares with the crate only the *report types*, so that agreement
//! is one `assert_eq!`. It must never call a `check_*` function or a
//! `*Stream` operator: its value is that it can disagree with them.

use rethinking_ec::consistency::{
    ConvergenceReport, Divergence, MonotonicValueReport, SessionReport, StalenessReport,
};
use rethinking_ec::simnet::{Duration, OpKind, OpRecord, OpTrace};

type Stamp = (u64, u64);

/// All four whole-trace reports.
pub type Reports =
    (SessionReport, StalenessReport, MonotonicValueReport, Option<ConvergenceReport>);

/// Every report the oracle can produce for `trace`.
pub fn reports(trace: &OpTrace, grace: Duration) -> Reports {
    let ops: Vec<&OpRecord> = trace.records().iter().filter(|r| r.ok).collect();
    (session(&ops), staleness(&ops), monotonic(&ops), convergence(&ops, grace))
}

/// The successful operations of `kind` that `op`'s session issued before
/// `op` — on `op`'s key only, or on any key.
fn issued_before<'a>(
    ops: &'a [&'a OpRecord],
    op: &'a OpRecord,
    kind: OpKind,
    same_key: bool,
) -> impl Iterator<Item = &'a OpRecord> {
    ops.iter().copied().filter(move |a| {
        a.session == op.session
            && a.op_id < op.op_id
            && a.kind == kind
            && (!same_key || a.key == op.key)
    })
}

/// One guarantee's verdict on one operation: not in play when nothing
/// earlier constrains it, violated when it is `behind` any of `earlier`.
fn tally(
    checked: &mut u64,
    violations: &mut u64,
    earlier: &[Stamp],
    behind: impl Fn(Stamp) -> bool,
) {
    if earlier.is_empty() {
        return;
    }
    *checked += 1;
    if earlier.iter().any(|&e| behind(e)) {
        *violations += 1;
    }
}

/// The four Bayou guarantees. A read that returned nothing is behind
/// every version; a write without a stamp installed no version and is
/// neither judged nor a constraint on later operations.
fn session(ops: &[&OpRecord]) -> SessionReport {
    let mut r = SessionReport::default();
    for &op in ops {
        let stamps = |kind, same_key| -> Vec<Stamp> {
            issued_before(ops, op, kind, same_key).filter_map(|a| a.stamp).collect()
        };
        match (op.kind, op.stamp) {
            (OpKind::Read, got) => {
                let behind = |e: Stamp| got.is_none_or(|s| s < e);
                // RYW: not behind any own earlier write of this key.
                let own = stamps(OpKind::Write, true);
                tally(&mut r.ryw_checked, &mut r.ryw_violations, &own, behind);
                // MR: not behind any own earlier read of this key.
                let seen = stamps(OpKind::Read, true);
                tally(&mut r.mr_checked, &mut r.mr_violations, &seen, behind);
            }
            (OpKind::Write, Some(s)) => {
                // MW: ordered after every own earlier write, any key.
                let own = stamps(OpKind::Write, false);
                tally(&mut r.mw_checked, &mut r.mw_violations, &own, |e| s < e);
                // WFR: ordered after everything read earlier, any key.
                let seen = stamps(OpKind::Read, false);
                tally(&mut r.wfr_checked, &mut r.wfr_violations, &seen, |e| s < e);
            }
            (OpKind::Write, None) => {}
        }
    }
    r
}

/// PBS staleness: a read is judged against the stamped writes of its key
/// acknowledged strictly before it was invoked; it missed those newer
/// than what it returned. Samples are listed in read-completion order.
fn staleness(ops: &[&OpRecord]) -> StalenessReport {
    let mut r = StalenessReport::default();
    let mut reads: Vec<&OpRecord> =
        ops.iter().copied().filter(|o| o.kind == OpKind::Read).collect();
    reads.sort_by_key(|o| (o.completed, o.session, o.op_id));
    for read in reads {
        let acked = || {
            ops.iter().filter(|w| {
                w.kind == OpKind::Write
                    && w.key == read.key
                    && w.stamp.is_some()
                    && w.completed < read.invoked
            })
        };
        let returned = read.stamp.unwrap_or((0, 0));
        let missed: Vec<&&OpRecord> =
            acked().filter(|w| w.stamp.is_some_and(|s| s > returned)).collect();
        if acked().next().is_none() {
            r.unclassified_reads += 1;
        } else if let Some(oldest) = missed.iter().map(|w| w.completed).min() {
            r.stale_reads += 1;
            r.k_staleness.push(missed.len() as u64);
            r.t_staleness_ms.push(read.invoked.saturating_since(oldest).as_millis_f64());
        } else {
            r.fresh_reads += 1;
        }
    }
    r
}

/// Value monotonicity: a read is judged once its session has read the
/// key before, and must not observe less than any of those reads did.
fn monotonic(ops: &[&OpRecord]) -> MonotonicValueReport {
    let observed = |o: &OpRecord| o.value_read.iter().sum::<u64>();
    let mut r = MonotonicValueReport::default();
    for &read in ops.iter().filter(|o| o.kind == OpKind::Read) {
        let earlier: Vec<u64> =
            issued_before(ops, read, OpKind::Read, true).map(observed).collect();
        if !earlier.is_empty() {
            r.checked += 1;
            if earlier.iter().any(|&e| observed(read) < e) {
                r.violations += 1;
            }
        }
    }
    r
}

/// Convergence: reads invoked at or after (last write ack + grace) must
/// agree, per written key, on the *set* of values returned. Each distinct
/// view is reported with the replica that served it first.
fn convergence(ops: &[&OpRecord], grace: Duration) -> Option<ConvergenceReport> {
    let writes = || ops.iter().filter(|o| o.kind == OpKind::Write);
    let quiescence_at = writes().map(|w| w.completed).max()? + grace;
    let as_set = |o: &OpRecord| {
        let mut set = o.value_read.clone();
        set.sort_unstable();
        set
    };
    let mut keys: Vec<u64> = writes().map(|w| w.key).collect();
    keys.sort_unstable();
    keys.dedup();

    let mut r = ConvergenceReport { quiescence_at, ..Default::default() };
    for key in keys {
        let settled: Vec<&&OpRecord> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Read && o.key == key && o.invoked >= quiescence_at)
            .collect();
        let mut sets: Vec<Vec<u64>> = settled.iter().map(|o| as_set(o)).collect();
        sets.sort();
        sets.dedup();
        match sets.len() {
            0 => r.unverified_keys += 1,
            1 => r.converged_keys += 1,
            _ => {
                let first_server = |set: &Vec<u64>| {
                    settled
                        .iter()
                        .filter(|o| &as_set(o) == set)
                        .min_by_key(|o| (o.completed, o.session, o.op_id))
                        .expect("every set came from a read")
                        .replica
                        .0
                };
                let views = sets.iter().map(|s| (s.clone(), first_server(s))).collect();
                r.diverged.push(Divergence { key, views });
            }
        }
    }
    Some(r)
}
