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
//! `checker_stream_properties`) give it, and for one of 12 000: the run
//! of labbench's `trace_check` size in `checker_stream_parity`, which
//! takes it about ten seconds in a debug build.
//!
//! It shares with the crate only the *report types* (the violation
//! record among them), so that agreement is one `assert_eq!`. It must
//! never call a `check_*` function, a judge or the verifier: its value is
//! that it can disagree with them.

use rethinking_ec::consistency::{
    ConvergenceReport, Divergence, MonotonicValueReport, SessionReport, StalenessReport,
    StreamViolation, ViolationKind,
};
use rethinking_ec::simnet::{Duration, OpKind, OpRecord, OpTrace};

type Stamp = (u64, u64);

/// All four whole-trace reports.
pub type Reports =
    (SessionReport, StalenessReport, MonotonicValueReport, Option<ConvergenceReport>);

/// Every report the oracle can produce for `trace`, plus every violation
/// it finds, listed as a stream
/// verifier flags them: by the violating operation's `(completed,
/// session, op_id)`, an operation's violations in `ViolationKind::ALL`
/// order, and the diverged keys last, by key, found at quiescence.
pub fn judge(trace: &OpTrace, grace: Duration) -> (Reports, Vec<StreamViolation>) {
    let ops: Vec<&OpRecord> = trace.records().iter().filter(|r| r.ok).collect();
    let mut found = Vec::new();
    let reports = (
        session(&ops, &mut found),
        staleness(&ops, &mut found),
        monotonic(&ops, &mut found),
        convergence(&ops, grace, &mut found),
    );
    let rank = |k: ViolationKind| ViolationKind::ALL.iter().position(|&x| x == k);
    found.sort_by_key(|(op, v)| {
        (op.is_none(), op.map(|o| (o.completed, o.session, o.op_id)), rank(v.kind), v.key)
    });
    (reports, found.into_iter().map(|(_, v)| v).collect())
}

/// A violation, with the operation that committed it (`None` for a
/// divergence, which no single operation commits).
type Found<'a> = (Option<&'a OpRecord>, StreamViolation);

/// `op` violated `kind`.
fn flag<'a>(found: &mut Vec<Found<'a>>, kind: ViolationKind, op: &'a OpRecord) {
    let v = StreamViolation {
        kind,
        session: op.session,
        op_id: op.op_id,
        key: op.key,
        t_us: op.completed.as_micros(),
    };
    found.push((Some(op), v));
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
/// Returns whether it was violated.
fn tally(
    checked: &mut u64,
    violations: &mut u64,
    earlier: &[Stamp],
    behind: impl Fn(Stamp) -> bool,
) -> bool {
    if earlier.is_empty() {
        return false;
    }
    *checked += 1;
    let violated = earlier.iter().any(|&e| behind(e));
    *violations += u64::from(violated);
    violated
}

/// The four Bayou guarantees. A read that returned nothing is behind
/// every version; a write without a stamp installed no version and is
/// neither judged nor a constraint on later operations.
fn session<'a>(ops: &[&'a OpRecord], found: &mut Vec<Found<'a>>) -> SessionReport {
    use ViolationKind::*;
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
                if tally(&mut r.ryw_checked, &mut r.ryw_violations, &own, behind) {
                    flag(found, ReadYourWrites, op);
                }
                // MR: not behind any own earlier read of this key.
                let seen = stamps(OpKind::Read, true);
                if tally(&mut r.mr_checked, &mut r.mr_violations, &seen, behind) {
                    flag(found, MonotonicReads, op);
                }
            }
            (OpKind::Write, Some(s)) => {
                // MW: ordered after every own earlier write, any key.
                let own = stamps(OpKind::Write, false);
                if tally(&mut r.mw_checked, &mut r.mw_violations, &own, |e| s < e) {
                    flag(found, MonotonicWrites, op);
                }
                // WFR: ordered after everything read earlier, any key.
                let seen = stamps(OpKind::Read, false);
                if tally(&mut r.wfr_checked, &mut r.wfr_violations, &seen, |e| s < e) {
                    flag(found, WritesFollowReads, op);
                }
            }
            (OpKind::Write, None) => {}
        }
    }
    r
}

/// PBS staleness: a read is judged against the stamped writes of its key
/// acknowledged strictly before it was invoked; it missed those newer
/// than what it returned. Samples are listed in read-completion order.
fn staleness<'a>(ops: &[&'a OpRecord], found: &mut Vec<Found<'a>>) -> StalenessReport {
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
            flag(found, ViolationKind::StaleRead, read);
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
fn monotonic<'a>(ops: &[&'a OpRecord], found: &mut Vec<Found<'a>>) -> MonotonicValueReport {
    let observed = |o: &OpRecord| o.value_read.iter().sum::<u64>();
    let mut r = MonotonicValueReport::default();
    for &read in ops.iter().filter(|o| o.kind == OpKind::Read) {
        let earlier: Vec<u64> =
            issued_before(ops, read, OpKind::Read, true).map(observed).collect();
        if !earlier.is_empty() {
            r.checked += 1;
            if earlier.iter().any(|&e| observed(read) < e) {
                r.violations += 1;
                flag(found, ViolationKind::ValueRegression, read);
            }
        }
    }
    r
}

/// Convergence: reads invoked at or after (last write ack + grace) must
/// agree, per written key, on the *set* of values returned. Each distinct
/// view is reported with the replica that served it first.
fn convergence(
    ops: &[&OpRecord],
    grace: Duration,
    found: &mut Vec<Found<'_>>,
) -> Option<ConvergenceReport> {
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
                let v = StreamViolation {
                    kind: ViolationKind::Divergence,
                    session: 0,
                    op_id: 0,
                    key,
                    t_us: quiescence_at.as_micros(),
                };
                found.push((None, v));
            }
        }
    }
    Some(r)
}
