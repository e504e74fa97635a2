//! `OpTrace::read_staleness` answers from a per-key index of
//! acknowledged writes. Its reference is the linear scan over the whole
//! history it replaced, kept here as the oracle: on arbitrary histories
//! (pushed in completion order, as every client does) both must agree —
//! on the live trace, on a clone, after `sort_by_completion` reorders
//! same-instant records, and after a JSON round trip rebuilds the index.
//! `sort_by_completion` leaves a trace already in order as it is; the
//! sort it skips is kept here too, and both kinds of trace — in order,
//! and with same-instant ties out of order — must come out of it as
//! that sort leaves them.

use proptest::prelude::*;
use simnet::{NodeId, OpKind, OpRecord, OpTrace, SimTime};

/// The scan `read_staleness` used to be: binary-search the committed
/// prefix of the whole history, then walk it newest-first.
fn linear_scan(records: &[OpRecord], key: u64, at: SimTime, values_read: &[u64]) -> (u64, u64) {
    let prefix = records.partition_point(|r| r.completed <= at);
    let mut missed = 0u64;
    let mut newest_missed: Option<SimTime> = None;
    for r in records[..prefix].iter().rev() {
        if r.kind != OpKind::Write || !r.ok || r.key != key {
            continue;
        }
        if r.value_written.map(|v| values_read.contains(&v)).unwrap_or(false) {
            break;
        }
        missed += 1;
        if newest_missed.is_none() {
            newest_missed = Some(r.completed);
        }
    }
    (missed, newest_missed.map(|c| at.saturating_since(c).as_micros()).unwrap_or(0))
}

/// One generated op: `(gap_us, session, key, is_write, ok, has_value)`.
/// A gap of 0 makes an equal-`completed` tie with the previous record.
type OpSpec = (u64, u64, u64, bool, bool, bool);

fn history() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (0u64..3, 0u64..4, 0u64..3, any::<bool>(), any::<bool>(), 0u64..10),
        0..60,
    )
    .prop_map(|ops| {
        ops.into_iter().map(|(gap, s, k, w, ok, hv)| (gap * 5, s, k, w, ok, hv > 0)).collect()
    })
}

/// Reads to judge: `(key, at_us, picks)` — `picks` choose the values
/// the read returned among the history's writes (several = siblings;
/// out of range = a value no acknowledged write carries).
fn reads() -> impl Strategy<Value = Vec<(u64, u64, Vec<usize>)>> {
    proptest::collection::vec(
        // Key 3 is never written.
        (0u64..4, 0u64..400, proptest::collection::vec(0usize..70, 0..4)),
        1..25,
    )
}

fn build(ops: &[OpSpec]) -> OpTrace {
    let mut trace = OpTrace::new();
    let mut now = 0u64;
    for (i, &(gap, session, key, is_write, ok, has_value)) in ops.iter().enumerate() {
        now += gap;
        trace.push(OpRecord {
            session,
            // Descending, so `sort_by_completion` really reorders ties.
            op_id: (ops.len() - i) as u64,
            key,
            kind: if is_write { OpKind::Write } else { OpKind::Read },
            value_written: (is_write && has_value).then_some(1_000 + i as u64),
            value_read: vec![],
            invoked: SimTime::from_micros(now.saturating_sub(3)),
            completed: SimTime::from_micros(now),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp: None,
        });
    }
    trace
}

fn assert_agrees(trace: &OpTrace, reads: &[(u64, u64, Vec<usize>)], what: &str) {
    for (key, at_us, picks) in reads {
        let values: Vec<u64> = picks.iter().map(|&i| 1_000 + i as u64).collect();
        let at = SimTime::from_micros(*at_us);
        assert_eq!(
            trace.read_staleness(*key, at, &values),
            linear_scan(trace.records(), *key, at, &values),
            "{}: key {} at {} µs having read {:?}",
            what,
            key,
            at_us,
            values
        );
    }
}

proptest! {
    #[test]
    fn indexed_staleness_equals_the_linear_scan(ops in history(), reads in reads()) {
        let mut trace = build(&ops);
        assert_agrees(&trace, &reads, "live");
        assert_agrees(&trace.clone(), &reads, "clone");

        let json = serde_json::to_string(&trace).unwrap();
        prop_assert!(json.starts_with("{\"records\":["), "wire shape changed: {}", &json[..json.len().min(40)]);
        let back: OpTrace = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.records(), trace.records());
        assert_agrees(&back, &reads, "deserialised");

        trace.sort_by_completion();
        assert_agrees(&trace, &reads, "sorted");
        // A record pushed after the sort lands in the rebuilt index.
        let last = trace.records().last().map_or(0, |r| r.completed.as_micros());
        trace.push(OpRecord {
            session: 9,
            op_id: 0,
            key: 0,
            kind: OpKind::Write,
            value_written: Some(7),
            value_read: vec![],
            invoked: SimTime::from_micros(last),
            completed: SimTime::from_micros(last + 1),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp: None,
        });
        assert_agrees(&trace, &reads, "sorted, then pushed");
        let late = [(0u64, last + 50, vec![]), (0, last + 50, vec![0])];
        assert_agrees(&trace, &late, "after the late write");
    }
}

/// What `sort_by_completion` did before it skipped traces already in
/// order: a stable sort of every record, and an index built afresh.
fn sorted_unconditionally(trace: &OpTrace) -> OpTrace {
    let mut records = trace.records().to_vec();
    records.sort_by_key(|r| (r.completed, r.session, r.op_id));
    let mut sorted = OpTrace::new();
    for r in records {
        sorted.push(r);
    }
    sorted
}

proptest! {
    #[test]
    fn sorting_equals_the_unconditional_sort(ops in history(), reads in reads()) {
        let reference = sorted_unconditionally(&build(&ops));
        // `build` numbers ops in descending order, so its same-instant
        // ties are out of order; the reference's records are in order.
        let mut in_order = OpTrace::new();
        for r in reference.records() {
            in_order.push(r.clone());
        }
        for (mut trace, what) in [(build(&ops), "ties out of order"), (in_order, "in order")] {
            trace.sort_by_completion();
            prop_assert_eq!(trace.records(), reference.records(), "{}", what);
            for (key, at_us, picks) in &reads {
                let values: Vec<u64> = picks.iter().map(|&i| 1_000 + i as u64).collect();
                let at = SimTime::from_micros(*at_us);
                prop_assert_eq!(
                    trace.read_staleness(*key, at, &values),
                    reference.read_staleness(*key, at, &values),
                    "{}: key {} at {} µs having read {:?}", what, key, at_us, values
                );
            }
        }
    }
}
