//! `TraceSink::read_staleness` answers from a per-key index of
//! acknowledged writes, kept in push order while a run fills its trace.
//! Its reference is the linear scan over the whole history it replaced,
//! kept here as the oracle: on arbitrary histories (pushed in completion
//! order, as every client does) both must agree, with same-instant
//! records in the order they were pushed. The trace then leaves the sink
//! as pushed, and `sort_by_completion` must leave both kinds of trace —
//! in order, and with same-instant ties out of order — as a stable sort
//! of every record does. A last test holds the cost of a sample flat as
//! a real run's history grows.

use obs::Recorder;
use proptest::prelude::*;
use replication::common::{expand_script, ScriptOp, TargetPolicy};
use replication::quorum::{QuorumClient, QuorumNode};
use replication::sink::{self, TraceSink};
use replication::Composition;
use simnet::{NodeId, OpKind, OpRecord, OpTrace, Sim, SimConfig, SimRng, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

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

fn build(ops: &[OpSpec]) -> TraceSink {
    let mut sink = TraceSink::with_capacity(ops.len());
    let mut now = 0u64;
    for (i, &(gap, session, key, is_write, ok, has_value)) in ops.iter().enumerate() {
        now += gap;
        sink.record(OpRecord {
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
    sink
}

fn assert_agrees(sink: &TraceSink, reads: &[(u64, u64, Vec<usize>)], what: &str) {
    for (key, at_us, picks) in reads {
        let values: Vec<u64> = picks.iter().map(|&i| 1_000 + i as u64).collect();
        let at = SimTime::from_micros(*at_us);
        assert_eq!(
            sink.read_staleness(*key, at, &values),
            linear_scan(sink.records(), *key, at, &values),
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
        let mut sink = build(&ops);
        assert_agrees(&sink, &reads, "live");

        // A record pushed later lands in the index.
        let last = sink.records().last().map_or(0, |r| r.completed.as_micros());
        sink.record(OpRecord {
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
        assert_agrees(&sink, &reads, "pushed");
        let late = [(0u64, last + 50, vec![]), (0, last + 50, vec![0])];
        assert_agrees(&sink, &late, "after the late write");

        // The trace leaves the sink as it was pushed.
        let pushed = sink.records().to_vec();
        let trace = sink.into_trace();
        prop_assert_eq!(trace.records(), &pushed[..]);
    }
}

/// What `sort_by_completion` must give: a stable sort of every record.
fn sorted_stably(trace: &OpTrace) -> Vec<OpRecord> {
    let mut records = trace.records().to_vec();
    records.sort_by_key(|r| (r.completed, r.session, r.op_id));
    records
}

proptest! {
    #[test]
    fn sorting_equals_the_unconditional_sort(ops in history()) {
        let pushed = build(&ops).into_trace();
        let reference = sorted_stably(&pushed);
        // `build` numbers ops in descending order, so its same-instant
        // ties are out of order; the reference's records are in order.
        let mut in_order = OpTrace::with_capacity(reference.len());
        for r in &reference {
            in_order.push(r.clone());
        }
        for (mut trace, what) in [(pushed, "ties out of order"), (in_order, "in order")] {
            let capacity = trace.capacity();
            trace.sort_by_completion();
            prop_assert_eq!(trace.records(), &reference[..], "{}", what);
            prop_assert_eq!(trace.capacity(), capacity, "{}: sorted into a new buffer", what);
        }
    }
}

/// Complexity guard, by count: a ten times longer session must not
/// make a staleness sample dearer. A sample walks the versions the read
/// missed (its output) and, beyond those, examines the logarithm of the
/// key's writes (one more binary-search step per doubling); a scan of
/// the history examines ten times as much. The run is a seeded quorum
/// deployment (N=3, R=W=2, random coordinators) over a zipfian YCSB-A
/// workload, its sink read after the simulation ends.
#[test]
fn staleness_cost_does_not_grow_with_session_length() {
    const SESSIONS: u64 = 4;
    let run = |ops_per_session: u32| {
        let spec = WorkloadSpec {
            keys: 1_024,
            distribution: KeyDistribution::zipfian_default(),
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 2_000 },
            sessions: SESSIONS as u32,
            ops_per_session,
        };
        let comp = Composition::quorum(3, 2, 2, true, 0);
        let trace = sink::shared_trace();
        let mut sim = Sim::new(SimConfig::default().seed(12).recorder(Recorder::enabled()));
        for _ in 0..3 {
            sim.add_node(Box::new(QuorumNode::new(&comp, None)));
        }
        let root = SimRng::new(12);
        for session in 1..=SESSIONS {
            let script: Vec<ScriptOp> =
                expand_script(&spec.session_script(&mut root.fork(session)));
            let client = QuorumClient::new(session, script, trace.clone(), 3, TargetPolicy::Random);
            sim.add_node(Box::new(client));
        }
        sim.run_until(SimTime::from_millis(ops_per_session as u64 * 4));
        drop(sim);
        let sink = trace.borrow();
        assert_eq!(sink.len() as u64, SESSIONS * ops_per_session as u64);
        let reads: Vec<&OpRecord> =
            sink.records().iter().filter(|r| r.ok && r.kind == OpKind::Read).collect();
        // Entries examined beyond the missed versions the sample
        // reports (its output): the search and the stopping entry.
        let overhead: u64 = reads
            .iter()
            .map(|r| {
                let ((missed, _), visited) =
                    sink.read_staleness_counted(r.key, r.invoked, &r.value_read);
                visited - missed
            })
            .sum();
        overhead as f64 / reads.len() as f64
    };
    let short_visits = run(800);
    let long_visits = run(8_000);
    assert!(
        long_visits <= short_visits + 4.0,
        "index entries examined per read, beyond the versions it missed, grew from \
         {short_visits:.1} to {long_visits:.1}"
    );
}
