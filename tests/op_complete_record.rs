//! Integration: what recording an event costs, counted exactly.
//!
//! The event log keeps each event packed into one byte buffer
//! (`obs::packed`): an `op_complete` is its payload's fields written
//! there, not an `OpCompletion` in a box. The payload still owns a copy
//! of the values a read returned, so building it costs an allocation,
//! and `Recorder::record_op_complete` takes it as a closure that runs
//! only when the event log keeps the event; the client
//! (`replication::common::SessionClient`) records through it. So a
//! recorder without a log — the counters-only mode every benchmark sweep
//! runs in — pays nothing per completed operation, and the event still
//! takes its sequence number, so `events_recorded` is the same in every
//! mode. (That the closure is never run without room in a log, and
//! which `seq` the event takes, is `obs::recorder`'s unit test.) A log
//! with room allocates only when its buffer grows, whatever it records.
//! Exact, not timed: this binary installs [`CountingAlloc`], which
//! tallies per thread, and a seeded run allocates the same every time.

use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::obs::{
    alloc_totals, parse_jsonl, ClientOpKind, CountingAlloc, DropReason, EventKind, OpCompletion,
    QuorumKind, Recorder, SpanStatus, TsMetric,
};
use rethinking_ec::replication::common::{Guarantees, ScriptOp, TargetPolicy};
use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, Msg};
use rethinking_ec::replication::sink;
use rethinking_ec::replication::Composition;
use rethinking_ec::simnet::{Duration, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let (_, before) = alloc_totals();
    f();
    alloc_totals().1 - before
}

/// One replica, one client: a write, then `reads` reads of the key it
/// wrote, each of which returns that value.
fn run_reads(recorder: Recorder, reads: u64) -> (u64, Vec<usize>) {
    const GAP_US: u64 = 200;
    let comp = Composition::eventual_lww(1);
    let trace = sink::shared_trace();
    // The time series grow a bucket per 100 ms; sized for the whole run
    // up front, so the window below measures the client's completions.
    let end = SimTime::from_millis(2_000);
    for metric in [TsMetric::StalenessVersions, TsMetric::VisibilityLagUs] {
        recorder.sample(end.as_micros(), metric, 0);
    }
    let mut sim: Sim<Msg> = Sim::new(
        SimConfig::default()
            .seed(7)
            .latency(LatencyModel::Constant(Duration::from_millis(1)))
            .recorder(recorder),
    );
    sim.add_node(Box::new(EventualReplica::new(&comp)));
    let script = std::iter::once(ScriptOp { gap_us: GAP_US, kind: OpKind::Write, key: 0 })
        .chain((0..reads).map(|_| ScriptOp { gap_us: GAP_US, kind: OpKind::Read, key: 0 }))
        .collect();
    sim.add_node(Box::new(EventualClient::new(
        1,
        script,
        trace.clone(),
        &comp,
        TargetPolicy::Sticky(NodeId(0)),
        Guarantees::none(),
    )));
    sim.run_until(SimTime::from_millis(200));
    let warm = trace.borrow().len();
    let window = allocations(|| {
        sim.run_until(end);
    });
    let trace = trace.borrow();
    assert_eq!(trace.len() as u64, reads + 1, "every op completed before the horizon");
    let read_values = trace.records()[warm..].iter().map(|r| r.value_read.len()).collect();
    (window, read_values)
}

/// [`run_reads`] on a thread of its own. A simulator starts on the event
/// queue's key buffers that the last one dropped on its thread left, so
/// two runs on one thread would not start alike.
fn run_reads_cold(recorder: Recorder, reads: u64) -> (u64, Vec<usize>) {
    std::thread::spawn(move || run_reads(recorder, reads)).join().unwrap()
}

/// What a counters-only recorder costs a completed read is what no
/// recorder costs it: the event it would have built is never built.
/// Recording eagerly — the payload's box and its copy of the values read,
/// or the copy alone, as before the payload was boxed — shows here as one
/// or two allocations for every read in the window.
#[test]
fn a_client_completes_reads_without_allocating_for_a_recorder_without_a_log() {
    const READS: u64 = 600;
    let (off, values_off) = run_reads_cold(Recorder::disabled(), READS);
    let (counters, values_on) = run_reads_cold(Recorder::enabled(), READS);
    assert_eq!(values_off, values_on);
    assert!(values_on.len() > 300, "{} reads in the window", values_on.len());
    assert!(values_on.iter().all(|&n| n == 1), "every read returned the value written");
    assert_eq!(
        counters,
        off,
        "{} reads completed: {counters} allocations with counters, {off} without a recorder",
        values_on.len()
    );
}

/// Every mode numbers the same events: the `op_complete`s a log keeps are
/// the ones a counters-only recorder counts without building.
#[test]
fn events_recorded_does_not_depend_on_the_log() {
    let run = |recorder: Recorder| {
        let result = Experiment::new(Scheme::Quorum {
            n: 3,
            r: 1,
            w: 1,
            read_repair: false,
            placement: ClientPlacement::Random,
        })
        .seed(12)
        .horizon(SimTime::from_secs(4))
        .recorder(recorder.clone())
        .run();
        (recorder, result.trace.len())
    };
    let (counters, ops) = run(Recorder::enabled());
    let (log, ops_logged) = run(Recorder::with_event_log());
    assert!(ops > 0);
    assert_eq!(ops, ops_logged);
    let recorded = counters.report().events_recorded;
    assert_eq!(log.report().events_recorded, recorded);
    let events = parse_jsonl(&log.export_jsonl()).unwrap();
    assert_eq!(events.len() as u64, recorded);
    assert!(events.iter().enumerate().all(|(i, ev)| ev.seq == i as u64));
    let completions =
        events.iter().filter(|ev| matches!(ev.kind, EventKind::OpComplete(_))).count();
    assert_eq!(completions, ops);
}

/// One event of every type but `op_complete` (which
/// [`completion`] builds), at `i`.
fn event(i: u64) -> EventKind {
    let node = i % 5;
    match i % 16 {
        0 => EventKind::MessageSent { from: node, to: 1, bytes: 96, trace: i, span: i },
        1 => EventKind::MessageDelivered { from: 1, to: node, bytes: 96, trace: i, span: i },
        2 => EventKind::MessageDropped {
            from: 1,
            to: node,
            reason: DropReason::Loss,
            trace: i,
            span: i,
        },
        3 => EventKind::AntiEntropyRound { node, fanout: 2 },
        4 => EventKind::QuorumWait {
            node,
            kind: QuorumKind::Write,
            waited_us: i % 9_000,
            acks: 2,
            needed: 2,
        },
        5 => EventKind::ConflictDetected { node, key: i % 64, siblings: 2 },
        6 => EventKind::ConflictResolved { node, key: i % 64, survivors: 1 },
        7 => EventKind::WalAppend { node, key: i % 64, bytes: 24 },
        8 => EventKind::PartitionStart { island: vec![node, node + 1] },
        9 => EventKind::PartitionHeal,
        10 => EventKind::Crash { node },
        11 => EventKind::Recover { node },
        12 => EventKind::MembershipChange { node, join: i.is_multiple_of(2) },
        13 => EventKind::WalReplay { node, records: i % 100 },
        14 => EventKind::SpanOpen {
            trace: i,
            span: i,
            parent: i - 1,
            node,
            name: ["op_read", "op_write", "quorum_read"][i as usize % 3],
        },
        _ => EventKind::SpanClose { trace: i, span: i, node, status: SpanStatus::Ok },
    }
}

fn completion(i: u64) -> OpCompletion {
    OpCompletion {
        session: i % 8,
        op: i,
        key: i % 64,
        kind: ClientOpKind::Read,
        ok: true,
        invoked_us: 100 * i,
        replica: 1,
        value: None,
        values: vec![i, i + 1],
        stamp: Some((i, 1)),
        version_ts_us: Some(100 * i - 7),
    }
}

/// Recording into a log with room allocates only when the log's buffer
/// (or its table of span names) grows, which at doubling is about
/// log2 of its size: an event of any type, and an `op_complete` recorded
/// either way, is packed where a row log pushed a row and boxed the
/// payload. What each event owns is built before the count and dropped
/// inside it, which frees and never allocates.
#[test]
fn recording_into_a_log_with_room_allocates_only_its_growth() {
    const ROUNDS: u64 = 20_000;
    let rec = Recorder::with_event_log();
    // Size the per-node counter table first.
    rec.record(0, EventKind::Crash { node: 4 });
    let mut events = Vec::new();
    for i in 1..=ROUNDS {
        events.push((event(i), EventKind::OpComplete(Box::new(completion(i))), completion(i)));
    }
    let counted = allocations(|| {
        for (i, (kind, boxed, payload)) in (1..).zip(events) {
            rec.record(100 * i, kind);
            rec.record(100 * i + 1, boxed);
            rec.record_op_complete(100 * i + 2, move || payload);
        }
    });
    let report = rec.report();
    assert_eq!((report.events_recorded, report.events_dropped), (3 * ROUNDS + 1, 0));
    let bytes = rec.event_log_bytes();
    let doublings = u64::from(usize::BITS - bytes.leading_zeros());
    assert!(
        counted <= doublings + 2,
        "{} events packed into {bytes} B: {counted} allocations, {doublings} doublings",
        3 * ROUNDS
    );
}
