//! Integration: the observability layer's two contract guarantees,
//! end to end (see `docs/METRICS.md`):
//!
//! 1. **Determinism** — the JSONL event log is a pure function of
//!    `(config, seed)`: two identical runs export byte-identical traces.
//! 2. **Conservation** — every message handed to the network is
//!    accounted for exactly once, even under partitions, crashes, and
//!    random loss: `messages_sent == messages_delivered +
//!    messages_dropped`; likewise every span opens and closes exactly
//!    once (`abandoned` closes mark spans the run cut short).
//!
//! Plus the doc-sync guards: the counter and time-series tables in
//! `docs/METRICS.md` must list exactly what the code exports.

use rethinking_ec::core::{Experiment, RunResult, Scheme};
use rethinking_ec::obs::{parse_jsonl, Counter, EventKind, Recorder, TsMetric};
use rethinking_ec::obs_tools::check_spans;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 8,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 20_000 },
        sessions: 6,
        ops_per_session: 80,
    }
}

/// Partition + crash + message loss, all in one run: the regime where
/// an unaccounted-for message would actually slip through.
fn faulty_schedule() -> FaultSchedule {
    FaultSchedule::none()
        .partition(vec![NodeId(0)], SimTime::from_secs(2), SimTime::from_secs(4))
        .crash(NodeId(1), SimTime::from_secs(5), SimTime::from_secs(6))
        .loss_rate(SimTime::from_secs(0), 0.05)
}

fn run_with(recorder: Recorder, seed: u64) -> RunResult {
    Experiment::new(Scheme::quorum(3, 2, 2))
        .workload(workload())
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(10),
        })
        .faults(faulty_schedule())
        .seed(seed)
        .horizon(SimTime::from_secs(15))
        .recorder(recorder)
        .run()
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    let rec_a = Recorder::with_event_log();
    let rec_b = Recorder::with_event_log();
    run_with(rec_a.clone(), 42);
    run_with(rec_b.clone(), 42);

    let a = rec_a.export_jsonl();
    let b = rec_b.export_jsonl();
    assert!(!a.is_empty(), "the run recorded no events");
    assert_eq!(a, b, "same (config, seed) must export byte-identical JSONL");

    // A different seed must diverge (otherwise the assertion above is
    // vacuous — e.g. the recorder could be ignoring the run entirely).
    let rec_c = Recorder::with_event_log();
    run_with(rec_c.clone(), 43);
    assert_ne!(a, rec_c.export_jsonl(), "different seeds should differ");
}

#[test]
fn message_conservation_holds_under_faults() {
    let rec = Recorder::enabled();
    run_with(rec.clone(), 7);
    let report = rec.report();

    report.check_message_conservation().unwrap_or_else(|(sent, delivered, dropped)| {
        panic!("conservation violated: sent={sent} delivered={delivered} dropped={dropped}")
    });

    // The faulty schedule must actually have exercised every drop path,
    // otherwise this test passes trivially.
    assert!(report.counter(Counter::MessagesDropped) > 0, "no drops: faults did not bite");
    assert_eq!(report.counter(Counter::PartitionsStarted), 1);
    assert_eq!(report.counter(Counter::PartitionsHealed), 1);
    assert_eq!(report.counter(Counter::Crashes), 1);
    assert_eq!(report.counter(Counter::Recoveries), 1);
}

#[test]
fn conservation_holds_when_the_horizon_truncates_in_flight_messages() {
    // A horizon this short ends the run with messages still in the
    // network queue. Those must surface as `shutdown` drops, not vanish
    // (see docs/METRICS.md, `message_dropped.reason`).
    let rec = Recorder::enabled();
    Experiment::new(Scheme::quorum(3, 2, 2))
        .workload(workload())
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(10),
        })
        .seed(9)
        .horizon(SimTime::from_millis(25))
        .recorder(rec.clone())
        .run();
    let report = rec.report();

    assert!(report.counter(Counter::MessagesSent) > 0, "nothing was sent before the horizon");
    report.check_message_conservation().unwrap_or_else(|(sent, delivered, dropped)| {
        panic!(
            "in-flight messages at the horizon leaked: sent={sent} delivered={delivered} dropped={dropped}"
        )
    });
    assert!(
        report.counter(Counter::MessagesDropped) > 0,
        "expected shutdown drops: a 25 ms horizon with 1-10 ms latency should truncate in-flight messages"
    );
}

#[test]
fn per_node_counters_sum_to_global() {
    let rec = Recorder::enabled();
    run_with(rec.clone(), 11);
    let report = rec.report();

    for counter in [Counter::MessagesSent, Counter::MessagesDelivered, Counter::QuorumReads] {
        let global = report.counter(counter);
        let sum: u64 = report.per_node.iter().map(|nc| report.node_counter(nc.node, counter)).sum();
        assert_eq!(global, sum, "{:?}: per-node values must sum to the global", counter);
    }
}

#[test]
fn run_result_metrics_match_the_recorder() {
    let rec = Recorder::enabled();
    let res = run_with(rec.clone(), 3);
    assert_eq!(res.metrics, rec.report(), "RunResult.metrics must be the recorder's snapshot");
    assert!(res.metrics.counter(Counter::MessagesSent) > 0);
}

/// Golden pin of the windowed series of one seeded run under faults.
/// `--summary-only` strips `timeseries` from the checked-in
/// `results/*.json`, so nothing else holds these values still: per
/// series the point count, the totals, and an FNV-1a hash of the
/// exported JSON (every bucket's `t_us`, `count`, `sum`, `mean`, `max`).
/// A change to what a staleness sample or a divergence probe *measures*
/// moves this; a change to how cheaply they measure it must not.
#[test]
fn timeseries_of_a_seeded_run_are_pinned() {
    let fnv1a = |s: &str| {
        s.bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    };
    let report = run_with(Recorder::enabled(), 7).metrics;
    let got: Vec<String> = report
        .timeseries
        .iter()
        .map(|(name, series)| {
            let p = &series.points;
            format!(
                "{name}: {} points, count {}, sum {}, max {}, fnv {:016x}",
                p.len(),
                p.iter().map(|x| x.count).sum::<u64>(),
                p.iter().map(|x| x.sum).sum::<u64>(),
                p.iter().map(|x| x.max).max().unwrap_or(0),
                fnv1a(&serde_json::to_string(series).expect("series serializes")),
            )
        })
        .collect();
    let pinned = [
        "staleness_versions: 82 points, count 214, sum 959, max 76, fnv eef5cba9857f6890",
        "visibility_lag_us: 82 points, count 214, sum 35759724, max 3591640, fnv e5d94aa3ade0bd90",
        "replica_divergence: 150 points, count 1192, sum 1376, max 3, fnv 41549c2928b5a57a",
        "inflight_depth: 150 points, count 150, sum 133, max 7, fnv 69c9570b26bbcab0",
    ];
    assert_eq!(got, pinned, "the time series of quorum(3,2,2) seed 7 under faults moved");
}

#[test]
fn span_conservation_holds_across_schemes_under_faults() {
    // Partition + plain crash + amnesia crash + loss: the regimes where
    // a coordinator's pending span would leak if abandonment ever
    // missed a path (amnesia wipes pending tables; demotions strand
    // Paxos proposals; the horizon truncates whatever is left).
    let nemesis = FaultSchedule::none()
        .partition(vec![NodeId(0)], SimTime::from_secs(2), SimTime::from_secs(4))
        .crash(NodeId(1), SimTime::from_secs(5), SimTime::from_secs(6))
        .crash_amnesia(NodeId(0), SimTime::from_secs(8), SimTime::from_secs(9))
        .loss_rate(SimTime::from_secs(0), 0.05);
    let schemes = vec![
        ("eventual", Scheme::eventual(3)),
        ("quorum", Scheme::quorum(3, 2, 2)),
        ("primary_sync", Scheme::PrimarySync { replicas: 3 }),
        ("paxos", Scheme::Paxos { nodes: 3 }),
        ("causal", Scheme::Causal { replicas: 3 }),
    ];
    for (label, scheme) in schemes {
        let rec = Recorder::with_event_log();
        Experiment::new(scheme)
            .workload(workload())
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(10),
            })
            .faults(nemesis.clone())
            .seed(5)
            .horizon(SimTime::from_secs(15))
            .recorder(rec.clone())
            .run();

        // Per-span accounting: every open has exactly one matching
        // close (an explicit `abandoned` close counts), parents exist,
        // ids are unique.
        let report = check_spans(&parse_jsonl(&rec.export_jsonl()).unwrap());
        assert!(report.ok(), "{label}: {report}");
        assert!(report.opened > 0, "{label}: run recorded no spans");

        // The aggregate counters must agree with the per-span walk.
        let metrics = rec.report();
        assert_eq!(metrics.counter(Counter::SpansOpened), report.opened, "{label}");
        assert_eq!(metrics.counter(Counter::SpansClosed), report.closed, "{label}");
        assert_eq!(metrics.counter(Counter::SpansAbandoned), report.abandoned, "{label}");
        assert!(report.abandoned <= report.closed, "{label}");
    }
}

/// Extract the names from the markdown table rows (`| \`name\` | ...`)
/// of the section starting at `heading`.
fn doc_table_names<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let section = doc
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("docs/METRICS.md lost its `{heading}` section"))
        .split("\n## ")
        .next()
        .unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().unwrap())
        .collect()
}

#[test]
fn metrics_doc_lists_exactly_the_exported_counters() {
    let doc = include_str!("../docs/METRICS.md");
    let documented = doc_table_names(doc, "\n## Counters");
    let exported: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(
        documented, exported,
        "the counter table in docs/METRICS.md must list every counter \
         `Counter::name()` exports, in export order — update the doc"
    );
}

/// The event table is generated, with the codec, from one declaration
/// (`obs::event`); the doc is the other place it is written, so a
/// renamed, added or reordered field must move there too.
#[test]
fn metrics_doc_lists_exactly_the_declared_event_table() {
    let doc = include_str!("../docs/METRICS.md");
    let section = doc.split("\n### Event types").nth(1).expect("an `Event types` section");
    let documented: Vec<(&str, Vec<&str>)> = section
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            // `| \`type\` | \`field\`, \`field\` (remarks) | prose |`: the
            // names are what stands between backticks.
            let mut columns = row.split(" | ");
            let mut names = |column: &'static str| {
                let text = columns.next().unwrap_or_else(|| panic!("no {column} column: {row}"));
                text.split('`').skip(1).step_by(2).collect::<Vec<_>>()
            };
            let tag = names("type");
            assert_eq!(tag.len(), 1, "one type tag a row: {row}");
            (tag[0], names("fields"))
        })
        .collect();
    let declared: Vec<(&str, Vec<&str>)> =
        EventKind::WIRE_TABLE.iter().map(|&(tag, fields)| (tag, fields.to_vec())).collect();
    assert_eq!(
        documented, declared,
        "the event table in docs/METRICS.md must list every event type of \
         `EventKind::WIRE_TABLE` with its fields, in wire order — update the doc"
    );
}

#[test]
fn metrics_doc_lists_exactly_the_exported_timeseries() {
    let doc = include_str!("../docs/METRICS.md");
    let documented = doc_table_names(doc, "\n## Time series");
    let exported: Vec<&str> = TsMetric::ALL.iter().map(|m| m.name()).collect();
    assert_eq!(
        documented, exported,
        "the time-series table in docs/METRICS.md must list every metric \
         `TsMetric::name()` exports, in export order — update the doc"
    );
}
