//! Integration: what the packed event log costs a protocol run, in
//! bytes per retained event.
//!
//! The recorder keeps each event as a tag byte, varint deltas of `seq`
//! and `t_us`, and varint fields (`obs::packed`), where it once kept a
//! 72-byte `TracedEvent` row per event and a boxed payload per
//! `op_complete`. These are the runs `tests/trace_golden.rs` pins, every
//! deployment at seeds 11 and 42 with the event log on; a change that
//! bloats the packing — a field written wide, a delta lost, a name
//! written out in full — moves the figures past their bounds here, by
//! name, while the golden digests (which hash the JSONL, not the
//! packing) stay put.

use rethinking_ec::core::fuzz::FuzzScheme;
use rethinking_ec::core::scheme::{ChurnPlan, ClientPlacement};
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::obs::Recorder;
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
use rethinking_ec::replication::Composition;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

/// The deployments of `tests/trace_golden.rs`, in its order.
fn schemes() -> Vec<Scheme> {
    let eventual = |mode, guarantees, placement| Scheme::Eventual {
        replicas: 3,
        eager: true,
        gossip: Some((Duration::from_millis(50), 1)),
        mode,
        guarantees,
        placement,
    };
    let ship_interval = Duration::from_millis(50);
    FuzzScheme::ALL
        .iter()
        .map(|fs| fs.to_scheme())
        .chain([
            Scheme::Sharded {
                inner: Composition::quorum(3, 2, 2, true, 2),
                nodes: 8,
                vnodes: 8,
                churn: ChurnPlan::rolling(8, Duration::from_secs(2), 3, SimTime::from_secs(1)),
            },
            eventual(ConflictMode::Siblings, Guarantees::none(), ClientPlacement::Sticky),
            Scheme::Quorum {
                n: 5,
                r: 3,
                w: 3,
                read_repair: true,
                placement: ClientPlacement::Random,
            },
            Scheme::SloppyQuorum { n: 3, r: 2, w: 2, spares: 2 },
            Scheme::PrimaryAsync { replicas: 3, ship_interval },
            Scheme::PrimaryAsyncFailover { replicas: 3, ship_interval },
            eventual(ConflictMode::Lww, Guarantees::all(), ClientPlacement::Random),
        ])
        .collect()
}

/// `(events retained, packed bytes)` of `tests/trace_golden.rs`'s run of
/// `scheme` at `seed`.
fn golden_run(scheme: Scheme, seed: u64) -> (u64, u64) {
    let recorder = Recorder::with_event_log();
    Experiment::new(scheme)
        .workload(WorkloadSpec {
            keys: 8,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 40_000 },
            sessions: 3,
            ops_per_session: 120,
        })
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(
            FaultSchedule::none()
                .crash_amnesia(NodeId(1), SimTime::from_millis(800), SimTime::from_millis(1_400))
                .partition(vec![NodeId(0)], SimTime::from_secs(3), SimTime::from_secs(5)),
        )
        .seed(seed)
        .horizon(SimTime::from_secs(20))
        .recorder(recorder.clone())
        .run();
    let report = recorder.report();
    assert_eq!(report.events_dropped, 0);
    (report.events_recorded, recorder.event_log_bytes() as u64)
}

/// Bytes an event the packed log may take over all the golden runs
/// together (9.55 measured when the log was packed, against 72 a row).
const MEAN_BOUND: f64 = 10.0;
/// ... and in any one run (10.91 measured, `causal`).
const RUN_BOUND: f64 = 11.5;

#[test]
fn the_golden_runs_pack_in_about_ten_bytes_an_event() {
    let (mut events, mut bytes) = (0, 0);
    for scheme in schemes() {
        for seed in [11, 42] {
            let label = format!("{} seed {seed}", scheme.label());
            let (run_events, run_bytes) = golden_run(scheme.clone(), seed);
            let per_event = run_bytes as f64 / run_events as f64;
            println!("{label}: {run_events} events, {run_bytes} B, {per_event:.2} B an event");
            assert!(per_event <= RUN_BOUND, "{label}: {per_event:.2} B an event");
            (events, bytes) = (events + run_events, bytes + run_bytes);
        }
    }
    let per_event = bytes as f64 / events as f64;
    println!("all: {events} events, {bytes} B, {per_event:.2} B an event");
    assert!(per_event <= MEAN_BOUND, "{per_event:.2} B an event over {events} events");
}
