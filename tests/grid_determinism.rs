//! Integration: the parallel grid runner is bit-for-bit deterministic.
//!
//! The same grid must produce byte-identical results whether it runs on
//! one worker or eight, and two parallel runs must agree with each other
//! (catching scheduling-order leaks, not just serial/parallel drift).
//! Compared artifacts: every cell's operation trace, its serialized
//! metrics report, and its exported JSONL event log — exactly what
//! `--trace-out` and the results JSON are built from.

use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{CellResult, Experiment, Grid, Scheme};
use rethinking_ec::obs::Recorder;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn small_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 8,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 2_000 },
        sessions: 4,
        ops_per_session: 40,
    }
}

/// One variant per protocol family, including a faulty one — different
/// code paths, same determinism obligation.
fn mixed_grid() -> Grid {
    let mk = |scheme: Scheme| {
        Experiment::new(scheme)
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(8),
            })
            .workload(small_workload())
            .seed(11)
            .horizon(SimTime::from_secs(30))
    };
    let mut grid = Grid::new();
    for scheme in [
        Scheme::eventual(3),
        Scheme::Quorum { n: 3, r: 2, w: 2, read_repair: true, placement: ClientPlacement::Sticky },
        Scheme::Causal { replicas: 3 },
        Scheme::Paxos { nodes: 3 },
    ] {
        grid.push(scheme.label(), mk(scheme));
    }
    // A partitioned quorum variant: fault handling must be deterministic
    // too.
    let faults = FaultSchedule::none().partition(
        vec![NodeId(0)],
        SimTime::from_secs(5),
        SimTime::from_secs(10),
    );
    grid.push("quorum+partition".to_string(), mk(Scheme::quorum(3, 2, 2)).faults(faults));
    grid
}

/// Everything observable about a cell, rendered to comparable bytes.
fn fingerprint(cells: &[CellResult]) -> Vec<(String, u64, String, String, String)> {
    cells
        .iter()
        .map(|c| {
            (
                c.label.clone(),
                c.seed,
                serde_json::to_string(c.result.trace.records()).expect("trace serializes"),
                serde_json::to_string(&c.recorder.report()).expect("report serializes"),
                c.recorder.export_jsonl(),
            )
        })
        .collect()
}

#[test]
fn grid_results_identical_across_job_counts() {
    let serial = fingerprint(&mixed_grid().seeds(3).run(1, Recorder::with_event_log));
    let parallel = fingerprint(&mixed_grid().seeds(3).run(8, Recorder::with_event_log));
    assert_eq!(serial.len(), 15, "5 variants x 3 seeds");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "cell {i}: label");
        assert_eq!(s.1, p.1, "cell {i}: derived seed");
        assert_eq!(s.2, p.2, "cell {i} ({}): op trace differs serial vs parallel", s.0);
        assert_eq!(s.3, p.3, "cell {i} ({}): metrics report differs serial vs parallel", s.0);
        assert_eq!(s.4, p.4, "cell {i} ({}): JSONL event log differs serial vs parallel", s.0);
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Two jobs=8 runs: catches results that depend on *which* worker ran
    // a cell or in what order cells finished, which a serial-vs-parallel
    // comparison can miss when the schedule happens to coincide.
    let a = fingerprint(&mixed_grid().seeds(2).run(8, Recorder::with_event_log));
    let b = fingerprint(&mixed_grid().seeds(2).run(8, Recorder::with_event_log));
    assert_eq!(a, b, "two parallel runs of the same grid disagree");
}

#[test]
fn oversubscribed_jobs_clamp_and_stay_deterministic() {
    // More workers than cells: the pool clamps, results stay in grid
    // order.
    let a = fingerprint(&mixed_grid().seeds(1).run(64, Recorder::enabled));
    let b = fingerprint(&mixed_grid().seeds(1).run(1, Recorder::enabled));
    assert_eq!(a, b);
}
