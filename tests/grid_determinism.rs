//! Integration: the parallel grid runner is bit-for-bit deterministic.
//!
//! The same grid must produce byte-identical results whether it runs on
//! one worker or eight, and two parallel runs must agree with each other
//! (catching scheduling-order leaks, not just serial/parallel drift).
//! Compared artifacts: every cell's operation trace, its serialized
//! metrics report, and its exported JSONL event log — exactly what
//! `--trace-out` and the results JSON are built from. Closure cells,
//! which build their own `Sim` from the config the grid hands them, are
//! held to the same rule and to one more: their logs concatenated in
//! grid order form one well-formed trace.

use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{CellResult, Experiment, Grid, Scheme};
use rethinking_ec::obs::Recorder;
use rethinking_ec::obs_tools::{check_spans, parse_jsonl};
use rethinking_ec::replication::common::{unique_value, Guarantees, ScriptOp, TargetPolicy};
use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, GossipConfig};
use rethinking_ec::replication::kernel::{Composition, ResolutionPolicy};
use rethinking_ec::replication::sink;
use rethinking_ec::simnet::{
    Duration, FaultSchedule, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime,
};
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

/// A closure cell: E6's CRDT-counter deployment on three replicas,
/// built from the grid's `cell` config. `writers` clients each add ten
/// write ids to one counter; a late reader at every replica reads it.
/// Returns the sum written and what each replica's reader saw.
fn crdt_counter_cell(writers: u64, cell: SimConfig) -> (u64, Vec<Vec<u64>>) {
    let trace = sink::shared_trace();
    let cfg = Composition::eventual(
        3,
        true,
        Some(GossipConfig { interval: Duration::from_millis(10), fanout: 2 }),
        ResolutionPolicy::CrdtMerge,
    );
    let mut sim = Sim::new(cell.latency(LatencyModel::Uniform {
        min: Duration::from_millis(1),
        max: Duration::from_millis(15),
    }));
    for _ in 0..3 {
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
    }
    let client = |session: u64, script: Vec<ScriptOp>, home: u64| {
        let target = TargetPolicy::Sticky(NodeId(home as u32));
        Box::new(EventualClient::new(
            session,
            script,
            trace.clone(),
            &cfg,
            target,
            Guarantees::none(),
        ))
    };
    let mut expected = 0;
    for s in 1..=writers {
        let script = (0..10).map(|_| ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: 0 });
        expected += (1..=10).map(|op| unique_value(s, op)).sum::<u64>();
        sim.add_node(client(s, script.collect(), (s - 1) % 3));
    }
    for home in 0..3 {
        let late_read = vec![ScriptOp { gap_us: 2_000_000, kind: OpKind::Read, key: 0 }];
        sim.add_node(client(100 + home, late_read, home));
    }
    sim.run_until(SimTime::from_secs(10));
    let t = trace.borrow();
    let read =
        |s: u64| t.records().iter().find(|r| r.session == s && r.ok).map(|r| r.value_read.clone());
    (
        expected,
        (100..103).map(|s| read(s).unwrap_or_else(|| panic!("reader {s} completed"))).collect(),
    )
}

#[test]
fn closure_cells_concatenate_into_one_well_formed_trace_at_any_job_count() {
    let mut grid = Grid::new();
    for writers in [2u64, 4] {
        grid.add(format!("{writers} writers"), 6, writers);
    }
    let grid = grid.seeds(3);
    let run = |jobs: usize| {
        let cells =
            grid.run_cells(jobs, Recorder::with_event_log, |&w, cell| crdt_counter_cell(w, cell));
        for c in &cells {
            let (expected, reads) = &c.result;
            for (home, read) in reads.iter().enumerate() {
                assert_eq!(
                    read,
                    &vec![*expected],
                    "{} seed {}: replica {home} lost increments",
                    c.label,
                    c.seed
                );
            }
        }
        cells.iter().map(|c| c.recorder.export_jsonl()).collect::<String>()
    };
    let serial = run(1);
    assert!(serial == run(4), "the concatenated closure-cell trace differs at --jobs 1 and 4");
    let report = check_spans(&parse_jsonl(&serial).expect("the concatenation parses"));
    assert!(report.opened > 0, "the clients opened no spans");
    assert!(
        report.errors.is_empty(),
        "concatenated closure-cell trace: {:?}",
        &report.errors[..5.min(report.errors.len())]
    );
}
