//! E4 (Figure): availability through a network partition — CAP made
//! visible.
//!
//! A 15-second run; at t=5 s replica 0 (plus the clients attached to it)
//! is cut off from the rest until t=10 s. One availability-vs-time series
//! per scheme. Expected shape: eventual and R=W=1 quorums sail through at
//! 100%; majority quorums and Paxos lose the minority side's clients;
//! primary-copy loses *all* writes if the primary is in the minority.
//! Multi-seed runs (`--seeds N`) average the scalar availabilities; the
//! plotted timeline stays the base seed's (window boundaries are
//! seed-dependent).

use bench::{seed_stat, Obs};
use rec_core::metrics::availability_timeline;
use rec_core::scheme::ClientPlacement;
use rec_core::{Experiment, Grid, Scheme};
use serde::Serialize;
use simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Series {
    scheme: String,
    /// (window start ms, availability) pairs — base seed's run.
    timeline: Vec<(f64, f64)>,
    overall: f64,
    overall_ci95: f64,
    during_partition: f64,
    during_partition_ci95: f64,
    seeds: u64,
}

fn experiment(scheme: Scheme) -> Experiment {
    let n = scheme.replica_count();
    let offset = scheme.server_node_count();
    let workload = WorkloadSpec {
        keys: 20,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 50_000 },
        sessions: 6,
        ops_per_session: 280,
    };
    // Partition side A: replica 0 plus every client whose sticky home is
    // replica 0 (sessions are placed round-robin, so clients n, n+3, ...
    // for 3 replicas). For random-placement schemes the clients stay on
    // the majority side.
    let mut side_a = vec![NodeId(0)];
    for c in 0..workload.sessions as usize {
        if c % n == 0 {
            side_a.push(NodeId((offset + c) as u32));
        }
    }
    // Sloppy quorums keep their spares reachable from side A (that is the
    // deployment's whole point: spares absorb writes for the cut-off
    // side), so put the spare nodes with the minority.
    if let Scheme::SloppyQuorum { n, spares, .. } = &scheme {
        for sp in 0..*spares {
            side_a.push(NodeId((n + sp) as u32));
        }
    }
    let faults =
        FaultSchedule::none().partition(side_a, SimTime::from_secs(5), SimTime::from_secs(10));
    Experiment::new(scheme)
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(10),
        })
        .workload(workload)
        .faults(faults)
        .seed(99)
        .horizon(SimTime::from_secs(25))
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let schemes = vec![
        Scheme::eventual(3),
        Scheme::Quorum { n: 3, r: 1, w: 1, read_repair: true, placement: ClientPlacement::Sticky },
        Scheme::Quorum { n: 3, r: 2, w: 2, read_repair: true, placement: ClientPlacement::Sticky },
        Scheme::SloppyQuorum { n: 3, r: 2, w: 2, spares: 2 },
        Scheme::PrimarySync { replicas: 3 },
        Scheme::PrimaryAsyncFailover {
            replicas: 3,
            ship_interval: simnet::Duration::from_millis(50),
        },
        Scheme::Paxos { nodes: 3 },
        Scheme::Causal { replicas: 3 },
    ];
    let mut grid = Grid::new();
    for s in schemes {
        grid.push(s.label(), experiment(s));
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut series = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let during_of = |cell: &rec_core::CellResult| -> f64 {
            let timeline = availability_timeline(&cell.result.trace, Duration::from_secs(1));
            let during: Vec<f64> = timeline
                .iter()
                .filter(|(t, _)| (5_000.0..10_000.0).contains(t))
                .map(|(_, a)| *a)
                .collect();
            if during.is_empty() {
                1.0
            } else {
                during.iter().sum::<f64>() / during.len() as f64
            }
        };
        let overall =
            seed_stat(&seeds.iter().map(|c| c.result.trace.success_rate()).collect::<Vec<_>>());
        let during = seed_stat(&seeds.iter().map(during_of).collect::<Vec<_>>());
        series.push(Series {
            scheme: seeds[0].label.clone(),
            timeline: availability_timeline(&seeds[0].result.trace, Duration::from_secs(1)),
            overall: overall.mean,
            overall_ci95: overall.ci95,
            during_partition: during.mean,
            during_partition_ci95: during.ci95,
            seeds: obs.seeds,
        });
    }

    obs.save("e4_partition_availability", &series);
    println!("\nper-second availability during the run (base seed):");
    for s in &series {
        let line: Vec<String> = s
            .timeline
            .iter()
            .map(|(t, a)| format!("{:>2.0}s:{:>3.0}%", t / 1000.0, a * 100.0))
            .collect();
        println!("{:>28}  {}", s.scheme, line.join(" "));
    }
}
