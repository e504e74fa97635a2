//! E2 (Figure): operation latency across the consistency spectrum in a
//! five-region geo deployment.
//!
//! One series per scheme: read and write p50/p99 under identical
//! workloads. Expected shape (who wins): eventual/causal serve locally
//! (sub-ms to few-ms), quorum pays one WAN quorum round trip, primary-sync
//! pays the farthest-backup round trip on writes, Paxos pays a majority
//! round trip on *every* op (reads go through the log). Multi-seed runs
//! (`--seeds N`) report seed means with a 95% CI on read p99.

use bench::{seed_stat, Obs};
use rec_core::metrics::latency_summary;
use rec_core::{Experiment, Grid, Scheme};
use serde::Serialize;
use simnet::{Duration, LatencyModel};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    scheme: String,
    read_p50_ms: f64,
    read_p99_ms: f64,
    read_p99_ci95: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    availability: f64,
    seeds: u64,
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let workload = WorkloadSpec {
        keys: 50,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 20_000 },
        sessions: 10,
        ops_per_session: 80,
    };
    let schemes = vec![
        Scheme::eventual(5),
        Scheme::Causal { replicas: 5 },
        Scheme::quorum(5, 2, 2),
        Scheme::quorum(5, 3, 3),
        Scheme::PrimaryAsync { replicas: 5, ship_interval: Duration::from_millis(100) },
        Scheme::PrimarySync { replicas: 5 },
        Scheme::Paxos { nodes: 5 },
    ];
    let mut grid = Grid::new();
    for scheme in schemes {
        grid.push(
            scheme.label(),
            Experiment::new(scheme)
                .latency(LatencyModel::geo_five_regions(5))
                .workload(workload.clone())
                .seed(1234)
                .horizon(simnet::SimTime::from_secs(300)),
        );
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let lats: Vec<_> = seeds.iter().map(|c| latency_summary(&c.result.trace)).collect();
        let col = |f: &dyn Fn(usize) -> f64| seed_stat(&(0..lats.len()).map(f).collect::<Vec<_>>());
        let read_p99 = col(&|i| lats[i].reads.p99);
        rows.push(Row {
            scheme: seeds[0].label.clone(),
            read_p50_ms: col(&|i| lats[i].reads.p50).mean,
            read_p99_ms: read_p99.mean,
            read_p99_ci95: read_p99.ci95,
            write_p50_ms: col(&|i| lats[i].writes.p50).mean,
            write_p99_ms: col(&|i| lats[i].writes.p99).mean,
            availability: col(&|i| seeds[i].result.trace.success_rate()).mean,
            seeds: obs.seeds,
        });
    }
    obs.save("e2_latency_spectrum", &rows);
}
