//! E10 (Table): the throughput/latency price of synchrony on a
//! write-heavy workload.
//!
//! Write-only closed-loop clients against each propagation mode in a LAN.
//! Expected shape (who wins): async primary acknowledges after one round
//! trip (fastest); majority quorum adds a parallel quorum wait; sync
//! primary waits for *all* backups (slowest of the primary family); Paxos
//! pays leader + majority round trips. Closed-loop throughput is the
//! mirror image of latency. Multi-seed runs (`--seeds N`) report seed
//! means with a 95% CI on write p99.

use bench::{seed_stat, Obs};
use rec_core::metrics::{latency_summary, throughput_ops_per_sec};
use rec_core::{Experiment, Grid, Scheme};
use serde::Serialize;
use simnet::{Duration, LatencyModel, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    scheme: String,
    write_p50_ms: f64,
    write_p99_ms: f64,
    write_p99_ci95: f64,
    ops_per_sec: f64,
    availability: f64,
    seeds: u64,
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let workload = WorkloadSpec {
        keys: 100,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::write_only(),
        arrival: Arrival::Closed { think_us: 1_000 },
        sessions: 8,
        ops_per_session: 200,
    };
    let schemes = vec![
        Scheme::eventual(3),
        Scheme::PrimaryAsync { replicas: 3, ship_interval: Duration::from_millis(50) },
        Scheme::quorum(3, 2, 2),
        Scheme::PrimarySync { replicas: 3 },
        Scheme::Paxos { nodes: 3 },
    ];
    let mut grid = Grid::new();
    for scheme in schemes {
        grid.push(
            scheme.label(),
            Experiment::new(scheme)
                .latency(LatencyModel::lan())
                .workload(workload.clone())
                .seed(3)
                .horizon(SimTime::from_secs(120)),
        );
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let lats: Vec<_> = seeds.iter().map(|c| latency_summary(&c.result.trace)).collect();
        let col = |f: &dyn Fn(usize) -> f64| seed_stat(&(0..lats.len()).map(f).collect::<Vec<_>>());
        let p99 = col(&|i| lats[i].writes.p99);
        rows.push(Row {
            scheme: seeds[0].label.clone(),
            write_p50_ms: col(&|i| lats[i].writes.p50).mean,
            write_p99_ms: p99.mean,
            write_p99_ci95: p99.ci95,
            ops_per_sec: col(&|i| throughput_ops_per_sec(&seeds[i].result.trace)).mean,
            availability: col(&|i| seeds[i].result.trace.success_rate()).mean,
            seeds: obs.seeds,
        });
    }
    obs.save("e10_sync_cost", &rows);
}
