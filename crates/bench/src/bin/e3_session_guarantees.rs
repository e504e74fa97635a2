//! E3 (Table): session guarantees — violation rates without enforcement,
//! latency cost with enforcement.
//!
//! Clients bounce between replicas (random anycast) of a gossip-only
//! eventual store. Without guarantees, RYW/MR violations appear at rates
//! governed by the anti-entropy lag; enabling the guarantees drives the
//! violation rate to zero at the cost of read retries (RYW/MR) and
//! nothing measurable for MW/WFR (Lamport piggyback is free). Multi-seed
//! runs (`--seeds N`) report mean rates with a 95% CI on RYW.

use bench::{seed_stat, Obs};
use consistency::check_session_guarantees;
use rec_core::metrics::latency_summary;
use rec_core::scheme::ClientPlacement;
use rec_core::{Experiment, Grid, Scheme};
use replication::common::Guarantees;
use replication::eventual::ConflictMode;
use serde::Serialize;
use simnet::{Duration, LatencyModel};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    config: String,
    gossip_ms: u64,
    ryw_rate: f64,
    ryw_rate_ci95: f64,
    mr_rate: f64,
    mw_rate: f64,
    wfr_rate: f64,
    read_p50_ms: f64,
    read_p99_ms: f64,
    seeds: u64,
}

fn experiment(guarantees: Guarantees, gossip_ms: u64) -> Experiment {
    let workload = WorkloadSpec {
        keys: 10,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 5_000 },
        sessions: 8,
        ops_per_session: 120,
    };
    let scheme = Scheme::Eventual {
        replicas: 3,
        eager: false, // gossip-only: propagation lag is the story
        gossip: Some((Duration::from_millis(gossip_ms), 1)),
        mode: ConflictMode::Lww,
        guarantees,
        placement: ClientPlacement::Random,
    };
    Experiment::new(scheme)
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(10),
        })
        .workload(workload)
        .seed(7)
        .horizon(simnet::SimTime::from_secs(600))
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let ryw = Guarantees { read_your_writes: true, ..Guarantees::none() };
    let mr = Guarantees { monotonic_reads: true, ..Guarantees::none() };
    let configs: Vec<(&str, Guarantees, u64)> = vec![
        ("none", Guarantees::none(), 20),
        ("none", Guarantees::none(), 100),
        ("none", Guarantees::none(), 400),
        ("RYW enforced", ryw, 100),
        ("MR enforced", mr, 100),
        ("all enforced", Guarantees::all(), 100),
    ];
    let mut grid = Grid::new();
    for &(label, g, gossip_ms) in &configs {
        grid.push(format!("{label}@{gossip_ms}ms"), experiment(g, gossip_ms));
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for (&(label, _, gossip_ms), seeds) in configs.iter().zip(cells.chunks(obs.seeds as usize)) {
        let reps: Vec<_> =
            seeds.iter().map(|c| check_session_guarantees(&c.result.trace)).collect();
        let lats: Vec<_> = seeds.iter().map(|c| latency_summary(&c.result.trace)).collect();
        let stat = |vals: Vec<f64>| seed_stat(&vals);
        let ryw_rate = stat(reps.iter().map(|r| r.ryw_rate()).collect());
        rows.push(Row {
            config: label.to_string(),
            gossip_ms,
            ryw_rate: ryw_rate.mean,
            ryw_rate_ci95: ryw_rate.ci95,
            mr_rate: stat(reps.iter().map(|r| r.mr_rate()).collect()).mean,
            mw_rate: stat(reps.iter().map(|r| r.mw_rate()).collect()).mean,
            wfr_rate: stat(reps.iter().map(|r| r.wfr_rate()).collect()).mean,
            read_p50_ms: stat(lats.iter().map(|l| l.reads.p50).collect()).mean,
            read_p99_ms: stat(lats.iter().map(|l| l.reads.p99).collect()).mean,
            seeds: obs.seeds,
        });
    }

    obs.save("e3_session_guarantees", &rows);
}
