//! E9 (Figure): read staleness vs. replication lag under asynchronous
//! primary-copy replication, and the bounded-staleness rejection rate.
//!
//! Backup reads against a primary that ships its log every `lag` ms. The
//! staleness CDF shifts right linearly with the shipping interval;
//! a bounded-staleness policy with bound B would reject exactly the reads
//! whose t-staleness exceeds B — reported for B ∈ {25, 50, 100, 250} ms.
//! Expected shape: P(stale) rises with lag; P(t > B) falls as B grows;
//! with lag << B nothing is rejected. Multi-seed runs (`--seeds N`)
//! report seed means with a 95% CI on P(stale).

use bench::{seed_stat, Obs};
use consistency::measure_staleness;
use rec_core::{Experiment, Grid, Scheme};
use serde::Serialize;
use simnet::{Duration, LatencyModel, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    ship_ms: u64,
    p_stale: f64,
    p_stale_ci95: f64,
    mean_t_ms: f64,
    p_gt_25: f64,
    p_gt_50: f64,
    p_gt_100: f64,
    p_gt_250: f64,
    seeds: u64,
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let workload = WorkloadSpec {
        keys: 10,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 10_000 },
        sessions: 6,
        ops_per_session: 150,
    };
    let ships = [10u64, 25, 50, 100, 200, 400];
    let mut grid = Grid::new();
    for &ship_ms in &ships {
        grid.push(
            format!("ship{ship_ms}ms"),
            Experiment::new(Scheme::PrimaryAsync {
                replicas: 3,
                ship_interval: Duration::from_millis(ship_ms),
            })
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(5),
            })
            .workload(workload.clone())
            .seed(13)
            .horizon(SimTime::from_secs(120)),
        );
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for (&ship_ms, seeds) in ships.iter().zip(cells.chunks(obs.seeds as usize)) {
        let sts: Vec<_> = seeds.iter().map(|c| measure_staleness(&c.result.trace)).collect();
        let stat = |f: &dyn Fn(usize) -> f64| seed_stat(&(0..sts.len()).map(f).collect::<Vec<_>>());
        let p_stale = stat(&|i| sts[i].p_stale());
        rows.push(Row {
            ship_ms,
            p_stale: p_stale.mean,
            p_stale_ci95: p_stale.ci95,
            mean_t_ms: stat(&|i| {
                let t = &sts[i].t_staleness_ms;
                if t.is_empty() {
                    0.0
                } else {
                    t.iter().sum::<f64>() / t.len() as f64
                }
            })
            .mean,
            p_gt_25: stat(&|i| sts[i].p_staler_than(25.0)).mean,
            p_gt_50: stat(&|i| sts[i].p_staler_than(50.0)).mean,
            p_gt_100: stat(&|i| sts[i].p_staler_than(100.0)).mean,
            p_gt_250: stat(&|i| sts[i].p_staler_than(250.0)).mean,
            seeds: obs.seeds,
        });
    }
    obs.save("e9_bounded_staleness", &rows);
}
