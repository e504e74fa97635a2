//! E1 (Table): probability and degree of staleness under partial quorums
//! (the PBS result, Bailis et al. 2012).
//!
//! Sweep (N, R, W) on the Dynamo-style quorum protocol with a write-heavy
//! Zipfian workload and report P(stale read), mean k-staleness, and
//! P(t-staleness > 10 ms). Expected shape: `R+W>N` rows read fresh
//! (intersection); partial quorums get staler as R+W shrinks; read repair
//! pulls staleness down. With `--seeds N` each configuration runs at N
//! seeds in parallel and the table reports mean ± 95% CI.

use bench::{seed_stat, Obs};
use consistency::measure_staleness;
use rec_core::scheme::ClientPlacement;
use rec_core::{Experiment, Grid, Scheme};
use serde::Serialize;
use simnet::{Duration, LatencyModel};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    n: usize,
    r: usize,
    w: usize,
    read_repair: bool,
    intersecting: bool,
    p_stale: f64,
    p_stale_ci95: f64,
    mean_k: f64,
    p_t_gt_10ms: f64,
    reads: u64,
    seeds: u64,
}

fn experiment(n: usize, r: usize, w: usize, read_repair: bool) -> Experiment {
    // Hot keys, tight read-after-write loops, and heavy-tailed latency:
    // the regime where partial-quorum staleness actually shows (PBS fits
    // production latency with log-normal tails for the same reason).
    let workload = WorkloadSpec {
        keys: 5,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 500 },
        sessions: 12,
        ops_per_session: 150,
    };
    Experiment::new(Scheme::Quorum { n, r, w, read_repair, placement: ClientPlacement::Random })
        .latency(LatencyModel::LogNormal { median: Duration::from_millis(3), sigma: 1.2 })
        .workload(workload)
        .seed(42)
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    // Read-repair ablation rides along on the weakest configuration.
    let configs: Vec<(usize, usize, usize, bool)> = vec![
        (3, 1, 1, false),
        (3, 1, 2, false),
        (3, 2, 1, false),
        (3, 2, 2, false),
        (3, 1, 3, false),
        (3, 3, 1, false),
        (5, 1, 1, false),
        (5, 2, 2, false),
        (5, 3, 3, false),
        (3, 1, 1, true),
    ];
    let mut grid = Grid::new();
    for &(n, r, w, rr) in &configs {
        grid.push(format!("N{n}R{r}W{w}{}", if rr { "+rr" } else { "" }), experiment(n, r, w, rr));
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for (&(n, r, w, read_repair), seeds) in configs.iter().zip(cells.chunks(obs.seeds as usize)) {
        let reports: Vec<_> = seeds.iter().map(|c| measure_staleness(&c.result.trace)).collect();
        let p_stale = seed_stat(&reports.iter().map(|s| s.p_stale()).collect::<Vec<_>>());
        rows.push(Row {
            n,
            r,
            w,
            read_repair,
            intersecting: r + w > n,
            p_stale: p_stale.mean,
            p_stale_ci95: p_stale.ci95,
            mean_k: seed_stat(&reports.iter().map(|s| s.mean_k()).collect::<Vec<_>>()).mean,
            p_t_gt_10ms: seed_stat(
                &reports.iter().map(|s| s.p_staler_than(10.0)).collect::<Vec<_>>(),
            )
            .mean,
            reads: reports.iter().map(|s| s.fresh_reads + s.stale_reads).sum(),
            seeds: obs.seeds,
        });
    }

    obs.save("e1_quorum_staleness", &rows);
}
