//! E12 (Table): ring-sharded quorums at cluster scale.
//!
//! The flat quorum experiments (E1, E4) hold the cluster at N nodes —
//! every key lives everywhere, so "scale" is meaningless. This
//! experiment puts the same R2W2+2 sloppy quorum on a consistent-hashing
//! ring and sweeps the *cluster* from 5 to 200 physical nodes, with and
//! without rolling membership churn, against a partition nemesis that
//! cuts two owners of the hottest key region.
//!
//! The key domain is 100 000 keys (uniform), so per-node ownership and
//! the churn rebalance volume are measured at realistic sharding ratios;
//! the ring-balance columns are computed over the full 100k-key domain,
//! the protocol columns over the executed workload. Every row reports:
//!
//! * availability (op success rate) and stale reads,
//! * the hinted-handoff ledger (`hints_stored` / `hints_drained` — the
//!   conservation test holds `stored == drained + dropped`),
//! * keys pushed to new owners by churn (`rebalanced_keys`),
//! * ownership-aware convergence at the horizon (diverged key count),
//! * ring balance over the 100k-key domain: max/mean keys per node.
//!
//! Like every grid, the run is a pure function of (config, seeds) and
//! byte-identical across `--jobs` levels.

use bench::{seed_mean, Obs};
use consistency::{check_owner_convergence, measure_staleness};
use rec_core::scheme::ChurnPlan;
use rec_core::{Experiment, Grid, Scheme};
use replication::sharded::Ring;
use replication::Composition;
use serde::Serialize;
use simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

/// Full key domain the ring-balance columns scan (and the workload key
/// space): the acceptance bar for "cluster scale" is ≥ 100k keys.
const KEY_DOMAIN: u64 = 100_000;

/// Preference-list size, vnodes per physical node, and ring spares.
const N: usize = 3;
const VNODES: usize = 16;
const SPARES: usize = 2;

/// Cluster sizes swept.
const CLUSTERS: [usize; 5] = [5, 20, 50, 100, 200];

#[derive(Serialize)]
struct Row {
    nodes: usize,
    churn_events: usize,
    availability: f64,
    stale_reads: f64,
    hints_stored: f64,
    hints_drained: f64,
    rebalanced_keys: f64,
    owner_diverged_keys: f64,
    ring_max_keys_per_node: u64,
    ring_mean_keys_per_node: f64,
    seeds: u64,
}

/// The churn plan a variant runs: none, or a rolling restart touching
/// one node per 3 s from t=3 s (scaled to 4 events so small and large
/// clusters see the same event count, i.e. a higher per-node rate on
/// small clusters — the interesting regime).
fn churn(on: bool, nodes: usize) -> ChurnPlan {
    if on {
        ChurnPlan::rolling(nodes, Duration::from_secs(3), 4, SimTime::from_secs(3))
    } else {
        ChurnPlan::none()
    }
}

/// Cut two owners of key 0 for a 3 s window: on small clusters this
/// starves write quorums for a visible key slice (hints flow), on large
/// ones it is background noise — exactly the availability story the
/// sweep is after.
fn nemesis(nodes: usize) -> FaultSchedule {
    let ring = Ring::new(N, VNODES, (0..nodes as u32).map(NodeId));
    let owners = ring.owners(0);
    FaultSchedule::none().partition(
        vec![owners[0], owners[1]],
        SimTime::from_secs(4),
        SimTime::from_secs(7),
    )
}

fn scheme(nodes: usize, with_churn: bool) -> Scheme {
    Scheme::Sharded {
        inner: Composition::quorum(N, 2, 2, true, SPARES),
        nodes,
        vnodes: VNODES,
        churn: churn(with_churn, nodes),
    }
}

/// Ownership balance over the full key domain: (max, mean) keys-per-node
/// counting each key once per owner.
fn ring_balance(nodes: usize) -> (u64, f64) {
    let ring = Ring::new(N, VNODES, (0..nodes as u32).map(NodeId));
    let mut per_node = vec![0u64; nodes];
    for key in 0..KEY_DOMAIN {
        for o in ring.owners(key) {
            per_node[o.index()] += 1;
        }
    }
    let max = per_node.iter().copied().max().unwrap_or(0);
    let mean = per_node.iter().sum::<u64>() as f64 / nodes as f64;
    (max, mean)
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let workload = WorkloadSpec {
        keys: KEY_DOMAIN,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 20_000 },
        sessions: 8,
        ops_per_session: 450,
    };
    let variants: Vec<(usize, bool)> =
        CLUSTERS.iter().flat_map(|&nodes| [(nodes, false), (nodes, true)]).collect();
    let mut grid = Grid::new();
    for &(nodes, with_churn) in &variants {
        grid.push(
            format!("ring({nodes}x{VNODES}{})", if with_churn { ",churn" } else { "" }),
            Experiment::new(scheme(nodes, with_churn))
                .latency(LatencyModel::lan())
                .workload(workload.clone())
                .faults(nemesis(nodes))
                .seed(4242)
                .horizon(SimTime::from_secs(20)),
        );
    }
    let cells = obs.run_grid(grid, Experiment::run_in);

    let mut rows = Vec::new();
    for (&(nodes, with_churn), seeds) in variants.iter().zip(cells.chunks(obs.seeds as usize)) {
        let ring = Ring::new(N, VNODES, (0..nodes as u32).map(NodeId));
        let mean =
            |f: &dyn Fn(usize) -> f64| seed_mean(&(0..seeds.len()).map(f).collect::<Vec<_>>());
        let counter = |c: obs::Counter| mean(&|i| seeds[i].result.metrics.counter(c) as f64);
        let diverged = mean(&|i| {
            let server: Vec<_> = seeds[i]
                .result
                .final_versions
                .iter()
                .copied()
                .filter(|&(n, _, _)| n.index() < nodes)
                .collect();
            check_owner_convergence(&server, |k| ring.owners(k)).diverged.len() as f64
        });
        let (max_keys, mean_keys) = ring_balance(nodes);
        rows.push(Row {
            nodes,
            churn_events: churn(with_churn, nodes).events.len(),
            availability: mean(&|i| seeds[i].result.trace.success_rate()),
            stale_reads: mean(&|i| measure_staleness(&seeds[i].result.trace).stale_reads as f64),
            hints_stored: counter(obs::Counter::HintsStored),
            hints_drained: counter(obs::Counter::HintsDrained),
            rebalanced_keys: counter(obs::Counter::RebalancedKeys),
            owner_diverged_keys: diverged,
            ring_max_keys_per_node: max_keys,
            ring_mean_keys_per_node: mean_keys,
            seeds: obs.seeds,
        });
    }

    obs.save("e12_ring_scale", &rows);
}
