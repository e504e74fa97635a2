//! E8 (Figure): entity-group transactions — abort rate and commit latency
//! vs. contention and group span (Megastore-style).
//!
//! Clients run read-modify-write transactions over a keyspace with
//! Zipfian-skewed key choice. Contention rises with skew; the group span
//! compares single-group fast commits against cross-group 2PC and
//! registrar-backed 2PC (Paxos-Commit-lite). Expected shape: aborts grow
//! with skew; cross-group txns pay ~2x latency (prepare+decide) and the
//! registrar adds another round trip; single-group aborts stay cheapest.

use bench::{seed_stat, Obs};
use rec_core::Grid;
use serde::Serialize;
use simnet::{Duration, LatencyModel, Sim, SimConfig, SimRng, SimTime};
use txn::client::{shared_stats, SharedTxnStats};
use txn::{GroupNode, TxnClient, TxnConfig, TxnSpec, TxnStats};
use workload::ZipfSampler;

#[derive(Serialize)]
struct Row {
    span: String,
    theta: f64,
    clients: usize,
    committed: u64,
    aborted: u64,
    timed_out: u64,
    abort_rate: f64,
    abort_rate_ci95: f64,
    mean_commit_ms: f64,
    seeds: u64,
}

/// Per-seed measurement (one grid cell).
struct Cell {
    committed: u64,
    aborted: u64,
    timed_out: u64,
    abort_rate: f64,
    mean_commit_ms: f64,
}

const KEYS_PER_GROUP: u64 = 20;

fn run(cross_group: bool, registrar: usize, theta: f64, clients: usize, cell: SimConfig) -> Cell {
    let nodes = 3usize;
    let cfg = TxnConfig::new(nodes);
    let mut rng = SimRng::new(cell.seed ^ 0xabcd);
    let mut sim = Sim::new(cell.latency(LatencyModel::Uniform {
        min: Duration::from_millis(1),
        max: Duration::from_millis(8),
    }));
    for _ in 0..nodes {
        sim.add_node(Box::new(GroupNode::new(cfg)));
    }
    let mut all_stats: Vec<SharedTxnStats> = Vec::new();
    for c in 0..clients {
        let mut zipf = ZipfSampler::new(KEYS_PER_GROUP, theta);
        let stats = shared_stats();
        all_stats.push(stats.clone());
        let script: Vec<TxnSpec> = (0..60)
            .map(|_| {
                let k1 = zipf.sample(&mut rng);
                let v = rng.next_u64() & 0xffff;
                if cross_group {
                    let k2 = zipf.sample(&mut rng);
                    TxnSpec {
                        gap_us: 10_000,
                        parts: vec![(0, vec![k1], vec![(k1, v)]), (1, vec![k2], vec![(k2, v)])],
                    }
                } else {
                    TxnSpec { gap_us: 10_000, parts: vec![(0, vec![k1], vec![(k1, v)])] }
                }
            })
            .collect();
        sim.add_node(Box::new(TxnClient::new(c as u64 + 1, cfg, script, stats, registrar)));
    }
    sim.run_until(SimTime::from_secs(120));
    // The clients' stats folded in client order: one `TxnStats` for the
    // cell, its latencies in the order the clients hold them.
    let mut cell = TxnStats::default();
    for s in &all_stats {
        let s = s.borrow();
        cell.committed += s.committed;
        cell.aborted += s.aborted;
        cell.timed_out += s.timed_out;
        cell.commit_latency_ms.extend(s.commit_latency_ms.iter().copied());
    }
    let TxnStats { committed, aborted, timed_out, .. } = cell;
    let total = committed + aborted + timed_out;
    Cell {
        committed,
        aborted,
        timed_out,
        abort_rate: if total == 0 { 0.0 } else { (aborted + timed_out) as f64 / total as f64 },
        mean_commit_ms: cell.mean_commit_ms(),
    }
}

const CLIENTS: usize = 8;

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    // (cross_group, registrar, theta)
    let mut params: Vec<(bool, usize, f64)> = Vec::new();
    for &theta in &[0.2f64, 0.6, 0.9, 0.99] {
        params.push((false, 0, theta));
    }
    for &theta in &[0.2f64, 0.9] {
        params.push((true, 0, theta));
        params.push((true, 2, theta));
    }
    let mut grid = Grid::new();
    for (cross_group, registrar, theta) in params {
        let span = match (cross_group, registrar) {
            (false, _) => "1 group".to_string(),
            (true, 0) => "2 groups (2PC)".to_string(),
            (true, k) => format!("2 groups (2PC+reg{k})"),
        };
        grid.add(span, 77, (cross_group, registrar, theta));
    }
    let cells = obs.run_grid(grid, |&(cross_group, registrar, theta), cell| {
        (theta, run(cross_group, registrar, theta, CLIENTS, cell))
    });

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let cells: Vec<&Cell> = seeds.iter().map(|c| &c.result.1).collect();
        let abort = seed_stat(&cells.iter().map(|c| c.abort_rate).collect::<Vec<_>>());
        rows.push(Row {
            span: seeds[0].label.clone(),
            theta: seeds[0].result.0,
            clients: CLIENTS,
            committed: cells.iter().map(|c| c.committed).sum(),
            aborted: cells.iter().map(|c| c.aborted).sum(),
            timed_out: cells.iter().map(|c| c.timed_out).sum(),
            abort_rate: abort.mean,
            abort_rate_ci95: abort.ci95,
            mean_commit_ms: seed_stat(&cells.iter().map(|c| c.mean_commit_ms).collect::<Vec<_>>())
                .mean,
            seeds: obs.seeds,
        });
    }
    obs.save("e8_entity_groups", &rows);
}
