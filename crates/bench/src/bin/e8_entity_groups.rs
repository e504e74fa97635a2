//! E8 (Figure): entity-group transactions — abort rate and commit latency
//! vs. contention and group span (Megastore-style).
//!
//! Clients run read-modify-write transactions over a keyspace with
//! Zipfian-skewed key choice. Contention rises with skew; the group span
//! compares single-group fast commits against cross-group 2PC and
//! registrar-backed 2PC (Paxos-Commit-lite). Expected shape: aborts grow
//! with skew; cross-group txns pay ~2x latency (prepare+decide) and the
//! registrar adds another round trip; single-group aborts stay cheapest.

use bench::{f1, pct, pm, print_table, seed_stat, Obs, SeedStat};
use obs::Recorder;
use serde::Serialize;
use simnet::{Duration, LatencyModel, Sim, SimConfig, SimRng, SimTime};
use txn::client::{shared_stats, SharedTxnStats};
use txn::{GroupNode, TxnClient, TxnConfig, TxnSpec};
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

fn run(
    cross_group: bool,
    registrar: usize,
    theta: f64,
    clients: usize,
    seed: u64,
    rec: &Recorder,
) -> Cell {
    let nodes = 3usize;
    let cfg = TxnConfig::new(nodes);
    let mut sim = Sim::new(
        SimConfig::default()
            .seed(seed)
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(8),
            })
            .recorder(rec.clone()),
    );
    for _ in 0..nodes {
        sim.add_node(Box::new(GroupNode::new(cfg)));
    }
    let mut all_stats: Vec<SharedTxnStats> = Vec::new();
    let mut rng = SimRng::new(seed ^ 0xabcd);
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
    let mut committed = 0;
    let mut aborted = 0;
    let mut timed_out = 0;
    let mut latencies = Vec::new();
    for s in &all_stats {
        let s = s.borrow();
        committed += s.committed;
        aborted += s.aborted;
        timed_out += s.timed_out;
        latencies.extend(s.commit_latency_ms.iter().copied());
    }
    let total = committed + aborted + timed_out;
    Cell {
        committed,
        aborted,
        timed_out,
        abort_rate: if total == 0 { 0.0 } else { (aborted + timed_out) as f64 / total as f64 },
        mean_commit_ms: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
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
    let results = obs.sweep(&params, 77, |&(cross_group, registrar, theta), seed, rec| {
        run(cross_group, registrar, theta, CLIENTS, seed, rec)
    });

    let mut rows = Vec::new();
    let mut aborts: Vec<SeedStat> = Vec::new();
    for (&(cross_group, registrar, theta), cells) in params.iter().zip(&results) {
        let span = match (cross_group, registrar) {
            (false, _) => "1 group".to_string(),
            (true, 0) => "2 groups (2PC)".to_string(),
            (true, k) => format!("2 groups (2PC+reg{k})"),
        };
        let abort = seed_stat(&cells.iter().map(|c| c.abort_rate).collect::<Vec<_>>());
        rows.push(Row {
            span,
            theta,
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
        aborts.push(abort);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(&aborts)
        .map(|(x, abort)| {
            vec![
                x.span.clone(),
                format!("{:.2}", x.theta),
                x.clients.to_string(),
                x.committed.to_string(),
                (x.aborted + x.timed_out).to_string(),
                pm(*abort, pct),
                f1(x.mean_commit_ms),
            ]
        })
        .collect();
    print_table(
        "E8: entity-group transactions — contention and group span",
        &["span", "theta", "clients", "committed", "aborted", "abort rate", "commit ms"],
        &table,
    );
    obs.save("e8_entity_groups", &rows);
}
