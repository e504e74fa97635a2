//! E5 (Figure): anti-entropy convergence time vs. cluster size and gossip
//! fanout.
//!
//! A burst of writes lands at replica 0 of a gossip-only eventual store;
//! pollers at every replica probe until each write is visible everywhere.
//! Convergence time is the last replica's first-sighting minus the write
//! ack. Expected shape: time grows ~logarithmically with cluster size and
//! shrinks with fanout (epidemic dissemination), with diminishing returns
//! beyond fanout 2–3.

use bench::{seed_stat, Obs};
use rec_core::Grid;
use replication::common::{unique_value, Guarantees, ScriptOp, TargetPolicy};
use replication::eventual::{EventualClient, EventualReplica, GossipConfig};
use replication::kernel::{Composition, ResolutionPolicy};
use replication::sink;
use serde::Serialize;
use simnet::{Duration, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime};

const KEYS: u64 = 5;
const POLL_US: u64 = 5_000;

#[derive(Serialize)]
struct Row {
    replicas: usize,
    fanout: usize,
    gossip_interval_ms: u64,
    mean_convergence_ms: f64,
    mean_convergence_ci95: f64,
    max_convergence_ms: f64,
    unconverged: u64,
    seeds: u64,
}

/// Per-seed measurement (one grid cell).
struct Cell {
    mean_convergence_ms: f64,
    max_convergence_ms: f64,
    unconverged: u64,
}

fn run(replicas: usize, fanout: usize, interval_ms: u64, cell: SimConfig) -> Cell {
    let trace = sink::shared_trace();
    let cfg = Composition::eventual(
        replicas,
        false,
        Some(GossipConfig { interval: Duration::from_millis(interval_ms), fanout }),
        ResolutionPolicy::LwwRegister,
    );
    let mut sim = Sim::new(cell.latency(LatencyModel::Uniform {
        min: Duration::from_millis(1),
        max: Duration::from_millis(5),
    }));
    for _ in 0..replicas {
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
    }
    // Writer: burst of KEYS writes at replica 0.
    let writer_script: Vec<ScriptOp> =
        (0..KEYS).map(|k| ScriptOp { gap_us: 1_000, kind: OpKind::Write, key: k }).collect();
    sim.add_node(Box::new(EventualClient::new(
        1,
        writer_script,
        trace.clone(),
        &cfg,
        TargetPolicy::Sticky(NodeId(0)),
        Guarantees::none(),
    )));
    // Pollers: one per replica, cycling through the keys.
    let polls_per_key = 1_200u64; // 1200 * 5ms = 6s of polling per key
    for r in 0..replicas {
        let script: Vec<ScriptOp> = (0..KEYS * polls_per_key)
            .map(|i| ScriptOp { gap_us: POLL_US / KEYS, kind: OpKind::Read, key: i % KEYS })
            .collect();
        sim.add_node(Box::new(EventualClient::new(
            2 + r as u64,
            script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(r as u32)),
            Guarantees::none(),
        )));
    }
    sim.run_until(SimTime::from_secs(10));
    let t = trace.borrow();

    // Write ack times per key.
    let mut write_done = vec![None; KEYS as usize];
    for r in t.records().iter().filter(|r| r.session == 1 && r.ok) {
        write_done[r.key as usize] = Some(r.completed);
    }
    // First sighting per (key, poller).
    let mut conv = Vec::new();
    let mut unconverged = 0u64;
    for k in 0..KEYS {
        let expected = unique_value(1, k + 1);
        let Some(done) = write_done[k as usize] else {
            unconverged += 1;
            continue;
        };
        let mut worst: Option<SimTime> = None;
        let mut all_seen = true;
        for poller in 2..(2 + replicas as u64) {
            let first = t
                .records()
                .iter()
                .filter(|r| {
                    r.session == poller && r.key == k && r.ok && r.value_read.contains(&expected)
                })
                .map(|r| r.completed)
                .min();
            match first {
                Some(ts) => worst = Some(worst.map_or(ts, |w: SimTime| w.max(ts))),
                None => all_seen = false,
            }
        }
        if let (Some(w), true) = (worst, all_seen) {
            conv.push(w.saturating_since(done).as_millis_f64());
        } else {
            unconverged += 1;
        }
    }
    let mean = if conv.is_empty() { 0.0 } else { conv.iter().sum::<f64>() / conv.len() as f64 };
    let max = conv.iter().cloned().fold(0.0, f64::max);
    Cell { mean_convergence_ms: mean, max_convergence_ms: max, unconverged }
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let mut grid = Grid::new();
    for replicas in [4usize, 8, 16] {
        for fanout in [1usize, 2, 3] {
            grid.add(format!("{replicas} replicas, fanout {fanout}"), 2024, (replicas, fanout));
        }
    }
    let cells = obs.run_grid(grid, |&(replicas, fanout), cell| {
        (replicas, fanout, run(replicas, fanout, 50, cell))
    });

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let (replicas, fanout, _) = seeds[0].result;
        let cells: Vec<&Cell> = seeds.iter().map(|c| &c.result.2).collect();
        let mean = seed_stat(&cells.iter().map(|c| c.mean_convergence_ms).collect::<Vec<_>>());
        rows.push(Row {
            replicas,
            fanout,
            gossip_interval_ms: 50,
            mean_convergence_ms: mean.mean,
            mean_convergence_ci95: mean.ci95,
            max_convergence_ms: cells.iter().map(|c| c.max_convergence_ms).fold(0.0, f64::max),
            unconverged: cells.iter().map(|c| c.unconverged).sum(),
            seeds: obs.seeds,
        });
    }
    obs.save("e5_gossip_convergence", &rows);
}
