//! E6 (Table): concurrent-update loss — LWW read-modify-write vs. CRDT
//! counters.
//!
//! `writers` clients each apply `INCREMENTS` increments to one shared
//! counter key at their local replica of an eventual store.
//!
//! * **LWW mode**: the increment is a read-modify-write; concurrent RMWs
//!   overwrite each other and increments vanish. A row counts writes.
//! * **Counter (CRDT) mode**: each write adds its unique write id to a
//!   PN-counter merged as a semilattice; nothing is ever lost. A row
//!   counts sums of write ids.
//!
//! Expected shape: LWW loses more as concurrency rises (tens of percent
//! with several writers); the CRDT loses exactly zero at every level.

use bench::{seed_stat, Obs};
use rec_core::Grid;
use replication::common::{unique_value, Guarantees, ScriptOp, TargetPolicy};
use replication::eventual::{EventualClient, EventualReplica, GossipConfig};
use replication::kernel::{Composition, ResolutionPolicy};
use replication::sink;
use serde::Serialize;
use simnet::{Duration, LatencyModel, NodeId, OpKind, Sim, SimConfig, SimTime};

const COUNTER_KEY: u64 = 0;

#[derive(Serialize)]
struct Row {
    mode: String,
    writers: usize,
    increments_each: u64,
    expected: i64,
    /// Mean across seeds of the LWW chain length, or of the CRDT
    /// counter's value (a sum of write ids, like `expected`).
    observed: f64,
    lost: f64,
    loss_rate: f64,
    loss_rate_ci95: f64,
    seeds: u64,
}

/// Per-seed measurement (one grid cell).
struct Cell {
    mode: &'static str,
    expected: i64,
    observed: i64,
}

/// The LWW read-modify-write variant. Each client runs `increments`
/// cycles of read(counter) then write(counter); a write stores the
/// client's unique write id, and stands for "the value read, plus one".
/// `expected` is the number of writes. `observed` is the length of the
/// final read-modify-write chain: start at the write with the highest
/// stamp, step to the write whose value its session read just before
/// it, and repeat until a read saw no write. Every write off that chain
/// is a lost increment.
fn run_lww(writers: usize, increments: u64, cell: SimConfig) -> Cell {
    let trace = sink::shared_trace();
    let replicas = writers.clamp(2, 4);
    let cfg = Composition::eventual(
        replicas,
        true,
        Some(GossipConfig { interval: Duration::from_millis(10), fanout: 2 }),
        ResolutionPolicy::LwwRegister,
    );
    let mut sim = Sim::new(cell.latency(LatencyModel::Uniform {
        min: Duration::from_millis(1),
        max: Duration::from_millis(15),
    }));
    for _ in 0..replicas {
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
    }
    for wtr in 0..writers {
        // RMW cycle: read then write, think time ~2ms.
        let mut script = Vec::new();
        for _ in 0..increments {
            script.push(ScriptOp { gap_us: 2_000, kind: OpKind::Read, key: COUNTER_KEY });
            script.push(ScriptOp { gap_us: 100, kind: OpKind::Write, key: COUNTER_KEY });
        }
        sim.add_node(Box::new(EventualClient::new(
            wtr as u64 + 1,
            script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId((wtr % replicas) as u32)),
            Guarantees::none(),
        )));
    }
    sim.run_until(SimTime::from_secs(120));
    let t = trace.borrow();
    // Reconstruct the RMW chain: the final value is one write; walk
    // backwards: a write "incorporated" the value its session read just
    // before it. Increments that are not on the final chain are lost.
    let final_write = t
        .records()
        .iter()
        .filter(|r| r.kind == OpKind::Write && r.ok)
        .max_by_key(|r| r.stamp)
        .expect("writes happened");
    let mut chain = 0i64;
    let mut cursor = Some(final_write);
    while let Some(w) = cursor {
        chain += 1;
        // The read this session performed immediately before this write.
        let prior_read = t
            .records()
            .iter()
            .rfind(|r| r.session == w.session && r.kind == OpKind::Read && r.op_id == w.op_id - 1);
        cursor = prior_read.and_then(|r| {
            r.value_read.first().and_then(|v| {
                t.records().iter().find(|x| x.kind == OpKind::Write && x.value_written == Some(*v))
            })
        });
    }
    let expected = (writers as i64) * (increments as i64);
    Cell { mode: "LWW (RMW)", expected, observed: chain }
}

fn run_crdt(writers: usize, increments: u64, cell: SimConfig) -> Cell {
    let trace = sink::shared_trace();
    let replicas = writers.clamp(2, 4);
    let cfg = Composition::eventual(
        replicas,
        true,
        Some(GossipConfig { interval: Duration::from_millis(10), fanout: 2 }),
        ResolutionPolicy::CrdtMerge,
    );
    let mut sim = Sim::new(cell.latency(LatencyModel::Uniform {
        min: Duration::from_millis(1),
        max: Duration::from_millis(15),
    }));
    for _ in 0..replicas {
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
    }
    // In counter mode a write adds its value to the counter, and each
    // write's value is its unique write id, not 1. So `expected` is the
    // sum of every write id written and `observed` is the counter a late
    // reader sees: sums of write ids, not increment counts.
    let mut expected: i64 = 0;
    for wtr in 0..writers {
        let script: Vec<ScriptOp> = (0..increments)
            .map(|_| ScriptOp { gap_us: 2_000, kind: OpKind::Write, key: COUNTER_KEY })
            .collect();
        for op in 1..=increments {
            expected += unique_value(wtr as u64 + 1, op) as i64;
        }
        sim.add_node(Box::new(EventualClient::new(
            wtr as u64 + 1,
            script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId((wtr % replicas) as u32)),
            Guarantees::none(),
        )));
    }
    // A reader polls late to get the converged value.
    sim.add_node(Box::new(EventualClient::new(
        999,
        vec![ScriptOp { gap_us: 60_000_000, kind: OpKind::Read, key: COUNTER_KEY }],
        trace.clone(),
        &cfg,
        TargetPolicy::Sticky(NodeId(0)),
        Guarantees::none(),
    )));
    sim.run_until(SimTime::from_secs(120));
    let t = trace.borrow();
    let observed = t
        .records()
        .iter()
        .find(|r| r.session == 999 && r.ok)
        .and_then(|r| r.value_read.first().copied())
        .unwrap_or(0) as i64;
    Cell { mode: "CRDT counter", expected, observed }
}

const INCREMENTS: u64 = 25;

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let mut grid = Grid::new();
    for writers in [2usize, 4, 8] {
        grid.add(format!("LWW, {writers} writers"), 5, (false, writers));
        grid.add(format!("CRDT, {writers} writers"), 5, (true, writers));
    }
    let cells = obs.run_grid(grid, |&(crdt, writers), cell| {
        let run = if crdt { run_crdt } else { run_lww };
        (writers, run(writers, INCREMENTS, cell))
    });

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let writers = seeds[0].result.0;
        let cells: Vec<&Cell> = seeds.iter().map(|c| &c.result.1).collect();
        let expected = cells[0].expected;
        let loss = seed_stat(
            &cells
                .iter()
                .map(|c| (c.expected - c.observed) as f64 / c.expected.max(1) as f64)
                .collect::<Vec<_>>(),
        );
        let observed = seed_stat(&cells.iter().map(|c| c.observed as f64).collect::<Vec<_>>()).mean;
        rows.push(Row {
            mode: cells[0].mode.to_string(),
            writers,
            increments_each: INCREMENTS,
            expected,
            observed,
            lost: expected as f64 - observed,
            loss_rate: loss.mean,
            loss_rate_ci95: loss.ci95,
            seeds: obs.seeds,
        });
    }
    obs.save("e6_conflict_resolution", &rows);
}
