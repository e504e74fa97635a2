//! E11 (Table): the replication kernel's composition matrix.
//!
//! Every scheme in this harness is a `replication::Composition` — an
//! update site × propagation policy × resolution policy × durability
//! policy picked from the kernel's menu. The first seven rows are the
//! canonical compositions the legacy protocol names normalize to (the
//! scheme-parity suite proves they are byte-identical machines); the
//! last two exist *only* as compositions:
//!
//! * `mm+gossip+crdt` — multi-master anti-entropy shipping CRDT counter
//!   state with fsynced durability: amnesia cannot shrink a counter.
//! * `mm+eager-acked(2)+lww` — eager broadcast that withholds the client
//!   ack until every peer has durably applied: no read anywhere is stale
//!   once a write is acknowledged, without a coordinator or a log.
//!
//! Columns quantify what each layer choice buys: latency (propagation),
//! availability under a mid-run partition + crash-amnesia nemesis
//! (durability), and the checker verdicts (resolution): stale reads,
//! read-your-writes, and value-monotonic reads.

use bench::{f1, f3, print_table, seed_mean, Obs};
use consistency::{check_monotonic_values, check_session_guarantees, measure_staleness};
use rec_core::metrics::latency_summary;
use rec_core::{Experiment, Grid, Scheme};
use replication::kernel::{Composition, ResolutionPolicy, ShipMode};
use serde::Serialize;
use simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    composition: String,
    update_site: String,
    propagation: String,
    resolution: String,
    durability: String,
    read_p99_ms: f64,
    write_p99_ms: f64,
    availability: f64,
    /// Stamp-based checker columns apply to register semantics (LWW /
    /// siblings) and are `None` for CRDT counters, whose reads carry no
    /// version stamp; the value-monotonicity column is the converse.
    stale_reads: Option<f64>,
    ryw_violations: Option<f64>,
    mr_value_violations: Option<f64>,
    seeds: u64,
}

/// The matrix: canonical legacy compositions plus the two kernel-only
/// ones.
fn matrix() -> Vec<Composition> {
    vec![
        Composition::eventual_lww(3),
        Composition::causal(3),
        Composition::quorum(3, 2, 2, true, 0),
        Composition::quorum(3, 2, 2, true, 2),
        Composition::primary(3, ShipMode::Sync, false),
        Composition::primary(3, ShipMode::Async { interval: Duration::from_millis(50) }, true),
        Composition::paxos(3),
        Composition::mm_gossip_crdt(3),
        Composition::mm_eager_acked(3),
    ]
}

/// A nemesis every composition faces: one replica loses its memory
/// mid-run, another is cut off for two seconds.
fn nemesis() -> FaultSchedule {
    FaultSchedule::none()
        .crash_amnesia(NodeId(1), SimTime::from_secs(4), SimTime::from_secs(5))
        .partition(vec![NodeId(0)], SimTime::from_secs(8), SimTime::from_secs(10))
}

fn main() {
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let workload = WorkloadSpec {
        keys: 16,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 20_000 },
        sessions: 6,
        ops_per_session: 60,
    };
    let mut grid = Grid::new();
    for comp in matrix() {
        grid.push(
            comp.label(),
            Experiment::new(Scheme::composed(comp))
                .latency(LatencyModel::lan())
                .workload(workload.clone())
                .faults(nemesis())
                .seed(4242)
                .horizon(SimTime::from_secs(40)),
        );
    }
    let cells = obs.run_grid(grid);

    let comps = matrix();
    let mut rows = Vec::new();
    for (comp, seeds) in comps.iter().zip(cells.chunks(obs.seeds as usize)) {
        let counter = comp.resolution == ResolutionPolicy::CrdtMerge;
        let lats: Vec<_> = seeds.iter().map(|c| latency_summary(&c.result.trace)).collect();
        let mean =
            |f: &dyn Fn(usize) -> f64| seed_mean(&(0..seeds.len()).map(f).collect::<Vec<_>>());
        rows.push(Row {
            composition: comp.label(),
            update_site: format!("{:?}", comp.update()),
            propagation: format!("{:?}", comp.propagation),
            resolution: format!("{:?}", comp.resolution),
            durability: format!("{:?}", comp.durability),
            read_p99_ms: mean(&|i| lats[i].reads.p99),
            write_p99_ms: mean(&|i| lats[i].writes.p99),
            availability: mean(&|i| seeds[i].result.trace.success_rate()),
            stale_reads: (!counter)
                .then(|| mean(&|i| measure_staleness(&seeds[i].result.trace).stale_reads as f64)),
            ryw_violations: (!counter).then(|| {
                mean(&|i| check_session_guarantees(&seeds[i].result.trace).ryw_violations as f64)
            }),
            mr_value_violations: counter.then(|| {
                mean(&|i| check_monotonic_values(&seeds[i].result.trace).violations as f64)
            }),
            seeds: obs.seeds,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.composition.clone(),
                f1(r.read_p99_ms),
                f1(r.write_p99_ms),
                f3(r.availability),
                r.stale_reads.map(f1).unwrap_or_else(|| "-".to_string()),
                r.ryw_violations.map(f1).unwrap_or_else(|| "-".to_string()),
                r.mr_value_violations.map(f1).unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    print_table(
        "E11: kernel composition matrix under nemesis (amnesia + partition)",
        &["composition", "read p99", "write p99", "avail", "stale", "ryw-viol", "mr-viol"],
        &table,
    );
    obs.save("e11_composition_matrix", &rows);
}
