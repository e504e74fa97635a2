//! `proto_sweep`: what an experiment binary (E1–E4, E9–E11) makes its
//! user wait for. A grid of the seven message-driven schemes under a
//! medium nemesis, every cell with the counters recorder the harness
//! binaries use, then the four batch checkers on each trace and the
//! results document serialised. Protocol handlers, `simnet` dispatch and
//! `obs` counters do nearly all the work; queues stay shallow.

use super::{
    account_run, batch_reports, experiment_under_nemesis, run_counting_allocs, run_marking, ycsb_a,
    BatchReports,
};
use crate::harness::{ratio, scaled, timed, Metrics, Pass, Traced, Workload};
use clocks::VectorClock;
use obs::Recorder;
use rec_core::fuzz::FuzzScheme;
use rec_core::{Experiment, RunResult};
use serde::{Serialize, Value};
use simnet::SimRng;
use std::hint::black_box;
use workload::KeyDistribution;

/// The gossip-CRDT scheme is left to `gossip_state`: at equal op counts
/// it alone would be over half of this sweep.
const SCHEMES: [(FuzzScheme, &str); 7] = [
    (FuzzScheme::Paxos, "paxos"),
    (FuzzScheme::MajorityQuorum, "quorum_r2w2"),
    (FuzzScheme::PartialQuorum, "quorum_r1w1"),
    (FuzzScheme::PrimarySync, "primary_sync"),
    (FuzzScheme::Causal, "causal"),
    (FuzzScheme::EventualSticky, "eventual_sticky"),
    (FuzzScheme::EagerAckedEventual, "mm_eager_acked"),
];
const SESSIONS: u32 = 8;
const OPS_PER_SESSION: u64 = 2_000;
const KEYS: u64 = 1_024;
const THINK_US: u64 = 2_000;
/// The Paxos cell runs at this seed whatever `--seed` says. At this
/// commit Multi-Paxos can fall into a retry storm once the partition
/// heals under the latency skew (seed 46: 34 M events and 2 GiB for
/// 16 000 ops); which seeds do is not predictable, so the cell keeps one
/// that does not.
const PAXOS_SEED: u64 = 12;
/// Session lengths `replication.history_growth_ratio` compares.
const LONG_SESSION: u64 = 8_000;
const SHORT_SESSION: u64 = 800;

pub struct ProtoSweep {
    seed: u64,
    experiments: Vec<Experiment>,
}

fn experiment(scheme: FuzzScheme, seed: u64, ops_per_session: u64) -> Experiment {
    let workload = ycsb_a(KEYS, true, SESSIONS, ops_per_session, THINK_US);
    experiment_under_nemesis(scheme, seed, workload)
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    let ops = scaled(OPS_PER_SESSION, scale, 10);
    let experiments = SCHEMES
        .iter()
        .map(|&(scheme, _)| {
            let seed = if scheme == FuzzScheme::Paxos { PAXOS_SEED } else { seed };
            experiment(scheme, seed, ops)
        })
        .collect();
    Box::new(ProtoSweep { seed, experiments })
}

impl ProtoSweep {
    /// Cell `i` of the grid as `rec_core::Grid::run` would run it: a
    /// recorder of its own and a range of trace ids of its own.
    fn cell(&self, i: usize, recorder: Recorder, profile: bool) -> Experiment {
        self.experiments[i].clone().recorder(recorder).trace_base((i as u64) << 40).profile(profile)
    }

    /// One sweep through plain `Experiment::run` with this kind of
    /// recorder: nanoseconds, bytes allocated, allocations, recorders.
    fn sweep(&self, recorder: fn() -> Recorder, profile: bool) -> (f64, u64, u64, Vec<Recorder>) {
        let (mut secs, mut bytes, mut allocs) = (0.0, 0, 0);
        let recorders = (0..SCHEMES.len())
            .map(|i| {
                let rec = recorder();
                let e = self.cell(i, rec.clone(), profile);
                let ((_, b, n), s) = timed(|| run_counting_allocs(&e));
                secs += s;
                bytes += b;
                allocs += n;
                rec
            })
            .collect();
        (secs * 1e9, bytes, allocs, recorders)
    }
}

fn row(label: &str, result: &RunResult, reports: &BatchReports) -> Value {
    Value::Object(vec![
        ("scheme".to_string(), Value::String(label.to_string())),
        ("ops".to_string(), Value::U64(result.trace.len() as u64)),
        ("availability".to_string(), Value::F64(result.trace.success_rate())),
        ("events".to_string(), Value::U64(result.events)),
        ("reports".to_string(), reports.to_value()),
    ])
}

impl Workload for ProtoSweep {
    fn pass(&mut self, p: &mut Pass) {
        let tr = p.tr;
        // Scheme by scheme, not one `Grid::run` over all seven, so that
        // each run can mark its timed cells. With one worker the grid is
        // this loop.
        let mut cells: Vec<(RunResult, Recorder)> = Vec::new();
        for (i, &(_, label)) in SCHEMES.iter().enumerate() {
            let recorder = Recorder::enabled();
            let e = self.cell(i, recorder.clone(), false);
            let result = p.cells("rec-core.experiment_run", label, |mark| run_marking(&e, mark));
            cells.push((result, recorder));
        }
        let reports: Vec<BatchReports> = cells
            .iter()
            .zip(SCHEMES)
            .map(|((r, _), (_, label))| {
                p.cell("consistency.batch_checkers", label, || batch_reports(tr, &r.trace))
            })
            .collect();
        let aggregate = Recorder::enabled();
        p.cell("obs.absorb", "", || {
            for (_, rec) in &cells {
                aggregate.absorb(rec);
            }
        });
        let document = p.cell("obs.report_json", "", || {
            let rows = SCHEMES
                .iter()
                .zip(&cells)
                .zip(&reports)
                .map(|((&(_, label), (result, _)), reports)| row(label, result, reports))
                .collect();
            let doc = Value::Object(vec![
                ("rows".to_string(), Value::Array(rows)),
                ("metrics".to_string(), aggregate.report().to_value()),
            ]);
            serde_json::to_string_pretty(&doc).expect("results document serialises")
        });

        p.checking(|p| {
            p.digest.str(&document);
            for ((&(_, label), e), ((result, _), reports)) in
                SCHEMES.iter().zip(&self.experiments).zip(cells.iter().zip(&reports))
            {
                account_run(p, label, e, result);
                p.count("violations", reports.violations() as f64);
            }
        });
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let ops = t.count("ops");
        let cell_ops = ops / SCHEMES.len() as f64;
        for (_, label) in SCHEMES {
            let ns = t.total("rec-core.experiment_run", label).total_ns as f64;
            m.put(&format!("replication.us_per_op.{label}"), "us", ratio(ns / 1e3, cell_ops));
        }
        m.put("simnet.events_per_op.proto", "count", ratio(t.count("events"), ops));
        let messages = t.count("delivered") + t.count("dropped");
        m.put("simnet.dropped_ratio.proto", "ratio", ratio(t.count("dropped"), messages));
        m.put(
            "replication.unavailable_ratio.proto",
            "ratio",
            ratio(t.count("ops_unavailable"), ops),
        );
        m.put("replication.msgs_per_op.proto", "count", ratio(t.count("delivered"), ops));
        m.put("obs.report_json_ms", "ms", t.ns("obs.report_json") / t.passes / 1e6);
        let absorbs = t.passes * SCHEMES.len() as f64;
        m.put("obs.absorb_us", "us", t.ns("obs.absorb") / absorbs / 1e3);

        m.put("consistency.violations_found.proto", "count", t.count("violations") / t.passes);

        // Ablations: the same sweep without a recorder, and with the
        // handler profiler on top of the counters.
        let sweep_ops = ops / t.passes;
        let (counters_ns, bytes, allocs, _) = self.sweep(Recorder::enabled, false);
        m.put("replication.alloc_bytes_per_op.proto", "B", ratio(bytes as f64, sweep_ops));
        m.put("replication.allocs_per_op.proto", "count", ratio(allocs as f64, sweep_ops));
        let (disabled_ns, _, _, _) = self.sweep(Recorder::disabled, false);
        m.put("obs.counters_overhead_ratio.proto", "ratio", ratio(counters_ns, disabled_ns));
        let (profiled_ns, _, _, recorders) = self.sweep(Recorder::enabled, true);
        m.put("obs.profile_overhead_ratio", "ratio", ratio(profiled_ns, counters_ns));
        let mut handlers: Vec<(String, f64)> = Vec::new();
        for rec in &recorders {
            for scheme in rec.report().profile.map(|p| p.schemes).unwrap_or_default() {
                for h in &scheme.handlers {
                    handlers
                        .push((format!("{};{}", scheme.scheme, h.frame()), h.time_total_ns as f64));
                }
            }
        }
        let handler_ns: f64 = handlers.iter().map(|h| h.1).sum();
        let top = handlers.iter().max_by(|a, b| a.1.total_cmp(&b.1));
        m.put("replication.handler_share", "ratio", ratio(handler_ns, profiled_ns));
        m.put("simnet.kernel_share", "ratio", 1.0 - ratio(handler_ns, profiled_ns));
        m.put(
            "replication.top_handler_share",
            "ratio",
            ratio(top.map_or(0.0, |h| h.1), profiled_ns),
        );
        m.note("replication.top_handler", top.map_or("", |h| h.0.as_str()));

        // What a ten times longer session costs per op.
        let us_per_op = |ops_per_session: u64| {
            let e = experiment(
                FuzzScheme::MajorityQuorum,
                self.seed,
                scaled(ops_per_session, t.scale, 10),
            )
            .recorder(Recorder::enabled());
            let (result, secs) = timed(|| e.run());
            ratio(secs * 1e6, result.trace.len() as f64)
        };
        m.put(
            "replication.history_growth_ratio",
            "ratio",
            ratio(us_per_op(LONG_SESSION), us_per_op(SHORT_SESSION)),
        );

        // Direct loops over the calls the causal cell and the script
        // generator lean on.
        let mut sampler = KeyDistribution::zipfian_default().sampler(KEYS);
        let mut rng = SimRng::new(self.seed);
        m.put(
            "workload.zipf_sample_ns",
            "ns",
            t.loop_ns(1_000_000, |_| {
                black_box(sampler.sample(&mut rng));
            }),
        );
        let a = VectorClock::from_pairs((0..16).map(|i| (i, i * 3 + 1)));
        let b = VectorClock::from_pairs((8..24).map(|i| (i, i * 2 + 5)));
        let mut merged = a.clone();
        m.put("clocks.vv_merge_ns", "ns", t.loop_ns(1_000_000, |_| merged.merge(black_box(&b))));
        m.put(
            "clocks.vv_compare_ns",
            "ns",
            t.loop_ns(1_000_000, |_| {
                black_box(black_box(&a).compare(black_box(&b)));
            }),
        );
    }
}
