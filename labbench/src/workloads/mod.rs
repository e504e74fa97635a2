//! The six workloads, and the helpers more than one of them uses.

use crate::harness::{Pass, Workload};
use crate::trace::Tracer;
use consistency::{
    check_convergence, check_monotonic_values, check_session_guarantees, measure_staleness,
    ConvergenceReport, MonotonicValueReport, SessionReport, StalenessReport, StreamConfig,
};
use rec_core::fuzz::FuzzScheme;
use rec_core::{Experiment, RunResult};
use simnet::nemesis::{self, IntensityProfile};
use simnet::{LatencyModel, OpTrace, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

mod event_storm;
mod fuzz_campaign;
mod gossip_state;
mod proto_sweep;
mod ring_scale;
mod trace_check;

/// A workload's entry in the suite.
pub struct Spec {
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub unit: &'static str,
    /// Building the workload is its set-up: every input is made here,
    /// from the seed alone.
    pub build: fn(seed: u64, scale: f64) -> Box<dyn Workload>,
}

pub const ALL: [Spec; 6] = [
    Spec { name: "proto_sweep", unit: "ops", build: proto_sweep::build },
    Spec { name: "gossip_state", unit: "ops", build: gossip_state::build },
    Spec { name: "fuzz_campaign", unit: "scenarios", build: fuzz_campaign::build },
    Spec { name: "ring_scale", unit: "ops", build: ring_scale::build },
    Spec { name: "trace_check", unit: "ops", build: trace_check::build },
    Spec { name: "event_storm", unit: "messages", build: event_storm::build },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// YCSB-A, closed loop: each session sends its next op `think_us` after
/// the previous reply.
fn ycsb_a(
    keys: u64,
    zipfian: bool,
    sessions: u32,
    ops_per_session: u64,
    think_us: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        keys,
        distribution: if zipfian {
            KeyDistribution::zipfian_default()
        } else {
            KeyDistribution::Uniform
        },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us },
        sessions,
        ops_per_session: ops_per_session as u32,
    }
}

/// The seed of the fault schedules. A schedule is part of a workload's
/// definition, like its key count: how many partitions fall into a run
/// moves its cost by a tenth, which would drown what the benchmark is
/// there to resolve. `--seed` draws the scripts, the network's latencies
/// and every random choice of the simulator.
const NEMESIS_SEED: u64 = 42;

/// `scheme` on a LAN under a medium nemesis drawn for the whole horizon,
/// which leaves every session time to finish its script through the
/// fault windows.
fn experiment_under_nemesis(scheme: FuzzScheme, seed: u64, workload: WorkloadSpec) -> Experiment {
    let horizon_ms = workload.ops_per_session as u64 * 4 + 10_000;
    let profile = IntensityProfile::medium();
    let events = nemesis::generate(NEMESIS_SEED, scheme.server_nodes(), horizon_ms, &profile);
    Experiment::new(scheme.to_scheme())
        .workload(workload)
        .latency(LatencyModel::lan())
        .faults(nemesis::to_schedule(&events))
        .seed(seed)
        .horizon(SimTime::from_millis(horizon_ms))
}

/// `Experiment::run`, marking a timed cell at every 100 ms of virtual
/// time. The monitor hook is the only public way to see inside a run; it
/// is read-only, so the run is event for event the one `run` makes.
///
/// A run that is still going after `RUNAWAY_SECONDS` of host time is a
/// protocol in a message storm, not a slow machine; the process stops
/// with that message rather than report a number or hang its caller.
fn run_marking(e: &Experiment, mark: &mut dyn FnMut()) -> RunResult {
    let start = std::time::Instant::now();
    e.run_monitored(&mut |_, now| {
        mark();
        assert!(
            start.elapsed().as_secs() < RUNAWAY_SECONDS,
            "{} (seed {}) is still running after {RUNAWAY_SECONDS} s of host time, at virtual {now:?}: \
             runaway simulation",
            e.scheme.label(),
            e.seed,
        );
    })
}

/// Every timed simulation of the suite takes well under a second a pass.
const RUNAWAY_SECONDS: u64 = 30;

/// `Experiment::run` with the allocator's totals read on either side:
/// the result, bytes allocated, allocations.
fn run_counting_allocs(e: &Experiment) -> (RunResult, u64, u64) {
    let (bytes, count) = obs::alloc_totals();
    let result = e.run();
    let (bytes_after, count_after) = obs::alloc_totals();
    (result, bytes_after - bytes, count_after - count)
}

/// Book one finished run into the pass: its scripted ops as work and as
/// attempts, the ones missing from the trace as failures, trace and
/// counters into the digest, message conservation as a check, and the
/// counts the per-layer ratios are formed from.
fn account_run(p: &mut Pass, label: &str, e: &Experiment, result: &RunResult) {
    let scripted = e.workload.total_ops();
    let recorded = result.trace.len() as u64;
    p.units += scripted;
    p.attempted += scripted;
    p.failed += scripted - recorded.min(scripted);
    p.digest.trace(&result.trace);
    p.digest.counters(&result.metrics);
    p.check(result.metrics.check_message_conservation().is_ok(), || {
        format!("{label}: sent != delivered + dropped")
    });
    p.count("ops", recorded as f64);
    p.count("ops_unavailable", result.trace.records().iter().filter(|r| !r.ok).count() as f64);
    p.count("events", result.events as f64);
    p.count("delivered", result.delivered_messages as f64);
    p.count("dropped", result.dropped_messages as f64);
}

/// The four batch checkers' reports on one trace.
#[derive(serde::Serialize)]
struct BatchReports {
    session: SessionReport,
    staleness: StalenessReport,
    monotonic: MonotonicValueReport,
    convergence: Option<ConvergenceReport>,
}

fn batch_reports(tr: &Tracer, trace: &OpTrace) -> BatchReports {
    let grace = StreamConfig::default().grace;
    BatchReports {
        session: tr
            .span("consistency.check_session_guarantees", "", || check_session_guarantees(trace)),
        staleness: tr.span("consistency.measure_staleness", "", || measure_staleness(trace)),
        monotonic: tr
            .span("consistency.check_monotonic_values", "", || check_monotonic_values(trace)),
        convergence: tr
            .span("consistency.check_convergence", "", || check_convergence(trace, grace)),
    }
}

impl BatchReports {
    /// The reports in the tuple form the lab's own differential tests
    /// compare with the streaming reports, as JSON.
    fn tuple_json(&self) -> String {
        serde_json::to_string(&(&self.session, &self.staleness, &self.monotonic, &self.convergence))
            .expect("reports serialise")
    }

    /// Violations of any guarantee, summed over the four reports.
    fn violations(&self) -> u64 {
        let s = &self.session;
        s.ryw_violations
            + s.mr_violations
            + s.mw_violations
            + s.wfr_violations
            + self.staleness.stale_reads
            + self.monotonic.violations
            + self.convergence.as_ref().map_or(0, |c| c.diverged.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NemesisEvent;

    #[test]
    fn the_pinned_fault_schedule_has_every_kind_of_fault() {
        for ops_per_session in [1_500u64, 2_000] {
            let horizon_ms = ops_per_session * 4 + 10_000;
            let events =
                nemesis::generate(NEMESIS_SEED, 3, horizon_ms, &IntensityProfile::medium());
            let has = |f: fn(&NemesisEvent) -> bool| events.iter().any(f);
            assert!(has(|e| matches!(e, NemesisEvent::Partition { .. })), "{events:?}");
            assert!(has(|e| matches!(e, NemesisEvent::Crash { .. })), "{events:?}");
            assert!(has(|e| matches!(e, NemesisEvent::LossBurst { .. })), "{events:?}");
            assert!(has(|e| matches!(e, NemesisEvent::LatencySkew { .. })), "{events:?}");
        }
    }
}
