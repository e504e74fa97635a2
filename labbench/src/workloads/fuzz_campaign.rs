//! `fuzz_campaign`: the nemesis fuzzer over all eight schemes under the
//! heavy profile, every violation shrunk by delta debugging. The
//! opposite regime of `proto_sweep`: each scenario is 90 ops and 12
//! virtual seconds, so what a scenario costs once — drawing the fault
//! schedule, generating scripts, building and dropping the simulator,
//! the linearizability search, shrink re-runs — dominates, and steady
//! handler cost hardly shows.

use crate::harness::{median, ratio, scaled, timed, Metrics, Pass, Traced, Workload};
use crate::trace::Tracer;
use consistency::{
    check_monotonic_values, check_session_guarantees, check_trace_linearizable, measure_staleness,
    LinCheckError,
};
use rec_core::fuzz::{
    campaign, fuzz_workload, generate_case, shrink_case, CaseReport, Expectation, FuzzCase,
    FuzzScheme, Verdict, ViolationKind, FUZZ_HORIZON_MS,
};
use rec_core::{Experiment, RunResult};
use simnet::nemesis::{self, IntensityProfile};
use simnet::{LatencyModel, Sim, SimConfig, SimRng, SimTime};
use std::hint::black_box;
use std::ops::Range;

const PROFILE: &str = "heavy";
/// Case seeds `0..CORE_SEEDS` of every scheme run whatever `--seed` says;
/// `SLICE_SEEDS` more are drawn from it. Scenario cost is heavy-tailed —
/// the median scenario takes 0.7 ms, one in a hundred 8 ms — so two sets
/// of 1 000 cases differ by a tenth in cost, which a fixed core of seven
/// eighths brings down to about one per cent.
const CORE_SEEDS: u64 = 100;
const SLICE_SEEDS: u64 = 25;
/// The slice is one of this many, `SLICE_STRIDE` apart. About one base
/// seed in fifty holds a scenario that runs into a message storm
/// (0.5 GiB, seconds); none of these does at this commit.
const SLICES: u64 = 15;
const SLICE_STRIDE: u64 = 1_000_003;
/// Seeds a `campaign` call, and so a timed cell, covers.
const SEEDS_PER_CELL: u64 = 25;

pub struct FuzzCampaign {
    /// The stretches of case seeds every scheme runs, one timed cell each.
    stretches: Vec<Range<u64>>,
    profile: IntensityProfile,
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    let core = scaled(CORE_SEEDS, scale, 1);
    let slice_base = (1 + seed % SLICES) * SLICE_STRIDE;
    let mut stretches: Vec<Range<u64>> = (0..core)
        .step_by(SEEDS_PER_CELL as usize)
        .map(|first| first..(first + SEEDS_PER_CELL).min(core))
        .collect();
    stretches.push(slice_base..slice_base + scaled(SLICE_SEEDS, scale, 1));
    Box::new(FuzzCampaign {
        stretches,
        profile: IntensityProfile::by_name(PROFILE).expect("the heavy profile exists"),
    })
}

/// What `rec_core::fuzz::run_case` simulates, kept apart from judging
/// it so that each gets a span of its own.
fn simulate(case: &FuzzCase) -> RunResult {
    Experiment::new(case.scheme.to_scheme())
        .workload(fuzz_workload())
        .latency(LatencyModel::lan())
        .faults(nemesis::to_schedule(&case.events))
        .seed(case.seed)
        .horizon(SimTime::from_millis(FUZZ_HORIZON_MS))
        .run()
}

/// The fuzzer's verdict rule, from the public checkers.
fn judge(scheme: FuzzScheme, result: &RunResult) -> Verdict {
    let (kind, count) = match scheme.expectation() {
        Expectation::Linearizable => match check_trace_linearizable(&result.trace) {
            Err(LinCheckError::NotLinearizable { .. }) => (ViolationKind::NotLinearizable, 1),
            _ => return Verdict::Pass,
        },
        Expectation::NoStaleReads => {
            (ViolationKind::StaleReads, measure_staleness(&result.trace).stale_reads)
        }
        Expectation::ReadYourWrites => {
            (ViolationKind::ReadYourWrites, check_session_guarantees(&result.trace).ryw_violations)
        }
        Expectation::MonotonicReads => {
            (ViolationKind::MonotonicReads, check_monotonic_values(&result.trace).violations)
        }
    };
    if count == 0 {
        Verdict::Pass
    } else {
        Verdict::Violation { kind, count }
    }
}

impl FuzzCampaign {
    /// A stretch of one scheme's seeds through the public pieces, a span
    /// around each; must report what `campaign` reports.
    fn in_pieces(&self, tr: &Tracer, scheme: FuzzScheme, seeds: Range<u64>) -> Vec<CaseReport> {
        let judge_span = if scheme == FuzzScheme::Paxos {
            "consistency.check_trace_linearizable"
        } else {
            "consistency.judge"
        };
        let mut cases = Vec::new();
        for seed in seeds {
            tr.span("rec-core.scenario", "", || {
                let case = tr.span("rec-core.generate_case", "", || {
                    generate_case(scheme, seed, &self.profile)
                });
                let result = tr.span("rec-core.experiment_run", "", || simulate(&case));
                let verdict = tr.span(judge_span, "", || judge(scheme, &result));
                let reproducer = match verdict {
                    Verdict::Pass => None,
                    Verdict::Violation { .. } => {
                        Some(tr.span("rec-core.shrink_case", "", || shrink_case(&case)))
                    }
                };
                cases.push(CaseReport {
                    scheme,
                    seed,
                    generated_events: case.events.len() as u64,
                    verdict,
                    expected_violation: scheme.violation_expected(),
                    reproducer,
                });
            });
        }
        cases
    }
}

impl Workload for FuzzCampaign {
    fn pass(&mut self, p: &mut Pass) {
        let tr = p.tr;
        // A timed cell for every stretch of a scheme's seeds; together
        // the calls are one campaign over `FuzzScheme::ALL`.
        let mut cases: Vec<CaseReport> = Vec::new();
        for scheme in FuzzScheme::ALL {
            for seeds in &self.stretches {
                cases.extend(p.cell("rec-core.campaign", "", || {
                    if tr.is_on() {
                        self.in_pieces(tr, scheme, seeds.clone())
                    } else {
                        let count = seeds.end - seeds.start;
                        campaign(&[scheme], count, seeds.start, PROFILE, 1, true).cases
                    }
                }));
            }
        }
        p.checking(|p| {
            p.digest.json(&cases);
            let per_scheme: u64 = self.stretches.iter().map(|s| s.end - s.start).sum();
            let scenarios = FuzzScheme::ALL.len() as u64 * per_scheme;
            p.units += scenarios;
            p.attempted += scenarios;
            p.failed += scenarios - (cases.len() as u64).min(scenarios);
            // What the fuzzer finds is the lab's result, not the
            // benchmark's: the heavy profile does break guarantees that
            // should hold on some seeds. Counted, hashed, not judged.
            let violations = cases.iter().filter(|c| c.verdict != Verdict::Pass);
            let unexpected = violations.clone().filter(|c| !c.expected_violation);
            p.count("violations", violations.count() as f64);
            p.count("unexpected_violations", unexpected.count() as f64);
        });
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let campaign_ns = t.ns("rec-core.campaign");
        let scenario_us: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.name == "rec-core.scenario")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let mut sorted = scenario_us.clone();
        sorted.sort_by(f64::total_cmp);
        let p99 = sorted.get(sorted.len().saturating_sub(1) * 99 / 100).copied().unwrap_or(0.0);
        m.put("rec-core.scenario_us_p50", "us", median(&scenario_us));
        m.put("rec-core.scenario_us_p99", "us", p99);
        let lin = t.total("consistency.check_trace_linearizable", "*");
        let judge_ns = t.ns("consistency.judge") + lin.total_ns as f64;
        m.put("rec-core.judge_share", "ratio", ratio(judge_ns, campaign_ns));
        m.put("rec-core.shrink_share", "ratio", ratio(t.ns("rec-core.shrink_case"), campaign_ns));
        m.put(
            "rec-core.generate_share",
            "ratio",
            ratio(t.ns("rec-core.generate_case"), campaign_ns),
        );
        m.put(
            "consistency.lin_us_per_history",
            "us",
            ratio(lin.total_ns as f64 / 1e3, lin.count as f64),
        );
        m.put("consistency.violations_found.fuzz", "count", t.count("violations") / t.passes);
        m.put(
            "rec-core.unexpected_violations",
            "count",
            t.count("unexpected_violations") / t.passes,
        );

        // Two workers against one, on a quarter of the campaign. The
        // end-to-end figure stays single-threaded.
        let quarter = (self.stretches.iter().map(|s| s.end - s.start).sum::<u64>() / 4).max(1);
        let run = |jobs| timed(|| campaign(&FuzzScheme::ALL, quarter, 0, PROFILE, jobs, true));
        let ((one, one_s), (two, two_s)) = (run(1), run(2));
        assert_eq!(one, two, "campaign reports must not depend on the worker count");
        m.put("rec-core.par_speedup_j2", "ratio", ratio(one_s, two_s));

        // Direct loops over what every scenario pays once.
        let horizon = FUZZ_HORIZON_MS;
        m.put(
            "simnet.nemesis_gen_us",
            "us",
            t.loop_ns(2_000, |i| {
                let events = nemesis::generate(i, 3, horizon, &self.profile);
                black_box(nemesis::to_schedule(&events));
            }) / 1e3,
        );
        let spec = fuzz_workload();
        let mut rng = SimRng::new(0);
        m.put(
            "workload.script_gen_ns_per_op",
            "ns",
            t.loop_ns(2_000, |_| {
                black_box(spec.session_script(&mut rng));
            }) / spec.ops_per_session as f64,
        );
        m.put(
            "simnet.sim_build_us",
            "us",
            t.loop_ns(2_000, |i| {
                let mut sim: Sim<u64> = Sim::new(SimConfig::default().seed(i));
                for _ in 0..6 {
                    sim.add_node(Box::new(super::event_storm::StormNode::new(
                        6,
                        Default::default(),
                    )));
                }
                black_box(sim.node_count());
            }) / 1e3,
        );
    }
}
