//! Randomized nemesis fuzzing with minimal-schedule shrinking.
//!
//! The scripted fault tests only exercise failures someone thought to
//! write down. The fuzzer closes the gap: for each replication scheme it
//! generates hundreds of seeded adversarial fault schedules
//! ([`simnet::nemesis`]), runs the scheme under each, pipes the resulting
//! operation trace into the `consistency` checkers appropriate to the
//! scheme's *expected* guarantee, and — when a guarantee breaks — shrinks
//! the fault schedule by delta debugging to a minimal JSON reproducer
//! that replays byte-identically.
//!
//! Everything here is a pure function of its inputs, so a whole fuzz
//! campaign is deterministic: the same `(schemes, seeds, profile)` yields
//! the same report and the same reproducers regardless of `--jobs`.
//!
//! The harness pins its workload, latency model, and horizon as module
//! constants rather than carrying them in the reproducer: a reproducer is
//! tied to the code revision that emitted it (like a proptest regression
//! file), and keeping the case format down to `(scheme, seed, events)`
//! keeps corpus JSON small and byte-stable.

use crate::grid::par_map;
use crate::runner::Experiment;
use crate::scheme::{ClientPlacement, Scheme};
use consistency::{
    check_monotonic_values, check_session_guarantees, check_trace_linearizable, measure_staleness,
    LinCheckError,
};
use replication::common::Guarantees;
use replication::eventual::ConflictMode;
use replication::Composition;
use serde::{Deserialize, Serialize};
use simnet::nemesis::{self, IntensityProfile, NemesisEvent};
use simnet::{Duration, LatencyModel, OpTrace, SimTime};
use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

/// Virtual-time horizon of every fuzz run, in milliseconds. The nemesis
/// heals all faults by two thirds of this (its quiet tail), leaving four
/// seconds of calm — no shorter than any protocol's client-side op
/// timeout (Paxos's is exactly 4 s) — so late retries settle before the
/// trace is judged. A judged run ends earlier, once every op has its
/// row ([`run_case`]); a replay runs to here.
pub const FUZZ_HORIZON_MS: u64 = 12_000;

/// The fixed workload every fuzz case runs (see module docs for why this
/// is a constant and not part of the reproducer).
pub fn fuzz_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 8,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 20_000 },
        sessions: 3,
        ops_per_session: 30,
    }
}

obs::names! {
    /// The schemes the fuzzer drives, as a compact serializable vocabulary.
    ///
    /// Each variant names a *fixed* deployment (replica counts, quorum sizes,
    /// placement), so a reproducer only has to record the variant — no
    /// floats, no nested config — and the JSON encoding stays byte-stable.
    #[derive(Serialize, Deserialize)]
    FuzzScheme, "fuzz scheme" {
        /// Multi-Paxos, 3 nodes. Expected linearizable even under amnesia.
        Paxos = "paxos",
        /// Majority quorum N=3, R=2, W=2 with read repair. R+W>N: reads must
        /// intersect the newest acked write.
        MajorityQuorum = "quorum(N=3,R=2,W=2)",
        /// Deliberately weak quorum N=3, R=1, W=1. R+W<=N: the seeded
        /// known-violation target — stale reads are *expected* under
        /// partitions, and the fuzzer must find and shrink one.
        PartialQuorum = "quorum(N=3,R=1,W=1)",
        /// Primary copy with synchronous backup acks, 3 replicas.
        PrimarySync = "primary-sync",
        /// COPS-style causal+, 3 replicas, sticky sessions.
        Causal = "causal",
        /// Eventual (eager + gossip, LWW), sticky sessions, no client-side
        /// guarantee enforcement. Sticky + durable WAL means read-your-writes
        /// should still hold.
        EventualSticky = "eventual-sticky",
        /// Kernel composition: multi-master + anti-entropy gossip + CRDT
        /// counter merge + fsynced state, 3 replicas. Inflationary state that
        /// survives amnesia: a session must never watch a counter shrink.
        MultiMasterCrdt = "mm-gossip-crdt",
        /// Kernel composition: multi-master eager broadcast that defers the
        /// client ack until every peer has durably applied (acks = n-1), LWW,
        /// 3 replicas. Acked writes are everywhere, so no read may be stale.
        EagerAckedEventual = "mm-eager-acked",
    }
}

/// What the checker pipeline asserts for a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expectation {
    /// Per-key register histories linearize ([`check_trace_linearizable`]).
    Linearizable,
    /// No read misses a previously acknowledged write
    /// ([`measure_staleness`] reports zero stale reads).
    NoStaleReads,
    /// Sessions read their own writes ([`check_session_guarantees`]
    /// reports zero RYW violations).
    ReadYourWrites,
    /// No session watches an inflationary counter value go backwards
    /// ([`check_monotonic_values`] reports zero violations).
    MonotonicReads,
}

/// Which guarantee a run violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A key's history admits no legal linearization.
    NotLinearizable,
    /// At least one read missed an acknowledged write.
    StaleReads,
    /// A session failed to read its own write.
    ReadYourWrites,
    /// A session watched a counter value decrease.
    MonotonicReads,
}

/// The outcome of running one fuzz case through its checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The scheme's expectation held.
    Pass,
    /// The expectation broke.
    Violation {
        /// Which guarantee broke.
        kind: ViolationKind,
        /// How many individual checks failed (1 for linearizability,
        /// which stops at the first offending key).
        count: u64,
    },
}

impl Verdict {
    /// The violation kind, if any.
    pub fn kind(&self) -> Option<ViolationKind> {
        match self {
            Verdict::Pass => None,
            Verdict::Violation { kind, .. } => Some(*kind),
        }
    }
}

impl FuzzScheme {
    /// The concrete deployment this variant names.
    pub fn to_scheme(self) -> Scheme {
        match self {
            FuzzScheme::Paxos => Scheme::Paxos { nodes: 3 },
            FuzzScheme::MajorityQuorum => Scheme::Quorum {
                n: 3,
                r: 2,
                w: 2,
                read_repair: true,
                placement: ClientPlacement::Random,
            },
            FuzzScheme::PartialQuorum => Scheme::Quorum {
                n: 3,
                r: 1,
                w: 1,
                read_repair: false,
                placement: ClientPlacement::Random,
            },
            FuzzScheme::PrimarySync => Scheme::PrimarySync { replicas: 3 },
            FuzzScheme::Causal => Scheme::Causal { replicas: 3 },
            FuzzScheme::EventualSticky => Scheme::Eventual {
                replicas: 3,
                eager: true,
                gossip: Some((Duration::from_millis(50), 1)),
                mode: ConflictMode::Lww,
                guarantees: Guarantees::none(),
                placement: ClientPlacement::Sticky,
            },
            FuzzScheme::MultiMasterCrdt => Scheme::composed(Composition::mm_gossip_crdt(3)),
            FuzzScheme::EagerAckedEventual => Scheme::composed(Composition::mm_eager_acked(3)),
        }
    }

    /// Number of server nodes deployed (what the nemesis may target).
    pub fn server_nodes(self) -> usize {
        self.to_scheme().server_node_count()
    }

    /// The guarantee the checkers assert for this scheme.
    pub fn expectation(self) -> Expectation {
        match self {
            FuzzScheme::Paxos => Expectation::Linearizable,
            FuzzScheme::MajorityQuorum | FuzzScheme::PrimarySync => Expectation::NoStaleReads,
            FuzzScheme::PartialQuorum => Expectation::NoStaleReads,
            FuzzScheme::Causal | FuzzScheme::EventualSticky => Expectation::ReadYourWrites,
            FuzzScheme::MultiMasterCrdt => Expectation::MonotonicReads,
            FuzzScheme::EagerAckedEventual => Expectation::NoStaleReads,
        }
    }

    /// Whether violations are the *expected* finding for this scheme.
    ///
    /// `PartialQuorum` (R+W<=N) is in the campaign precisely because its
    /// quorums don't intersect: the fuzzer demonstrating, shrinking, and
    /// replaying its stale reads is the positive control. Violations on
    /// any other scheme are real findings and fail CI.
    pub fn violation_expected(self) -> bool {
        matches!(self, FuzzScheme::PartialQuorum)
    }
}

/// A self-contained, replayable fuzz case — the reproducer format checked
/// into `tests/corpus/`. Running it is a pure function of this struct
/// plus the harness constants above.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// The scheme under test.
    pub scheme: FuzzScheme,
    /// Workload/sim seed.
    pub seed: u64,
    /// The fault schedule, as nemesis windows.
    pub events: Vec<NemesisEvent>,
}

/// Generate the fuzz case for `(scheme, seed)` under `profile`: the fault
/// schedule comes from [`nemesis::generate`] keyed by the same seed that
/// drives the workload and the network.
pub fn generate_case(scheme: FuzzScheme, seed: u64, profile: &IntensityProfile) -> FuzzCase {
    let events = nemesis::generate(seed, scheme.server_nodes(), FUZZ_HORIZON_MS, profile);
    FuzzCase { scheme, seed, events }
}

/// Run one case: build the experiment, simulate it until every scripted
/// op has its trace row (`Experiment::op_trace`, which ends the run
/// there rather than at the horizon — the verdict reads nothing else),
/// and judge the trace against the scheme's expectation. Campaign cells
/// and every shrink candidate go through here. Panics on a case
/// [`try_run_case_recorded`] refuses.
pub fn run_case(case: &FuzzCase) -> Verdict {
    let experiment =
        case_experiment(case, obs::Recorder::disabled()).unwrap_or_else(|e| panic!("{e}"));
    judge(case, &experiment.op_trace())
}

/// [`run_case`] with an observability recorder attached and the run
/// driven to the horizon, so a replayed reproducer emits its full event
/// log — span open/close pairs included — for `fuzz_nemesis --replay
/// ... --trace-out`; the caller keeps the handle and exports the JSONL
/// trace afterwards. The verdict is [`run_case`]'s. For a case read from
/// a file: `Err` naming the field and the numbers if its events are no
/// schedule ([`nemesis::try_to_schedule`]) or name nodes the scheme does
/// not deploy ([`Experiment::check_faults`]) — never a panic inside the
/// run.
pub fn try_run_case_recorded(case: &FuzzCase, recorder: obs::Recorder) -> Result<Verdict, String> {
    Ok(judge(case, &case_experiment(case, recorder)?.run().trace))
}

/// The experiment a case names: its scheme, seed and schedule under the
/// harness constants, or why its events cannot run.
fn case_experiment(case: &FuzzCase, recorder: obs::Recorder) -> Result<Experiment, String> {
    let experiment = Experiment::new(case.scheme.to_scheme())
        .workload(fuzz_workload())
        .latency(LatencyModel::lan())
        .faults(nemesis::try_to_schedule(&case.events)?)
        .seed(case.seed)
        .horizon(SimTime::from_millis(FUZZ_HORIZON_MS))
        .recorder(recorder);
    experiment.check_faults()?;
    Ok(experiment)
}

/// Judge a run's op trace against the case's scheme expectation.
fn judge(case: &FuzzCase, trace: &OpTrace) -> Verdict {
    match case.scheme.expectation() {
        Expectation::Linearizable => match check_trace_linearizable(trace) {
            Ok(()) => Verdict::Pass,
            Err(LinCheckError::NotLinearizable { .. }) => {
                Verdict::Violation { kind: ViolationKind::NotLinearizable, count: 1 }
            }
        },
        Expectation::NoStaleReads => {
            let report = measure_staleness(trace);
            if report.stale_reads == 0 {
                Verdict::Pass
            } else {
                Verdict::Violation { kind: ViolationKind::StaleReads, count: report.stale_reads }
            }
        }
        Expectation::ReadYourWrites => {
            let report = check_session_guarantees(trace);
            if report.ryw_violations == 0 {
                Verdict::Pass
            } else {
                Verdict::Violation {
                    kind: ViolationKind::ReadYourWrites,
                    count: report.ryw_violations,
                }
            }
        }
        Expectation::MonotonicReads => {
            let report = check_monotonic_values(trace);
            if report.violations == 0 {
                Verdict::Pass
            } else {
                Verdict::Violation { kind: ViolationKind::MonotonicReads, count: report.violations }
            }
        }
    }
}

/// Shrink a violating case to a minimal fault schedule by delta debugging
/// (Zeller's ddmin) over whole nemesis windows.
///
/// The reduced case must reproduce the *same violation kind* (not the
/// same count — shrinking often reduces a 7-stale-read run to a
/// 1-stale-read run, which is exactly the point). If `case` does not
/// violate at all, it is returned unchanged. Deterministic: the chunk
/// scan order is fixed, so the same input always shrinks to the same
/// output.
pub fn shrink_case(case: &FuzzCase) -> FuzzCase {
    match run_case(case).kind() {
        Some(kind) => shrink_violation(case, kind),
        None => case.clone(),
    }
}

/// [`shrink_case`] for a case already judged to violate with `kind`, so
/// the case is not simulated again to find out.
pub(crate) fn shrink_violation(case: &FuzzCase, kind: ViolationKind) -> FuzzCase {
    let still_fails = |events: &[NemesisEvent]| -> bool {
        let candidate = FuzzCase { scheme: case.scheme, seed: case.seed, events: events.to_vec() };
        run_case(&candidate).kind() == Some(kind)
    };

    let mut events = case.events.clone();
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            let mut candidate = Vec::with_capacity(events.len() - (end - start));
            candidate.extend_from_slice(&events[..start]);
            candidate.extend_from_slice(&events[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                events = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        }
    }
    FuzzCase { scheme: case.scheme, seed: case.seed, events }
}

/// One campaign cell: what happened for `(scheme, seed)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    /// Scheme under test.
    pub scheme: FuzzScheme,
    /// The seed.
    pub seed: u64,
    /// Nemesis windows in the generated (unshrunk) schedule.
    pub generated_events: u64,
    /// The verdict on the generated schedule.
    pub verdict: Verdict,
    /// Whether a violation is the expected finding for this scheme.
    pub expected_violation: bool,
    /// Minimal reproducer (present only for violations; already shrunk).
    pub reproducer: Option<FuzzCase>,
}

/// A whole campaign's results, in deterministic (scheme-major, then
/// seed) order. Serializes to the JSON report `fuzz_nemesis` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Intensity profile name the campaign ran under.
    pub profile: String,
    /// Base seed; case seeds are `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Every cell, scheme-major.
    pub cases: Vec<CaseReport>,
}

impl CampaignReport {
    /// Total runs.
    pub fn total(&self) -> usize {
        self.cases.len()
    }

    /// All violating cells.
    pub fn violations(&self) -> Vec<&CaseReport> {
        self.cases.iter().filter(|c| c.verdict != Verdict::Pass).collect()
    }

    /// Violations on schemes where the guarantee was supposed to hold.
    /// CI fails if this is non-empty.
    pub fn unexpected_violations(&self) -> Vec<&CaseReport> {
        self.violations().into_iter().filter(|c| !c.expected_violation).collect()
    }

    /// Violations on the positive-control scheme(s). The campaign is
    /// suspect if it runs `PartialQuorum` over many seeds and this stays
    /// empty — the nemesis has lost its teeth.
    pub fn expected_violations(&self) -> Vec<&CaseReport> {
        self.violations().into_iter().filter(|c| c.expected_violation).collect()
    }

    /// Render a deterministic plain-text summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "nemesis fuzz campaign: profile={} base_seed={} runs={}",
            self.profile,
            self.base_seed,
            self.total()
        );
        let _ = writeln!(
            out,
            "{:<22} {:>5} {:>10} {:>9} {:>13}",
            "scheme", "runs", "violations", "expected", "min-events"
        );
        for scheme in FuzzScheme::ALL {
            let cells: Vec<&CaseReport> =
                self.cases.iter().filter(|c| c.scheme == scheme).collect();
            if cells.is_empty() {
                continue;
            }
            let violations = cells.iter().filter(|c| c.verdict != Verdict::Pass).count();
            let min_events =
                cells.iter().filter_map(|c| c.reproducer.as_ref()).map(|r| r.events.len()).min();
            let _ = writeln!(
                out,
                "{:<22} {:>5} {:>10} {:>9} {:>13}",
                scheme.name(),
                cells.len(),
                violations,
                if scheme.violation_expected() { "yes" } else { "no" },
                min_events.map(|m| m.to_string()).unwrap_or_else(|| "-".to_string()),
            );
        }
        for case in self.unexpected_violations() {
            let _ = writeln!(
                out,
                "UNEXPECTED: {} seed={} verdict={:?}",
                case.scheme.name(),
                case.seed,
                case.verdict
            );
        }
        out
    }
}

/// Run a full fuzz campaign: `schemes x seeds` cells on the shared
/// worker pool, shrinking every violation inside its worker.
///
/// Cells are laid out scheme-major in a fixed order and results are
/// reassembled by index, so the report (and its JSON) is byte-identical
/// for any `jobs` value.
pub fn campaign(
    schemes: &[FuzzScheme],
    seeds: u64,
    base_seed: u64,
    profile_name: &str,
    jobs: usize,
    shrink: bool,
) -> CampaignReport {
    let profile = IntensityProfile::by_name(profile_name)
        .unwrap_or_else(|| panic!("unknown intensity profile {profile_name:?}"));
    let seed = |i: u64| {
        base_seed.checked_add(i).unwrap_or_else(|| {
            panic!("campaign seed {base_seed} + {i} overflows u64 ({seeds} seeds asked for)")
        })
    };
    let cells: Vec<(FuzzScheme, u64)> =
        schemes.iter().flat_map(|&s| (0..seeds).map(move |i| (s, seed(i)))).collect();
    let cases = par_map(&cells, jobs, |_, &(scheme, seed)| {
        let case = generate_case(scheme, seed, &profile);
        let verdict = run_case(&case);
        let reproducer = match verdict {
            Verdict::Pass => None,
            Verdict::Violation { kind, .. } => {
                Some(if shrink { shrink_violation(&case, kind) } else { case.clone() })
            }
        };
        CaseReport {
            scheme,
            seed,
            generated_events: case.events.len() as u64,
            verdict,
            expected_violation: scheme.violation_expected(),
            reproducer,
        }
    });
    CampaignReport { profile: profile_name.to_string(), base_seed, cases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Recorder;

    #[test]
    fn case_generation_is_deterministic() {
        for scheme in FuzzScheme::ALL {
            let a = generate_case(scheme, 42, &IntensityProfile::medium());
            let b = generate_case(scheme, 42, &IntensityProfile::medium());
            assert_eq!(a, b);
            assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        }
    }

    #[test]
    fn scheme_names_round_trip() {
        // Round-tripping every variant also proves the names unique: a
        // shared name would parse back to the first of its variants.
        for scheme in FuzzScheme::ALL {
            assert_eq!(FuzzScheme::from_name(scheme.name()), Ok(scheme));
        }
    }

    #[test]
    fn fuzz_case_roundtrips_through_json() {
        let case = generate_case(FuzzScheme::PartialQuorum, 7, &IntensityProfile::heavy());
        let json = serde_json::to_string(&case).unwrap();
        let back: FuzzCase = serde_json::from_str(&json).unwrap();
        assert_eq!(back, case);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn shrink_returns_passing_cases_unchanged() {
        // No fault events at all: every scheme passes its own expectation
        // on a quiet network, so shrink must be the identity.
        let case = FuzzCase { scheme: FuzzScheme::MajorityQuorum, seed: 3, events: vec![] };
        assert_eq!(run_case(&case), Verdict::Pass);
        assert_eq!(shrink_case(&case), case);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let case = generate_case(FuzzScheme::EventualSticky, 12, &IntensityProfile::medium());
        assert_eq!(run_case(&case), run_case(&case));
    }

    #[test]
    fn composed_schemes_pass_on_quiet_network() {
        // The two kernel compositions hold their expectations when no
        // nemesis interferes; anything else is a harness bug, not a find.
        for scheme in [FuzzScheme::MultiMasterCrdt, FuzzScheme::EagerAckedEventual] {
            let case = FuzzCase { scheme, seed: 5, events: vec![] };
            assert_eq!(run_case(&case), Verdict::Pass, "{} must pass quiet", scheme.name());
        }
    }

    /// The trace a judged case stops with is the horizon run's, row for
    /// row, for every scheme over 25 heavy schedules each.
    #[test]
    fn a_stopped_case_traces_what_the_horizon_run_traces() {
        for scheme in FuzzScheme::ALL {
            for seed in 0..25 {
                let case = generate_case(scheme, seed, &IntensityProfile::heavy());
                let experiment = case_experiment(&case, Recorder::disabled()).unwrap();
                assert_eq!(
                    experiment.op_trace().records(),
                    experiment.run().trace.records(),
                    "{} seed {seed}",
                    scheme.name()
                );
            }
        }
    }

    /// `case` run by `op_trace` and by `run`, each with a counting
    /// recorder: the traces must be equal. Returns the trace's rows and
    /// the events each run recorded.
    fn stopped_and_horizon_events(case: &FuzzCase) -> (usize, u64, u64) {
        let (stopped, horizon) = (Recorder::enabled(), Recorder::enabled());
        let experiment = |r: &Recorder| case_experiment(case, r.clone()).unwrap();
        let trace = experiment(&stopped).op_trace();
        assert_eq!(trace.records(), experiment(&horizon).run().trace.records());
        (trace.len(), stopped.report().events_recorded, horizon.report().events_recorded)
    }

    #[test]
    fn a_stopped_case_records_fewer_events() {
        for scheme in [FuzzScheme::Paxos, FuzzScheme::MultiMasterCrdt] {
            let case = generate_case(scheme, 0, &IntensityProfile::heavy());
            let (_, stopped, horizon) = stopped_and_horizon_events(&case);
            assert!(
                stopped < horizon,
                "{}: {stopped} events, {horizon} to the horizon",
                scheme.name()
            );
        }
    }

    /// A client crashed for good never ends its pending op, so its run
    /// cannot stop early: it goes to the horizon like `run` does.
    #[test]
    fn a_case_with_a_client_down_for_good_runs_to_the_horizon() {
        let scheme = FuzzScheme::MajorityQuorum;
        let client = scheme.server_nodes();
        let crash = NemesisEvent::Crash {
            node: client,
            from_ms: 200,
            to_ms: 2 * FUZZ_HORIZON_MS,
            amnesia: false,
        };
        let case = FuzzCase { scheme, seed: 1, events: vec![crash] };
        let (rows, stopped, horizon) = stopped_and_horizon_events(&case);
        assert!((rows as u64) < fuzz_workload().total_ops(), "every op ended: {rows} rows");
        assert_eq!(stopped, horizon);
    }

    /// A campaign shrinks a violation from the verdict its cell already
    /// has; what it reports must be what `shrink_case`, which judges the
    /// case again first, makes of the generated case.
    #[test]
    fn campaign_reproducers_are_what_shrink_case_makes() {
        let report = campaign(&[FuzzScheme::PartialQuorum], 12, 0, "heavy", 1, true);
        let violations = report.violations();
        assert!(!violations.is_empty(), "the positive control found nothing to shrink");
        for cell in violations {
            let generated = generate_case(cell.scheme, cell.seed, &IntensityProfile::heavy());
            assert_eq!(cell.reproducer, Some(shrink_case(&generated)), "seed {}", cell.seed);
        }
    }

    #[test]
    #[should_panic(expected = "campaign seed 18446744073709551615 + 1 overflows u64 (2 seeds")]
    fn campaign_seeds_past_the_last_u64_panic() {
        campaign(&[FuzzScheme::Paxos], 2, u64::MAX, "light", 1, false);
    }
}
