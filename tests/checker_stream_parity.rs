//! Three-way checker verification on simulated runs.
//!
//! Each guarantee has one definition in `crates/consistency` (a stream
//! operator) and two ways to drive it, so "whole-trace ≡ online" holds
//! by construction and proves nothing about the definition. What this
//! suite holds the definition to is the independent all-pairs oracle in
//! `tests/oracle/`, three ways at once:
//!
//! ```text
//! oracle(trace)  ≡  check_*(trace)  ≡  StreamVerifier fed by run_monitored
//! ```
//!
//! on every fuzz scheme family × two seeds under a crash-amnesia +
//! partition nemesis, and on every checked-in `tests/corpus/`
//! reproducer. The third leg also pins that the slices `run_monitored`
//! hands a live monitor arrive in the feed-order contract's order.

mod oracle;

use rethinking_ec::consistency::{
    check_convergence, check_monotonic_values, check_session_guarantees, measure_staleness,
    StreamConfig, StreamVerifier,
};
use rethinking_ec::core::fuzz::{fuzz_workload, FuzzCase, FuzzScheme, FUZZ_HORIZON_MS};
use rethinking_ec::core::Experiment;
use rethinking_ec::simnet::{nemesis, Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 8,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 5_000 },
        sessions: 3,
        ops_per_session: 25,
    }
}

/// The scheme_parity nemesis: one replica suffers crash-amnesia
/// mid-run, another is partitioned off for a window.
fn faults() -> FaultSchedule {
    FaultSchedule::none()
        .crash_amnesia(NodeId(1), SimTime::from_millis(800), SimTime::from_millis(1_400))
        .partition(vec![NodeId(0)], SimTime::from_secs(3), SimTime::from_secs(5))
}

/// Run `experiment` with an unbounded verifier attached and require the
/// oracle, the whole-trace checkers and the online verifier to produce
/// equal reports. Returns how many violations the run contained.
fn assert_three_way(experiment: &Experiment, label: &str) -> usize {
    let config = StreamConfig::default();
    let mut verifier = StreamVerifier::new(config);
    let result = experiment.run_monitored(&mut |ops, _now| verifier.feed_slice(ops));
    let online = verifier.finish();
    let trace = &result.trace;

    let reference = oracle::reports(trace, config.grace);
    let whole_trace = (
        check_session_guarantees(trace),
        measure_staleness(trace),
        check_monotonic_values(trace),
        check_convergence(trace, config.grace),
    );
    assert_eq!(whole_trace, reference, "{label}: whole-trace checkers disagree with the oracle");
    let violations = online.violations.len();
    assert_eq!(
        (online.session, online.staleness, online.monotonic, online.convergence),
        reference,
        "{label}: online verifier disagrees with the oracle"
    );
    violations
}

#[test]
fn oracle_whole_trace_and_online_agree_for_every_scheme_family() {
    let mut violations = 0;
    for fs in FuzzScheme::ALL {
        for seed in [11u64, 42] {
            let experiment = Experiment::new(fs.to_scheme())
                .workload(workload())
                .latency(LatencyModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(8),
                })
                .faults(faults())
                .seed(seed)
                .horizon(SimTime::from_secs(20));
            violations += assert_three_way(&experiment, &format!("{} seed {seed}", fs.name()));
        }
    }
    // Agreement on clean runs would say little about the definitions.
    assert!(violations >= 100, "sweep too clean: {violations} violations over 16 runs");
}

/// Every checked-in fuzz reproducer, replayed as `rec_core::fuzz` runs
/// it: the three reports agree, and the case still shows the violation
/// it was shrunk to.
#[test]
fn oracle_whole_trace_and_online_agree_on_the_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "corpus shrank to {} reproducers", entries.len());
    for path in entries {
        let json = std::fs::read_to_string(&path).expect("corpus file reads");
        let case: FuzzCase = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{} is not a FuzzCase: {e}", path.display()));
        let experiment = Experiment::new(case.scheme.to_scheme())
            .workload(fuzz_workload())
            .latency(LatencyModel::lan())
            .faults(nemesis::to_schedule(&case.events))
            .seed(case.seed)
            .horizon(SimTime::from_millis(FUZZ_HORIZON_MS));
        let violations = assert_three_way(&experiment, &path.display().to_string());
        assert!(violations > 0, "{}: reproducer no longer violates anything", path.display());
    }
}
