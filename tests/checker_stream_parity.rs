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
//! partition nemesis, on every checked-in `tests/corpus/` reproducer,
//! and on one run the size of labbench's `trace_check` cells. The
//! reports must be equal, and so must the violation list the online
//! verifier flags and the one the oracle finds. The third leg also pins
//! that the slices `run_monitored` hands a live monitor arrive in the
//! feed-order contract's order.

mod oracle;

use rethinking_ec::consistency::{
    check_convergence, check_monotonic_values, check_session_guarantees, measure_staleness,
    StreamConfig, StreamVerifier,
};
use rethinking_ec::core::fuzz::{fuzz_workload, FuzzCase, FuzzScheme, FUZZ_HORIZON_MS};
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
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
/// equal reports, and the oracle and the online verifier to flag equal
/// violation lists. Returns how many violations the run contained.
fn assert_three_way(experiment: &Experiment, label: &str) -> usize {
    let config = StreamConfig::default();
    let mut verifier = StreamVerifier::new(config);
    let result = experiment.run_monitored(&mut |ops, _now| verifier.feed_slice(ops));
    let online = verifier.finish();
    let trace = &result.trace;

    let (reference, flagged) = oracle::judge(trace, config.grace);
    let whole_trace = (
        check_session_guarantees(trace),
        measure_staleness(trace),
        check_monotonic_values(trace),
        check_convergence(trace, config.grace),
    );
    assert_eq!(whole_trace, reference, "{label}: whole-trace checkers disagree with the oracle");
    assert!(online.violations == flagged, "{label}: online violations differ from the oracle's");
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

/// labbench's `trace_check` cell shape: 4 096 Zipfian keys, 8 sessions of
/// 1 500 ops, YCSB-A, 2 ms think time. The 8-key runs above never grow
/// an operator's tables past their first allocation; this one grows
/// each per-key table to thousands of entries, through every resize.
fn trace_check_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 4_096,
        distribution: KeyDistribution::zipfian_default(),
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 2_000 },
        sessions: 8,
        ops_per_session: 1_500,
    }
}

/// One `trace_check`-sized run of its `eventual_random` scheme (anycast
/// clients, no session guarantees: every operator has violations to
/// find), with an unbounded and a 2 s-windowed verifier attached.
///
/// Unbounded, the three ways agree exactly, violation lists included.
/// Windowed, the verifier may only under-report: its convergence report
/// is the oracle's (convergence evicts nothing on a watermark), its
/// violations are a subset of the oracle's, and it evicts more. Its
/// exact output is pinned: the values below are what the operators
/// produced when their state was kept in ordered maps, so a table whose
/// order leaked into a count or a list moves them. Like the lines of
/// `tests/trace_golden.rs`, they move with a deliberate protocol change
/// and with nothing else.
#[test]
fn oracle_whole_trace_and_online_agree_at_trace_check_scale() {
    let scheme = Scheme::Eventual {
        replicas: 3,
        eager: true,
        gossip: Some((Duration::from_millis(50), 1)),
        mode: ConflictMode::Lww,
        guarantees: Guarantees::none(),
        placement: ClientPlacement::Random,
    };
    let experiment = Experiment::new(scheme)
        .workload(trace_check_workload())
        .latency(LatencyModel::lan())
        .faults(faults())
        .seed(12)
        .horizon(SimTime::from_secs(20));
    let config = StreamConfig::default();
    let windowed_config = StreamConfig { window: Some(Duration::from_secs(2)), ..config };
    let mut unbounded = StreamVerifier::new(config);
    let mut windowed = StreamVerifier::new(windowed_config);
    let result = experiment.run_monitored(&mut |ops, _now| {
        unbounded.feed_slice(ops);
        windowed.feed_slice(ops);
    });
    let (unbounded, windowed) = (unbounded.finish(), windowed.finish());
    let trace = &result.trace;
    assert_eq!(trace.len(), 8 * 1_500, "every scripted op completes");

    let (reference, flagged) = oracle::judge(trace, config.grace);
    let whole_trace = (
        check_session_guarantees(trace),
        measure_staleness(trace),
        check_monotonic_values(trace),
        check_convergence(trace, config.grace),
    );
    assert_eq!(whole_trace, reference, "whole-trace checkers disagree with the oracle");
    assert!(unbounded.violations == flagged, "online violations differ from the oracle's");
    let online =
        (unbounded.session, unbounded.staleness, unbounded.monotonic, unbounded.convergence);
    assert_eq!(online, reference, "online verifier disagrees with the oracle");
    let c = reference.3.as_ref().expect("writes were acknowledged");
    let written = c.converged_keys + c.unverified_keys + c.diverged.len() as u64;
    assert!(written > 1_000, "only {written} keys written: the tables stayed small");

    assert_eq!(windowed.convergence, reference.3, "windowing changed the convergence report");
    let mut rest = flagged.iter();
    for v in &windowed.violations {
        assert!(rest.any(|f| f == v), "the windowed verifier invented {v:?}");
    }
    assert!(windowed.events_evicted > unbounded.events_evicted, "the window evicted nothing");
    let json = serde_json::to_string(&windowed).expect("reports serialise");
    let pinned = (
        flagged.len(),
        unbounded.events_evicted,
        windowed.violations.len(),
        windowed.events_evicted,
        windowed.session.ryw_checked + windowed.session.mr_checked,
        windowed.monotonic.checked,
        fnv1a(&json),
    );
    assert_eq!(
        pinned,
        (1938, 3, 1641, 5238, 5892, 2573, 0x49cc_306a_f5bb_a5f9),
        "the windowed run moved"
    );
}

/// FNV-1a, 64-bit.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
