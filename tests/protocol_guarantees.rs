//! Integration: each protocol delivers (exactly) the consistency class it
//! claims, as judged by the black-box trace checkers.

use rethinking_ec::consistency::{
    check_causal, check_session_guarantees, check_trace_linearizable, measure_staleness,
    LinCheckError,
};
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
use rethinking_ec::simnet::{Duration, LatencyModel, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn contended_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 16,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 4_000 },
        sessions: 6,
        ops_per_session: 50,
    }
}

fn jittery_lan() -> LatencyModel {
    LatencyModel::Uniform { min: Duration::from_millis(1), max: Duration::from_millis(10) }
}

fn roaming_eventual(guarantees: Guarantees) -> Scheme {
    Scheme::Eventual {
        replicas: 3,
        eager: false,
        gossip: Some((Duration::from_millis(100), 1)),
        mode: ConflictMode::Lww,
        guarantees,
        placement: ClientPlacement::Random,
    }
}

fn run(scheme: Scheme, seed: u64) -> rethinking_ec::core::RunResult {
    Experiment::new(scheme)
        .workload(contended_workload())
        .latency(jittery_lan())
        .seed(seed)
        .horizon(SimTime::from_secs(300))
        .run()
}

#[test]
fn paxos_is_linearizable() {
    let res = run(Scheme::Paxos { nodes: 3 }, 1);
    assert!(res.trace.success_rate() > 0.99);
    check_trace_linearizable(&res.trace).expect("paxos history must linearize");
}

#[test]
fn paxos_under_loss_is_still_linearizable() {
    use rethinking_ec::simnet::FaultSchedule;
    let workload =
        WorkloadSpec { keys: 48, distribution: KeyDistribution::Uniform, ..contended_workload() };
    let res = Experiment::new(Scheme::Paxos { nodes: 3 })
        .workload(workload)
        .latency(jittery_lan())
        .faults(FaultSchedule::none().loss_rate(SimTime::ZERO, 0.05))
        .seed(2)
        .horizon(SimTime::from_secs(600))
        .run();
    // Some ops may time out under loss; completed ones must linearize.
    check_trace_linearizable(&res.trace).expect("lossy paxos must still linearize");
}

#[test]
fn raw_eventual_with_roaming_clients_violates_session_guarantees() {
    let res = run(roaming_eventual(Guarantees::none()), 3);
    let report = check_session_guarantees(&res.trace);
    assert!(
        report.ryw_violations + report.mr_violations > 0,
        "gossip-lag plus roaming clients must surface session anomalies \
         (otherwise E3 has nothing to measure): {report:?}"
    );
}

#[test]
fn enforced_session_guarantees_hold_under_roaming() {
    let res = run(roaming_eventual(Guarantees::all()), 3);
    let report = check_session_guarantees(&res.trace);
    assert_eq!(report.ryw_violations, 0, "{report:?}");
    assert_eq!(report.mr_violations, 0, "{report:?}");
    assert_eq!(report.mw_violations, 0, "{report:?}");
    assert_eq!(report.wfr_violations, 0, "{report:?}");
    assert!(report.ryw_checked > 0, "the checker must actually have checked something");
}

#[test]
fn causal_protocol_produces_causally_clean_traces() {
    let res = run(Scheme::Causal { replicas: 3 }, 4);
    let report = check_causal(&res.trace);
    assert!(report.clean(), "causal broadcast must not admit causal anomalies: {report:?}");
    assert!(report.checked > 0);
    // And session guarantees hold for sticky clients on a causal store.
    let sess = check_session_guarantees(&res.trace);
    assert!(sess.clean(), "{sess:?}");
}

#[test]
fn intersecting_quorums_never_read_stale() {
    let res = run(Scheme::quorum(3, 2, 2), 5);
    let st = measure_staleness(&res.trace);
    assert_eq!(st.stale_reads, 0, "R+W>N must serve fresh reads");
    assert!(st.fresh_reads > 0);
}

#[test]
fn partial_quorums_admit_staleness_under_jitter() {
    // Heavier tail + tighter loop than the default: the PBS regime.
    let workload = WorkloadSpec {
        keys: 5,
        arrival: Arrival::Closed { think_us: 500 },
        sessions: 10,
        ops_per_session: 120,
        ..contended_workload()
    };
    let res = Experiment::new(Scheme::quorum(3, 1, 1))
        .workload(workload)
        .latency(LatencyModel::LogNormal { median: Duration::from_millis(3), sigma: 1.2 })
        .seed(42)
        .horizon(SimTime::from_secs(300))
        .run();
    let st = measure_staleness(&res.trace);
    assert!(
        st.stale_reads > 0,
        "R=W=1 under heavy-tailed latency must show stale reads (E1's premise)"
    );
}

#[test]
fn primary_sync_serves_fresh_backup_reads() {
    let res = run(Scheme::PrimarySync { replicas: 3 }, 6);
    let st = measure_staleness(&res.trace);
    assert_eq!(st.stale_reads, 0, "sync primary-copy backups cannot lag");
}

#[test]
fn primary_async_staleness_grows_with_lag() {
    let p_stale = |lag_ms: u64| {
        let res = run(
            Scheme::PrimaryAsync { replicas: 3, ship_interval: Duration::from_millis(lag_ms) },
            7,
        );
        measure_staleness(&res.trace).p_stale()
    };
    let fast = p_stale(10);
    let slow = p_stale(400);
    assert!(slow > fast + 0.05, "staleness must grow with replication lag: {fast} vs {slow}");
}

#[test]
fn sibling_mode_surfaces_conflicts_instead_of_losing_them() {
    let scheme = Scheme::Eventual {
        replicas: 3,
        eager: true,
        gossip: Some((Duration::from_millis(20), 2)),
        mode: ConflictMode::Siblings,
        guarantees: Guarantees::none(),
        placement: ClientPlacement::Sticky,
    };
    let res = run(scheme, 8);
    // With concurrent writers on hot keys, some read must have returned
    // more than one sibling — and the linearizability checker must flag
    // the trace as a (multi-value) non-register.
    let multi = res.trace.records().iter().any(|r| r.value_read.len() > 1);
    assert!(multi, "hot concurrent writes must produce visible siblings");
    assert!(matches!(
        check_trace_linearizable(&res.trace),
        Err(LinCheckError::NotLinearizable { .. })
    ));
}
