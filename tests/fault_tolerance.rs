//! Integration: behaviour under partitions, crashes, and message loss —
//! the CAP trade-offs, end to end.

use rethinking_ec::core::metrics::availability_timeline;
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, OpKind, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn workload(sessions: u32, ops: u32) -> WorkloadSpec {
    WorkloadSpec {
        keys: 10,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 50_000 },
        sessions,
        ops_per_session: ops,
    }
}

/// Partition replica 0 together with its sticky clients from t=5s to 10s.
fn partition_side_a(n_replicas: usize, sessions: u32) -> FaultSchedule {
    let mut side_a = vec![NodeId(0)];
    for c in 0..sessions as usize {
        if c % n_replicas == 0 {
            side_a.push(NodeId((n_replicas + c) as u32));
        }
    }
    FaultSchedule::none().partition(side_a, SimTime::from_secs(5), SimTime::from_secs(10))
}

fn run_partitioned(scheme: Scheme, seed: u64) -> rethinking_ec::core::RunResult {
    let n = scheme.replica_count();
    Experiment::new(scheme)
        .workload(workload(6, 260))
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(partition_side_a(n, 6))
        .seed(seed)
        .horizon(SimTime::from_secs(25))
        .run()
}

fn availability_during(res: &rethinking_ec::core::RunResult, lo_ms: f64, hi_ms: f64) -> f64 {
    let tl = availability_timeline(&res.trace, Duration::from_secs(1));
    let window: Vec<f64> =
        tl.iter().filter(|(t, _)| (lo_ms..hi_ms).contains(t)).map(|(_, a)| *a).collect();
    if window.is_empty() {
        1.0
    } else {
        window.iter().sum::<f64>() / window.len() as f64
    }
}

#[test]
fn eventual_stays_fully_available_through_partition() {
    let res = run_partitioned(Scheme::eventual(3), 1);
    assert!(
        availability_during(&res, 5_000.0, 10_000.0) > 0.999,
        "AP system must not notice the partition"
    );
}

#[test]
fn majority_quorum_loses_minority_side_only() {
    let scheme =
        Scheme::Quorum { n: 3, r: 2, w: 2, read_repair: true, placement: ClientPlacement::Sticky };
    let res = run_partitioned(scheme, 2);
    let during = availability_during(&res, 5_000.0, 10_000.0);
    assert!(during < 0.999, "majority quorum must lose the minority side ({during})");
    assert!(during > 0.5, "...but the majority side keeps serving ({during})");
    // Full recovery after the heal.
    assert!(availability_during(&res, 11_000.0, 25_000.0) > 0.999);
}

#[test]
fn primary_sync_write_availability_collapses_when_primary_isolated() {
    let res = run_partitioned(Scheme::PrimarySync { replicas: 3 }, 3);
    // During the partition the primary can reach no backup: every write
    // fails (minority clients also lose reads).
    let writes_during_partition: Vec<bool> = res
        .trace
        .records()
        .iter()
        .filter(|r| {
            r.kind == OpKind::Write
                && r.invoked >= SimTime::from_secs(5)
                && r.invoked < SimTime::from_millis(9_500)
        })
        .map(|r| r.ok)
        .collect();
    assert!(!writes_during_partition.is_empty());
    assert!(
        writes_during_partition.iter().all(|ok| !ok),
        "sync primary cut off from all backups must fail every write"
    );
}

#[test]
fn quorum_heals_and_converges_after_partition() {
    // After the heal, a majority write is visible to majority reads from
    // every coordinator (read repair + intersection).
    let scheme =
        Scheme::Quorum { n: 3, r: 2, w: 2, read_repair: true, placement: ClientPlacement::Sticky };
    let res = run_partitioned(scheme, 4);
    let late_reads: Vec<_> = res
        .trace
        .records()
        .iter()
        .filter(|r| r.kind == OpKind::Read && r.invoked > SimTime::from_secs(12))
        .collect();
    assert!(!late_reads.is_empty());
    assert!(late_reads.iter().all(|r| r.ok), "post-heal reads must all succeed");
}

#[test]
fn paxos_survives_leader_crash() {
    let faults =
        FaultSchedule::none().crash(NodeId(0), SimTime::from_secs(3), SimTime::from_secs(60));
    let res = Experiment::new(Scheme::Paxos { nodes: 3 })
        .workload(workload(4, 200))
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(faults)
        .seed(5)
        .horizon(SimTime::from_secs(60))
        .run();
    // Ops issued well after the crash (failover done) must succeed.
    let late: Vec<_> =
        res.trace.records().iter().filter(|r| r.invoked > SimTime::from_secs(10)).collect();
    assert!(!late.is_empty());
    let ok = late.iter().filter(|r| r.ok).count();
    assert!(
        ok as f64 / late.len() as f64 > 0.95,
        "post-failover paxos must serve ({}/{} ok)",
        ok,
        late.len()
    );
}

#[test]
fn gossip_repairs_divergence_after_partition_heals() {
    // Eventual store with gossip: writes land on *both sides* of a
    // partition (guaranteed divergence), and after the heal late pollers
    // at every replica must observe identical values — the formal
    // convergence predicate, client-observed.
    use rethinking_ec::replication::common::{ScriptOp, TargetPolicy};
    use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, GossipConfig};
    use rethinking_ec::replication::kernel::{Composition, ResolutionPolicy};
    use rethinking_ec::replication::sink;
    use rethinking_ec::simnet::{Sim, SimConfig};

    let trace = sink::shared_trace();
    let cfg = Composition::eventual(
        3,
        true,
        Some(GossipConfig { interval: Duration::from_millis(50), fanout: 2 }),
        ResolutionPolicy::LwwRegister,
    );
    let mut sim = Sim::new(
        SimConfig::default()
            .seed(6)
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(8),
            })
            // Replica 0 + the first writer (node 3) are cut off 1s–3s.
            .faults(FaultSchedule::none().partition(
                vec![NodeId(0), NodeId(3)],
                SimTime::from_secs(1),
                SimTime::from_secs(3),
            )),
    );
    for _ in 0..3 {
        sim.add_node(Box::new(EventualReplica::new(&cfg)));
    }
    // Two writers hammer the same keys on opposite partition sides.
    for (session, home) in [(1u64, 0u32), (2, 1)] {
        let script: Vec<ScriptOp> =
            (0..40).map(|i| ScriptOp { gap_us: 50_000, kind: OpKind::Write, key: i % 5 }).collect();
        sim.add_node(Box::new(EventualClient::new(
            session,
            script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(home)),
            Guarantees::none(),
        )));
    }
    // Late pollers at every replica read every key at t = 8s.
    for (session, home) in [(10u64, 0u32), (11, 1), (12, 2)] {
        let script: Vec<ScriptOp> =
            (0..5).map(|k| ScriptOp { gap_us: 8_000_000, kind: OpKind::Read, key: k }).collect();
        sim.add_node(Box::new(EventualClient::new(
            session,
            script,
            trace.clone(),
            &cfg,
            TargetPolicy::Sticky(NodeId(home)),
            Guarantees::none(),
        )));
    }
    sim.run_until(SimTime::from_secs(60));
    let t = trace.borrow();
    let report = rethinking_ec::consistency::check_convergence(&t, Duration::from_secs(2))
        .expect("writes happened");
    assert!(report.converged(), "replicas diverged after quiescence: {:?}", report.diverged);
    assert_eq!(report.converged_keys, 5, "all five keys verified at all replicas");
}

/// Crash replica 1 of a majority quorum at 3s, recover at 8s, in the
/// given recovery mode, with counters on.
fn run_quorum_crash(amnesia: bool, seed: u64) -> rethinking_ec::core::RunResult {
    let at = SimTime::from_secs(3);
    let until = SimTime::from_secs(8);
    let faults = if amnesia {
        FaultSchedule::none().crash_amnesia(NodeId(1), at, until)
    } else {
        FaultSchedule::none().crash(NodeId(1), at, until)
    };
    Experiment::new(Scheme::quorum(3, 2, 2))
        .workload(workload(4, 200))
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(faults)
        .seed(seed)
        .horizon(SimTime::from_secs(25))
        .recorder(rethinking_ec::obs::Recorder::enabled())
        .run()
}

#[test]
fn quorum_survives_fail_pause_crash() {
    use rethinking_ec::obs::Counter;
    let res = run_quorum_crash(false, 8);
    // Fail-pause: the replica comes back with its memory intact — no
    // amnesia recovery, no WAL replay.
    assert_eq!(res.metrics.counter(Counter::AmnesiaRecoveries), 0);
    assert_eq!(res.metrics.counter(Counter::WalReplayedRecords), 0);
    let staleness = rethinking_ec::consistency::measure_staleness(&res.trace);
    assert_eq!(staleness.stale_reads, 0, "R+W>N must stay fresh through a fail-pause crash");
    assert!(availability_during(&res, 12_000.0, 25_000.0) > 0.999, "full recovery after restart");
}

#[test]
fn quorum_survives_amnesia_crash_by_replaying_its_wal() {
    use rethinking_ec::obs::Counter;
    let res = run_quorum_crash(true, 8);
    // Amnesia: volatile state is wiped; the store must be rebuilt from
    // the durable log (the replica had adopted writes before 3s, so the
    // replay is non-trivial).
    assert_eq!(res.metrics.counter(Counter::AmnesiaRecoveries), 1);
    assert!(
        res.metrics.counter(Counter::WalReplayedRecords) > 0,
        "amnesia recovery must replay the WAL"
    );
    // Every version the restarted replica acked before the crash was
    // logged before it was applied, so R+W>N intersection still holds:
    // no acked write may be forgotten.
    let staleness = rethinking_ec::consistency::measure_staleness(&res.trace);
    assert_eq!(staleness.stale_reads, 0, "WAL replay must preserve every acked write");
    assert!(availability_during(&res, 12_000.0, 25_000.0) > 0.999, "full recovery after replay");
}

#[test]
fn amnesia_and_fail_pause_agree_on_client_outcomes_for_paxos() {
    // Paxos keeps its acceptor state (promised/accepted/committed) on
    // stable storage, so client-visible safety is identical in both
    // recovery modes: linearizable either way, and ops issued well after
    // the restart succeed.
    for amnesia in [false, true] {
        let at = SimTime::from_secs(3);
        let until = SimTime::from_secs(7);
        let faults = if amnesia {
            FaultSchedule::none().crash_amnesia(NodeId(2), at, until)
        } else {
            FaultSchedule::none().crash(NodeId(2), at, until)
        };
        let res = Experiment::new(Scheme::Paxos { nodes: 3 })
            .workload(workload(4, 220))
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(8),
            })
            .faults(faults)
            .seed(9)
            .horizon(SimTime::from_secs(60))
            .run();
        rethinking_ec::consistency::check_trace_linearizable(&res.trace)
            .unwrap_or_else(|e| panic!("paxos (amnesia={amnesia}) not linearizable: {e:?}"));
        let late: Vec<_> =
            res.trace.records().iter().filter(|r| r.invoked > SimTime::from_secs(8)).collect();
        assert!(!late.is_empty());
        let ok = late.iter().filter(|r| r.ok).count();
        assert!(
            ok as f64 / late.len() as f64 > 0.95,
            "paxos (amnesia={amnesia}) must keep serving after restart ({ok}/{})",
            late.len()
        );
    }
}

/// Sloppy quorum under a partition that cuts two of the three home
/// replicas: writes fall through to hint-holding spares, and after the
/// heal every hint drains to its home replica. The conservation
/// identity `hints_stored == hints_drained + hints_dropped` is the
/// ledger: a hint that neither drained nor was accounted lost is a
/// silently vanished write.
#[test]
fn hinted_handoff_conserves_hints_and_lands_them_home() {
    use rethinking_ec::obs::Counter;
    let res = Experiment::new(Scheme::SloppyQuorum { n: 3, r: 2, w: 2, spares: 2 })
        .workload(WorkloadSpec {
            keys: 10,
            distribution: KeyDistribution::Uniform,
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 50_000 },
            sessions: 3,
            ops_per_session: 240,
        })
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(FaultSchedule::none().partition(
            vec![NodeId(1), NodeId(2)],
            SimTime::from_secs(1),
            SimTime::from_secs(4),
        ))
        .seed(13)
        .horizon(SimTime::from_secs(25))
        .recorder(rethinking_ec::obs::Recorder::enabled())
        .run();

    let stored = res.metrics.counter(Counter::HintsStored);
    let drained = res.metrics.counter(Counter::HintsDrained);
    let dropped = res.metrics.counter(Counter::HintsDropped);
    assert!(stored > 0, "cutting two of three homes must force hinted writes");
    assert_eq!(
        stored,
        drained + dropped,
        "hint ledger must balance: stored={stored} drained={drained} dropped={dropped}"
    );
    assert_eq!(dropped, 0, "no amnesia and a long post-heal tail: every hint must drain");

    // Spares (ids 3, 4) park hints in a side table, never in their
    // store: a key in a spare's store would be a misdelivered write.
    assert!(
        res.final_versions.iter().all(|&(node, _, _)| node.0 < 3),
        "spares must hold hints, not store copies: {:?}",
        res.final_versions
    );
    // And the drained hints landed: the cut homes hold every key the
    // always-connected home holds (drain + post-heal read repair).
    for home in [1u32, 2] {
        for &(node, key, _) in &res.final_versions {
            if node.0 == 0 {
                assert!(
                    res.final_versions.iter().any(|&(n, k, _)| n.0 == home && k == key),
                    "home {home} never received key {key} (hint lost in flight)"
                );
            }
        }
    }
}

/// The same ledger holds on a consistent-hashing ring, where spares are
/// the next distinct nodes on the key's hash walk rather than dedicated
/// hint parks — and at the horizon every key's ring owners agree
/// (ownership-aware convergence).
#[test]
fn ring_hinted_handoff_conserves_hints_and_owners_converge() {
    use rethinking_ec::consistency::check_owner_convergence;
    use rethinking_ec::core::scheme::ChurnPlan;
    use rethinking_ec::obs::Counter;
    use rethinking_ec::replication::sharded::Ring;
    use rethinking_ec::replication::Composition;

    let nodes = 8;
    let ring = Ring::new(3, 16, (0..nodes as u32).map(NodeId));
    // Cut two owners of key 0 so writes to it must hint to ring spares.
    let cut = ring.owners(0);
    let res = Experiment::new(Scheme::Sharded {
        inner: Composition::quorum(3, 2, 2, true, 2),
        nodes,
        vnodes: 16,
        churn: ChurnPlan::none(),
    })
    .workload(WorkloadSpec {
        keys: 10,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 50_000 },
        sessions: 3,
        ops_per_session: 240,
    })
    .latency(LatencyModel::Uniform { min: Duration::from_millis(1), max: Duration::from_millis(8) })
    .faults(FaultSchedule::none().partition(
        vec![cut[0], cut[1]],
        SimTime::from_secs(1),
        SimTime::from_secs(4),
    ))
    .seed(17)
    .horizon(SimTime::from_secs(25))
    .recorder(rethinking_ec::obs::Recorder::enabled())
    .run();

    let stored = res.metrics.counter(Counter::HintsStored);
    let drained = res.metrics.counter(Counter::HintsDrained);
    let dropped = res.metrics.counter(Counter::HintsDropped);
    assert!(stored > 0, "cutting two owners of key 0 must force hinted writes");
    assert_eq!(
        stored,
        drained + dropped,
        "ring hint ledger must balance: stored={stored} drained={drained} dropped={dropped}"
    );

    // Ownership-aware convergence: at the horizon, every key's ring
    // owners hold the same version (hints drained home, read repair
    // healed the partition-era divergence).
    let server_versions: Vec<_> =
        res.final_versions.iter().copied().filter(|&(n, _, _)| n.index() < nodes).collect();
    let report = check_owner_convergence(&server_versions, |k| ring.owners(k));
    assert!(report.converged(), "ring owners diverged at horizon: {:?}", report.diverged);
}

#[test]
fn message_loss_slows_but_does_not_wedge_quorums() {
    let faults = FaultSchedule::none().loss_rate(SimTime::ZERO, 0.10);
    let res = Experiment::new(Scheme::quorum(3, 2, 2))
        .workload(workload(4, 80))
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(faults)
        .seed(7)
        .horizon(SimTime::from_secs(120))
        .run();
    // 10% loss: some coordinator ops fail (no retransmit in the protocol,
    // failures surface) but the system keeps making progress.
    assert!(res.trace.success_rate() > 0.6, "rate {}", res.trace.success_rate());
    assert!(res.dropped_messages > 0);
}
