//! Property sweep: protocol guarantees hold across 100+ random seeds and
//! randomized fault schedules, not just the experiments' pet seeds.
//!
//! Each property runs its cells through [`rec_core::par_map`] — the same
//! work-stealing pool the grid runner uses — so this suite doubles as a
//! soak test of the parallel harness itself. Asserted invariants:
//!
//! * strict quorums (R+W>N) never serve a stale read in a fault-free run;
//! * causal sessions (sticky placement) never violate read-your-writes,
//!   even under random partitions and message loss;
//! * an eventual store converges after the fault horizon: once writes
//!   stop and the partition heals, all post-quiescence reads agree;
//! * per-cell message conservation: delivered + dropped never exceeds
//!   sent.

use rethinking_ec::consistency::{check_convergence, check_session_guarantees, measure_staleness};
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{default_jobs, par_map, Experiment, Scheme};
use rethinking_ec::obs::{Counter, Recorder};
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimRng, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

const SEEDS: u64 = 100;

fn sweep_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 6,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 2_000 },
        sessions: 3,
        ops_per_session: 20,
    }
}

/// A randomized fault schedule drawn from the cell's own seed: one
/// partition cutting a random replica off for a random window inside
/// [1s, 9s], plus an optional lossy spell, everything healed well before
/// the 30s horizon.
fn random_faults(seed: u64, replicas: usize) -> FaultSchedule {
    let mut rng = SimRng::new(seed ^ 0xfa57_5eed);
    let victim = NodeId(rng.range(0, replicas as u64) as u32);
    let start_ms = rng.range(1_000, 5_000);
    let end_ms = start_ms + rng.range(500, 4_000);
    let mut faults = FaultSchedule::none().partition(
        vec![victim],
        SimTime::from_millis(start_ms),
        SimTime::from_millis(end_ms),
    );
    if rng.unit() < 0.5 {
        let p = rng.unit() * 0.2;
        let at = SimTime::from_millis(rng.range(1_000, 6_000));
        let heal = SimTime::from_millis(end_ms + 1_000);
        faults = faults.loss_rate(at, p).loss_rate(heal, 0.0);
    }
    faults
}

fn base(scheme: Scheme, seed: u64) -> Experiment {
    Experiment::new(scheme)
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .workload(sweep_workload())
        .seed(seed)
        .recorder(Recorder::enabled())
        .horizon(SimTime::from_secs(30))
}

/// The conservation identity from docs/METRICS.md: every sent message is
/// eventually delivered or dropped (in-flight messages at the horizon are
/// recorded as `shutdown` drops during simulator teardown, which happens
/// after the runner snapshots its own drop tally — hence `>=` there).
fn assert_message_conservation(res: &rethinking_ec::core::RunResult, seed: u64) {
    let sent = res.metrics.counter(Counter::MessagesSent);
    let delivered = res.metrics.counter(Counter::MessagesDelivered);
    let dropped = res.metrics.counter(Counter::MessagesDropped);
    assert_eq!(
        sent,
        delivered + dropped,
        "seed {seed}: conservation violated (sent != delivered {delivered} + dropped {dropped})"
    );
    assert_eq!(delivered, res.delivered_messages, "seed {seed}: delivered counter mismatch");
    assert!(dropped >= res.dropped_messages, "seed {seed}: recorder lost drops");
}

#[test]
fn strict_quorums_never_stale_without_faults() {
    let seeds: Vec<u64> = (0..SEEDS).map(|s| 0x1000 + s * 7).collect();
    let violations = par_map(&seeds, default_jobs(), |_, &seed| {
        let res = base(
            Scheme::Quorum {
                n: 3,
                r: 2,
                w: 2,
                read_repair: true,
                placement: ClientPlacement::Sticky,
            },
            seed,
        )
        .run();
        assert_message_conservation(&res, seed);
        let st = measure_staleness(&res.trace);
        (seed, st.stale_reads, st.fresh_reads + st.stale_reads)
    });
    for (seed, stale, classified) in &violations {
        assert_eq!(
            *stale, 0,
            "seed {seed}: R+W>N served {stale} stale reads (of {classified} classified)"
        );
    }
    // The property must not pass vacuously: the sweep classified reads.
    let classified: u64 = violations.iter().map(|(_, _, c)| c).sum();
    assert!(classified > SEEDS, "sweep produced almost no classifiable reads");
}

#[test]
fn causal_sessions_keep_read_your_writes_under_random_faults() {
    let seeds: Vec<u64> = (0..SEEDS).map(|s| 0x2000 + s * 13).collect();
    let reports = par_map(&seeds, default_jobs(), |_, &seed| {
        let res = base(Scheme::Causal { replicas: 3 }, seed).faults(random_faults(seed, 3)).run();
        assert_message_conservation(&res, seed);
        (seed, check_session_guarantees(&res.trace))
    });
    let mut checked = 0u64;
    for (seed, rep) in &reports {
        assert_eq!(
            rep.ryw_violations, 0,
            "seed {seed}: causal session violated read-your-writes \
             ({} of {} checks)",
            rep.ryw_violations, rep.ryw_checked
        );
        checked += rep.ryw_checked;
    }
    assert!(checked > SEEDS, "sweep exercised almost no RYW checks");
}

#[test]
fn eventual_store_converges_after_fault_horizon() {
    use rethinking_ec::replication::common::{Guarantees, ScriptOp, TargetPolicy};
    use rethinking_ec::replication::eventual::{EventualClient, EventualReplica, GossipConfig};
    use rethinking_ec::replication::kernel::{Composition, ResolutionPolicy};
    use rethinking_ec::replication::sink;
    use rethinking_ec::simnet::{OpKind, Sim, SimConfig};

    const KEYS: u64 = 5;
    let seeds: Vec<u64> = (0..SEEDS).map(|s| 0x3000 + s * 17).collect();
    let outcomes = par_map(&seeds, default_jobs(), |_, &seed| {
        // Two writers hammer the same keys from opposite sides of a
        // random partition (guaranteed divergence while it holds); late
        // pollers at every replica read every key at t = 12s, after the
        // fault horizon (all faults heal by t = 10s).
        let trace = sink::shared_trace();
        let cfg = Composition::eventual(
            3,
            true,
            Some(GossipConfig { interval: Duration::from_millis(50), fanout: 2 }),
            ResolutionPolicy::LwwRegister,
        );
        let rec = Recorder::enabled();
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(8),
                })
                .faults(random_faults(seed, 3))
                .recorder(rec.clone()),
        );
        for _ in 0..3 {
            sim.add_node(Box::new(EventualReplica::new(&cfg)));
        }
        for (session, home) in [(1u64, 0usize), (2, 1)] {
            let script: Vec<ScriptOp> = (0..30)
                .map(|i| ScriptOp { gap_us: 50_000, kind: OpKind::Write, key: i % KEYS })
                .collect();
            sim.add_node(Box::new(EventualClient::new(
                session,
                script,
                trace.clone(),
                &cfg,
                TargetPolicy::Sticky(NodeId(home as u32)),
                Guarantees::none(),
            )));
        }
        for (session, home) in [(10u64, 0usize), (11, 1), (12, 2)] {
            let script: Vec<ScriptOp> = (0..KEYS)
                .map(|k| ScriptOp { gap_us: 12_000_000, kind: OpKind::Read, key: k })
                .collect();
            sim.add_node(Box::new(EventualClient::new(
                session,
                script,
                trace.clone(),
                &cfg,
                TargetPolicy::Sticky(NodeId(home as u32)),
                Guarantees::none(),
            )));
        }
        sim.run_until(SimTime::from_secs(90));
        drop(sim); // flush in-flight messages into the drop tally
        let report = rec.report();
        let sent = report.counter(Counter::MessagesSent);
        let delivered = report.counter(Counter::MessagesDelivered);
        let dropped = report.counter(Counter::MessagesDropped);
        assert_eq!(sent, delivered + dropped, "seed {seed}: message conservation violated");
        let t = trace.borrow().clone();
        (seed, check_convergence(&t, Duration::from_secs(2)))
    });
    for (seed, rep) in &outcomes {
        let rep = rep.as_ref().expect("writers acked writes");
        assert!(
            rep.converged(),
            "seed {seed}: {} keys diverged after quiescence: {:?}",
            rep.diverged.len(),
            rep.diverged
        );
        assert_eq!(rep.converged_keys, KEYS, "seed {seed}: every key verified at all replicas");
    }
}
