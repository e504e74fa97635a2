//! Integration: miniature versions of the E1, E2, E9 and E10 experiments
//! asserting the *shapes* EXPERIMENTS.md records (who wins, what grows
//! with what), each on a fresh small run rather than on the committed
//! rows. `crates/bench/tests/experiments_doc.rs` states the same shapes
//! as predicates over the committed, full-size results; E6's per-replica
//! CRDT check runs as the closure cells of `tests/grid_determinism.rs`.

use rethinking_ec::consistency::measure_staleness;
use rethinking_ec::core::metrics::latency_summary;
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::simnet::{Duration, LatencyModel, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn pbs_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 5,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 500 },
        sessions: 10,
        ops_per_session: 100,
    }
}

fn heavy_tail() -> LatencyModel {
    LatencyModel::LogNormal { median: Duration::from_millis(3), sigma: 1.2 }
}

/// E1 shape: staleness decreases as R (or W) grows; zero when R+W>N.
#[test]
fn e1_shape_staleness_monotone_in_quorum_size() {
    let p_stale = |r: usize, w: usize| {
        let res = Experiment::new(Scheme::Quorum {
            n: 3,
            r,
            w,
            read_repair: false,
            placement: ClientPlacement::Random,
        })
        .workload(pbs_workload())
        .latency(heavy_tail())
        .seed(42)
        .horizon(SimTime::from_secs(300))
        .run();
        measure_staleness(&res.trace).p_stale()
    };
    let p11 = p_stale(1, 1);
    let p21 = p_stale(2, 1);
    let p22 = p_stale(2, 2);
    assert!(p11 > 0.0, "R=W=1 must be stale sometimes");
    assert!(p11 >= p21, "raising R cannot increase staleness: {p11} vs {p21}");
    assert_eq!(p22, 0.0, "intersecting quorums read fresh");
}

/// E2 shape: in a geo deployment, local-read schemes beat quorum reads by
/// an order of magnitude; Paxos writes cost at least a WAN majority trip.
#[test]
fn e2_shape_geo_latency_ordering() {
    let workload = WorkloadSpec {
        keys: 20,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 30_000 },
        sessions: 5,
        ops_per_session: 40,
    };
    let read_p50 = |scheme: Scheme| {
        let res = Experiment::new(scheme)
            .workload(workload.clone())
            .latency(LatencyModel::geo_five_regions(5))
            .seed(9)
            .horizon(SimTime::from_secs(300))
            .run();
        latency_summary(&res.trace).reads.p50
    };
    let eventual = read_p50(Scheme::eventual(5));
    let quorum = read_p50(Scheme::quorum(5, 3, 3));
    let paxos = read_p50(Scheme::Paxos { nodes: 5 });
    assert!(
        eventual * 10.0 < quorum,
        "local reads must be >=10x faster than WAN quorum reads: {eventual} vs {quorum}"
    );
    assert!(paxos > 50.0, "paxos reads pay a WAN majority commit: {paxos}ms");
}

/// E9 shape: staleness probability grows monotonically with shipping lag.
#[test]
fn e9_shape_staleness_grows_with_lag() {
    let workload = WorkloadSpec {
        keys: 10,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 10_000 },
        sessions: 6,
        ops_per_session: 80,
    };
    let p = |lag: u64| {
        let res = Experiment::new(Scheme::PrimaryAsync {
            replicas: 3,
            ship_interval: Duration::from_millis(lag),
        })
        .workload(workload.clone())
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(5),
        })
        .seed(13)
        .horizon(SimTime::from_secs(120))
        .run();
        measure_staleness(&res.trace).p_stale()
    };
    let p10 = p(10);
    let p100 = p(100);
    let p400 = p(400);
    assert!(p10 < p100 && p100 < p400, "{p10} < {p100} < {p400} expected");
}

/// E10 shape: async writes ack in ~1 RTT; sync/quorum/paxos pay ~2 RTT.
#[test]
fn e10_shape_synchrony_costs_round_trips() {
    let workload = WorkloadSpec {
        keys: 50,
        distribution: KeyDistribution::Uniform,
        mix: OpMix::write_only(),
        arrival: Arrival::Closed { think_us: 1_000 },
        sessions: 4,
        ops_per_session: 60,
    };
    let write_p50 = |scheme: Scheme| {
        let res = Experiment::new(scheme)
            .workload(workload.clone())
            .latency(LatencyModel::Constant(Duration::from_millis(5)))
            .seed(3)
            .horizon(SimTime::from_secs(120))
            .run();
        latency_summary(&res.trace).writes.p50
    };
    let asynchronous =
        write_p50(Scheme::PrimaryAsync { replicas: 3, ship_interval: Duration::from_millis(50) });
    let sync = write_p50(Scheme::PrimarySync { replicas: 3 });
    let quorum = write_p50(Scheme::quorum(3, 2, 2));
    // 1 RTT = 10ms; 2 RTT = 20ms.
    assert!((9.0..12.0).contains(&asynchronous), "async ~1 RTT, got {asynchronous}");
    assert!(sync >= 19.0, "sync >= 2 RTT, got {sync}");
    assert!(quorum >= 19.0, "majority quorum >= 2 RTT, got {quorum}");
}
