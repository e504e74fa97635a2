//! Integration: a cross-commit pin of what every deployment does.
//!
//! `scheme_parity` and `ring_parity` compare two paths *within* one
//! commit, so a change that shifts both the same way passes them. This
//! test holds each scheme family still *across* commits: under the
//! `scheme_parity` crash-amnesia + partition nemesis, at two seeds, the
//! FNV-1a digest of the completion-sorted operation trace (JSON), the
//! digest of the JSONL event log, and the run's message / event / stored
//! version counts must equal the values below. One moved RNG draw (every
//! client draws its target on every timer, timeouts included), one
//! re-ordered send or one changed timeout constant moves a line.
//!
//! The values were generated at the commit *before* the `SessionClient`
//! refactor and must only ever change together with a deliberate
//! protocol change. One has since: the two `Siblings` lines were
//! regenerated when sibling-mode replicas stopped minting dots under a
//! shared placeholder id and re-issuing dots after an amnesia restart
//! (both made peers drop live writes as duplicates).

use rethinking_ec::core::fuzz::FuzzScheme;
use rethinking_ec::core::scheme::{ChurnPlan, ClientPlacement};
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::obs::Recorder;
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
use rethinking_ec::replication::Composition;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Every `FuzzScheme` family plus the deployments they leave out: the
/// sharded ring under churn, sibling-mode state, a random-coordinator
/// quorum, sloppy spares, both async primary flavours, and a
/// random-placement eventual session that enforces its guarantees by
/// retrying (the one client path with its own timer).
fn schemes() -> Vec<(String, Scheme)> {
    let eventual = |mode, guarantees, placement| Scheme::Eventual {
        replicas: 3,
        eager: true,
        gossip: Some((Duration::from_millis(50), 1)),
        mode,
        guarantees,
        placement,
    };
    let ship_interval = Duration::from_millis(50);
    FuzzScheme::ALL
        .iter()
        .map(|fs| fs.to_scheme())
        .chain([
            Scheme::Sharded {
                inner: Composition::quorum(3, 2, 2, true, 2),
                nodes: 8,
                vnodes: 8,
                churn: ChurnPlan::rolling(8, Duration::from_secs(2), 3, SimTime::from_secs(1)),
            },
            eventual(ConflictMode::Siblings, Guarantees::none(), ClientPlacement::Sticky),
            Scheme::Quorum {
                n: 5,
                r: 3,
                w: 3,
                read_repair: true,
                placement: ClientPlacement::Random,
            },
            Scheme::SloppyQuorum { n: 3, r: 2, w: 2, spares: 2 },
            Scheme::PrimaryAsync { replicas: 3, ship_interval },
            Scheme::PrimaryAsyncFailover { replicas: 3, ship_interval },
        ])
        .map(|scheme| (scheme.label(), scheme))
        .chain([(
            "eventual(eager+gossip,Lww) random, all guarantees".to_string(),
            eventual(ConflictMode::Lww, Guarantees::all(), ClientPlacement::Random),
        )])
        .collect()
}

fn run_line(label: &str, scheme: Scheme, seed: u64) -> String {
    let recorder = Recorder::with_event_log();
    let result = Experiment::new(scheme)
        .workload(WorkloadSpec {
            keys: 8,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            mix: OpMix::ycsb_a(),
            // Long enough that sessions are mid-operation through both
            // the crash window and the partition (scheme_parity's own
            // workload is over before the first fault).
            arrival: Arrival::Closed { think_us: 40_000 },
            sessions: 3,
            ops_per_session: 120,
        })
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(
            FaultSchedule::none()
                .crash_amnesia(NodeId(1), SimTime::from_millis(800), SimTime::from_millis(1_400))
                .partition(vec![NodeId(0)], SimTime::from_secs(3), SimTime::from_secs(5)),
        )
        .seed(seed)
        .horizon(SimTime::from_secs(20))
        .recorder(recorder.clone())
        .run();
    format!(
        "{label} seed {seed}: trace {:016x}, log {:016x}, delivered {}, dropped {}, events {}, versions {}",
        fnv1a(&serde_json::to_string(result.trace.records()).expect("trace serializes")),
        fnv1a(&recorder.export_jsonl()),
        result.delivered_messages,
        result.dropped_messages,
        result.events,
        result.final_versions.len(),
    )
}

#[test]
fn every_deployment_replays_the_pinned_run() {
    let got: Vec<String> = schemes()
        .into_iter()
        .flat_map(|(label, scheme)| [11u64, 42].map(|seed| run_line(&label, scheme.clone(), seed)))
        .collect();
    #[rustfmt::skip]
    let pinned = [
        "paxos seed 11: trace 5d22ac881354d60a, log 1c94e7a8fc8f7610, delivered 16308, dropped 2775, events 20841, versions 23",
        "paxos seed 42: trace ad9534cccc17a4a0, log 1252e3be0ff73e00, delivered 16420, dropped 2614, events 20963, versions 24",
        "quorum(N=3,R=2,W=2) seed 11: trace 328f37dc5ec4716d, log 9a0b24e9b2cbf630, delivered 2065, dropped 29, events 3146, versions 24",
        "quorum(N=3,R=2,W=2) seed 42: trace 205884ab9db6c018, log 73764a96c6ecd661, delivered 2068, dropped 27, events 3148, versions 24",
        "quorum(N=3,R=1,W=1) seed 11: trace b7e09308067bcf41, log a84c2b5d65266325, delivered 2044, dropped 38, events 3128, versions 24",
        "quorum(N=3,R=1,W=1) seed 42: trace 64e31f201579527d, log f4c73c54807638e1, delivered 2050, dropped 36, events 3133, versions 24",
        "primary-sync seed 11: trace 69654f88f8923dc4, log b38c9876116010af, delivered 1530, dropped 24, events 2847, versions 24",
        "primary-sync seed 42: trace d319764616e297dd, log 6d6e4e2a1e9c4ec9, delivered 1517, dropped 26, events 2834, versions 24",
        "causal seed 11: trace 7ebcdb6292dda481, log 32b75e81d34818e1, delivered 1015, dropped 61, events 1754, versions 24",
        "causal seed 42: trace a09c18ff577341b1, log a3bc70bb50899a94, delivered 1011, dropped 61, events 1748, versions 24",
        "eventual(eager+gossip,Lww) seed 11: trace 45dcef4c105fe144, log 1dc4741191f37844, delivered 3246, dropped 153, events 5187, versions 24",
        "eventual(eager+gossip,Lww) seed 42: trace 794791647a2b3958, log 05890cbc4f397ed6, delivered 3238, dropped 152, events 5172, versions 24",
        "mm+gossip+crdt seed 11: trace 3d32d9c8352cba1a, log f950ffdf355bffe1, delivered 13842, dropped 377, events 16994, versions 24",
        "mm+gossip+crdt seed 42: trace 2c6651bf2f4a5f87, log 95b10a37b2e79f25, delivered 13834, dropped 376, events 16985, versions 24",
        "mm+eager-acked(2)+lww seed 11: trace 4b334f63a4fbbafb, log 483ef2861263e93e, delivered 3654, dropped 103, events 5583, versions 24",
        "mm+eager-acked(2)+lww seed 42: trace 9f8169fc122675d1, log ef6e769cc9861b02, delivered 3644, dropped 110, events 5577, versions 24",
        "ring(8x8,coord+sloppy(R2W2+2)+lww,churn) seed 11: trace 13b1e793f0153430, log 6b170de476bea2b7, delivered 2629, dropped 40, events 3909, versions 30",
        "ring(8x8,coord+sloppy(R2W2+2)+lww,churn) seed 42: trace 82f94bf1d9c30ff5, log e8ce68705c43e32e, delivered 2626, dropped 34, events 3900, versions 28",
        "eventual(eager+gossip,Siblings) seed 11: trace aee52d927ff0882a, log 25f8866bcadd320e, delivered 3246, dropped 153, events 5187, versions 24",
        "eventual(eager+gossip,Siblings) seed 42: trace 3a7597f8430ae62e, log ead4bc7cdf2d9f73, delivered 3238, dropped 152, events 5172, versions 24",
        "quorum(N=5,R=3,W=3) seed 11: trace df9908b0782a42be, log e5f90c3d18e96b0c, delivered 3425, dropped 53, events 4515, versions 40",
        "quorum(N=5,R=3,W=3) seed 42: trace 759d15ecd1525357, log ff0464e399e95fd5, delivered 3477, dropped 34, events 4559, versions 40",
        "sloppy-quorum(N=3,R=2,W=2,+2) seed 11: trace 63e51db7b465e302, log 36e13ad1dc2aa11d, delivered 1963, dropped 94, events 3648, versions 24",
        "sloppy-quorum(N=3,R=2,W=2,+2) seed 42: trace cef14751785faa23, log 1102c992a08f195d, delivered 1961, dropped 94, events 3645, versions 24",
        "primary-async(50ms) seed 11: trace fd0e5b30da49d1fc, log 7eca4d585d3606bd, delivered 1120, dropped 102, events 2257, versions 24",
        "primary-async(50ms) seed 42: trace e081a1f1a1d60f41, log 3c4aa3f0c60ab5c8, delivered 1091, dropped 102, events 2228, versions 24",
        "primary-async-failover(50ms) seed 11: trace 595704c649680b4d, log 553462758802694c, delivered 2738, dropped 413, events 5059, versions 24",
        "primary-async-failover(50ms) seed 42: trace db05ad9f1144f6c6, log cd1c55815e4e892b, delivered 2730, dropped 413, events 5051, versions 24",
        "eventual(eager+gossip,Lww) random, all guarantees seed 11: trace 13ef4c8a3745b44a, log 28acda99252874c0, delivered 3279, dropped 121, events 5208, versions 24",
        "eventual(eager+gossip,Lww) random, all guarantees seed 42: trace 6be190a5ddad74fd, log 5e4193e49aabfee5, delivered 3294, dropped 108, events 5227, versions 24",
    ];
    assert_eq!(got, pinned, "a deployment's seeded run moved (see the module docs)");
}
