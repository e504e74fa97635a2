//! `ring_scale`: the E12 shape at its largest cluster. The same quorum
//! code as `proto_sweep` used differently: 200 actors on a
//! consistent-hash ring, a 100 000-key uniform domain, a ring lookup per
//! op, membership changes fanned out to every actor, and the driver's
//! probe walking 200 stores every 100 ms of virtual time. A gain on the
//! flat path that costs the ring path shows here as a regression.

use super::{account_run, run_counting_allocs, run_marking, ycsb_a};
use crate::harness::{ratio, scaled, timed, Metrics, Pass, Traced, Workload};
use consistency::{check_owner_convergence, measure_staleness};
use obs::{Counter, Recorder};
use rec_core::scheme::ChurnPlan;
use rec_core::{Experiment, Scheme};
use replication::kernel::{Composition, Ring};
use simnet::{Duration, FaultSchedule, NodeId, SimTime};

const NODES: usize = 200;
const VNODES: usize = 16;
const N: usize = 3;
const SPARES: usize = 2;
const KEY_DOMAIN: u64 = 100_000;
const SESSIONS: u32 = 64;
const OPS_PER_SESSION: u64 = 250;
const THINK_US: u64 = 20_000;
const HORIZON_S: u64 = 20;

pub struct RingScale {
    experiment: Experiment,
    key_domain: u64,
}

fn ring() -> Ring {
    Ring::new(N, VNODES, (0..NODES as u32).map(NodeId))
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    // E12's nemesis: cut two owners of key 0 off for three seconds,
    // while a rolling restart takes one node out every three.
    let owners = ring().owners(0);
    let faults = FaultSchedule::none().partition(
        vec![owners[0], owners[1]],
        SimTime::from_secs(4),
        SimTime::from_secs(7),
    );
    let scheme = Scheme::Sharded {
        inner: Composition::quorum(N, 2, 2, true, SPARES),
        nodes: NODES,
        vnodes: VNODES,
        churn: ChurnPlan::rolling(NODES, Duration::from_secs(3), 4, SimTime::from_secs(3)),
    };
    let ops = scaled(OPS_PER_SESSION, scale, 5);
    let experiment = Experiment::new(scheme)
        .workload(ycsb_a(KEY_DOMAIN, false, SESSIONS, ops, THINK_US))
        .faults(faults)
        .seed(seed)
        .horizon(SimTime::from_secs(HORIZON_S));
    Box::new(RingScale { experiment, key_domain: scaled(KEY_DOMAIN, scale, 1_000) })
}

impl Workload for RingScale {
    fn pass(&mut self, p: &mut Pass) {
        let e = self.experiment.clone().recorder(Recorder::enabled());
        let result = p.cells("rec-core.experiment_run", "ring_200", |mark| run_marking(&e, mark));
        let staleness =
            p.cell("consistency.measure_staleness", "", || measure_staleness(&result.trace));
        let ring = p.cell("replication.ring_new", "", ring);
        let owner_report = p.cell("consistency.check_owner_convergence", "", || {
            let servers: Vec<_> =
                result.final_versions.iter().copied().filter(|v| v.0.index() < NODES).collect();
            check_owner_convergence(&servers, |k| ring.owners(k))
        });
        // Ownership balance over the whole key domain, as E12 reports it.
        let max_keys_per_node = p.cell("replication.ring_owners_scan", "", || {
            let mut per_node = vec![0u64; NODES];
            for key in 0..self.key_domain {
                for owner in ring.owners(key) {
                    per_node[owner.index()] += 1;
                }
            }
            per_node.into_iter().max().unwrap_or(0)
        });
        p.checking(|p| {
            account_run(p, "ring", &e, &result);
            p.digest.json(&(&staleness, &owner_report, max_keys_per_node));
            let counter = |c| result.metrics.counter(c);
            p.check(
                counter(Counter::HintsStored)
                    == counter(Counter::HintsDrained) + counter(Counter::HintsDropped),
                || "ring: hint ledger not conserved (stored != drained + dropped)".to_string(),
            );
            p.count("owner_lookups", self.key_domain as f64);
            p.count("owner_diverged_keys", owner_report.diverged.len() as f64);
        });
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let ops = t.count("ops");
        let run_ns = t.ns("rec-core.experiment_run");
        m.put("replication.us_per_op.ring_200", "us", ratio(run_ns / 1e3, ops));
        m.put("simnet.events_per_op.ring", "count", ratio(t.count("events"), ops));
        let messages = t.count("delivered") + t.count("dropped");
        m.put("simnet.dropped_ratio.ring", "ratio", ratio(t.count("dropped"), messages));
        m.put(
            "replication.unavailable_ratio.ring",
            "ratio",
            ratio(t.count("ops_unavailable"), ops),
        );
        m.put("replication.ring_build_ms", "ms", t.ns("replication.ring_new") / t.passes / 1e6);
        m.put(
            "replication.ring_owners_ns",
            "ns",
            ratio(t.ns("replication.ring_owners_scan"), t.count("owner_lookups")),
        );
        // E12 reports this as a finding, not as a failure: under churn
        // and a partition some owners are still behind at the horizon.
        m.put(
            "consistency.owner_diverged_keys.ring",
            "count",
            t.count("owner_diverged_keys") / t.passes,
        );
        m.put(
            "consistency.staleness_ns_per_op.ring",
            "ns",
            ratio(t.ns("consistency.measure_staleness"), ops),
        );

        // Ablation: the same cell through plain `run`, with the counters
        // and without a recorder. The difference includes the driver's
        // probes, which run only when a recorder is attached.
        let with =
            |recorder| timed(|| run_counting_allocs(&self.experiment.clone().recorder(recorder)));
        let ((_, bytes, _), counters_s) = with(Recorder::enabled());
        let (_, disabled_s) = with(Recorder::disabled());
        m.put("obs.counters_overhead_ratio.ring", "ratio", ratio(counters_s, disabled_s));
        m.put("replication.alloc_bytes_per_op.ring", "B", ratio(bytes as f64, ops / t.passes));
    }
}
