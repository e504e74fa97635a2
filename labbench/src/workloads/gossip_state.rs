//! `gossip_state`: state-shipping anti-entropy, the shape of E5, E6 and
//! E11. Two cells on a quiet network: the CRDT composition that only
//! gossips (3 replicas), and LWW that only gossips at 8 replicas with
//! fanout 2. `crdt` merges, `kvstore` state and the `sync_req` /
//! `sync_resp` path do the work here and are a rounding error in
//! `proto_sweep`.

use super::{account_run, run_counting_allocs, run_marking, ycsb_a};
use crate::harness::{ratio, scaled, Metrics, Pass, Traced, Workload};
use clocks::LamportTimestamp;
use consistency::{check_convergence, check_monotonic_values, StreamConfig};
use crdt::{CvRdt, GCounter, OrSet};
use kvstore::{MvStore, Value, Wal};
use obs::Recorder;
use rec_core::{Experiment, Scheme};
use replication::kernel::{Composition, GossipConfig, ResolutionPolicy};
use simnet::{Duration, SimTime};
use std::hint::black_box;

const SESSIONS: u32 = 8;
const OPS_PER_SESSION: u64 = 1_000;
const KEYS: u64 = 1_024;
const THINK_US: u64 = 2_000;
/// Virtual time after the last scripted op, so that gossip settles and
/// the convergence check has reads to judge.
const QUIET_TAIL_MS: u64 = 5_000;

pub struct GossipState {
    cells: Vec<(&'static str, Experiment)>,
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    let ops = scaled(OPS_PER_SESSION, scale, 10);
    let gossip_only = Composition::eventual(
        8,
        false,
        Some(GossipConfig { interval: Duration::from_millis(50), fanout: 2 }),
        ResolutionPolicy::LwwRegister,
    );
    let cells = [
        ("mm_gossip_crdt", Scheme::composed(Composition::mm_gossip_crdt(3))),
        ("gossip_only_8", Scheme::composed(gossip_only)),
    ]
    .into_iter()
    .map(|(label, scheme)| {
        let e = Experiment::new(scheme)
            .workload(ycsb_a(KEYS, true, SESSIONS, ops, THINK_US))
            .seed(seed)
            .horizon(SimTime::from_millis(ops * 4 + QUIET_TAIL_MS));
        (label, e)
    })
    .collect();
    Box::new(GossipState { cells })
}

impl Workload for GossipState {
    fn pass(&mut self, p: &mut Pass) {
        for &(label, ref e) in &self.cells {
            let e = e.clone().recorder(Recorder::enabled());
            let result = p.cells("rec-core.experiment_run", label, |mark| run_marking(&e, mark));
            let convergence = p.cell("consistency.check_convergence", label, || {
                check_convergence(&result.trace, StreamConfig::default().grace)
            });
            let monotonic = p.cell("consistency.check_monotonic_values", label, || {
                check_monotonic_values(&result.trace)
            });
            p.checking(|p| {
                account_run(p, label, &e, &result);
                p.digest.json(&(&convergence, &monotonic));
                p.check(convergence.as_ref().is_some_and(|c| c.converged()), || {
                    format!("{label}: replicas still disagree after the quiet tail")
                });
                if label == "mm_gossip_crdt" {
                    p.check(monotonic.clean(), || {
                        format!("{label}: a session saw a counter shrink")
                    });
                }
            });
        }
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let ops = t.count("ops");
        let cell_ops = ops / self.cells.len() as f64;
        for &(label, _) in &self.cells {
            let ns = t.total("rec-core.experiment_run", label).total_ns as f64;
            m.put(&format!("replication.us_per_op.{label}"), "us", ratio(ns / 1e3, cell_ops));
        }
        m.put("replication.msgs_per_op.gossip", "count", ratio(t.count("delivered"), ops));
        let (mut bytes, mut allocs) = (0, 0);
        for (_, e) in &self.cells {
            let (_, b, n) = run_counting_allocs(&e.clone().recorder(Recorder::enabled()));
            bytes += b;
            allocs += n;
        }
        m.put("replication.alloc_bytes_per_op.gossip", "B", ratio(bytes as f64, ops / t.passes));
        m.put("replication.allocs_per_op.gossip", "count", ratio(allocs as f64, ops / t.passes));

        // Direct loops, in the shapes of `benches/microbench.rs`.
        let stamp = |i: u64| LamportTimestamp::new(i, 0);
        let mut store = MvStore::new();
        m.put(
            "kvstore.mvstore_put_ns",
            "ns",
            t.loop_ns(200_000, |i| {
                store.put(i % 1024, Value::from_u64(i), stamp(i + 1), i + 1);
            }),
        );
        m.put(
            "kvstore.mvstore_get_ns",
            "ns",
            t.loop_ns(1_000_000, |i| {
                black_box(store.get(i % 1024));
            }),
        );
        let mut wal = Wal::new();
        for i in 1..=10_000u64 {
            wal.append(i % 64, Value::from_u64(i), stamp(i), i);
        }
        m.put(
            "kvstore.wal_recover_us_per_10k",
            "us",
            t.loop_ns(20, |_| {
                black_box(black_box(&wal).recover(None));
            }) / 1e3,
        );

        let (mut counter_a, mut counter_b) = (GCounter::new(), GCounter::new());
        for i in 0..32 {
            counter_a.increment(i, i + 1);
            counter_b.increment(i + 16, i + 1);
        }
        m.put(
            "crdt.gcounter_merge_ns",
            "ns",
            t.loop_ns(200_000, |_| {
                let mut x = counter_a.clone();
                x.merge(black_box(&counter_b));
                black_box(x);
            }),
        );
        let (mut set_a, mut set_b) = (OrSet::new(), OrSet::new());
        for i in 0..200u32 {
            set_a.insert(0, i);
            set_b.insert(1, i + 100);
        }
        m.put(
            "crdt.orset_merge_us",
            "us",
            t.loop_ns(2_000, |_| {
                let mut x = set_a.clone();
                x.merge(black_box(&set_b));
                black_box(x);
            }) / 1e3,
        );
    }
}
