//! `event_storm`: `simbench`'s storm on the default event queue, at a
//! shallow and a deep queue one after the other. The actor does nothing
//! but forward, so `simnet`'s queue and dispatch do all the work: the
//! layer with the most tuning behind it, and the workload on which a
//! protocol-level optimisation must show no change.

use crate::harness::{ratio, scaled, Metrics, Pass, Traced, Workload};
use simnet::{Actor, Context, Duration, LatencyModel, NodeId, Sim, SimConfig, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// `(label, nodes, messages in flight, hops each message makes)`. About
/// two million deliveries at either depth.
const DEPTHS: [(&str, usize, usize, u64); 2] =
    [("shallow", 64, 4_096, 511), ("deep", 1_024, 262_144, 7)];
/// Each depth runs as this many timed cells of equal virtual time, so
/// that a burst of host noise spoils a slice and not the whole storm.
const SLICES: u64 = 128;
/// Mean virtual microseconds a hop takes under the 1–1000 µs latency.
const HOP_US: u64 = 500;
/// A delivery whose remaining hop count divides by this also arms a
/// timer and cancels the one its node armed before.
const TIMER_EVERY: u64 = 8;

/// Forwards each message to a random peer until its hops run out, and
/// folds every delivery into a hash the whole storm shares: the order of
/// deliveries is the storm's output.
pub struct StormNode {
    nodes: usize,
    armed: Option<u64>,
    deliveries: Rc<Cell<u64>>,
}

impl StormNode {
    pub fn new(nodes: usize, deliveries: Rc<Cell<u64>>) -> Self {
        StormNode { nodes, armed: None, deliveries }
    }
}

impl Actor<u64> for StormNode {
    fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, hops_left: u64) {
        let delivery = (from.0 as u64) << 32 | hops_left;
        self.deliveries.set((self.deliveries.get() ^ delivery).wrapping_mul(0x0000_0100_0000_01b3));
        if hops_left.is_multiple_of(TIMER_EVERY) {
            if let Some(id) = self.armed.take() {
                ctx.cancel_timer(id);
            }
            self.armed = Some(ctx.set_timer(Duration::from_micros(500), 0));
        }
        if hops_left > 0 {
            let to = NodeId(ctx.rng().index(self.nodes) as u32);
            ctx.send(to, hops_left - 1);
        }
    }
}

pub struct EventStorm {
    seed: u64,
    depths: Vec<(&'static str, usize, usize, u64)>,
    /// The simulators the next pass will run, built and seeded, each with
    /// the hash its nodes fold their deliveries into.
    ready: Vec<(Sim<u64>, Rc<Cell<u64>>)>,
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    let depths = DEPTHS
        .iter()
        .map(|&(label, nodes, inflight, hops)| {
            // Below full size the storm is thinner as well as shorter.
            let inflight = scaled(inflight as u64, scale.min(1.0), nodes as u64) as usize;
            (label, nodes, inflight, scaled(hops, scale, 1))
        })
        .collect();
    let mut storm = EventStorm { seed, depths, ready: Vec::new() };
    storm.ready = storm.build_sims(&crate::trace::Tracer::new(false));
    Box::new(storm)
}

impl EventStorm {
    fn build_sims(&self, tr: &crate::trace::Tracer) -> Vec<(Sim<u64>, Rc<Cell<u64>>)> {
        self.depths
            .iter()
            .map(|&(label, nodes, inflight, hops)| {
                let deliveries = Rc::new(Cell::new(0));
                let mut sim = tr.span("simnet.sim_build", label, || {
                    let latency = LatencyModel::Uniform {
                        min: Duration::from_micros(1),
                        max: Duration::from_micros(1_000),
                    };
                    let mut sim = Sim::new(SimConfig::default().seed(self.seed).latency(latency));
                    for _ in 0..nodes {
                        sim.add_node(Box::new(StormNode::new(nodes, deliveries.clone())));
                    }
                    sim
                });
                // Spread over the first millisecond and all nodes, so
                // the queue ramps to `inflight` and stays there until
                // the hops run out.
                tr.span("simnet.inject", label, || {
                    for i in 0..inflight {
                        let at = SimTime::from_micros((i % 1_000) as u64 + 1);
                        let (from, to) = (i % nodes, (i * 7 + 1) % nodes);
                        sim.inject_at(at, NodeId(from as u32), NodeId(to as u32), hops);
                    }
                });
                (sim, deliveries)
            })
            .collect()
    }
}

impl Workload for EventStorm {
    fn pass(&mut self, p: &mut Pass) {
        let tr = p.tr;
        let sims = std::mem::take(&mut self.ready);
        for ((mut sim, deliveries), &(label, _, inflight, hops)) in
            sims.into_iter().zip(&self.depths)
        {
            // Equal slices of the time a message needs on average, and
            // the last one open-ended for the stragglers.
            let mean_end_us = (hops + 1) * HOP_US;
            let events = p.cells("simnet.run_until", label, |mark| {
                let mut events = 0;
                for slice in 1..SLICES {
                    events += sim.run_until(SimTime::from_micros(mean_end_us * slice / SLICES));
                    mark();
                }
                events + sim.run_until(SimTime::from_secs(3_600))
            });
            p.checking(|p| {
                let expected = inflight as u64 * (hops + 1);
                p.units += expected;
                p.attempted += expected;
                p.failed += expected - sim.delivered_messages.min(expected);
                p.check(sim.dropped_messages == 0, || {
                    format!("{label}: a quiet network dropped messages")
                });
                p.digest.u64(events);
                p.digest.u64(sim.delivered_messages);
                p.digest.u64(deliveries.get());
                p.count(
                    if label == "deep" { "events_deep" } else { "events_shallow" },
                    events as f64,
                );
                p.count("injected", inflight as f64);
            });
        }
        // The next pass's simulators; untimed here, and `setup_s` the
        // first time.
        self.ready = tr.span("labbench.prepare", "", || self.build_sims(tr));
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let run = |label| t.total("simnet.run_until", label).total_ns as f64;
        let (shallow, deep) = (t.count("events_shallow"), t.count("events_deep"));
        m.put("simnet.storm_shallow_ns_per_event", "ns", ratio(run("shallow"), shallow));
        m.put("simnet.storm_deep_ns_per_event", "ns", ratio(run("deep"), deep));
        m.put("simnet.ns_per_event", "ns", ratio(run("*"), shallow + deep));
        m.put("simnet.inject_ns_per_msg", "ns", ratio(t.ns("simnet.inject"), t.count("injected")));
        m.put("simnet.storm_sim_build_us", "us", t.ns("simnet.sim_build") / t.passes / 1e3);
    }
}
