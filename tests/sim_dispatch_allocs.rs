//! Integration: dispatching an event costs the simulator kernel no heap
//! allocation in steady state, and what it keeps to make that so is
//! bounded.
//!
//! The timing wheel's buckets keep their buffers across drains (a tick
//! is drained and a cascading slot read out in place), the open-span and
//! cancelled-timer tables are hash tables that stop growing once they
//! have held a run's working set, the crash and partition sets are
//! bitmaps and the effects buffer is reused. Put back what they replaced
//! and the first two tests count it: `mem::take` of every drained bucket
//! reads 149 317 and 184 699 allocations where 0 is asserted, a
//! `BTreeMap` of open spans 14 287. The actors here allocate nothing
//! themselves, so every allocation counted is the kernel's (or the
//! counters recorder's, which the kernel calls per event).
//!
//! Recycling without a bound would pin a burst's high-water mark: the
//! last test sends a deep storm's 262 144 messages through and bounds
//! what the queue still owns afterwards (unbounded, it reads 12 196 008 B
//! against 602 112), also in the next simulator on the thread, which
//! starts on what the burst left behind. That reuse is why a short
//! run (a fuzz case) does not pay for its wheel's buffers: a second
//! simulator on a thread allocates exactly what the first did less the
//! first's key buffers. Exact, not timed: this binary installs
//! [`CountingAlloc`], and a seeded run allocates the same every time —
//! and the zeros do not lean on the seed: they held at each of 60 others
//! when this was written.

use rethinking_ec::obs::{alloc_totals, CountingAlloc, Recorder, SpanId, SpanStatus};
use rethinking_ec::simnet::{
    Actor, Context, Duration, LatencyModel, NodeId, Sim, SimConfig, SimTime,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One rotation of wheel level 3 (64 slots of 262 ms) and a little: by
/// then every slot at levels 0–3 has been filled and drained, and owns
/// a buffer. A slot allocates when it is first filled and when it is
/// asked for more keys than ever before, so "steady state" means that
/// neither can happen in the counted window: the storm below counts a
/// third of the depth it warmed up at, and the request loop never has
/// more keys pending than a buffer starts with.
const WARM_UP: SimTime = SimTime::from_secs(18);
/// A level-4 slot is first filled every 16.8 s, next just before 33.5 s.
const NEXT_FIRST_FILL: SimTime = SimTime::from_secs(33);
const COUNTED_EVENTS: usize = 100_000;

/// Allocations this thread made while `f` ran.
fn allocations(f: impl FnOnce()) -> u64 {
    let (_, before) = alloc_totals();
    f();
    alloc_totals().1 - before
}

/// Allocations of the `COUNTED_EVENTS` events dispatched after `WARM_UP`.
fn steady_state_allocations(sim: &mut Sim<u64>) -> u64 {
    let counted = allocations(|| {
        for _ in 0..COUNTED_EVENTS {
            assert!(sim.step(), "the loop keeps itself going");
        }
    });
    assert!(sim.now() < NEXT_FIRST_FILL, "the counted window ran to {:?}", sim.now());
    counted
}

/// Forwards a message to a random peer while it has hops left, and on
/// one delivery in eight arms two timers and cancels one: one fires, one
/// is discarded when it comes due.
struct Forwarder {
    nodes: usize,
    deliveries: u64,
}

impl Actor<u64> for Forwarder {
    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, hops_left: u64) {
        self.deliveries += 1;
        if self.deliveries.is_multiple_of(8) {
            // Different delays: two keys on one tick would make a tick
            // of five keys — one buffer growth — a matter of luck.
            ctx.set_timer(Duration::from_micros(500), 0);
            let unwanted = ctx.set_timer(Duration::from_micros(300), 1);
            ctx.cancel_timer(unwanted);
        }
        if hops_left > 0 {
            let to = NodeId(ctx.rng().index(self.nodes) as u32);
            ctx.send(to, hops_left - 1);
        }
    }
}

#[test]
fn a_shallow_forwarding_storm_allocates_nothing_per_event() {
    // 30 messages in flight for 17.5 s — 35 000 hops of 500 µs on average
    // — and 10 of them from then on, with 6 and then 2 timers pending on
    // average. A tick holds a key or none, a level-1 slot a few, and a
    // slot above receives all that is pending when the cursor enters it:
    // some 36 keys while warming up (a 64-key buffer, what a drained
    // bucket may keep), some 12 when counted. The depth of a protocol run.
    let (nodes, lasting, passing) = (16, 10, 20);
    let latency =
        LatencyModel::Uniform { min: Duration::from_micros(1), max: Duration::from_micros(1000) };
    let mut sim: Sim<u64> = Sim::new(SimConfig::default().seed(12).latency(latency));
    for _ in 0..nodes {
        sim.add_node(Box::new(Forwarder { nodes, deliveries: 0 }));
    }
    for i in 0..lasting + passing {
        let to = NodeId(i % nodes as u32);
        let hops = if i < lasting { u64::MAX } else { 35_000 };
        sim.inject_at(SimTime::from_micros(1 + i as u64 * 3), to, to, hops);
    }
    sim.run_until(WARM_UP);
    assert_eq!(sim.inflight_messages(), lasting as u64);
    assert_eq!(steady_state_allocations(&mut sim), 0);
}

/// Opens a trace per request and asks again on the reply; an op's root
/// span stays open until eight ops later, as an operation with background
/// work has it, so the open-span table holds more than a handful.
struct SpanClient {
    server: NodeId,
    roots: [SpanId; 8],
    ops: usize,
}

impl SpanClient {
    fn next_op(&mut self, ctx: &mut Context<u64>) {
        let slot = self.ops % self.roots.len();
        ctx.span_close(self.roots[slot], SpanStatus::Ok);
        self.roots[slot] = ctx.start_trace("op");
        self.ops += 1;
        ctx.send(self.server, self.ops as u64);
    }
}

impl Actor<u64> for SpanClient {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        self.next_op(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
        self.next_op(ctx);
    }
}

/// Serves a request inside a child span of the request's trace.
struct SpanServer;

impl Actor<u64> for SpanServer {
    fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
        let span = ctx.span_open("serve");
        ctx.send(from, msg);
        ctx.span_close(span, SpanStatus::Ok);
    }
}

/// Two servers and four closed-loop clients on the LAN model, on a
/// simulator built for them.
fn request_loop_sim(recorder: Recorder) -> Sim<u64> {
    let (servers, clients) = (2u32, 4u32);
    let config = SimConfig::default().seed(12).latency(LatencyModel::lan()).recorder(recorder);
    let mut sim: Sim<u64> = Sim::new(config);
    for _ in 0..servers {
        sim.add_node(Box::new(SpanServer));
    }
    for client in 0..clients {
        let server = NodeId(client % servers);
        sim.add_node(Box::new(SpanClient { server, roots: [SpanId::NONE; 8], ops: 0 }));
    }
    sim
}

#[test]
fn a_traced_request_reply_loop_allocates_nothing_per_event() {
    // Four closed-loop clients: four messages in flight — no slot is
    // ever asked for more than the four keys a buffer starts with — and
    // 32 root spans open at any time with a server span opening and
    // closing among them: ids only go up, so an ordered tree of them
    // keeps splitting its last leaf and merging its first.
    let mut sim = request_loop_sim(Recorder::enabled());
    sim.run_until(WARM_UP);
    assert_eq!(steady_state_allocations(&mut sim), 0);
}

#[test]
fn a_second_sim_on_a_thread_starts_warm() {
    // A dropped wheel leaves its key buffers to the next one on its
    // thread. So of two equal runs in fresh simulators, one after the
    // other, the second allocates exactly what the first did less the
    // first's key buffers: in this loop a buffer is allocated once, at
    // the four keys it starts with (24 B each), and never again. A
    // thread of its own, so that the first run really starts cold.
    const FIRST_BUFFER_BYTES: u64 = 4 * 24;
    std::thread::spawn(|| {
        // (allocations, bytes, key buffer bytes before, after)
        let run = || {
            let mut sim = request_loop_sim(Recorder::disabled());
            let held = sim.queue_key_buffer_bytes() as u64;
            let (bytes, count) = alloc_totals();
            sim.run_until(SimTime::from_secs(2));
            let (bytes_after, count_after) = alloc_totals();
            (count_after - count, bytes_after - bytes, held, sim.queue_key_buffer_bytes() as u64)
        };
        let (cold, cold_bytes, cold_held, keys) = run();
        let (warm, warm_bytes, warm_held, warm_keys) = run();
        assert_eq!(cold_held, 0, "the first simulator on a thread starts cold");
        assert!(keys > 0);
        assert_eq!((warm_held, warm_keys), (keys, keys), "the second runs on the first's buffers");
        assert_eq!(cold_bytes - warm_bytes, keys, "{cold_bytes} B cold, {warm_bytes} B warm");
        assert_eq!(cold - warm, keys / FIRST_BUFFER_BYTES, "{cold} allocations cold, {warm} warm");
        assert_eq!(run(), (warm, warm_bytes, keys, keys), "a third run is the second");
    })
    .join()
    .unwrap();
}

/// Receives and does nothing: the burst only has to drain.
struct Sink;

impl Actor<u64> for Sink {
    fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {}
}

#[test]
fn a_drained_deep_burst_leaves_a_bounded_queue_behind() {
    // The deep storm's depth: 262 144 messages over 1 000 ticks, so a
    // tick holds 262 keys and a level-1 slot (64 ticks) some 16 000 —
    // 12 177 408 B of key buffers at depth, 6 312 B once drained. A
    // drained bucket keeps a buffer of at most 64 keys, so whatever went
    // through, at most 384 slots × 64 keys × 24 B stay, plus the batch's
    // largest tick.
    const BURST: u64 = 262_144;
    const BOUND_BYTES: usize = 384 * 64 * 24 + 512 * 24;
    let nodes = 1_024u64;
    let mut sim: Sim<u64> = Sim::new(SimConfig::default().seed(12));
    for _ in 0..nodes {
        sim.add_node(Box::new(Sink));
    }
    for i in 0..BURST {
        let to = NodeId((i % nodes) as u32);
        // An odd multiplier walks the ticks 1..=1000 evenly.
        sim.inject_at(SimTime::from_micros(1 + i * 617 % 1000), to, to, i);
    }
    let at_depth = sim.queue_key_buffer_bytes();
    assert!(at_depth >= BURST as usize * 24, "{at_depth} B cannot hold the burst's keys");
    assert_eq!(sim.run_until(SimTime::from_millis(2)), BURST);
    let kept = sim.queue_key_buffer_bytes();
    assert!(
        kept <= BOUND_BYTES,
        "a drained queue still owns {kept} B of key buffers (bound {BOUND_BYTES} B; \
         it held {at_depth} B at depth)"
    );
    // A sparse tail after the burst runs on what was kept.
    for i in 0..64u64 {
        sim.inject_at(
            SimTime::from_millis(3) + Duration::from_micros(i * 50),
            NodeId(0),
            NodeId(0),
            i,
        );
    }
    assert_eq!(sim.run_until(SimTime::from_millis(10)), 64);
    assert!(sim.queue_key_buffer_bytes() <= BOUND_BYTES);
    // What the burst's simulator leaves to the next one on the thread
    // is held to the same bound. (A `Sim` drains its queue when dropped;
    // `queue_conformance.rs` drops a bare queue at depth.)
    drop(sim);
    let next: Sim<u64> = Sim::new(SimConfig::default().seed(12));
    let inherited = next.queue_key_buffer_bytes();
    assert!(inherited > 0, "the next simulator starts on the kept buffers");
    assert!(inherited <= BOUND_BYTES, "the next simulator starts on {inherited} B");
}
