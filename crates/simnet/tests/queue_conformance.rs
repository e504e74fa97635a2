//! Queue conformance: the timing wheel against a sorted model.
//!
//! The ordering contract (`simnet::event`): pops come in strictly
//! ascending `(time, seq)` order, with `seq` the insertion counter.
//! [`Model`] is that contract written down as a `std` binary heap of
//! `(time, seq)` keys — the reference oracle. The randomized schedules
//! drive the real queue and the model in lockstep through every entry
//! point the `Sim` uses (`push`, `pop`, `pop_if_at_most`, `peek_time`,
//! `len`, `deliver_count`) over near-future scatter, same-tick bursts,
//! far-future timers beyond the wheel span and pushes below a
//! pre-drained cursor, and require identical observations — also back
//! to back on one thread, across two message types and after queues
//! dropped with events pending, since a dropped queue's key buffers are
//! the next one's (and bounded, even when dropped at depth). Four
//! scripted cases aim at bucket recycling (a drained bucket keeps its
//! buffer, up to a bound): refills while the previous contents are
//! still being served, cascades into just-drained slots, and a burst
//! past the bound followed by a sparse tail. One more serves batches
//! longer than the pop look-ahead (the envelopes a pop asks to have
//! loaded early), with same-tick pushes behind them and earlier keys
//! spliced in front. The rest pins the slab's
//! no-aliasing guarantee and, at the simulator level, timer
//! cancel/re-arm determinism and injection below a pre-drained tick.

use simnet::event::{EventPayload, EventQueue};
use simnet::sim::NodeId;
use simnet::{Actor, Context, Duration, Sim, SimConfig, SimRng, SimTime};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// What a pop observes: `(time, seq, tag, is_deliver)`.
type Popped = (u64, u64, u64, bool);

/// The reference oracle: a min-heap of [`Popped`] keys. `seq` is unique,
/// so the tuple order is exactly the contract's `(time, seq)` order.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<Popped>>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, at: u64, tag: u64, deliver: bool) {
        self.heap.push(Reverse((at, self.next_seq, tag, deliver)));
        self.next_seq += 1;
    }
    fn pop(&mut self) -> Option<Popped> {
        self.heap.pop().map(|Reverse(k)| k)
    }
    fn pop_if_at_most(&mut self, deadline: u64) -> Option<Popped> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }
    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(k)| k.0)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn deliver_count(&self) -> usize {
        self.heap.iter().filter(|Reverse(k)| k.3).count()
    }
}

/// A message the schedules deliver: made from its tag and read back.
/// Two types, one inline and one owning heap bytes, because queues of
/// every message type on a thread start from the same spare key buffers.
trait Msg: Sized {
    fn from_tag(tag: u64) -> Self;
    fn tag(&self) -> u64;
}

impl Msg for u64 {
    fn from_tag(tag: u64) -> Self {
        tag
    }
    fn tag(&self) -> u64 {
        *self
    }
}

impl Msg for String {
    fn from_tag(tag: u64) -> Self {
        tag.to_string()
    }
    fn tag(&self) -> u64 {
        self.parse().expect("a tag")
    }
}

fn push_timer<M>(q: &mut EventQueue<M>, at: u64, tag: u64) {
    q.push(
        SimTime::from_micros(at),
        EventPayload::Timer { node: NodeId(0), timer_id: 0, tag, trace: 0, span: 0 },
    );
}

fn push_deliver<M: Msg>(q: &mut EventQueue<M>, at: u64, tag: u64) {
    let msg = M::from_tag(tag);
    q.push(
        SimTime::from_micros(at),
        EventPayload::Deliver { from: NodeId(0), to: NodeId(1), msg, trace: 0, span: 0 },
    );
}

fn key<M: Msg>(ev: simnet::Event<M>) -> Popped {
    match ev.payload {
        EventPayload::Timer { tag, .. } => (ev.at.as_micros(), ev.seq, tag, false),
        EventPayload::Deliver { msg, .. } => (ev.at.as_micros(), ev.seq, msg.tag(), true),
        EventPayload::Fault(_) => panic!("schedules push no faults"),
    }
}

fn pop_key<M: Msg>(q: &mut EventQueue<M>) -> Option<Popped> {
    q.pop().map(key)
}

/// Whether a schedule's queue is drained at the end or dropped with
/// events still pending.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Drain,
    DropPending,
}

/// One randomized schedule: a deterministic (seeded) interleaving of
/// pushes, pops, deadline pops and peeks over a mix of time horizons,
/// applied to the queue and the model alike; every observation is
/// compared as it is made. Returns the queue's pop sequence.
fn run_schedule<M: Msg>(seed: u64, end: End) -> Vec<Popped> {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<M> = EventQueue::new();
    let mut model = Model::default();
    let mut out = Vec::new();
    let mut now = 0u64; // lower bound for new pushes: the last popped time
    let mut tag = 0u64;
    for step in 0..600 {
        let popped = match rng.below(12) {
            // 50%: push somewhere between "now" and beyond the wheel span.
            // After a peek this may land below the pre-drained cursor.
            0..=5 => {
                let horizon = match rng.below(4) {
                    0 => 64,         // same level-0 window
                    1 => 10_000,     // a few ms
                    2 => 50_000_000, // ~a minute of virtual time
                    _ => 1 << 40,    // beyond the wheel span: overflow
                };
                let at = now + rng.below(horizon);
                let deliver = rng.chance(0.5);
                if deliver {
                    push_deliver(&mut q, at, tag);
                } else {
                    push_timer(&mut q, at, tag);
                }
                model.push(at, tag, deliver);
                tag += 1;
                None
            }
            // 17%: a same-tick burst (ties must pop in insertion order).
            6..=7 => {
                let at = now + rng.below(1000);
                for _ in 0..rng.below(6) + 2 {
                    push_timer(&mut q, at, tag);
                    model.push(at, tag, false);
                    tag += 1;
                }
                None
            }
            // 8%: peek (lets the wheel pre-drain its next tick).
            8 => {
                assert_eq!(
                    q.peek_time().map(SimTime::as_micros),
                    model.peek_time(),
                    "peek_time diverged (seed {seed}, step {step})"
                );
                None
            }
            // 8%: the `run_until` probe, with a deadline that may or may
            // not reach the head.
            9 => {
                let deadline = now + rng.below(20_000);
                let got = q.pop_if_at_most(SimTime::from_micros(deadline)).map(key);
                assert_eq!(
                    got,
                    model.pop_if_at_most(deadline),
                    "pop_if_at_most({deadline}) diverged (seed {seed}, step {step})"
                );
                got
            }
            // 17%: pop.
            _ => {
                let got = pop_key(&mut q);
                assert_eq!(got, model.pop(), "pop diverged (seed {seed}, step {step})");
                got
            }
        };
        if let Some(k) = popped {
            now = k.0; // advances the floor for future pushes
            out.push(k);
        }
        assert_eq!(q.len(), model.len(), "len diverged (seed {seed}, step {step})");
        assert_eq!(
            q.deliver_count(),
            model.deliver_count(),
            "deliver_count diverged (seed {seed}, step {step})"
        );
    }
    if end == End::DropPending {
        assert!(!q.is_empty(), "seed {seed} left nothing pending to drop");
        return out;
    }
    while let Some(k) = pop_key(&mut q) {
        assert_eq!(Some(k), model.pop(), "drain diverged (seed {seed})");
        out.push(k);
    }
    assert_eq!(model.len(), 0);
    out
}

fn assert_ascending(popped: &[Popped], seed: u64) {
    assert!(!popped.is_empty());
    for w in popped.windows(2) {
        assert!(
            (w[0].0, w[0].1) < (w[1].0, w[1].1),
            "contract violated (seed {seed}): {:?} popped before {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn randomized_schedules_match_the_model_and_pop_in_ascending_time_then_seq() {
    for seed in 0..200 {
        assert_ascending(&run_schedule::<u64>(seed, End::Drain), seed);
    }
}

/// A dropped queue leaves its key buffers to the next queue on the
/// thread, whatever either's message type. Back to back on this test's
/// thread, each queue after the first starts on the buffers of the one
/// before — half of them dropped with events still in every part
/// of the wheel — and must still match the model from its first pop.
#[test]
fn back_to_back_queues_on_one_thread_start_clean() {
    for seed in 0..120 {
        let popped = match seed % 4 {
            0 => run_schedule::<u64>(seed, End::Drain),
            1 => run_schedule::<String>(seed, End::DropPending),
            2 => run_schedule::<String>(seed, End::Drain),
            _ => run_schedule::<u64>(seed, End::DropPending),
        };
        assert_ascending(&popped, seed);
    }
}

/// A queue dropped with a burst pending in its buckets, its batch and
/// its overflow heap leaves the next queue on the thread no more than
/// the retention bound: every buffer past 64 keys is freed, not kept.
#[test]
fn a_queue_dropped_at_depth_leaves_a_bounded_spare() {
    const BOUND_BYTES: usize = (384 + 2) * 64 * 24;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..1_000 {
        push_timer(&mut q, 1, i); // one tick, drained into the batch below
        push_timer(&mut q, (1 << 40) + i, i); // beyond the wheel span
    }
    for i in 0..100_000 {
        push_timer(&mut q, 2 + i * 617 % 5_000, i);
    }
    assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
    let at_depth = q.key_buffer_bytes();
    assert!(at_depth >= 102_000 * 24, "{at_depth} B cannot hold the pending keys");
    drop(q);
    let next: EventQueue<String> = EventQueue::new();
    let inherited = next.key_buffer_bytes();
    assert!(inherited > 0, "the next queue starts on the kept buffers");
    assert!(inherited <= BOUND_BYTES, "the next queue starts on {inherited} B");
}

/// The queue and the model side by side for the scripted recycling
/// cases: every push goes to both, every pop is compared.
#[derive(Default)]
struct Lockstep {
    q: EventQueue<u64>,
    model: Model,
    tag: u64,
}

impl Lockstep {
    fn push(&mut self, at: u64) {
        // Alternate kinds so `deliver_count` is exercised too.
        let deliver = self.tag.is_multiple_of(2);
        if deliver {
            push_deliver(&mut self.q, at, self.tag);
        } else {
            push_timer(&mut self.q, at, self.tag);
        }
        self.model.push(at, self.tag, deliver);
        self.tag += 1;
    }

    fn pop(&mut self) -> Option<Popped> {
        let got = pop_key(&mut self.q);
        assert_eq!(got, self.model.pop(), "pop diverged from the model");
        assert_eq!(self.q.len(), self.model.len());
        assert_eq!(self.q.deliver_count(), self.model.deliver_count());
        got
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.model.len(), 0);
    }

    fn peek(&mut self) -> Option<u64> {
        let got = self.q.peek_time().map(SimTime::as_micros);
        assert_eq!(got, self.model.peek_time(), "peek_time diverged from the model");
        got
    }
}

#[test]
fn a_bucket_refilled_while_its_previous_contents_are_still_in_the_batch() {
    let mut l = Lockstep::default();
    for _ in 0..3 {
        l.push(50);
    }
    // Drains tick 50 into the batch; two of its keys are still there.
    l.pop();
    // The same level-0 slot takes new keys for the same tick (they must
    // follow the batch) and, one rotation on, for tick 50 + 64.
    l.push(50);
    l.push(50 + 64);
    l.push(50);
    l.pop();
    l.push(50);
    l.drain();
}

#[test]
fn a_cascade_into_a_slot_that_was_just_drained() {
    let mut l = Lockstep::default();
    // Tick 5 drains level-0 slot 5; tick 69 waits in level-1 slot 1 and
    // cascades into level-0 slot 5; tick 69 + 4096 waits in level 2 and
    // cascades through level-1 slot 1 into level-0 slot 5 again.
    for at in [5, 5, 69, 69 + 4096, 69, 69 + 4096, 5] {
        l.push(at);
    }
    l.pop();
    l.pop();
    l.push(69); // into the slot tick 5 just left
    l.drain();
    // And once more through the same slots, now that each has a buffer.
    let base = 2 * 4096;
    for at in [5, 69, 69 + 4096, 69, 5] {
        l.push(base + at);
    }
    l.drain();
}

#[test]
fn same_tick_pushes_mid_drain_after_a_recycle() {
    let mut l = Lockstep::default();
    // Round one gives tick slot 10 a buffer; the later rounds reuse it
    // (ticks 10 + 64k share level-0 slot 10), each pushing into the
    // slot while its tick is half-served.
    for round in 0..4u64 {
        let at = 10 + 64 * round;
        for _ in 0..3 {
            l.push(at);
        }
        l.pop();
        l.push(at);
        l.push(at);
        l.pop();
        l.pop();
        l.push(at);
        l.drain();
    }
}

#[test]
fn a_burst_past_the_retention_bound_followed_by_a_sparse_tail() {
    let mut l = Lockstep::default();
    // 3 000 keys on one tick and 6 000 across one level-1 slot: both
    // buffers grow past what a drained bucket may keep.
    for _ in 0..3_000 {
        l.push(100);
    }
    for i in 0..6_000 {
        l.push(128 + i % 64);
    }
    // Serve half of it with sparse pushes landing in between, into the
    // slots the burst is going through.
    for i in 0..4_500u64 {
        let (at, ..) = l.pop().expect("burst pending");
        if i.is_multiple_of(500) {
            l.push(at);
            l.push(at + 64);
        }
    }
    l.drain();
    // The tail: the same slots again, a key or two each, after their
    // oversized buffers were let go.
    for at in [4_196, 4_196, 4_224, 4_260, 4_224 + 64, 1 << 20] {
        l.push(at);
    }
    l.pop();
    l.push(4_196);
    l.drain();
}

/// A pop looks a few keys down the batch to have their envelopes
/// loaded early, and a level-0 drain does the same for the first keys
/// of the new batch. Neither may change what pops: batches far longer
/// than the look-ahead, same-tick pushes landing behind a batch that is
/// being served, and earlier keys spliced in front of a pre-drained
/// batch all pop as the model does.
#[test]
fn batches_longer_than_the_look_ahead_pop_as_the_model_does() {
    let mut l = Lockstep::default();
    // 320 keys in one microsecond, served with same-tick pushes in
    // between: each lands behind the batch and pops with the next drain
    // of the slot.
    for _ in 0..320 {
        l.push(7);
    }
    for i in 0..400u64 {
        l.pop();
        if i % 3 == 0 {
            l.push(7);
        }
    }
    l.drain();
    // A pre-drained batch of 300 keys, then earlier keys injected below
    // its tick: more of them than the look-ahead, spliced in front, and
    // one behind them at the batch's own tick.
    for _ in 0..300 {
        l.push(1_000);
    }
    assert_eq!(l.peek(), Some(1_000));
    for at in [500, 200, 500, 900, 200, 999, 300, 500, 200, 1_000] {
        l.push(at);
    }
    assert_eq!(l.peek(), Some(200));
    for _ in 0..5 {
        l.pop();
    }
    l.push(500);
    l.push(1_000);
    l.drain();
    // Long batches on consecutive ticks, each drained while the last
    // keys of the one before are still in the look-ahead window.
    for at in 2_000..2_004 {
        for _ in 0..310 {
            l.push(at);
        }
    }
    l.drain();
}

/// Slab reuse must never alias a live envelope: every pushed payload
/// comes back exactly once, unmodified, even under heavy slot churn.
#[test]
fn slab_reuse_never_aliases_live_envelopes() {
    let mut rng = SimRng::new(0xa11a5);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut pushed = Vec::new();
    let mut popped = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u64;
    // Heavy churn: bursts of pushes fully drained, repeatedly, so freed
    // slab slots are recycled across rounds.
    for _round in 0..50 {
        for _ in 0..rng.below(40) + 10 {
            let at = now + rng.below(5_000);
            push_timer(&mut q, at, tag);
            pushed.push(tag);
            tag += 1;
        }
        for _ in 0..rng.below(30) + 10 {
            if let Some((at, _, t, _)) = pop_key(&mut q) {
                now = at;
                popped.push(t);
            }
        }
    }
    while let Some((_, _, t, _)) = pop_key(&mut q) {
        popped.push(t);
    }
    pushed.sort_unstable();
    popped.sort_unstable();
    assert_eq!(pushed, popped, "a slab slot was lost, duplicated, or aliased");
}

/// What the churn actors record: every arm as `(fires_at, timer_id,
/// tag)`, every cancelled id, and every firing as `(now, timer_id, tag)`.
#[derive(Default)]
struct ChurnLog {
    armed: Vec<(u64, u64, u64)>,
    cancelled: Vec<u64>,
    fired: Vec<(u64, u64, u64)>,
}

/// An actor that randomly arms, cancels, and re-arms timers (driven by
/// the shared deterministic RNG). Cancellation and re-arming is
/// simulator state layered over the queue.
struct TimerChurn {
    log: Rc<RefCell<ChurnLog>>,
    armed: Vec<u64>,
}

impl TimerChurn {
    fn arm(&mut self, ctx: &mut Context<u64>, after_us: u64, tag: u64) {
        let id = ctx.set_timer(Duration::from_micros(after_us), tag);
        self.log.borrow_mut().armed.push((ctx.now().as_micros() + after_us, id, tag));
        self.armed.push(id);
    }
}

impl Actor<u64> for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        for tag in 0..4 {
            self.arm(ctx, 500 + tag * 137, tag);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<u64>, timer_id: u64, tag: u64) {
        self.log.borrow_mut().fired.push((ctx.now().as_micros(), timer_id, tag));
        self.armed.retain(|&id| id != timer_id);
        // Re-arm: sometimes near, sometimes beyond the wheel span.
        let far = ctx.rng().chance(0.1);
        let delay = if far { 1 << 37 } else { ctx.rng().below(20_000) + 1 };
        self.arm(ctx, delay, tag + 100);
        // Occasionally cancel a random armed timer.
        if !self.armed.is_empty() && ctx.rng().chance(0.3) {
            let victim = ctx.rng().index(self.armed.len());
            let id = self.armed.swap_remove(victim);
            ctx.cancel_timer(id);
            self.log.borrow_mut().cancelled.push(id);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {}
}

#[test]
fn cancel_and_rearm_fires_in_the_expected_order_deterministically() {
    const DEADLINE_US: u64 = 2_000_000;
    let run = |seed: u64| {
        let log = Rc::new(RefCell::new(ChurnLog::default()));
        let mut sim: Sim<u64> = Sim::new(SimConfig::default().seed(seed));
        for _ in 0..3 {
            sim.add_node(Box::new(TimerChurn { log: log.clone(), armed: Vec::new() }));
        }
        sim.run_until(SimTime::from_micros(DEADLINE_US));
        drop(sim);
        Rc::try_unwrap(log).ok().expect("sim dropped its actors").into_inner()
    };
    for seed in [7, 21] {
        let log = run(seed);
        assert!(!log.fired.is_empty(), "churn actors never fired a timer");
        assert!(!log.cancelled.is_empty(), "churn actors never cancelled a timer");
        // Expected: every armed, never-cancelled timer due by the deadline,
        // in (time, arming order) order — timer ids are handed out in
        // arming order, which is also the queue's seq order.
        let mut expected: Vec<_> = log
            .armed
            .iter()
            .copied()
            .filter(|&(at, id, _)| at <= DEADLINE_US && !log.cancelled.contains(&id))
            .collect();
        expected.sort_unstable_by_key(|&(at, id, _)| (at, id));
        assert_eq!(log.fired, expected, "firing order (seed {seed})");
        assert_eq!(run(seed).fired, log.fired, "same seed, different run (seed {seed})");
    }
}

/// `run_until` + later injection: the wheel may pre-drain its next tick
/// while peeking past a deadline; an event injected earlier than that
/// pre-drained tick must still fire first.
struct Sink {
    got: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl Actor<u64> for Sink {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.set_timer(Duration::from_millis(100), 42);
    }
    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
        self.got.borrow_mut().push((ctx.now().as_micros(), msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<u64>, _timer_id: u64, tag: u64) {
        self.got.borrow_mut().push((ctx.now().as_micros(), tag));
    }
}

#[test]
fn injection_between_run_until_calls_fires_before_predrained_events() {
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut sim: Sim<u64> = Sim::new(SimConfig::default());
    sim.add_node(Box::new(Sink { got: got.clone() }));
    // Runs past every queued event except the t=100ms timer; the
    // peek at the deadline boundary pre-drains that tick.
    sim.run_until(SimTime::from_millis(10));
    // Now inject something earlier than the pending timer.
    sim.inject_at(SimTime::from_millis(50), NodeId(0), NodeId(0), 7);
    sim.run_until(SimTime::from_millis(200));
    assert_eq!(
        *got.borrow(),
        vec![(50_000, 7), (100_000, 42)],
        "injected event must precede the pre-drained timer"
    );
}
