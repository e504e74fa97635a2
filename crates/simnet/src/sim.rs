//! The actor runtime.
//!
//! A [`Sim`] owns a set of actors (replicas and clients alike), the event
//! queue, the latency model, and the fault state. Actors never see wall
//! clocks, threads, or real sockets: they receive callbacks and emit
//! *effects* (sends, timers) through a [`Context`], which the simulator
//! turns into future events. This is what makes every run a pure function
//! of `(config, seed)`.

use crate::event::{Event, EventPayload, EventQueue};
use crate::faults::{FaultSchedule, FaultState};
use crate::latency::{LatencyModel, LatencySampler};
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use obs::{
    Counter, DropReason, EventKind, HandlerKind, Probe, Recorder, SpanId, SpanStatus, NO_VARIANT,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies an actor in the simulation (replica or client).
///
/// Ids are compact `u32`s: actor tables are dense and start at 0, so
/// four billion nodes is not a practical limit, while halving the id
/// width shrinks every message envelope, fault record, and per-op
/// trace record on the hot path. Use [`NodeId::index`] to index
/// node-keyed slots and [`NodeId::from_index`] to build an id from a
/// table position (it panics loudly on overflow instead of silently
/// truncating).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// This id as a dense table index (node-keyed `Vec` slots).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id for dense table position `i`. Panics when `i` exceeds
    /// `u32::MAX` — compact addressing is a hard limit, never a silent
    /// truncation.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        assert!(
            i <= u32::MAX as usize,
            "node index {i} exceeds compact u32 NodeId addressing (max {})",
            u32::MAX
        );
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol state machine.
///
/// All methods take a [`Context`] through which the actor reads the virtual
/// clock, sends messages, and manages timers. Implementations must not hold
/// wall-clock state; determinism depends on it.
pub trait Actor<M> {
    /// Called once when the simulation starts (before any event fires).
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);

    /// A timer set via [`Context::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _timer_id: u64, _tag: u64) {}

    /// The node has crashed (informational; while it is down the
    /// simulator drops the messages that reach it and the timers that
    /// come due).
    fn on_crash(&mut self, _ctx: &mut Context<M>) {}

    /// The node has recovered from a crash. With `amnesia == false` the
    /// actor's in-memory state survived (fail-pause); with `amnesia ==
    /// true` the actor must treat its volatile state as lost and rebuild
    /// from whatever it models as durable (typically a WAL replay).
    /// The simulator discards a timer only if it comes *due while the
    /// node is down*: a periodic chain whose next link fell into the
    /// outage is broken and must be re-armed here, but a timer armed
    /// before the crash and due after the recovery still fires — an
    /// actor that re-arms unconditionally runs two chains after a crash
    /// shorter than its interval (`timers_due_after_recovery_still_fire`).
    fn on_recover(&mut self, _ctx: &mut Context<M>, _amnesia: bool) {}

    /// Cluster membership changed: `node` joined (`join == true`) or
    /// left (`join == false`) the logical cluster. Every actor observes
    /// every membership event (in node-id order), so ring-aware
    /// protocols keep identical ownership views and rebalance
    /// deterministically. Crashed actors observe it too — a down node
    /// must not wake up with a stale ring — but their effects are
    /// discarded. The default ignores membership (fixed-replica-set
    /// protocols and clients).
    fn on_membership(&mut self, _ctx: &mut Context<M>, _node: NodeId, _join: bool) {}

    /// The simulation is being torn down (horizon reached). Effects
    /// requested here are discarded — the run is over — but recorder
    /// access works, so actors can account for still-held state (e.g.
    /// undrained hinted-handoff hints) and keep conservation identities
    /// exact. The default does nothing.
    fn on_shutdown(&mut self, _ctx: &mut Context<M>) {}

    /// The versions of keys this actor currently stores, as `(key,
    /// version)` pairs: the full scan behind a run's final store
    /// contents, and the oracle the incremental divergence probe is
    /// tested against. Version numbers only need to distinguish
    /// distinct states of a key (timestamps, sequence numbers, and
    /// stamps all qualify). The default (empty) opts an actor out of
    /// divergence probing — clients and non-storage actors keep it.
    fn key_versions(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Hand `sink` every key whose [`Actor::key_versions`] entry may
    /// have changed since the previous call, with its current version
    /// (`None`: the key is no longer stored), and forget them. This is
    /// what the replica-divergence probe reads at each sampling
    /// instant, so its cost follows what changed, not what is stored.
    /// Telemetry only: an implementation must not touch protocol state.
    /// An actor that overrides `key_versions` overrides this too.
    fn drain_changed_versions(&mut self, _sink: &mut dyn FnMut(u64, Option<u64>)) {}

    /// Stable role name the profiler keys this actor's handler samples
    /// by (e.g. `"replica"`, `"client"`; see `docs/PROFILING.md`).
    /// Purely observational — the simulator never branches on it.
    fn role(&self) -> &'static str {
        "node"
    }
}

/// Message-variant metadata the profiler uses to attribute handler
/// samples to message kinds.
///
/// Protocol `Msg` enums implement [`MsgMeta::variant_name`] with a
/// `match` returning each variant's name; driving a [`Sim`]
/// ([`Sim::step`]/[`Sim::run_until`]) requires the bound. The default
/// (`"msg"`) suits opaque message types, and blanket impls cover the
/// primitive message types tests and microbenchmarks use.
pub trait MsgMeta {
    /// Stable, static name of this message's variant, used as the
    /// profiler's `variant` key (see `docs/PROFILING.md`).
    fn variant_name(&self) -> &'static str {
        "msg"
    }
}

macro_rules! msg_meta_opaque {
    ($($t:ty),*) => {
        $(impl MsgMeta for $t {})*
    };
}
msg_meta_opaque!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, (), String);

/// Effects an actor requests during a callback; applied by the simulator
/// afterwards (sampling latencies, assigning timer ids). Sends and
/// timers capture the trace/span context active at the moment the
/// effect was requested, which is how causal context propagates without
/// touching the protocol message types.
enum Effect<M> {
    Send { to: NodeId, msg: M, trace: u64, span: u64 },
    Timer { id: u64, after: Duration, tag: u64, trace: u64, span: u64 },
    CancelTimer { id: u64 },
}

/// Hashes the serial ids the simulator mints itself (span ids, timer
/// ids) with one multiply and a fold in place of SipHash: every span
/// open and close and every timer that fires looks one up. Serial ids
/// spread perfectly over the low bits a table indexes by; the fold
/// brings the product's well-mixed high bits down for `trace_base`
/// offsets that share their low bits. Not for keys from outside the
/// program.
#[derive(Default)]
struct SerialIdHasher(u64);

impl Hasher for SerialIdHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("serial ids hash as one u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let mixed = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = mixed ^ (mixed >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type SerialIdState = BuildHasherDefault<SerialIdHasher>;

/// One currently-open trace span (value of the open-span table).
struct OpenSpan {
    trace: u64,
    parent: u64,
    node: u64,
}

/// Per-run span/trace bookkeeping: serial id allocators plus the table
/// of open spans. Ids are allocated in event-processing order, which is
/// deterministic, so traces are byte-identical across `--jobs` levels.
struct SpanBook {
    next_trace_id: u64,
    next_span_id: u64,
    /// Open spans by span id. Unordered: shutdown sorts whatever is
    /// still open by id before it abandons it.
    open: HashMap<u64, OpenSpan, SerialIdState>,
}

impl SpanBook {
    fn new(base: u64) -> Self {
        // 0 is reserved for "no trace/span"; `base` offsets a grid
        // cell's ids into its own range so a concatenated multi-cell
        // trace file still has globally unique trace/span ids.
        SpanBook { next_trace_id: base + 1, next_span_id: base + 1, open: HashMap::default() }
    }
}

/// The actor's window into the simulator during a callback.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: NodeId,
    rng: &'a mut SimRng,
    recorder: &'a Recorder,
    next_timer_id: &'a mut u64,
    effects: Vec<Effect<M>>,
    /// Trace/span context this callback runs under: the envelope of the
    /// delivered message or fired timer, updated by
    /// [`Context::start_trace`]/[`Context::span_open`]/[`Context::span_close`].
    active_trace: u64,
    active_span: u64,
    spans: &'a mut SpanBook,
}

impl<'a, M> Context<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The simulation RNG (deterministic; shared by all actors).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The observability recorder, for protocol-level events (quorum
    /// waits, anti-entropy rounds, conflicts). Disabled recorders make
    /// every call a no-op, so actors can record unconditionally.
    pub fn recorder(&self) -> &Recorder {
        self.recorder
    }

    /// Record a protocol event at the current virtual time (shorthand
    /// for `ctx.recorder().record(ctx.now().as_micros(), kind)`).
    pub fn record(&self, kind: EventKind) {
        self.recorder.record(self.now.as_micros(), kind);
    }

    /// Send `msg` to `to`; it arrives after a latency sampled from the
    /// network model (or never, under loss/partition). The message
    /// envelope carries the currently active trace/span, so the
    /// receiver's callback resumes this causal context.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let (trace, span) = (self.active_trace, self.active_span);
        self.effects.push(Effect::Send { to, msg, trace, span });
    }

    /// Set a one-shot timer; returns its id (usable with
    /// [`Context::cancel_timer`]). `tag` is an arbitrary actor-chosen value
    /// passed back to [`Actor::on_timer`]. The timer carries the
    /// currently active trace/span, restored when it fires (so e.g. a
    /// timeout handler runs in the context of the operation it guards).
    pub fn set_timer(&mut self, after: Duration, tag: u64) -> u64 {
        let id = *self.next_timer_id;
        *self.next_timer_id += 1;
        let (trace, span) = (self.active_trace, self.active_span);
        self.effects.push(Effect::Timer { id, after, tag, trace, span });
        id
    }

    /// Cancel a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: u64) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Begin a new trace with a root span named `name`, making it the
    /// active context: subsequent sends/timers in this callback carry
    /// it. Returns the root span's id. The span stays open across
    /// callbacks until
    /// [`Context::span_close`] — store the id wherever the operation's
    /// pending state lives.
    pub fn start_trace(&mut self, name: &'static str) -> SpanId {
        let trace = self.spans.next_trace_id;
        self.spans.next_trace_id += 1;
        self.active_trace = trace;
        self.active_span = 0;
        self.open_span(name)
    }

    /// Open a child span of the active span (becoming the new active
    /// span). Returns [`SpanId::NONE`] and does nothing when no trace is
    /// active, so replicas can instrument handlers unconditionally —
    /// untraced background traffic (gossip, heartbeats) creates no
    /// orphan spans.
    pub fn span_open(&mut self, name: &'static str) -> SpanId {
        if self.active_trace == 0 {
            return SpanId::NONE;
        }
        self.open_span(name)
    }

    fn open_span(&mut self, name: &'static str) -> SpanId {
        let span = self.spans.next_span_id;
        self.spans.next_span_id += 1;
        let parent = self.active_span;
        let node = self.self_id.0 as u64;
        self.spans.open.insert(span, OpenSpan { trace: self.active_trace, parent, node });
        self.recorder.record(
            self.now.as_micros(),
            EventKind::SpanOpen { trace: self.active_trace, span, parent, node, name },
        );
        self.active_span = span;
        SpanId(span)
    }

    /// Make a previously-opened span the active context again (e.g. a
    /// client re-issuing a timed-out request from an untraced callback,
    /// so the retry's sends still carry the operation's trace). A
    /// closed, unknown, or [`SpanId::NONE`] span is a no-op.
    pub fn resume_span(&mut self, span: SpanId) {
        if let Some(open) = self.spans.open.get(&span.0) {
            self.active_trace = open.trace;
            self.active_span = span.0;
        }
    }

    /// Close an open span with the given status. Closing
    /// [`SpanId::NONE`] or an already-closed span is a no-op, so
    /// failure paths can close defensively. If the closed span is the
    /// active one, its parent becomes active again.
    pub fn span_close(&mut self, span: SpanId, status: SpanStatus) {
        let Some(open) = self.spans.open.remove(&span.0) else {
            return;
        };
        self.recorder.record(
            self.now.as_micros(),
            EventKind::SpanClose { trace: open.trace, span: span.0, node: open.node, status },
        );
        if self.active_span == span.0 {
            self.active_span = open.parent;
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; the run is a pure function of the config including this.
    pub seed: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Scripted faults.
    pub faults: FaultSchedule,
    /// Observability sink; defaults to disabled (zero overhead).
    pub recorder: Recorder,
    /// Trace/span ids are allocated serially starting at `trace_base +
    /// 1`. A grid runner gives each cell a disjoint base so ids stay
    /// unique across a concatenated multi-run trace file; the base is a
    /// pure function of the cell's grid position, never of scheduling,
    /// so traces remain byte-identical across `--jobs` levels.
    pub trace_base: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::lan(),
            faults: FaultSchedule::none(),
            recorder: Recorder::disabled(),
            trace_base: 0,
        }
    }
}

impl SimConfig {
    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Set the fault schedule.
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Attach an observability recorder (see [`obs::Recorder`]).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the first trace/span id range offset (see
    /// [`SimConfig::trace_base`]).
    pub fn trace_base(mut self, base: u64) -> Self {
        self.trace_base = base;
        self
    }
}

/// The deterministic simulator.
pub struct Sim<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    queue: EventQueue<M>,
    now: SimTime,
    rng: SimRng,
    latency: LatencySampler,
    faults: FaultState,
    next_timer_id: u64,
    cancelled_timers: HashSet<u64, SerialIdState>,
    /// Reusable effects buffer handed to each [`Context`]: callbacks
    /// append into it and the drained capacity is kept, so the steady
    /// state of the event loop performs no per-callback allocation.
    effects_scratch: Vec<Effect<M>>,
    started: bool,
    /// Count of messages dropped by partitions or loss (for availability
    /// accounting in experiments).
    pub dropped_messages: u64,
    /// Count of messages delivered.
    pub delivered_messages: u64,
    recorder: Recorder,
    spans: SpanBook,
    /// Cached `recorder.profiling_enabled()` (checked per handler call;
    /// enable profiling on the recorder *before* building the `Sim`).
    prof: bool,
}

impl<M> Sim<M> {
    /// Create a simulator from a config. Add actors with
    /// [`Sim::add_node`], then drive it with [`Sim::run_until`].
    ///
    /// Panics, naming the field, on a malformed
    /// [`LatencyModel::GeoMatrix`] (the model may have come from JSON).
    pub fn new(config: SimConfig) -> Self {
        let mut queue = EventQueue::new();
        for (at, ev) in config.faults.compile() {
            queue.push(at, EventPayload::Fault(ev));
        }
        Sim {
            actors: Vec::new(),
            queue,
            now: SimTime::ZERO,
            rng: SimRng::new(config.seed),
            latency: config.latency.compile(),
            faults: FaultState::default(),
            next_timer_id: 0,
            cancelled_timers: HashSet::default(),
            effects_scratch: Vec::new(),
            started: false,
            dropped_messages: 0,
            delivered_messages: 0,
            prof: config.recorder.profiling_enabled(),
            recorder: config.recorder,
            spans: SpanBook::new(config.trace_base),
        }
    }

    /// Approximate in-memory payload size used for `bytes` fields in
    /// recorded message events.
    fn msg_bytes() -> u64 {
        std::mem::size_of::<M>() as u64
    }

    /// The observability recorder attached to this simulation.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Add an actor; returns its [`NodeId`] (assigned densely from 0).
    /// Panics with a clear message when the node count would exceed
    /// compact `u32` addressing (see [`NodeId::from_index`]).
    pub fn add_node(&mut self, actor: Box<dyn Actor<M>>) -> NodeId {
        assert!(!self.started, "cannot add nodes after the simulation started");
        let id = NodeId::from_index(self.actors.len());
        self.actors.push(actor);
        id
    }

    /// Number of actors.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inject a message into `to`'s mailbox at absolute time `at`
    /// (appearing to come from `from`). Used by experiment drivers to start
    /// client operations at scripted times.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        self.recorder.record(
            at.as_micros(),
            EventKind::MessageSent {
                from: from.0 as u64,
                to: to.0 as u64,
                bytes: Self::msg_bytes(),
                trace: 0,
                span: 0,
            },
        );
        self.queue.push(at, EventPayload::Deliver { from, to, msg, trace: 0, span: 0 });
    }

    /// Messages currently in flight in the simulated network (pending
    /// deliveries, including ones that will be dropped on arrival).
    /// O(1): the queue maintains the count on push/pop.
    pub fn inflight_messages(&self) -> u64 {
        self.queue.deliver_count() as u64
    }

    /// Heap bytes of the key buffers the event queue owns right now
    /// ([`EventQueue::key_buffer_bytes`]): a diagnostic for what a
    /// simulator that has been through a burst still pins.
    pub fn queue_key_buffer_bytes(&self) -> usize {
        self.queue.key_buffer_bytes()
    }

    /// Drain every actor's [`Actor::drain_changed_versions`] report
    /// into `sink` as `(node, key, version)`, in node order.
    pub fn drain_changed_versions(&mut self, mut sink: impl FnMut(NodeId, u64, Option<u64>)) {
        for (i, actor) in self.actors.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            actor.drain_changed_versions(&mut |key, version| sink(node, key, version));
        }
    }

    /// The `(key, version)` pairs every actor reports via
    /// [`Actor::key_versions`], as `(node, key, version)` triples in
    /// node order (a full scan of every store).
    pub fn key_versions(&self) -> Vec<(NodeId, u64, u64)> {
        let mut out = Vec::new();
        for (i, actor) in self.actors.iter().enumerate() {
            for (key, version) in actor.key_versions() {
                out.push((NodeId(i as u32), key, version));
            }
        }
        out
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.call_actor(
                NodeId(i as u32),
                0,
                0,
                self.prof_key(HandlerKind::Start, NO_VARIANT),
                |actor, ctx| actor.on_start(ctx),
            );
        }
    }

    /// The profiler key for a handler about to run, or `None` when
    /// profiling is off (the probe then costs nothing).
    fn prof_key(
        &self,
        kind: HandlerKind,
        variant: &'static str,
    ) -> Option<(HandlerKind, &'static str)> {
        if self.prof {
            Some((kind, variant))
        } else {
            None
        }
    }

    /// Run a callback on one actor — under the trace/span context the
    /// triggering event carried — and apply the effects it produced.
    fn call_actor<F>(
        &mut self,
        id: NodeId,
        trace: u64,
        span: u64,
        prof: Option<(HandlerKind, &'static str)>,
        f: F,
    ) where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<M>),
    {
        self.call_actor_inner(id, trace, span, false, prof, f)
    }

    /// Like [`Sim::call_actor`] but throws the produced effects away:
    /// used for hooks on crashed nodes (they observe, e.g., membership
    /// changes but cannot send or arm timers while down) and for
    /// `on_shutdown` at teardown.
    fn call_actor_discard<F>(&mut self, id: NodeId, prof: Option<(HandlerKind, &'static str)>, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<M>),
    {
        self.call_actor_inner(id, 0, 0, true, prof, f)
    }

    fn call_actor_inner<F>(
        &mut self,
        id: NodeId,
        trace: u64,
        span: u64,
        discard: bool,
        prof: Option<(HandlerKind, &'static str)>,
        f: F,
    ) where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<M>),
    {
        // The probe brackets only the actor callback itself: effect
        // application below (latency sampling, queue pushes, network
        // bookkeeping) is simulator cost, not handler cost.
        let probe = prof.map(|_| Probe::start());
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            recorder: &self.recorder,
            next_timer_id: &mut self.next_timer_id,
            effects: std::mem::take(&mut self.effects_scratch),
            active_trace: trace,
            active_span: span,
            spans: &mut self.spans,
        };
        f(self.actors[id.index()].as_mut(), &mut ctx);
        let mut effects = ctx.effects;
        if let (Some((kind, variant)), Some(probe)) = (prof, probe) {
            let sample = probe.finish();
            self.recorder.prof_record(self.actors[id.index()].role(), kind, variant, sample);
        }
        if discard {
            effects.clear();
            self.effects_scratch = effects;
            return;
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg, trace, span } => {
                    let now_us = self.now.as_micros();
                    self.recorder.record(
                        now_us,
                        EventKind::MessageSent {
                            from: id.0 as u64,
                            to: to.0 as u64,
                            bytes: Self::msg_bytes(),
                            trace,
                            span,
                        },
                    );
                    if self.faults.is_partitioned(id, to) {
                        self.dropped_messages += 1;
                        self.recorder.record(
                            now_us,
                            EventKind::MessageDropped {
                                from: id.0 as u64,
                                to: to.0 as u64,
                                reason: DropReason::Partition,
                                trace,
                                span,
                            },
                        );
                        continue;
                    }
                    if self.faults.loss_rate > 0.0 && self.rng.chance(self.faults.loss_rate) {
                        self.dropped_messages += 1;
                        self.recorder.record(
                            now_us,
                            EventKind::MessageDropped {
                                from: id.0 as u64,
                                to: to.0 as u64,
                                reason: DropReason::Loss,
                                trace,
                                span,
                            },
                        );
                        continue;
                    }
                    let delay = if to == id {
                        Duration::from_micros(1)
                    } else {
                        let base = self.latency.sample(id, to, &mut self.rng);
                        // Latency-skew fault: scale by the active factor
                        // (integer percent arithmetic keeps runs exactly
                        // reproducible).
                        if self.faults.latency_factor_pct == 100 {
                            base
                        } else {
                            Duration::from_micros(
                                (base.as_micros() * self.faults.latency_factor_pct / 100).max(1),
                            )
                        }
                    };
                    self.queue.push(
                        self.now + delay,
                        EventPayload::Deliver { from: id, to, msg, trace, span },
                    );
                }
                Effect::Timer { id: tid, after, tag, trace, span } => {
                    self.queue.push(
                        self.now + after,
                        EventPayload::Timer { node: id, timer_id: tid, tag, trace, span },
                    );
                }
                Effect::CancelTimer { id: tid } => {
                    self.cancelled_timers.insert(tid);
                }
            }
        }
        self.effects_scratch = effects;
    }
}

/// The run loop. Dispatching a delivery asks the message for its
/// variant name (profiler attribution), hence the [`MsgMeta`] bound —
/// construction and inspection ([`Sim::new`], [`Sim::add_node`],
/// [`Sim::inject_at`]) stay unbounded.
impl<M: MsgMeta> Sim<M> {
    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.dispatch(ev);
        true
    }

    /// Apply one popped event: advance the clock and run the handler.
    fn dispatch(&mut self, ev: Event<M>) {
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        match ev.payload {
            EventPayload::Deliver { from, to, msg, trace, span } => {
                if self.faults.is_crashed(to) {
                    self.dropped_messages += 1;
                    self.recorder.record(
                        self.now.as_micros(),
                        EventKind::MessageDropped {
                            from: from.0 as u64,
                            to: to.0 as u64,
                            reason: DropReason::CrashedDestination,
                            trace,
                            span,
                        },
                    );
                } else {
                    self.delivered_messages += 1;
                    self.recorder.record(
                        self.now.as_micros(),
                        EventKind::MessageDelivered {
                            from: from.0 as u64,
                            to: to.0 as u64,
                            bytes: Self::msg_bytes(),
                            trace,
                            span,
                        },
                    );
                    // Read the variant name before the message moves
                    // into the callback closure.
                    let prof = self.prof_key(HandlerKind::Message, msg.variant_name());
                    self.call_actor(to, trace, span, prof, |actor, ctx| {
                        actor.on_message(ctx, from, msg)
                    });
                }
            }
            EventPayload::Timer { node, timer_id, tag, trace, span } => {
                if self.cancelled_timers.remove(&timer_id) || self.faults.is_crashed(node) {
                    // Cancelled, or the node is down: timers are soft state.
                } else {
                    self.recorder.count_node(node.0 as u64, Counter::TimersFired, 1);
                    let prof = self.prof_key(HandlerKind::Timer, NO_VARIANT);
                    self.call_actor(node, trace, span, prof, |actor, ctx| {
                        actor.on_timer(ctx, timer_id, tag)
                    });
                }
            }
            EventPayload::Fault(fev) => {
                use crate::faults::FaultEvent::*;
                let now_us = self.now.as_micros();
                match &fev {
                    Crash { node } => {
                        let node = *node;
                        self.recorder.record(now_us, EventKind::Crash { node: node.0 as u64 });
                        self.faults.apply(&fev);
                        let prof = self.prof_key(HandlerKind::Crash, NO_VARIANT);
                        self.call_actor(node, 0, 0, prof, |actor, ctx| actor.on_crash(ctx));
                    }
                    Recover { node, amnesia } => {
                        let (node, amnesia) = (*node, *amnesia);
                        self.recorder.record(now_us, EventKind::Recover { node: node.0 as u64 });
                        if amnesia {
                            self.recorder.count_node(node.0 as u64, Counter::AmnesiaRecoveries, 1);
                        }
                        self.faults.apply(&fev);
                        let prof = self.prof_key(HandlerKind::Recover, NO_VARIANT);
                        self.call_actor(node, 0, 0, prof, |actor, ctx| {
                            actor.on_recover(ctx, amnesia)
                        });
                    }
                    PartitionStart { side_a, .. } => {
                        self.recorder.record(
                            now_us,
                            EventKind::PartitionStart {
                                island: side_a.iter().map(|n| n.0 as u64).collect(),
                            },
                        );
                        self.faults.apply(&fev);
                    }
                    PartitionEnd { .. } => {
                        self.recorder.record(now_us, EventKind::PartitionHeal);
                        self.faults.apply(&fev);
                    }
                    MembershipChange { node, join } => {
                        let (node, join) = (*node, *join);
                        self.recorder.record(
                            now_us,
                            EventKind::MembershipChange { node: node.0 as u64, join },
                        );
                        self.faults.apply(&fev);
                        // Every actor observes the change in id order so
                        // ownership views stay identical; crashed nodes
                        // observe it with their effects discarded (a
                        // down node cannot send or arm timers).
                        let prof = self.prof_key(HandlerKind::Membership, NO_VARIANT);
                        for i in 0..self.actors.len() {
                            let id = NodeId(i as u32);
                            if self.faults.is_crashed(id) {
                                self.call_actor_discard(id, prof, |actor, ctx| {
                                    actor.on_membership(ctx, node, join)
                                });
                            } else {
                                self.call_actor(id, 0, 0, prof, |actor, ctx| {
                                    actor.on_membership(ctx, node, join)
                                });
                            }
                        }
                    }
                    _ => self.faults.apply(&fev),
                }
            }
        }
    }

    /// Run until the queue drains or virtual time passes `deadline`.
    /// Returns the number of events processed.
    ///
    /// The loop pops due events with a single combined probe
    /// ([`EventQueue::pop_if_at_most`]); the timing wheel answers it
    /// from its same-tick batch buffer, so a burst of simultaneous
    /// deliveries costs one wheel walk for the whole tick.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let mut n = 0;
        while let Some(ev) = self.queue.pop_if_at_most(deadline) {
            self.dispatch(ev);
            n += 1;
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so back-to-back `run_until` calls observe monotonic time.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }
}

impl<M> Drop for Sim<M> {
    /// Account for work still outstanding when the simulation is torn
    /// down (horizon reached mid-delivery): each in-flight message is
    /// recorded as dropped with reason `shutdown`, and each still-open
    /// trace span is closed with status `abandoned`. Without this,
    /// truncated runs would break the conservation identities
    /// `messages_sent == messages_delivered + messages_dropped` and
    /// `spans_opened == spans_closed` (see `docs/METRICS.md`).
    fn drop(&mut self) {
        let now_us = self.now.as_micros();
        // Let every actor account for state it still holds (undrained
        // hints, unshipped batches) before the queue drain below; the
        // hook's effects are discarded — the run is over.
        for i in 0..self.actors.len() {
            let prof = self.prof_key(HandlerKind::Shutdown, NO_VARIANT);
            self.call_actor_discard(NodeId(i as u32), prof, |actor, ctx| actor.on_shutdown(ctx));
        }
        while let Some(ev) = self.queue.pop() {
            if let EventPayload::Deliver { from, to, trace, span, .. } = ev.payload {
                self.dropped_messages += 1;
                self.recorder.record(
                    now_us,
                    EventKind::MessageDropped {
                        from: from.0 as u64,
                        to: to.0 as u64,
                        reason: DropReason::Shutdown,
                        trace,
                        span,
                    },
                );
            }
        }
        // Abandonment closes fire in span-id order, keeping shutdown
        // tails byte-identical across runs.
        let mut abandoned: Vec<_> = self.spans.open.drain().collect();
        abandoned.sort_unstable_by_key(|&(span, _)| span);
        for (span, open) in abandoned {
            self.recorder.record(
                now_us,
                EventKind::SpanClose {
                    trace: open.trace,
                    span,
                    node: open.node,
                    status: SpanStatus::Abandoned,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn node_id_round_trips_at_u32_boundary() {
        let id = NodeId::from_index(u32::MAX as usize);
        assert_eq!(id, NodeId(u32::MAX));
        assert_eq!(id.index(), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "exceeds compact u32 NodeId addressing")]
    fn node_id_from_index_rejects_indices_above_u32() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    /// Echoes every message back to its sender, once.
    struct Echo {
        log: Rc<RefCell<Vec<(SimTime, NodeId, u32)>>>,
    }

    impl Actor<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, msg: u32) {
            self.log.borrow_mut().push((ctx.now(), from, msg));
            if msg < 100 {
                ctx.send(from, msg + 100);
            }
        }
    }

    type EchoLog = Rc<RefCell<Vec<(SimTime, NodeId, u32)>>>;

    fn two_node_sim(latency: LatencyModel, faults: FaultSchedule) -> (Sim<u32>, EchoLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default().seed(1).latency(latency).faults(faults));
        sim.add_node(Box::new(Echo { log: log.clone() }));
        sim.add_node(Box::new(Echo { log: log.clone() }));
        (sim, log)
    }

    #[test]
    fn request_reply_round_trip() {
        let (mut sim, log) =
            two_node_sim(LatencyModel::Constant(Duration::from_millis(5)), FaultSchedule::none());
        sim.inject_at(SimTime::from_millis(1), NodeId(0), NodeId(1), 7);
        sim.run_until(SimTime::from_millis(100));
        let log = log.borrow();
        // Node 1 receives 7 at t=1ms, echoes 107 which node 0 receives at 6ms.
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (SimTime::from_millis(1), NodeId(0), 7));
        assert_eq!(log[1], (SimTime::from_millis(6), NodeId(1), 107));
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(SimConfig::default().seed(seed).latency(LatencyModel::lan()));
            sim.add_node(Box::new(Echo { log: log.clone() }));
            sim.add_node(Box::new(Echo { log: log.clone() }));
            for i in 0..20 {
                sim.inject_at(SimTime::from_millis(i), NodeId(0), NodeId(1), i as u32);
            }
            sim.run_until(SimTime::from_secs(1));
            let v = log.borrow().clone();
            v
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn partition_drops_messages() {
        let faults = FaultSchedule::none().partition(
            vec![NodeId(0)],
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        let (mut sim, log) = two_node_sim(LatencyModel::Constant(Duration::from_millis(1)), faults);
        sim.inject_at(SimTime::from_millis(10), NodeId(0), NodeId(1), 1);
        sim.run_until(SimTime::from_millis(40));
        // The injected message is delivered (injection bypasses the network),
        // but node 1's echo back to node 0 is dropped by the partition.
        assert_eq!(log.borrow().len(), 1);
        assert!(sim.dropped_messages >= 1);
    }

    #[test]
    fn crashed_node_drops_messages_then_recovers() {
        let faults = FaultSchedule::none().crash(
            NodeId(1),
            SimTime::from_millis(0),
            SimTime::from_millis(20),
        );
        let (mut sim, log) = two_node_sim(LatencyModel::Constant(Duration::from_millis(1)), faults);
        sim.inject_at(SimTime::from_millis(10), NodeId(0), NodeId(1), 1); // dropped: crashed
        sim.inject_at(SimTime::from_millis(30), NodeId(0), NodeId(1), 2); // delivered
        sim.run_until(SimTime::from_millis(100));
        let log = log.borrow();
        let received: Vec<u32> = log.iter().map(|&(_, _, m)| m).collect();
        assert!(received.contains(&2));
        assert!(!received.contains(&1));
    }

    #[test]
    fn full_loss_drops_everything() {
        let faults = FaultSchedule::none().loss_rate(SimTime::ZERO, 1.0);
        let (mut sim, log) = two_node_sim(LatencyModel::Constant(Duration::from_millis(1)), faults);
        sim.inject_at(SimTime::from_millis(1), NodeId(0), NodeId(1), 1);
        sim.run_until(SimTime::from_millis(100));
        // Injection is delivered; the echo reply is lost.
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.dropped_messages, 1);
    }

    struct TimerUser {
        fired: Rc<RefCell<Vec<u64>>>,
        cancel_second: bool,
    }

    impl Actor<u32> for TimerUser {
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            ctx.set_timer(Duration::from_millis(10), 1);
            let second = ctx.set_timer(Duration::from_millis(20), 2);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<u32>, _from: NodeId, _msg: u32) {}
        fn on_timer(&mut self, _ctx: &mut Context<u32>, _timer_id: u64, tag: u64) {
            self.fired.borrow_mut().push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(SimConfig::default());
        sim.add_node(Box::new(TimerUser { fired: fired.clone(), cancel_second: false }));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(*fired.borrow(), vec![1, 2]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(SimConfig::default());
        sim.add_node(Box::new(TimerUser { fired: fired.clone(), cancel_second: true }));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(*fired.borrow(), vec![1]);
    }

    /// What a crash does to timers, pinned as it is: a timer is
    /// discarded when it comes *due* while its node is down, not when
    /// the node crashes. One armed before a short outage and due after
    /// it fires as if nothing had happened — next to whatever chain
    /// `on_recover` re-armed.
    #[test]
    fn timers_due_after_recovery_still_fire() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let faults = FaultSchedule::none().crash(
            NodeId(0),
            SimTime::from_millis(5),
            SimTime::from_millis(15),
        );
        let mut sim: Sim<u32> = Sim::new(SimConfig::default().faults(faults));
        // Armed at 0: tag 1 due at 10 ms (during the outage), tag 2 at 20 ms.
        sim.add_node(Box::new(TimerUser { fired: fired.clone(), cancel_second: false }));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(*fired.borrow(), vec![2]);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim: Sim<u32> = Sim::new(SimConfig::default());
        sim.add_node(Box::new(Echo { log: Rc::new(RefCell::new(Vec::new())) }));
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(sim.now(), SimTime::from_millis(250));
    }

    /// Client starts a trace on start, the server opens/closes a child
    /// span and replies, the client closes the root span on the reply.
    struct TracedPing {
        server: NodeId,
        root: Option<SpanId>,
    }

    impl Actor<u32> for TracedPing {
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            self.root = Some(ctx.start_trace("op"));
            ctx.send(self.server, 1);
        }
        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, _msg: u32) {
            ctx.span_close(self.root.take().expect("one reply"), SpanStatus::Ok);
        }
    }

    struct TracedServer;

    impl Actor<u32> for TracedServer {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, msg: u32) {
            let span = ctx.span_open("serve");
            assert!(!span.is_none());
            ctx.send(from, msg + 1);
            ctx.span_close(span, SpanStatus::Ok);
        }
    }

    #[test]
    fn spans_propagate_through_message_envelopes() {
        let rec = Recorder::with_event_log();
        let mut sim: Sim<u32> = Sim::new(SimConfig::default().recorder(rec.clone()));
        let server = NodeId(1);
        sim.add_node(Box::new(TracedPing { server, root: None }));
        sim.add_node(Box::new(TracedServer));
        sim.run_until(SimTime::from_secs(1));
        drop(sim);
        let report = rec.report();
        assert_eq!(report.counter(Counter::SpansOpened), 2);
        assert_eq!(report.counter(Counter::SpansClosed), 2);
        assert_eq!(report.counter(Counter::SpansAbandoned), 0);
        // Both messages carried the trace, sent and delivered (a delivery
        // runs its handler under the trace its envelope carries).
        let (mut traced_sends, mut traced_deliveries) = (0, 0);
        rec.for_each_event(|ev| match ev.kind {
            EventKind::MessageSent { trace, .. } if trace != 0 => traced_sends += 1,
            EventKind::MessageDelivered { trace, .. } if trace != 0 => traced_deliveries += 1,
            _ => {}
        });
        assert_eq!((traced_sends, traced_deliveries), (2, 2));
    }

    struct OpensAndForgets;

    impl Actor<u32> for OpensAndForgets {
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            ctx.start_trace("never_closed");
        }
        fn on_message(&mut self, _ctx: &mut Context<u32>, _from: NodeId, _msg: u32) {}
    }

    #[test]
    fn open_spans_are_abandoned_at_shutdown() {
        let rec = Recorder::enabled();
        let mut sim: Sim<u32> = Sim::new(SimConfig::default().recorder(rec.clone()));
        sim.add_node(Box::new(OpensAndForgets));
        sim.run_until(SimTime::from_millis(10));
        drop(sim);
        let report = rec.report();
        assert_eq!(report.counter(Counter::SpansOpened), 1);
        assert_eq!(report.counter(Counter::SpansClosed), 1);
        assert_eq!(report.counter(Counter::SpansAbandoned), 1);
    }

    struct UntracedOpener {
        opened: Rc<RefCell<Option<SpanId>>>,
    }

    impl Actor<u32> for UntracedOpener {
        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, _msg: u32) {
            *self.opened.borrow_mut() = Some(ctx.span_open("untraced"));
        }
    }

    #[test]
    fn span_open_without_trace_is_inert() {
        let rec = Recorder::enabled();
        let opened = Rc::new(RefCell::new(None));
        let mut sim: Sim<u32> = Sim::new(SimConfig::default().recorder(rec.clone()));
        sim.add_node(Box::new(UntracedOpener { opened: opened.clone() }));
        // Injected messages carry no trace, so the handler's span_open
        // must be a no-op rather than create an orphan span.
        sim.inject_at(SimTime::from_millis(1), NodeId(0), NodeId(0), 7);
        sim.run_until(SimTime::from_millis(10));
        drop(sim);
        assert_eq!(*opened.borrow(), Some(SpanId::NONE));
        assert_eq!(rec.report().counter(Counter::SpansOpened), 0);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn inject_into_past_panics() {
        let (mut sim, _log) =
            two_node_sim(LatencyModel::Constant(Duration::from_millis(1)), FaultSchedule::none());
        sim.run_until(SimTime::from_millis(10));
        sim.inject_at(SimTime::from_millis(5), NodeId(0), NodeId(1), 1);
    }
}
