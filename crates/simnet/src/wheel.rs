//! The hierarchical timing wheel behind [`crate::event::EventQueue`].
//!
//! It upholds the queue's ordering contract — events pop in ascending
//! `(time, seq)` order — with `O(1)` amortized bucket appends of
//! 24-byte keys in place of an `O(log n)` heap sift that moves whole
//! event envelopes on every compare-and-swap; the envelopes themselves
//! are parked in a free-list slab and never moved until they fire.
//!
//! ## Structure
//!
//! * **Levels.** [`LEVELS`] wheel levels of [`SLOTS`] slots each. A slot
//!   at level `l` spans `64^l` microseconds of virtual time, so level 0
//!   resolves single microsecond ticks and the whole wheel covers
//!   `64^6 ≈ 19.1` virtual hours ahead of the cursor. An event lands at
//!   the lowest level whose slot still distinguishes it from the cursor
//!   (the level of the highest 6-bit group in which `time XOR cursor`
//!   differs). As the cursor advances into a higher-level slot, that
//!   slot's events **cascade**: they are re-homed into lower levels,
//!   eventually reaching a level-0 slot, which holds exactly one
//!   timestamp.
//!
//! * **Overflow policy.** Events more than a wheel span ahead of the
//!   cursor (far-future timers, `SimTime::MAX` sentinels) go to a small
//!   binary heap ordered by `(time, seq)`. The overflow heap is only
//!   consulted when the wheel proper is empty: because every wheel entry
//!   shares the cursor's high bit-groups and every overflow entry
//!   exceeds them, the overflow minimum is always later than the entire
//!   wheel. When the wheel drains, the cursor jumps to the overflow
//!   minimum and every overflow entry within the new span migrates in.
//!
//! * **Slab lifecycle.** Envelopes (message payloads, timer metadata,
//!   fault events) live in a slab: a `Vec` of slots plus a LIFO free
//!   list. Push claims a slot (reusing the most recently freed one —
//!   the slot most likely still in cache); pop vacates it. Wheel slots
//!   and the overflow heap store only `(time, seq, slab index)` keys.
//!   A slot is `None` exactly when it is on the free list, which is the
//!   invariant that makes double-free or aliasing of a live envelope a
//!   panic rather than silent corruption.
//!
//! * **Batch drain.** Popping drains one level-0 slot at a time into a
//!   `seq`-sorted batch buffer, so a burst of same-tick events (a
//!   broadcast fan-out, a quorum of replies) costs one wheel walk for
//!   the whole tick. Events pushed *at* the drained tick while the batch
//!   is being served carry later `seq` values and are picked up by the
//!   next drain of the same slot, preserving the ordering contract.
//!   A deep queue's envelopes are far apart in the slab and rarely in
//!   cache, so each pop asks for the envelope of the key
//!   [`PREFETCH_AHEAD`] places further down the batch to be loaded
//!   while the keys before it are served, and a drain asks for the
//!   first keys of the new batch, which that look-ahead never reaches.
//!
//! * **Bucket recycling.** A drained bucket keeps its buffer: a level-0
//!   slot is drained into the batch in place and a cascading slot is
//!   read out key by key (a key never cascades back into the slot it
//!   leaves) and then cleared. A slot allocates when it is first filled
//!   and when it sees more keys than ever before; after that the
//!   steady state allocates nothing. Retention is bounded: a buffer
//!   that grew past [`RETAIN_KEYS`] keys is freed when it drains, so a
//!   burst (a deep storm's level-1 slots hold thousands of keys each)
//!   does not pin its high-water mark — at most
//!   `LEVELS × SLOTS × RETAIN_KEYS` keys of capacity stay behind.
//!   The key buffers outlive their wheel: they do not depend on `M`,
//!   so a dropped wheel clears them, applies the same bound to every
//!   bucket, the batch and the overflow heap, and leaves them in a
//!   thread-local spare that the next wheel on the thread, of any
//!   message type, starts from. There is one spare per thread (a
//!   second wheel dropped replaces it), so a worker that runs case
//!   after case in fresh simulators pays for its buckets once, and a
//!   thread keeps at most one wheel's bounded buffers when idle.
//!
//! The simulator can briefly advance the cursor *past* pending-push
//! times: `peek_time` pre-drains the next slot, and a driver may then
//! inject an earlier event (still later than everything already
//! popped). Such keys are spliced into the sorted batch directly — a
//! cold path that keeps the contract airtight without re-winding the
//! wheel.

use crate::event::{Event, EventPayload};
use crate::faults::FaultEvent;
use crate::sim::NodeId;
use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond `64^LEVELS` microseconds ahead of the
/// cursor, events overflow to the far-future heap.
const LEVELS: usize = 6;
/// The largest key buffer, in keys of capacity, that a drained bucket
/// keeps for its next use; a larger one is freed. 512 keys in place of
/// 64 (1.5 KiB) measured 3–5 % more on the synthetic storm, nothing on
/// the protocol workloads and a quarter of a MiB more resident per
/// simulator, and was not taken.
const RETAIN_KEYS: usize = 64;

/// How many keys ahead of the one it pops [`TimingWheel::pop`] asks for
/// an envelope to be pulled into cache: far enough that the load is
/// done by the time that key pops, near enough that the line is still
/// there.
const PREFETCH_AHEAD: usize = 6;

/// Ask the CPU to start loading `target` into cache, without waiting
/// for it. Compiles to nothing off x86-64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults, and the address
    // comes from a live reference, so it is in bounds of an allocation.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((target as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

/// A queue entry: where in time it fires, its tie-break sequence, and
/// which slab slot holds its envelope. Keys are what the wheel moves
/// around; envelopes stay put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

/// Compact envelope stored in the slab. [`NodeId`] is natively `u32`
/// (actor tables are dense and start at 0; see [`crate::sim::Sim`]) so
/// ids are stored as-is — no narrow/widen shims — and the rare, bulky
/// fault variant is boxed so it does not inflate every slot.
enum Envelope<M> {
    Deliver { from: NodeId, to: NodeId, trace: u64, span: u64, msg: M },
    Timer { node: NodeId, timer_id: u64, tag: u64, trace: u64, span: u64 },
    Fault(Box<FaultEvent>),
}

impl<M> Envelope<M> {
    fn compact(payload: EventPayload<M>) -> Self {
        match payload {
            EventPayload::Deliver { from, to, msg, trace, span } => {
                Envelope::Deliver { from, to, trace, span, msg }
            }
            EventPayload::Timer { node, timer_id, tag, trace, span } => {
                Envelope::Timer { node, timer_id, tag, trace, span }
            }
            EventPayload::Fault(ev) => Envelope::Fault(Box::new(ev)),
        }
    }

    fn expand(self) -> EventPayload<M> {
        match self {
            Envelope::Deliver { from, to, trace, span, msg } => {
                EventPayload::Deliver { from, to, msg, trace, span }
            }
            Envelope::Timer { node, timer_id, tag, trace, span } => {
                EventPayload::Timer { node, timer_id, tag, trace, span }
            }
            Envelope::Fault(ev) => EventPayload::Fault(*ev),
        }
    }
}

/// Free-list slab of event envelopes. `slots[i]` is `Some` iff `i` is
/// live (claimed by exactly one wheel/overflow/batch key); freed
/// indices are reused LIFO.
struct Slab<M> {
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<u32>,
}

impl<M> Slab<M> {
    fn new() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, env: Envelope<M>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                assert!(slot.is_none(), "free list handed out a live slot (aliasing)");
                *slot = Some(env);
                i
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab exhausted u32 indices");
                self.slots.push(Some(env));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Start loading slot `i` into cache for a pop a few keys later.
    #[inline]
    fn prefetch(&self, i: u32) {
        if let Some(slot) = self.slots.get(i as usize) {
            prefetch(slot);
        }
    }

    fn remove(&mut self, i: u32) -> Envelope<M> {
        let env = self.slots[i as usize].take().expect("slab slot freed twice");
        self.free.push(i);
        env
    }
}

/// Free a drained key buffer that grew past the retention bound.
#[inline]
fn release_if_oversized<K>(drained: &mut Vec<K>) {
    debug_assert!(drained.is_empty());
    if drained.capacity() > RETAIN_KEYS {
        *drained = Vec::new();
    }
}

/// The key buffers of a wheel: everything it owns that does not depend
/// on the message type, and so can pass from one wheel to the next.
struct KeyBuffers {
    buckets: Vec<Vec<Key>>,
    batch: VecDeque<Key>,
    overflow: Vec<Reverse<Key>>,
}

thread_local! {
    /// The buffers the last wheel dropped on this thread left behind,
    /// empty and bounded, for the next wheel to start from.
    static SPARE: Cell<Option<KeyBuffers>> = const { Cell::new(None) };
}

impl KeyBuffers {
    /// The spare, if this thread has one, else fresh buffers.
    fn take() -> Self {
        SPARE.try_with(Cell::take).ok().flatten().unwrap_or_else(|| KeyBuffers {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            batch: VecDeque::new(),
            overflow: Vec::new(),
        })
    }

    /// Empty every buffer, free the ones past [`RETAIN_KEYS`] and leave
    /// the rest as this thread's spare. During thread-local teardown
    /// there is no spare to leave them in, and they are freed.
    fn give_back(mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
            release_if_oversized(bucket);
        }
        self.batch.clear();
        if self.batch.capacity() > RETAIN_KEYS {
            self.batch = VecDeque::new();
        }
        self.overflow.clear();
        release_if_oversized(&mut self.overflow);
        let _ = SPARE.try_with(|spare| spare.set(Some(self)));
    }
}

/// A deterministic event queue backed by a hierarchical timing wheel
/// with a far-future overflow heap and a slab of envelopes. Pops in
/// strictly ascending `(time, seq)` order.
pub(crate) struct TimingWheel<M> {
    slab: Slab<M>,
    /// `LEVELS × SLOTS` buckets of keys, flattened level-major.
    buckets: Vec<Vec<Key>>,
    /// One occupancy bit per slot, per level; bit `s` of `occupied[l]`
    /// is set iff `buckets[l * SLOTS + s]` is non-empty.
    occupied: [u64; LEVELS],
    /// Far-future entries (more than a wheel span ahead of the cursor).
    overflow: BinaryHeap<Reverse<Key>>,
    /// The pre-drained earliest tick, sorted ascending by `(at, seq)`.
    batch: VecDeque<Key>,
    /// Lower bound (inclusive) on every time stored in the wheel and
    /// overflow; advances monotonically as slots drain.
    cursor: u64,
    /// Time of the most recently popped event: nothing may ever be
    /// pushed before this (the simulator never schedules into the past).
    floor: u64,
    len: usize,
}

impl<M> TimingWheel<M> {
    /// An empty wheel, on this thread's spare key buffers if a dropped
    /// wheel left some.
    pub(crate) fn new() -> Self {
        let KeyBuffers { buckets, batch, overflow } = KeyBuffers::take();
        TimingWheel {
            slab: Slab::new(),
            buckets,
            occupied: [0; LEVELS],
            overflow: BinaryHeap::from(overflow),
            batch,
            cursor: 0,
            floor: 0,
            len: 0,
        }
    }

    /// The 6-bit group of `t` addressed by level `l`.
    #[inline]
    fn group(t: u64, l: usize) -> usize {
        ((t >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// The level whose slot resolution still distinguishes `at` from the
    /// cursor; `>= LEVELS` means `at` is beyond the wheel span (overflow).
    #[inline]
    fn level_for(&self, at: u64) -> usize {
        let x = at ^ self.cursor;
        if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, payload: EventPayload<M>) {
        let slot = self.slab.insert(Envelope::compact(payload));
        self.len += 1;
        self.place(Key { at: at.as_micros(), seq, slot });
    }

    fn place(&mut self, key: Key) {
        debug_assert!(key.at >= self.floor, "scheduled before an already-popped event");
        if key.at < self.cursor {
            // `peek_time` pre-drained a later tick and the driver then
            // injected an earlier event: splice it into the sorted batch.
            let pos = self.batch.partition_point(|k| (k.at, k.seq) < (key.at, key.seq));
            self.batch.insert(pos, key);
            return;
        }
        let l = self.level_for(key.at);
        if l >= LEVELS {
            self.overflow.push(Reverse(key));
            return;
        }
        let s = Self::group(key.at, l);
        self.buckets[l * SLOTS + s].push(key);
        self.occupied[l] |= 1 << s;
    }

    /// Drain the earliest pending tick into the batch buffer. Returns
    /// `false` when the queue holds nothing outside the batch.
    fn fill_batch(&mut self) -> bool {
        loop {
            let Some(l) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: jump the cursor to the overflow minimum
                // and migrate everything within the new span.
                let Some(&Reverse(top)) = self.overflow.peek() else {
                    return false;
                };
                self.cursor = top.at;
                while let Some(&Reverse(next)) = self.overflow.peek() {
                    if self.level_for(next.at) >= LEVELS {
                        break;
                    }
                    let Reverse(key) = self.overflow.pop().expect("peeked");
                    self.place(key);
                }
                continue;
            };
            let s = self.occupied[l].trailing_zeros() as usize;
            self.occupied[l] &= !(1 << s);
            let slot = l * SLOTS + s;
            debug_assert!(!self.buckets[slot].is_empty(), "occupancy bit set on an empty bucket");
            if l == 0 {
                // A level-0 slot within the current rotation holds
                // exactly one timestamp; order the tick by seq.
                let bucket = &mut self.buckets[slot];
                bucket.sort_unstable_by_key(|k| k.seq);
                debug_assert!(bucket.windows(2).all(|w| w[0].at == w[1].at));
                self.cursor = bucket[0].at;
                // The look-ahead in `pop` starts at the key
                // `PREFETCH_AHEAD` in; the keys before it are asked
                // for here.
                for key in bucket.iter().take(PREFETCH_AHEAD) {
                    self.slab.prefetch(key.slot);
                }
                self.batch.extend(bucket.drain(..));
                release_if_oversized(bucket);
                return true;
            }
            // Cascade: advance the cursor to the slot's start and
            // re-home its entries; each lands strictly below level `l`,
            // so the slot being read out does not change under the loop.
            let high_mask = !0u64 << (LEVEL_BITS * (l as u32 + 1));
            self.cursor = (self.cursor & high_mask) | ((s as u64) << (LEVEL_BITS * l as u32));
            for i in 0..self.buckets[slot].len() {
                let key = self.buckets[slot][i];
                debug_assert!(key.at >= self.cursor && self.level_for(key.at) < l);
                self.place(key);
            }
            self.buckets[slot].clear();
            release_if_oversized(&mut self.buckets[slot]);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        if self.batch.is_empty() && !self.fill_batch() {
            return None;
        }
        let key = self.batch.pop_front().expect("batch filled");
        if let Some(ahead) = self.batch.get(PREFETCH_AHEAD - 1) {
            self.slab.prefetch(ahead.slot);
        }
        self.len -= 1;
        self.floor = key.at;
        let payload = self.slab.remove(key.slot).expand();
        Some(Event { at: SimTime::from_micros(key.at), seq: key.seq, payload })
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.batch.is_empty() && !self.fill_batch() {
            return None;
        }
        Some(SimTime::from_micros(self.batch.front().expect("batch filled").at))
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes of the key buffers the wheel owns right now (bucket,
    /// batch and overflow capacities). The slab is not counted:
    /// it is sized by the high-water mark of pending events by design.
    pub(crate) fn key_buffer_bytes(&self) -> usize {
        let keys = self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.batch.capacity()
            + self.overflow.capacity();
        keys * std::mem::size_of::<Key>()
    }

    /// Count pending `Deliver` envelopes by walking the live slab slots.
    /// O(slab capacity) — only used by the debug assertion that
    /// cross-checks [`crate::event::EventQueue`]'s incremental count.
    pub(crate) fn walk_deliver_count(&self) -> usize {
        self.slab.slots.iter().filter(|s| matches!(s, Some(Envelope::Deliver { .. }))).count()
    }
}

impl<M> Drop for TimingWheel<M> {
    fn drop(&mut self) {
        KeyBuffers {
            buckets: std::mem::take(&mut self.buckets),
            batch: std::mem::take(&mut self.batch),
            overflow: std::mem::take(&mut self.overflow).into_vec(),
        }
        .give_back();
    }
}

impl<M> std::fmt::Debug for TimingWheel<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .field("batch", &self.batch.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(tag: u64) -> EventPayload<()> {
        EventPayload::Timer { node: NodeId(0), timer_id: 0, tag, trace: 0, span: 0 }
    }

    fn tag_of(ev: &Event<()>) -> u64 {
        match ev.payload {
            EventPayload::Timer { tag, .. } => tag,
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn cascades_across_levels() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        // Times spanning level 0 (same 64us window), level 2, level 4.
        let times = [5u64, 63, 64, 4096, 1 << 20, (1 << 24) + 17, 1 << 30];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_micros(t), i as u64, timer(t));
        }
        let mut popped = Vec::new();
        while let Some(ev) = w.pop() {
            popped.push(ev.at.as_micros());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn far_future_overflows_and_comes_back() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        let span = 1u64 << (LEVEL_BITS * LEVELS as u32);
        w.push(SimTime::from_micros(10), 0, timer(1));
        w.push(SimTime::from_micros(span * 3 + 7), 1, timer(2));
        w.push(SimTime::from_micros(span + 1), 2, timer(3));
        assert_eq!(w.overflow.len(), 2, "beyond-span events must overflow");
        assert_eq!(tag_of(&w.pop().unwrap()), 1);
        assert_eq!(tag_of(&w.pop().unwrap()), 3);
        assert_eq!(tag_of(&w.pop().unwrap()), 2);
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_tick_orders_by_seq_even_when_pushed_mid_drain() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        w.push(SimTime::from_micros(50), 0, timer(0));
        w.push(SimTime::from_micros(50), 1, timer(1));
        assert_eq!(tag_of(&w.pop().unwrap()), 0);
        // The tick is half-served; a same-tick push must fire after the
        // rest of the batch.
        w.push(SimTime::from_micros(50), 2, timer(2));
        assert_eq!(tag_of(&w.pop().unwrap()), 1);
        assert_eq!(tag_of(&w.pop().unwrap()), 2);
    }

    #[test]
    fn insert_below_predrained_cursor_splices_into_batch() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        w.push(SimTime::from_micros(100), 0, timer(100));
        // peek pre-drains the t=100 slot, advancing the cursor to 100.
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(100)));
        // An injection at t=50 (later than everything popped) must still
        // fire first.
        w.push(SimTime::from_micros(50), 1, timer(50));
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(50)));
        assert_eq!(tag_of(&w.pop().unwrap()), 50);
        assert_eq!(tag_of(&w.pop().unwrap()), 100);
    }

    #[test]
    fn slab_reuses_freed_slots_without_aliasing() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        for round in 0..100u64 {
            w.push(SimTime::from_micros(round * 10), round, timer(round));
            let ev = w.pop().unwrap();
            assert_eq!(tag_of(&ev), round);
        }
        // One slot allocated, reused 100 times.
        assert_eq!(w.slab.slots.len(), 1);
        assert_eq!(w.slab.free.len(), 1);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.len(), 0);
        for i in 0..10 {
            w.push(SimTime::from_micros(i * 1000), i, timer(i));
        }
        assert_eq!(w.len(), 10);
        w.pop();
        assert_eq!(w.len(), 9);
    }
}
