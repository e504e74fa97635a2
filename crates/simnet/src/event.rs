//! The event queue.
//!
//! ## Ordering contract
//!
//! The queue pops events in strictly ascending `(time, seq)` order,
//! where `seq` is the monotonically increasing insertion counter
//! assigned by [`EventQueue::push`]. The time key orders the
//! simulation; the seq key breaks same-instant ties deterministically:
//! two events scheduled for the same microsecond fire in the order they
//! were scheduled, independent of the queue's internal layout (wheel
//! slot order, cascades, batch buffers).
//!
//! The one implementation is the hierarchical timing wheel in
//! `wheel.rs` (slab-allocated envelopes, far-future overflow
//! heap; see `docs/PERFORMANCE.md`). It never compares events — it
//! buckets by time and sorts each tick by seq — so the contract is
//! checked from outside: `tests/queue_conformance.rs` drives every
//! entry point the simulator uses through randomized schedules against
//! a sorted `(time, seq)` model and requires identical observations.

use crate::sim::NodeId;
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventPayload<M> {
    /// Deliver a message to `to` (sent by `from`).
    Deliver {
        /// The sender.
        from: NodeId,
        /// The destination.
        to: NodeId,
        /// The message payload.
        msg: M,
        /// Trace active when the message was sent (0 = untraced). The
        /// envelope — not the payload type `M` — carries the causal
        /// context, so protocols get tracing without changing their
        /// message enums.
        trace: u64,
        /// Span active when the message was sent (0 = none).
        span: u64,
    },
    /// Fire timer `timer_id` (carrying an actor-chosen `tag`) at `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Simulator-assigned timer id (for cancellation).
        timer_id: u64,
        /// Actor-chosen tag distinguishing timer purposes.
        tag: u64,
        /// Trace active when the timer was set (0 = untraced), restored
        /// as the active context when the timer fires.
        trace: u64,
        /// Span active when the timer was set (0 = none).
        span: u64,
    },
    /// Apply a scripted fault (crash, recover, partition change, ...).
    Fault(crate::faults::FaultEvent),
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-breaking insertion sequence number.
    pub seq: u64,
    /// The action to perform.
    pub payload: EventPayload<M>,
}

/// A deterministic priority queue of simulation events.
///
/// `push` assigns each event the next value of a monotonically
/// increasing insertion counter (`seq`); `pop` returns events in the
/// ascending `(time, seq)` order of the module-level contract.
#[derive(Debug)]
pub struct EventQueue<M> {
    wheel: TimingWheel<M>,
    next_seq: u64,
    /// Incremental count of pending `Deliver` events, maintained on
    /// push/pop so [`EventQueue::deliver_count`] is O(1) instead of a
    /// whole-slab walk (debug builds assert it against the walked
    /// count).
    delivers: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue { wheel: TimingWheel::new(), next_seq: 0, delivers: 0 }
    }

    /// Schedule `payload` to fire at `at`. The event is stamped with the
    /// next insertion sequence number, which is what makes same-instant
    /// events fire in scheduling order.
    pub fn push(&mut self, at: SimTime, payload: EventPayload<M>) {
        if matches!(payload, EventPayload::Deliver { .. }) {
            self.delivers += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(at, seq, payload);
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let ev = self.wheel.pop()?;
        if matches!(ev.payload, EventPayload::Deliver { .. }) {
            self.delivers -= 1;
        }
        Some(ev)
    }

    /// Pop the earliest event if it fires at or before `deadline`. One
    /// queue probe instead of a peek-then-pop pair — the shape of the
    /// simulator's `run_until` hot loop.
    pub fn pop_if_at_most(&mut self, deadline: SimTime) -> Option<Event<M>> {
        if self.wheel.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event. (The wheel may pre-drain its
    /// next tick into the batch buffer to answer; that is invisible to
    /// callers.) Test probe.
    #[doc(hidden)]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events. Test probe.
    #[doc(hidden)]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the `(time, seq, slot)` key buffers the queue owns
    /// right now, by capacity: pending keys plus what bucket recycling
    /// keeps for reuse, which is bounded whatever has gone through
    /// (`docs/PERFORMANCE.md`, "Timing-wheel architecture"). The
    /// envelope slab, which stays at the high-water mark of pending
    /// events by design, is not counted. Test probe.
    #[doc(hidden)]
    pub fn key_buffer_bytes(&self) -> usize {
        self.wheel.key_buffer_bytes()
    }

    /// Number of pending `Deliver` events — the messages currently "in
    /// flight" in the simulated network. O(1): maintained incrementally
    /// on push/pop (debug builds cross-check it against a full walk of
    /// the slab).
    pub fn deliver_count(&self) -> usize {
        debug_assert_eq!(
            self.delivers,
            self.wheel.walk_deliver_count(),
            "incremental deliver count diverged from the walked count"
        );
        self.delivers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer_at<M>(q: &mut EventQueue<M>, t: u64, tag: u64) {
        q.push(
            SimTime::from_micros(t),
            EventPayload::Timer { node: NodeId(0), timer_id: 0, tag, trace: 0, span: 0 },
        );
    }

    fn drain_tags(q: &mut EventQueue<()>) -> Vec<u64> {
        let mut tags = Vec::new();
        while let Some(e) = q.pop() {
            if let EventPayload::Timer { tag, .. } = e.payload {
                tags.push(tag);
            }
        }
        tags
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 30, 3);
        timer_at(&mut q, 10, 1);
        timer_at(&mut q, 20, 2);
        assert_eq!(drain_tags(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..10 {
            timer_at(&mut q, 5, tag);
        }
        assert_eq!(drain_tags(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_tracks_min() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        timer_at(&mut q, 50, 0);
        timer_at(&mut q, 7, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(50)));
    }

    #[test]
    fn pop_if_at_most_respects_the_deadline() {
        let mut q: EventQueue<()> = EventQueue::new();
        timer_at(&mut q, 40, 0);
        assert!(q.pop_if_at_most(SimTime::from_micros(39)).is_none());
        assert_eq!(q.len(), 1);
        let ev = q.pop_if_at_most(SimTime::from_micros(40)).expect("due event pops");
        assert_eq!(ev.at, SimTime::from_micros(40));
        assert!(q.pop_if_at_most(SimTime::MAX).is_none());
    }

    #[test]
    fn deliver_count_tracks_in_flight_messages() {
        let mut q = EventQueue::new();
        assert_eq!(q.deliver_count(), 0);
        q.push(
            SimTime::from_micros(1),
            EventPayload::Deliver { from: NodeId(0), to: NodeId(1), msg: (), trace: 0, span: 0 },
        );
        timer_at(&mut q, 2, 0);
        assert_eq!(q.deliver_count(), 1);
        q.pop(); // the deliver fires first
        assert_eq!(q.deliver_count(), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        timer_at(&mut q, 1, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
