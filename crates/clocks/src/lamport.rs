//! Lamport scalar clocks and last-writer-wins timestamps.

use crate::ActorId;
use serde::{Deserialize, Serialize};

/// A Lamport logical clock (Lamport 1978, "Time, clocks, and the ordering
/// of events in a distributed system").
///
/// The clock ticks on every local event and merges on every receive, so
/// `a happens-before b` implies `stamp(a) < stamp(b)` — but not conversely:
/// scalar clocks *order* all events, losing concurrency information.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportClock {
    counter: u64,
}

/// A timestamp drawn from a [`LamportClock`], tie-broken by actor id.
///
/// The `(counter, actor)` pair gives a deterministic *total* order, which is
/// what last-writer-wins registers need: every replica picks the same
/// winner regardless of arrival order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LamportTimestamp {
    /// The logical counter (major component).
    pub counter: u64,
    /// Tie-breaking actor id (minor component).
    pub actor: ActorId,
}

impl LamportClock {
    /// A fresh clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a local event: tick and return the new timestamp for `actor`.
    pub fn tick(&mut self, actor: ActorId) -> LamportTimestamp {
        self.counter += 1;
        LamportTimestamp { counter: self.counter, actor }
    }

    /// Record receipt of a message stamped `remote`: the clock jumps past
    /// the remote counter, then ticks.
    pub fn observe(&mut self, remote: LamportTimestamp, actor: ActorId) -> LamportTimestamp {
        self.counter = self.counter.max(remote.counter);
        self.tick(actor)
    }
}

impl LamportTimestamp {
    /// Construct a timestamp directly (mostly for tests and LWW seeds).
    pub fn new(counter: u64, actor: ActorId) -> Self {
        LamportTimestamp { counter, actor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_strictly_monotonic() {
        let mut c = LamportClock::new();
        let a = c.tick(1);
        let b = c.tick(1);
        let d = c.tick(1);
        assert!(a < b && b < d);
    }

    #[test]
    fn observe_jumps_past_remote() {
        let mut c = LamportClock::new();
        c.tick(0);
        let stamped = c.observe(LamportTimestamp::new(100, 9), 0);
        assert_eq!(stamped.counter, 101);
        assert!(stamped > LamportTimestamp::new(100, 9));
    }

    #[test]
    fn observe_of_old_timestamp_still_ticks() {
        let mut c = LamportClock::new();
        for _ in 0..10 {
            c.tick(0);
        }
        let stamped = c.observe(LamportTimestamp::new(2, 5), 0);
        assert_eq!(stamped.counter, 11);
    }

    #[test]
    fn actor_breaks_ties() {
        let a = LamportTimestamp::new(5, 1);
        let b = LamportTimestamp::new(5, 2);
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn happens_before_implies_less_than() {
        // Simulate two actors exchanging a message.
        let mut alice = LamportClock::new();
        let mut bob = LamportClock::new();
        let send = alice.tick(0);
        let recv = bob.observe(send, 1);
        let later = bob.tick(1);
        assert!(send < recv);
        assert!(recv < later);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The total order on timestamps is consistent: exactly one of
        /// `<`, `==`, `>` holds, and it agrees with the tuple order.
        #[test]
        fn timestamp_order_is_total(c1 in 0u64..1000, a1 in 0u64..8, c2 in 0u64..1000, a2 in 0u64..8) {
            let x = LamportTimestamp::new(c1, a1);
            let y = LamportTimestamp::new(c2, a2);
            let by_tuple = (c1, a1).cmp(&(c2, a2));
            prop_assert_eq!(x.cmp(&y), by_tuple);
        }

        /// Observing any sequence of remote stamps keeps the clock ahead of
        /// everything it has seen.
        #[test]
        fn clock_dominates_observed(remotes in proptest::collection::vec((0u64..500, 0u64..8), 0..40)) {
            let mut c = LamportClock::new();
            let mut issued = Vec::new();
            for (counter, actor) in &remotes {
                issued.push(c.observe(LamportTimestamp::new(*counter, *actor), 99));
            }
            for (i, ts) in issued.iter().enumerate() {
                // Each issued stamp exceeds the remote it observed.
                prop_assert!(ts.counter > remotes[i].0);
            }
            // And stamps are strictly increasing.
            for w in issued.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
