//! Replicated counters.

use crate::CvRdt;
use clocks::ActorId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A grow-only counter: one non-negative count per actor; value is the sum.
///
/// Increment inflates the actor's own component; merge is element-wise max,
/// so increments from different actors are never lost — the canonical
/// contrast to last-writer-wins arbitration (experiment E6).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GCounter {
    counts: BTreeMap<ActorId, u64>,
}

impl GCounter {
    /// A zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` on behalf of `actor`.
    pub fn increment(&mut self, actor: ActorId, n: u64) {
        *self.counts.entry(actor).or_insert(0) += n;
    }

    /// The counter's value (sum across actors).
    pub fn value(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The lattice order, decided by comparison alone: `self.leq(other)`
    /// iff merging `self` into `other` leaves `other` as it is.
    ///
    /// Structural on purpose: every actor entry of `self`, a zero count
    /// included, must be present in `other` with a count at least as
    /// large, because [`CvRdt::merge`] would otherwise add the entry and
    /// `other` would no longer compare equal to its old self.
    pub fn leq(&self, other: &Self) -> bool {
        self.counts.len() <= other.counts.len()
            && self.counts.iter().all(|(a, c)| other.counts.get(a).is_some_and(|o| o >= c))
    }
}

impl CvRdt for GCounter {
    fn merge(&mut self, other: &Self) {
        for (&a, &c) in &other.counts {
            let e = self.counts.entry(a).or_insert(0);
            *e = (*e).max(c);
        }
    }
}

/// An increment/decrement counter: two [`GCounter`]s, value = p − n.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PnCounter {
    p: GCounter,
    n: GCounter,
}

impl PnCounter {
    /// A zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` on behalf of `actor`.
    pub fn increment(&mut self, actor: ActorId, n: u64) {
        self.p.increment(actor, n);
    }

    /// Subtract `n` on behalf of `actor`.
    pub fn decrement(&mut self, actor: ActorId, n: u64) {
        self.n.increment(actor, n);
    }

    /// The counter's value (may be negative).
    pub fn value(&self) -> i64 {
        self.p.value() as i64 - self.n.value() as i64
    }

    /// The lattice order, structural like [`GCounter::leq`]:
    /// `self.leq(other)` iff merging `self` into `other` leaves `other`
    /// as it is.
    pub fn leq(&self, other: &Self) -> bool {
        self.p.leq(&other.p) && self.n.leq(&other.n)
    }
}

impl CvRdt for PnCounter {
    fn merge(&mut self, other: &Self) {
        self.p.merge(&other.p);
        self.n.merge(&other.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcounter_counts() {
        let mut c = GCounter::new();
        c.increment(1, 3);
        c.increment(2, 2);
        c.increment(1, 1);
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn gcounter_merge_keeps_all_increments() {
        let mut a = GCounter::new();
        let mut b = GCounter::new();
        a.increment(1, 5);
        b.increment(2, 7);
        let m = a.clone().merged(&b);
        assert_eq!(m.value(), 12);
        // Merge with a stale copy of the same actor takes the max, not sum.
        let mut stale = a.clone();
        stale.merge(&a);
        assert_eq!(stale.value(), 5);
    }

    #[test]
    fn pncounter_can_go_negative() {
        let mut c = PnCounter::new();
        c.increment(1, 2);
        c.decrement(2, 5);
        assert_eq!(c.value(), -3);
    }

    #[test]
    fn pncounter_concurrent_inc_dec_both_survive() {
        let base = PnCounter::new();
        let mut a = base.clone();
        let mut b = base.clone();
        a.increment(1, 10);
        b.decrement(2, 4);
        let m1 = a.clone().merged(&b);
        let m2 = b.clone().merged(&a);
        assert_eq!(m1, m2);
        assert_eq!(m1.value(), 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testutil::merge_all;
    use proptest::prelude::*;

    fn arb_gcounter() -> impl Strategy<Value = GCounter> {
        proptest::collection::btree_map(0u64..5, 0u64..50, 0..5).prop_map(|m| {
            let mut c = GCounter::new();
            for (a, n) in m {
                c.increment(a, n);
            }
            c
        })
    }

    fn arb_pncounter() -> impl Strategy<Value = PnCounter> {
        (arb_gcounter(), arb_gcounter()).prop_map(|(p, n)| {
            let mut c = PnCounter::new();
            for (a, v) in &p.counts {
                c.increment(*a, *v);
            }
            for (a, v) in &n.counts {
                c.decrement(*a, *v);
            }
            c
        })
    }

    proptest! {
        #[test]
        fn gcounter_lattice_laws(a in arb_gcounter(), b in arb_gcounter(), c in arb_gcounter()) {
            prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
            prop_assert_eq!(
                a.clone().merged(&b).merged(&c),
                a.clone().merged(&b.clone().merged(&c))
            );
            prop_assert_eq!(a.clone().merged(&a), a);
        }

        #[test]
        fn pncounter_lattice_laws(a in arb_pncounter(), b in arb_pncounter(), c in arb_pncounter()) {
            prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
            prop_assert_eq!(
                a.clone().merged(&b).merged(&c),
                a.clone().merged(&b.clone().merged(&c))
            );
            prop_assert_eq!(a.clone().merged(&a), a);
        }

        /// Increment is an inflation: merging the old state back changes nothing.
        #[test]
        fn gcounter_increment_inflates(a in arb_gcounter(), actor in 0u64..5, n in 1u64..10) {
            let old = a.clone();
            let mut new = a;
            new.increment(actor, n);
            prop_assert_eq!(new.clone().merged(&old), new);
        }

        /// Convergence: merging replicas in any order yields the same state.
        #[test]
        fn gcounter_order_insensitive(
            states in proptest::collection::vec(arb_gcounter(), 2..5),
            seed in 0u64..u64::MAX,
        ) {
            let n = states.len();
            let fwd: Vec<usize> = (0..n).collect();
            let mut rev = fwd.clone();
            rev.reverse();
            // A pseudo-random third order derived from the seed.
            let mut shuffled = fwd.clone();
            shuffled.rotate_left((seed as usize) % n);
            let r1 = merge_all(GCounter::new(), &states, &fwd);
            let r2 = merge_all(GCounter::new(), &states, &rev);
            let r3 = merge_all(GCounter::new(), &states, &shuffled);
            prop_assert_eq!(&r1, &r2);
            prop_assert_eq!(&r1, &r3);
        }
    }
}
