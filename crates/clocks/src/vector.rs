//! Vector clocks, version vectors, and dotted version vectors.
//!
//! A [`VectorClock`] maps each actor to the count of its events seen. Two
//! clocks compare as [`CausalOrd`]: element-wise dominance gives
//! happens-before exactly. A **version vector** is the same lattice applied
//! to *sets of writes seen by a replica*; we expose it as a type alias with
//! the semantics living in how replication and session code use it.
//!
//! A [`Dot`] names a single write event `(actor, counter)`; a
//! [`DottedVersionVector`] pairs a dot with a causal-context version vector
//! and is the standard fix for false-concurrency sibling explosion in
//! multi-value registers (Preguiça et al.).

use crate::ordering::CausalOrd;
use crate::ActorId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A vector clock: one monotone counter per actor.
///
/// Uses a `BTreeMap` so iteration (and therefore serialization, hashing of
/// serialized forms, and debug output) is deterministic — the experiment
/// suite depends on byte-stable output for fixed seeds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorClock {
    entries: BTreeMap<ActorId, u64>,
}

/// A version vector: identical lattice to [`VectorClock`], used to
/// summarize which writes a replica (or session) has observed.
pub type VersionVector = VectorClock;

impl VectorClock {
    /// The empty (bottom) clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(actor, counter)` pairs. Later duplicates win.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ActorId, u64)>) -> Self {
        let mut vc = VectorClock::new();
        for (a, c) in pairs {
            if c > 0 {
                vc.entries.insert(a, c);
            }
        }
        vc
    }

    /// The counter for `actor` (0 if absent — absent and zero are
    /// indistinguishable, keeping the representation canonical).
    pub fn get(&self, actor: ActorId) -> u64 {
        self.entries.get(&actor).copied().unwrap_or(0)
    }

    /// Set `actor`'s component to `max(current, counter)`.
    pub fn observe(&mut self, actor: ActorId, counter: u64) {
        if counter == 0 {
            return;
        }
        let e = self.entries.entry(actor).or_insert(0);
        *e = (*e).max(counter);
    }

    /// Join (least upper bound): element-wise max, in place.
    pub fn merge(&mut self, other: &VectorClock) {
        for (&a, &c) in &other.entries {
            self.observe(a, c);
        }
    }

    /// Compare under happens-before.
    pub fn compare(&self, other: &VectorClock) -> CausalOrd {
        let mut self_gt = false;
        let mut other_gt = false;
        for (&a, &c) in &self.entries {
            match c.cmp(&other.get(a)) {
                std::cmp::Ordering::Greater => self_gt = true,
                std::cmp::Ordering::Less => other_gt = true,
                std::cmp::Ordering::Equal => {}
            }
        }
        for (&a, &c) in &other.entries {
            if c > self.get(a) {
                other_gt = true;
            }
        }
        CausalOrd::from_dominance(self_gt, other_gt)
    }

    /// True if every component of `self` is `>=` the corresponding
    /// component of `other` (i.e. `self` has seen everything `other` has).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other.entries.iter().all(|(&a, &c)| self.get(a) >= c)
    }

    /// True if no actor has a nonzero component.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(actor, counter)` pairs in ascending actor order.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, u64)> + '_ {
        self.entries.iter().map(|(&a, &c)| (a, c))
    }

    /// Sum of all components — a scalar "how much have I seen" measure used
    /// for version-based staleness metrics.
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}:{c}")?;
        }
        write!(f, "}}")
    }
}

/// A dot: the identity of one write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Dot {
    /// The actor (replica) that performed the write.
    pub actor: ActorId,
    /// The actor's write counter at the time (1-based).
    pub counter: u64,
}

impl Dot {
    /// Construct a dot.
    pub fn new(actor: ActorId, counter: u64) -> Self {
        Dot { actor, counter }
    }
}

impl fmt::Display for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}.{})", self.actor, self.counter)
    }
}

/// A dotted version vector: a single write event (`dot`) plus the causal
/// context the writer had observed (`context`).
///
/// A DVV `v` is **obsolete** with respect to a context `ctx` iff
/// `ctx[v.dot.actor] >= v.dot.counter` — someone who has seen that write
/// has superseded it. Sibling sets keep exactly the non-obsolete values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DottedVersionVector {
    /// The write event this value was created by.
    pub dot: Dot,
    /// Everything the writer had seen when it wrote.
    pub context: VersionVector,
}

impl DottedVersionVector {
    /// Construct from a dot and its causal context.
    pub fn new(dot: Dot, context: VersionVector) -> Self {
        DottedVersionVector { dot, context }
    }

    /// True if this value's write is covered by `ctx` (i.e. `ctx` has seen
    /// the dot), meaning the value is obsolete for a writer with that
    /// context.
    pub fn covered_by(&self, ctx: &VersionVector) -> bool {
        ctx.get(self.dot.actor) >= self.dot.counter
    }

    /// Compare two DVVs causally: `self` precedes `other` iff `other`'s
    /// context covers `self`'s dot.
    pub fn compare(&self, other: &DottedVersionVector) -> CausalOrd {
        if self.dot == other.dot {
            return CausalOrd::Equal;
        }
        let self_covered = self.covered_by(&other.context);
        let other_covered = other.covered_by(&self.context);
        match (self_covered, other_covered) {
            (true, true) => CausalOrd::Equal, // mutually covered: same logical write set
            (true, false) => CausalOrd::Before,
            (false, true) => CausalOrd::After,
            (false, false) => CausalOrd::Concurrent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The join of two clocks, through the in-place `merge`.
    pub(super) fn join(a: &VectorClock, b: &VectorClock) -> VectorClock {
        let mut m = a.clone();
        m.merge(b);
        m
    }

    #[test]
    fn empty_clocks_are_equal() {
        let a = VectorClock::new();
        let b = VectorClock::new();
        assert_eq!(a.compare(&b), CausalOrd::Equal);
        assert!(a.dominates(&b));
        assert!(a.is_empty());
    }

    #[test]
    fn increment_creates_after() {
        let a = VectorClock::new();
        let mut b = a.clone();
        b.observe(1, 1);
        assert_eq!(b.compare(&a), CausalOrd::After);
        assert_eq!(a.compare(&b), CausalOrd::Before);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn divergent_clocks_are_concurrent() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.observe(1, 1);
        b.observe(2, 1);
        assert_eq!(a.compare(&b), CausalOrd::Concurrent);
        assert!(!a.dominates(&b) && !b.dominates(&a));
    }

    #[test]
    fn merge_is_least_upper_bound() {
        let a = VectorClock::from_pairs([(1, 3), (2, 1)]);
        let b = VectorClock::from_pairs([(1, 1), (3, 4)]);
        let m = join(&a, &b);
        assert_eq!(m, VectorClock::from_pairs([(1, 3), (2, 1), (3, 4)]));
        assert!(m.dominates(&a) && m.dominates(&b));
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn zero_components_are_canonical() {
        let a = VectorClock::from_pairs([(1, 0), (2, 5)]);
        let b = VectorClock::from_pairs([(2, 5)]);
        assert_eq!(a, b);
        assert_eq!(a.iter().count(), 1);
        let mut c = VectorClock::new();
        c.observe(7, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn observe_takes_max() {
        let mut a = VectorClock::new();
        a.observe(1, 5);
        a.observe(1, 3);
        assert_eq!(a.get(1), 5);
        a.observe(1, 9);
        assert_eq!(a.get(1), 9);
    }

    #[test]
    fn display_is_deterministic() {
        let a = VectorClock::from_pairs([(3, 1), (1, 2)]);
        assert_eq!(format!("{a}"), "{1:2,3:1}");
        assert_eq!(format!("{}", Dot::new(2, 7)), "(2.7)");
    }

    #[test]
    fn dvv_write_supersedes_what_it_saw() {
        // Writer saw {1:1}, writes dot (2,1).
        let v1 = DottedVersionVector::new(Dot::new(1, 1), VectorClock::new());
        let v2 = DottedVersionVector::new(Dot::new(2, 1), VectorClock::from_pairs([(1, 1)]));
        assert_eq!(v1.compare(&v2), CausalOrd::Before);
        assert_eq!(v2.compare(&v1), CausalOrd::After);
    }

    #[test]
    fn dvv_blind_writes_are_concurrent() {
        let v1 = DottedVersionVector::new(Dot::new(1, 1), VectorClock::new());
        let v2 = DottedVersionVector::new(Dot::new(2, 1), VectorClock::new());
        assert_eq!(v1.compare(&v2), CausalOrd::Concurrent);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::join;
    use super::*;
    use proptest::prelude::*;

    fn arb_clock() -> impl Strategy<Value = VectorClock> {
        proptest::collection::btree_map(0u64..6, 1u64..20, 0..6).prop_map(VectorClock::from_pairs)
    }

    proptest! {
        /// Merge is commutative.
        #[test]
        fn merge_commutative(a in arb_clock(), b in arb_clock()) {
            prop_assert_eq!(join(&a, &b), join(&b, &a));
        }

        /// Merge is associative.
        #[test]
        fn merge_associative(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            prop_assert_eq!(join(&join(&a, &b), &c), join(&a, &join(&b, &c)));
        }

        /// Merge is idempotent.
        #[test]
        fn merge_idempotent(a in arb_clock()) {
            prop_assert_eq!(join(&a, &a), a);
        }

        /// Merge is an upper bound of both inputs.
        #[test]
        fn merge_is_upper_bound(a in arb_clock(), b in arb_clock()) {
            let m = join(&a, &b);
            prop_assert!(m.dominates(&a));
            prop_assert!(m.dominates(&b));
        }

        /// compare() and dominates() agree.
        #[test]
        fn compare_consistent_with_dominates(a in arb_clock(), b in arb_clock()) {
            match a.compare(&b) {
                CausalOrd::Equal => {
                    prop_assert!(a.dominates(&b) && b.dominates(&a));
                    prop_assert_eq!(&a, &b);
                }
                CausalOrd::After => prop_assert!(a.dominates(&b) && !b.dominates(&a)),
                CausalOrd::Before => prop_assert!(b.dominates(&a) && !a.dominates(&b)),
                CausalOrd::Concurrent => {
                    prop_assert!(!a.dominates(&b) && !b.dominates(&a));
                }
            }
        }

        /// Comparison is antisymmetric under reversal.
        #[test]
        fn compare_antisymmetric(a in arb_clock(), b in arb_clock()) {
            let reversed = match b.compare(&a) {
                CausalOrd::Before => CausalOrd::After,
                CausalOrd::After => CausalOrd::Before,
                other => other,
            };
            prop_assert_eq!(a.compare(&b), reversed);
        }

        /// Incrementing strictly advances the clock.
        #[test]
        fn increment_strictly_advances(a in arb_clock(), actor in 0u64..6) {
            let mut b = a.clone();
            b.observe(actor, a.get(actor) + 1);
            prop_assert_eq!(b.compare(&a), CausalOrd::After);
        }
    }
}
