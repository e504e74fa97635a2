//! The observed-remove set.

use crate::CvRdt;
use clocks::{ActorId, Dot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An observed-remove set with add-wins semantics.
///
/// Every add is tagged with a unique [`Dot`]; remove deletes exactly the
/// tags it has *observed*. A concurrent add therefore survives a remove —
/// the semantics Dynamo's shopping cart wanted, and the resolution of the
/// tutorial's "re-appearing item" anomaly. Tombstones record removed dots
/// so merges cannot resurrect them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrSet<T: Ord> {
    /// Live element → tags supporting it.
    entries: BTreeMap<T, BTreeSet<Dot>>,
    /// All dots ever removed (tombstones).
    removed: BTreeSet<Dot>,
    /// Per-actor dot counters (for tag generation).
    counters: BTreeMap<ActorId, u64>,
}

impl<T: Ord> Default for OrSet<T> {
    fn default() -> Self {
        OrSet { entries: BTreeMap::new(), removed: BTreeSet::new(), counters: BTreeMap::new() }
    }
}

impl<T: Ord + Clone> OrSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `item` as `actor`, returning the fresh tag.
    pub fn insert(&mut self, actor: ActorId, item: T) -> Dot {
        let c = self.counters.entry(actor).or_insert(0);
        *c += 1;
        let dot = Dot::new(actor, *c);
        self.entries.entry(item).or_default().insert(dot);
        dot
    }

    /// Remove `item`, deleting exactly the tags currently observed here.
    pub fn remove(&mut self, item: &T) {
        if let Some(tags) = self.entries.remove(item) {
            self.removed.extend(tags);
        }
    }
}

impl<T: Ord + Clone> CvRdt for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        // Union tombstones first so incoming tags can be filtered by them.
        self.removed.extend(other.removed.iter().copied());
        // Union live tags from the other side.
        for (item, tags) in &other.entries {
            let entry = self.entries.entry(item.clone()).or_default();
            entry.extend(tags.iter().copied());
        }
        // Drop any tag that is tombstoned anywhere; drop emptied items.
        let removed = &self.removed;
        self.entries.retain(|_, tags| {
            tags.retain(|d| !removed.contains(d));
            !tags.is_empty()
        });
        // Advance tag counters so future local adds stay unique.
        for (&a, &c) in &other.counters {
            let e = self.counters.entry(a).or_insert(0);
            *e = (*e).max(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Ord> OrSet<T> {
        /// Membership: at least one live tag.
        fn contains(&self, item: &T) -> bool {
            self.entries.contains_key(item)
        }

        /// Iterate live elements in order.
        pub(super) fn iter(&self) -> impl Iterator<Item = &T> {
            self.entries.keys()
        }
    }

    #[test]
    fn orset_add_remove_add() {
        let mut s = OrSet::new();
        s.insert(1, "x");
        s.remove(&"x");
        assert!(!s.contains(&"x"));
        s.insert(1, "x"); // fresh tag: element is back
        assert!(s.contains(&"x"));
    }

    #[test]
    fn orset_concurrent_add_survives_remove() {
        // The shopping-cart anomaly, resolved: replica A removes the item
        // while replica B concurrently re-adds it; add wins.
        let mut base = OrSet::new();
        base.insert(0, "beer");
        let mut a = base.clone();
        let mut b = base.clone();
        a.remove(&"beer");
        b.insert(1, "beer"); // concurrent add with a new tag
        let m1 = a.clone().merged(&b);
        let m2 = b.clone().merged(&a);
        assert!(m1.contains(&"beer"));
        assert!(m2.contains(&"beer"));
        assert_eq!(m1.iter().collect::<Vec<_>>(), m2.iter().collect::<Vec<_>>());
    }

    #[test]
    fn orset_observed_remove_removes_all_seen_tags() {
        let mut a = OrSet::new();
        a.insert(0, "x");
        let mut b = a.clone();
        b.insert(1, "x"); // second tag for same element
        let mut merged = a.clone().merged(&b);
        merged.remove(&"x"); // observed both tags
        let back = merged.merged(&b);
        assert!(!back.contains(&"x"), "remove observed both tags; nothing survives");
    }

    #[test]
    fn orset_merge_does_not_resurrect() {
        let mut a = OrSet::new();
        a.insert(0, "x");
        let stale = a.clone();
        a.remove(&"x");
        let m = a.clone().merged(&stale);
        assert!(!m.contains(&"x"));
        assert_eq!(m, a, "the stale copy adds nothing: one tombstone, no entry");
    }

    #[test]
    fn orset_counter_advance_after_merge_keeps_tags_unique() {
        let mut a = OrSet::new();
        let d1 = a.insert(0, "x");
        let mut b = OrSet::new();
        b.merge(&a);
        let d2 = b.insert(0, "y"); // same actor id used on another replica copy
        assert_ne!(d1, d2, "merged counters must prevent tag reuse");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random ORSet built from a script of adds/removes on 3 replicas
    /// with occasional pairwise merges.
    fn arb_orset() -> impl Strategy<Value = OrSet<u8>> {
        proptest::collection::vec(
            (0usize..3, 0u8..5, proptest::bool::ANY, proptest::bool::ANY),
            0..15,
        )
        .prop_map(|script| {
            let mut reps = [OrSet::new(), OrSet::new(), OrSet::new()];
            for (r, item, is_remove, sync) in script {
                if is_remove {
                    reps[r].remove(&item);
                } else {
                    // Each replica uses a distinct actor id for tags.
                    reps[r].insert(r as u64, item);
                }
                if sync {
                    let src = reps[(r + 1) % 3].clone();
                    reps[r].merge(&src);
                }
            }
            let [a, b, c] = reps;
            a.merged(&b).merged(&c)
        })
    }

    proptest! {
        #[test]
        fn orset_lattice_laws(a in arb_orset(), b in arb_orset(), c in arb_orset()) {
            let ab = a.clone().merged(&b);
            let ba = b.clone().merged(&a);
            prop_assert_eq!(ab.iter().collect::<Vec<_>>(), ba.iter().collect::<Vec<_>>());
            let abc1 = a.clone().merged(&b).merged(&c);
            let abc2 = a.clone().merged(&b.clone().merged(&c));
            prop_assert_eq!(abc1.iter().collect::<Vec<_>>(), abc2.iter().collect::<Vec<_>>());
            let aa = a.clone().merged(&a);
            prop_assert_eq!(aa.iter().collect::<Vec<_>>(), a.iter().collect::<Vec<_>>());
        }
    }
}
