//! An add-wins observed-remove map composing nested CRDT values.

use crate::{CvRdt, OrSet};
use clocks::ActorId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An observed-remove map: key *visibility* is an [`OrSet`] of keys
/// (add-wins), while value state is a separate, always-merged monotone
/// lattice.
///
/// Two consequences worth spelling out:
///
/// * **Add-wins**: an update concurrent with a remove keeps the key alive.
/// * **Keep-on-remove**: removing a key hides it but does *not* reset the
///   nested value; re-adding the key reveals the accumulated state. This is
///   the price of being a true semilattice — "reset on remove" maps built
///   from plain state-based values are famously not associative (our
///   property tests caught exactly that), and a faithful reset requires
///   causal-context deltas beyond this crate's scope. DESIGN.md records the
///   trade-off.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrMap<K: Ord, V> {
    /// The live keys.
    keys: OrSet<K>,
    /// Monotone value state per key; never discarded, merged on every join.
    values: BTreeMap<K, V>,
}

impl<K: Ord, V> Default for OrMap<K, V> {
    fn default() -> Self {
        OrMap { keys: OrSet::default(), values: BTreeMap::new() }
    }
}

impl<K: Ord + Clone, V: CvRdt + Default> OrMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutate (creating if absent) the value at `key` as `actor`.
    ///
    /// Each update adds a fresh key tag, so updates concurrent with a
    /// remove keep the key alive.
    pub fn update(&mut self, actor: ActorId, key: K, f: impl FnOnce(&mut V)) {
        self.keys.insert(actor, key.clone());
        f(self.values.entry(key).or_default());
    }

    /// Remove `key`, tombstoning the key tags observed here. The value
    /// lattice is retained (see type-level docs).
    pub fn remove(&mut self, key: &K) {
        self.keys.remove(key);
    }

    /// Read the value at `key`, if the key is live.
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.keys.contains(key) {
            self.values.get(key)
        } else {
            None
        }
    }

    /// Whether `key` is live.
    pub fn contains_key(&self, key: &K) -> bool {
        self.keys.contains(key)
    }

    /// Iterate live `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().filter_map(|k| self.values.get(k).map(|v| (k, v)))
    }
}

impl<K: Ord + Clone, V: CvRdt + Default> CvRdt for OrMap<K, V> {
    fn merge(&mut self, other: &Self) {
        self.keys.merge(&other.keys);
        // Value state merges unconditionally (monotone; independent of
        // visibility) — this is what makes the map a product lattice.
        for (k, v) in &other.values {
            match self.values.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    self.values.insert(k.clone(), v.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PnCounter;
    use crate::set::OrSet;

    type CartMap = OrMap<&'static str, PnCounter>;

    #[test]
    fn update_creates_and_mutates() {
        let mut m = CartMap::new();
        m.update(1, "beer", |c| c.increment(1, 2));
        m.update(1, "beer", |c| c.increment(1, 1));
        assert_eq!(m.get(&"beer").unwrap().value(), 3);
        assert_eq!(m.iter().count(), 1);
        assert!(m.contains_key(&"beer"));
    }

    #[test]
    fn nested_values_merge() {
        let base = CartMap::new();
        let mut a = base.clone();
        let mut b = base.clone();
        a.update(1, "beer", |c| c.increment(1, 2));
        b.update(2, "beer", |c| c.increment(2, 5));
        let m = a.merged(&b);
        assert_eq!(m.get(&"beer").unwrap().value(), 7);
    }

    #[test]
    fn concurrent_update_survives_remove() {
        let mut base = CartMap::new();
        base.update(0, "beer", |c| c.increment(0, 1));
        let mut a = base.clone();
        let mut b = base.clone();
        a.remove(&"beer");
        b.update(2, "beer", |c| c.increment(2, 3));
        let m = a.merged(&b);
        assert!(m.contains_key(&"beer"), "add-wins: concurrent update keeps key");
        assert_eq!(m.get(&"beer").unwrap().value(), 4);
    }

    #[test]
    fn causal_remove_sticks() {
        let mut m = CartMap::new();
        m.update(0, "beer", |c| c.increment(0, 1));
        let stale = m.clone();
        m.remove(&"beer");
        let merged = m.merged(&stale);
        assert!(!merged.contains_key(&"beer"));
        assert_eq!(merged.iter().count(), 0);
        assert_eq!(merged.get(&"beer"), None);
    }

    #[test]
    fn keep_on_remove_readd_sees_accumulated_state() {
        // The documented semantic: remove hides, re-add reveals old state.
        let mut m = CartMap::new();
        m.update(0, "beer", |c| c.increment(0, 5));
        m.remove(&"beer");
        assert!(!m.contains_key(&"beer"));
        m.update(0, "beer", |c| c.increment(0, 1));
        assert_eq!(m.get(&"beer").unwrap().value(), 6);
    }

    #[test]
    fn or_set_values_compose() {
        let mut a: OrMap<u8, OrSet<&str>> = OrMap::new();
        let mut b = a.clone();
        a.update(1, 0, |s| {
            s.insert(1, "x");
        });
        b.update(2, 0, |s| {
            s.insert(2, "y");
        });
        let m = a.merged(&b);
        let set = m.get(&0).unwrap();
        assert!(set.contains(&"x") && set.contains(&"y"));
    }

    #[test]
    fn iter_in_key_order() {
        let mut m: OrMap<u8, PnCounter> = OrMap::new();
        m.update(0, 3, |_| {});
        m.update(0, 1, |_| {});
        let keys: Vec<u8> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::counter::GCounter;
    use proptest::prelude::*;

    /// Three divergent replicas from one shared history: CRDT laws only
    /// hold when each replica tags with an actor id of its own, so states
    /// from unrelated histories (which could reuse a dot for different
    /// keys) are outside the contract.
    fn arb_map_replicas() -> impl Strategy<Value = [OrMap<u8, GCounter>; 3]> {
        proptest::collection::vec(
            (0usize..3, 0u8..4, proptest::bool::ANY, proptest::bool::ANY),
            0..12,
        )
        .prop_map(|script| {
            let mut reps: [OrMap<u8, GCounter>; 3] = [OrMap::new(), OrMap::new(), OrMap::new()];
            for (r, key, is_remove, sync) in script {
                if is_remove {
                    reps[r].remove(&key);
                } else {
                    let actor = r as u64;
                    reps[r].update(actor, key, |c| c.increment(actor, 1));
                }
                if sync {
                    let src = reps[(r + 1) % 3].clone();
                    reps[r].merge(&src);
                }
            }
            reps
        })
    }

    fn live_view(m: &OrMap<u8, GCounter>) -> Vec<(u8, u64)> {
        m.iter().map(|(k, v)| (*k, v.value())).collect()
    }

    proptest! {
        #[test]
        fn ormap_merge_commutative(reps in arb_map_replicas()) {
            let [a, b, _] = reps;
            let ab = a.clone().merged(&b);
            let ba = b.clone().merged(&a);
            prop_assert_eq!(live_view(&ab), live_view(&ba));
        }

        #[test]
        fn ormap_merge_associative(reps in arb_map_replicas()) {
            let [a, b, c] = reps;
            let l = a.clone().merged(&b).merged(&c);
            let r = a.clone().merged(&b.clone().merged(&c));
            prop_assert_eq!(live_view(&l), live_view(&r));
        }

        #[test]
        fn ormap_merge_idempotent(reps in arb_map_replicas()) {
            let [a, _, _] = reps;
            let aa = a.clone().merged(&a);
            prop_assert_eq!(live_view(&aa), live_view(&a));
        }
    }
}
