//! A sibling store: dotted-version-vector multi-value storage.
//!
//! This is the Dynamo/Riak data model the tutorial contrasts with LWW: a
//! write carries the causal *context* the client last read; the store keeps
//! every write not superseded by that context as a concurrent **sibling**.
//! Reads return all siblings plus a context to pass to the next write.

use crate::value::{Key, Value};
use clocks::{Dot, DottedVersionVector, VersionVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A stored sibling: a value plus the dotted version vector naming its
/// write and causal context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sibling {
    /// The value.
    pub value: Value,
    /// Write identity + context.
    pub dvv: DottedVersionVector,
    /// Origin write time (simulation microseconds), for staleness metrics.
    pub written_at: u64,
}

/// The joint causal context of a sibling set: the join of every
/// sibling's dot and of everything its writer had seen. Borrows the
/// siblings; no value is cloned.
pub fn joint_context(siblings: &[Sibling]) -> VersionVector {
    let mut context = VersionVector::new();
    for s in siblings {
        context.merge(&s.dvv.context);
        context.observe(s.dvv.dot.actor, s.dvv.dot.counter);
    }
    context
}

/// Per-key state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Entry {
    siblings: Vec<Sibling>,
}

/// The result of a read: current siblings and the context to quote on the
/// next write of this key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadResult {
    /// Concurrent values (empty = key unknown).
    pub values: Vec<Value>,
    /// Causal context covering everything returned.
    pub context: VersionVector,
}

/// A replica-local store keeping concurrent siblings per key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiblingStore {
    /// This replica's actor id (for minting dots).
    replica: u64,
    /// Dots issued by this replica so far.
    issued: u64,
    entries: BTreeMap<Key, Entry>,
}

impl SiblingStore {
    /// An empty store owned by replica `replica`.
    pub fn new(replica: u64) -> Self {
        SiblingStore { replica, issued: 0, entries: BTreeMap::new() }
    }

    /// Mint dots as `replica` from the next write on, for an owner that
    /// learns its id only after it built the store.
    pub fn set_replica(&mut self, replica: u64) {
        self.replica = replica;
    }

    /// The store a replica restarts with after losing its state: empty,
    /// but continuing this one's dot sequence. The dot counter has to
    /// outlive the state it numbered — a replica that issued `(r, 1)`
    /// again would see the new write dropped as a duplicate by every
    /// peer that still holds the old one.
    pub fn restarted(&self) -> SiblingStore {
        SiblingStore { replica: self.replica, issued: self.issued, entries: BTreeMap::new() }
    }

    /// Read `key`: all current siblings plus their joint context.
    pub fn read(&self, key: Key) -> ReadResult {
        let siblings = self.siblings(key);
        ReadResult {
            values: siblings.iter().map(|s| s.value.clone()).collect(),
            context: joint_context(siblings),
        }
    }

    /// Write `value` to `key` with the client's causal `context`. Siblings
    /// covered by the context are superseded; concurrent ones remain.
    /// Returns the new sibling's dot.
    pub fn write(
        &mut self,
        key: Key,
        value: Value,
        context: &VersionVector,
        written_at: u64,
    ) -> Dot {
        self.issued += 1;
        let dot = Dot::new(self.replica, self.issued);
        let dvv = DottedVersionVector::new(dot, context.clone());
        let entry = self.entries.entry(key).or_default();
        entry.siblings.retain(|s| !s.dvv.covered_by(context));
        entry.siblings.push(Sibling { value, dvv, written_at });
        dot
    }

    /// Apply a replicated sibling from another replica (anti-entropy /
    /// replication path). Keeps the causally-maximal set. Returns `true`
    /// if the sibling changed local state.
    ///
    /// Obsolescence is judged by DVV comparison — i.e. against the other
    /// write's *context*, never `context ∪ dot`: a dot `(r, k)` does not
    /// imply its writer saw `(r, k-1)`. Blind writes from one replica are
    /// concurrent, and folding the dot into the coverage check would
    /// silently drop them (the DVV "gap" pitfall).
    pub fn apply_remote(&mut self, key: Key, sibling: Sibling) -> bool {
        use clocks::CausalOrd;
        let entry = self.entries.entry(key).or_default();
        // Duplicate dot: already have this write.
        if entry.siblings.iter().any(|s| s.dvv.dot == sibling.dvv.dot) {
            return false;
        }
        // Incoming causally precedes an existing sibling: obsolete.
        if entry.siblings.iter().any(|s| sibling.dvv.compare(&s.dvv) == CausalOrd::Before) {
            return false;
        }
        // Drop local siblings the incoming write supersedes.
        entry.siblings.retain(|s| s.dvv.compare(&sibling.dvv) != CausalOrd::Before);
        entry.siblings.push(sibling);
        true
    }

    /// All siblings of `key` (for replication fan-out).
    pub fn siblings(&self, key: Key) -> &[Sibling] {
        self.entries.get(&key).map(|e| e.siblings.as_slice()).unwrap_or(&[])
    }

    /// Iterate all keys.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.entries.keys().copied()
    }

    /// Every key with its current siblings, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[Sibling])> {
        self.entries.iter().map(|(&k, e)| (k, e.siblings.as_slice()))
    }

    /// Total sibling count (metadata-overhead metric: >1 per key means
    /// unresolved concurrency).
    pub fn sibling_count(&self) -> usize {
        self.entries.values().map(|e| e.siblings.len()).sum()
    }

    /// Convergence predicate: same keys, same sibling sets (by dot).
    pub fn same_siblings(&self, other: &SiblingStore) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.entries.iter().all(|(k, e)| {
            let mut a: Vec<Dot> = e.siblings.iter().map(|s| s.dvv.dot).collect();
            let mut b: Vec<Dot> = other.siblings(*k).iter().map(|s| s.dvv.dot).collect();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_empty_key() {
        let s = SiblingStore::new(0);
        let r = s.read(1);
        assert!(r.values.is_empty());
        assert!(r.context.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut s = SiblingStore::new(0);
        s.write(1, Value::from_u64(10), &VersionVector::new(), 5);
        let r = s.read(1);
        assert_eq!(r.values, vec![Value::from_u64(10)]);
        assert_eq!(r.context.get(0), 1);
    }

    #[test]
    fn contextual_write_supersedes() {
        let mut s = SiblingStore::new(0);
        s.write(1, Value::from_u64(10), &VersionVector::new(), 0);
        let r = s.read(1);
        s.write(1, Value::from_u64(20), &r.context, 0);
        let r2 = s.read(1);
        assert_eq!(r2.values, vec![Value::from_u64(20)]);
        assert_eq!(s.sibling_count(), 1);
    }

    #[test]
    fn blind_write_creates_sibling() {
        let mut s = SiblingStore::new(0);
        s.write(1, Value::from_u64(10), &VersionVector::new(), 0);
        // A client that never read writes blindly: concurrent sibling.
        s.write(1, Value::from_u64(20), &VersionVector::new(), 0);
        let r = s.read(1);
        assert_eq!(r.values.len(), 2);
    }

    #[test]
    fn resolving_write_clears_siblings() {
        let mut s = SiblingStore::new(0);
        s.write(1, Value::from_u64(10), &VersionVector::new(), 0);
        s.write(1, Value::from_u64(20), &VersionVector::new(), 0);
        let r = s.read(1);
        s.write(1, Value::from_u64(30), &r.context, 0);
        assert_eq!(s.read(1).values, vec![Value::from_u64(30)]);
    }

    #[test]
    fn apply_remote_is_idempotent() {
        let mut a = SiblingStore::new(0);
        let mut b = SiblingStore::new(1);
        a.write(1, Value::from_u64(10), &VersionVector::new(), 0);
        let sib = a.siblings(1)[0].clone();
        assert!(b.apply_remote(1, sib.clone()));
        assert!(!b.apply_remote(1, sib));
        assert_eq!(b.sibling_count(), 1);
    }

    #[test]
    fn apply_remote_keeps_concurrent_drops_dominated() {
        let mut a = SiblingStore::new(0);
        let mut b = SiblingStore::new(1);
        // a writes v1; b receives it, reads, writes v2 (supersedes v1).
        a.write(1, Value::from_u64(1), &VersionVector::new(), 0);
        let v1 = a.siblings(1)[0].clone();
        b.apply_remote(1, v1.clone());
        let ctx = b.read(1).context;
        b.write(1, Value::from_u64(2), &ctx, 0);
        let v2 = b.siblings(1)[0].clone();
        // a receives v2: v1 must be dropped.
        assert!(a.apply_remote(1, v2));
        assert_eq!(a.read(1).values, vec![Value::from_u64(2)]);
        // Re-applying the obsolete v1 is rejected.
        assert!(!a.apply_remote(1, v1));
        assert_eq!(a.sibling_count(), 1);
    }

    #[test]
    fn cross_replica_convergence() {
        let mut a = SiblingStore::new(0);
        let mut b = SiblingStore::new(1);
        a.write(1, Value::from_u64(1), &VersionVector::new(), 0);
        b.write(1, Value::from_u64(2), &VersionVector::new(), 0);
        // Exchange everything both ways.
        for s in a.siblings(1).to_vec() {
            b.apply_remote(1, s);
        }
        for s in b.siblings(1).to_vec() {
            a.apply_remote(1, s);
        }
        assert!(a.same_siblings(&b));
        assert_eq!(a.read(1).values.len(), 2);
    }

    #[test]
    fn same_siblings_detects_divergence() {
        let mut a = SiblingStore::new(0);
        let b = SiblingStore::new(1);
        assert!(a.same_siblings(&b));
        a.write(1, Value::from_u64(1), &VersionVector::new(), 0);
        assert!(!a.same_siblings(&b));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After fully exchanging siblings in any interleaving, replicas
        /// converge to the same sibling sets.
        #[test]
        fn full_exchange_converges(
            script in proptest::collection::vec((0usize..3, 0u64..3, proptest::bool::ANY), 1..25)
        ) {
            let mut reps =
                [SiblingStore::new(0), SiblingStore::new(1), SiblingStore::new(2)];
            let mut next_val = 0u64;
            for (r, key, read_first) in script {
                let ctx = if read_first {
                    reps[r].read(key).context
                } else {
                    VersionVector::new()
                };
                next_val += 1;
                reps[r].write(key, Value::from_u64(next_val), &ctx, 0);
            }
            // Full pairwise exchange until fixpoint (bounded rounds).
            for _ in 0..4 {
                for i in 0..3 {
                    for j in 0..3 {
                        if i == j { continue; }
                        let keys: Vec<Key> = reps[i].keys().collect();
                        for k in keys {
                            for s in reps[i].siblings(k).to_vec() {
                                reps[j].apply_remote(k, s);
                            }
                        }
                    }
                }
            }
            prop_assert!(reps[0].same_siblings(&reps[1]));
            prop_assert!(reps[1].same_siblings(&reps[2]));
            // Sibling sets are pairwise concurrent after convergence.
            let keys: Vec<Key> = reps[0].keys().collect();
            for k in keys {
                let sibs = reps[0].siblings(k);
                for i in 0..sibs.len() {
                    for j in (i + 1)..sibs.len() {
                        let ord = sibs[i].dvv.compare(&sibs[j].dvv);
                        prop_assert!(ord.is_concurrent(), "{:?}", ord);
                    }
                }
            }
        }
    }
}
