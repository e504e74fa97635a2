//! Replicated registers: last-writer-wins and multi-value.

use crate::CvRdt;
use clocks::{ActorId, CausalOrd, LamportTimestamp, VectorClock};
use serde::{Deserialize, Serialize};

/// A last-writer-wins register.
///
/// Arbitrates concurrent writes by `(timestamp, actor)` — simple, a single
/// surviving value, and **lossy**: one of two concurrent writes silently
/// disappears. Experiment E6 measures exactly how lossy under contention.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LwwRegister<T> {
    value: Option<T>,
    ts: LamportTimestamp,
}

impl<T: Clone> LwwRegister<T> {
    /// An empty register.
    pub fn new() -> Self {
        LwwRegister { value: None, ts: LamportTimestamp::default() }
    }

    /// Write `value` with timestamp `ts`. Later timestamps win; equal
    /// timestamps are impossible if callers use `(clock, actor)` stamps.
    pub fn set(&mut self, ts: LamportTimestamp, value: T) {
        if ts > self.ts {
            self.ts = ts;
            self.value = Some(value);
        }
    }

    /// The current value, if any.
    pub fn get(&self) -> Option<&T> {
        self.value.as_ref()
    }
}

impl<T: Clone> CvRdt for LwwRegister<T> {
    fn merge(&mut self, other: &Self) {
        if other.ts > self.ts {
            self.ts = other.ts;
            self.value = other.value.clone();
        }
    }
}

/// A multi-value register.
///
/// Keeps *all* causally-maximal writes: a read returns the set of siblings,
/// and it is the application's job to reconcile (the Dynamo shopping-cart
/// design). Writing with knowledge of the current siblings supersedes them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvRegister<T> {
    /// Causally-maximal (value, clock) pairs; pairwise concurrent.
    siblings: Vec<(T, VectorClock)>,
}

impl<T: Clone + PartialEq> MvRegister<T> {
    /// An empty register.
    pub fn new() -> Self {
        MvRegister { siblings: Vec::new() }
    }

    /// Write `value` as `actor`, superseding every sibling currently
    /// visible in this replica (the write's context is their join).
    pub fn set(&mut self, actor: ActorId, value: T) {
        let mut ctx = VectorClock::new();
        for (_, vc) in &self.siblings {
            ctx.merge(vc);
        }
        ctx.increment(actor);
        self.siblings = vec![(value, ctx)];
    }

    /// Current sibling values (one if no unresolved concurrency).
    pub fn get(&self) -> Vec<&T> {
        self.siblings.iter().map(|(v, _)| v).collect()
    }

    fn insert_sibling(&mut self, value: T, vc: VectorClock) {
        // Drop existing siblings dominated by the incoming one; skip the
        // incoming one if it is dominated by (or equal to) an existing one.
        let mut dominated = false;
        self.siblings.retain(|(v, existing)| match existing.compare(&vc) {
            CausalOrd::Before => false,
            CausalOrd::Equal => {
                // Same causal history: keep one copy (values must agree for
                // deterministic writers; if not, keep the existing one).
                let _ = v;
                dominated = true;
                true
            }
            CausalOrd::After => {
                dominated = true;
                true
            }
            CausalOrd::Concurrent => true,
        });
        if !dominated {
            self.siblings.push((value, vc));
        }
    }
}

impl<T: Clone + PartialEq> CvRdt for MvRegister<T> {
    fn merge(&mut self, other: &Self) {
        for (v, vc) in &other.siblings {
            self.insert_sibling(v.clone(), vc.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: u64, a: ActorId) -> LamportTimestamp {
        LamportTimestamp::new(c, a)
    }

    #[test]
    fn lww_later_write_wins() {
        let mut r = LwwRegister::new();
        r.set(ts(1, 0), "a");
        r.set(ts(2, 0), "b");
        assert_eq!(r.get(), Some(&"b"));
        // Stale write ignored.
        r.set(ts(1, 5), "c");
        assert_eq!(r.get(), Some(&"b"));
    }

    #[test]
    fn lww_merge_picks_max_timestamp() {
        let mut a = LwwRegister::new();
        let mut b = LwwRegister::new();
        a.set(ts(5, 1), "from-a");
        b.set(ts(5, 2), "from-b"); // same counter, higher actor wins
        let m1 = a.clone().merged(&b);
        let m2 = b.clone().merged(&a);
        assert_eq!(m1, m2);
        assert_eq!(m1.get(), Some(&"from-b"));
    }

    #[test]
    fn lww_loses_concurrent_write() {
        // The tutorial's cautionary tale: two concurrent writes, one vanishes.
        let base: LwwRegister<&str> = LwwRegister::new();
        let mut a = base.clone();
        let mut b = base.clone();
        a.set(ts(1, 1), "alice");
        b.set(ts(1, 2), "bob");
        let m = a.merged(&b);
        assert_eq!(m.get(), Some(&"bob"));
        // "alice" is gone: exactly the loss E6 counts.
    }

    #[test]
    fn mv_keeps_concurrent_siblings() {
        let base: MvRegister<&str> = MvRegister::new();
        let mut a = base.clone();
        let mut b = base.clone();
        a.set(1, "alice");
        b.set(2, "bob");
        let m = a.merged(&b);
        let mut got = m.get();
        got.sort();
        assert_eq!(got, vec![&"alice", &"bob"]);
        assert_eq!(m.get().len(), 2);
    }

    #[test]
    fn mv_write_supersedes_seen_siblings() {
        let base: MvRegister<&str> = MvRegister::new();
        let mut a = base.clone();
        let mut b = base.clone();
        a.set(1, "alice");
        b.set(2, "bob");
        let mut merged = a.merged(&b);
        assert_eq!(merged.get().len(), 2);
        // A client that has seen both siblings writes a resolution.
        merged.set(3, "resolved");
        assert_eq!(merged.get(), vec![&"resolved"]);
        // Merging the old divergent states back does not resurrect them.
        let mut again = merged.clone();
        let mut stale = base.clone();
        stale.set(1, "alice");
        again.merge(&stale);
        assert_eq!(again.get(), vec![&"resolved"]);
    }

    #[test]
    fn mv_sequential_writes_single_value() {
        let mut r = MvRegister::new();
        r.set(1, 10);
        r.set(1, 20);
        r.set(2, 30);
        assert_eq!(r.get(), vec![&30]);
    }

    #[test]
    fn mv_merge_idempotent_with_self() {
        let mut r = MvRegister::new();
        r.set(1, "x");
        let merged = r.clone().merged(&r);
        assert_eq!(merged, r);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An LWW register whose (counter, actor) stamp is unique to `actor`:
    /// LWW merge is only a semilattice when no two distinct values share a
    /// timestamp, which real writers guarantee via unique actor ids.
    fn arb_lww(actor: u64) -> impl Strategy<Value = LwwRegister<u32>> {
        proptest::option::of((0u64..50, any::<u32>())).prop_map(move |w| {
            let mut r = LwwRegister::new();
            if let Some((c, v)) = w {
                r.set(LamportTimestamp::new(c + 1, actor), v);
            }
            r
        })
    }

    /// Replay a script of (replica, value) writes with occasional
    /// cross-replica merges, returning the three divergent replicas.
    ///
    /// All replicas come from *one* shared history: CRDT laws only hold
    /// when actor ids tick uniquely, so merging registers from unrelated
    /// universes (which could reuse a (actor, counter) pair for different
    /// values) is outside the contract.
    fn arb_mv_replicas() -> impl Strategy<Value = [MvRegister<u32>; 3]> {
        proptest::collection::vec((0usize..3, any::<u32>(), proptest::bool::ANY), 0..12).prop_map(
            |script| {
                let mut replicas = [MvRegister::new(), MvRegister::new(), MvRegister::new()];
                for (r, v, sync) in script {
                    replicas[r].set(r as u64, v);
                    if sync {
                        let src = replicas[(r + 1) % 3].clone();
                        replicas[r].merge(&src);
                    }
                }
                replicas
            },
        )
    }

    proptest! {
        #[test]
        fn lww_lattice_laws(a in arb_lww(0), b in arb_lww(1), c in arb_lww(2)) {
            prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
            prop_assert_eq!(
                a.clone().merged(&b).merged(&c),
                a.clone().merged(&b.clone().merged(&c))
            );
            prop_assert_eq!(a.clone().merged(&a), a);
        }

        #[test]
        fn mv_merge_commutative_and_idempotent(reps in arb_mv_replicas()) {
            let [a, b, _] = reps;
            let ab = a.clone().merged(&b);
            let ba = b.clone().merged(&a);
            // Sibling order may differ; compare as sorted multisets.
            let mut xs: Vec<_> = ab.get().into_iter().cloned().collect();
            let mut ys: Vec<_> = ba.get().into_iter().cloned().collect();
            xs.sort_unstable();
            ys.sort_unstable();
            prop_assert_eq!(xs, ys);
            let aa = a.clone().merged(&a);
            prop_assert_eq!(aa.get().len(), a.get().len());
        }

        /// Merging in any association order yields the same sibling values.
        #[test]
        fn mv_merge_associative(reps in arb_mv_replicas()) {
            let [a, b, c] = reps;
            let l = a.clone().merged(&b).merged(&c);
            let r = a.clone().merged(&b.clone().merged(&c));
            let mut xs: Vec<_> = l.get().into_iter().cloned().collect();
            let mut ys: Vec<_> = r.get().into_iter().cloned().collect();
            xs.sort_unstable();
            ys.sort_unstable();
            prop_assert_eq!(xs, ys);
        }

        /// Siblings that survive a merge are pairwise concurrent.
        #[test]
        fn mv_siblings_pairwise_concurrent(reps in arb_mv_replicas()) {
            let [a, b, _] = reps;
            let m = a.merged(&b);
            for i in 0..m.siblings.len() {
                for j in (i + 1)..m.siblings.len() {
                    let ord = m.siblings[i].1.compare(&m.siblings[j].1);
                    prop_assert!(ord.is_concurrent(), "{:?}", ord);
                }
            }
        }
    }
}
