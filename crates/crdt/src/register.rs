//! The last-writer-wins register.

use crate::CvRdt;
use clocks::LamportTimestamp;
use serde::{Deserialize, Serialize};

/// A last-writer-wins register.
///
/// Arbitrates concurrent writes by `(timestamp, actor)` — simple, a single
/// surviving value, and **lossy**: one of two concurrent writes silently
/// disappears (Act 1 of `examples/shopping_cart.rs`). For concurrent
/// writes kept as siblings, see `kvstore::SiblingStore`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use clocks::ActorId;

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
        // "alice" is gone, and no replica reports the loss.
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
    }
}
