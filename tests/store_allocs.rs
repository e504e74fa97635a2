//! Integration: what filling a store allocates, exactly.
//!
//! Two buffers anti-entropy fills are sized from what they hold, not
//! grown to it:
//!
//! * an `MvStore` version chain starts with room for one version, the
//!   number most keys ever hold (a first push into an empty `Vec` would
//!   reserve four);
//! * a counter store is one buffer ascending by key
//!   (`replication::kernel::resolution::Counters`): a snapshot of it is
//!   allocated once at its size, and a join that brings keys the store
//!   lacks sets them aside in one buffer and merges them in with one
//!   more, whatever their number. A tree would allocate a node every few
//!   keys; a buffer grown key by key, a doubling's worth of copies.
//!
//! Exact, not timed: this binary installs [`CountingAlloc`], which tallies
//! per thread, so each test counts only what its own thread allocates.

use rethinking_ec::clocks::{LamportClock, LamportTimestamp, VersionVector};
use rethinking_ec::crdt::PnCounter;
use rethinking_ec::kvstore::{Key, MvStore, Value, Version};
use rethinking_ec::obs::{alloc_totals, CountingAlloc};
use rethinking_ec::replication::kernel::resolution::{DigestCache, Item, Items, ResolutionPolicy};
use rethinking_ec::replication::kernel::{Probed, ResolvingStore};
use rethinking_ec::simnet::NodeId;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(bytes, allocations)` made on this thread while `f` ran.
fn allocated<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (bytes, count) = alloc_totals();
    let out = f();
    let (bytes_after, count_after) = alloc_totals();
    ((bytes_after - bytes, count_after - count), out)
}

#[test]
fn a_store_of_single_version_keys_allocates_one_version_per_key() {
    const KEYS: u64 = 1_000;
    // The store's key map by itself: the same keys inserted one by one in
    // the same order, with chains that hold nothing and so allocate
    // nothing.
    let (map, _) = allocated(|| {
        let mut map: BTreeMap<Key, Vec<Version>> = BTreeMap::new();
        for key in 0..KEYS {
            map.insert(key, Vec::new());
        }
        map
    });
    let (store, _) = allocated(|| {
        let mut store = MvStore::new();
        for key in 0..KEYS {
            store.put(key, Value::from_u64(key), LamportTimestamp::new(1, 0), 0);
        }
        store
    });
    assert_eq!(
        (store.0 - map.0, store.1 - map.1),
        (KEYS * size_of::<Version>() as u64, KEYS),
        "one allocation of one `Version` per key, on top of the key map"
    );
}

#[test]
fn a_large_snapshot_joins_into_an_empty_counter_store_in_two_allocations() {
    const KEYS: u64 = 50_000;
    let mut clock = LamportClock::new();
    let mut sender = Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge));
    for key in 0..KEYS {
        sender.write_local(NodeId(1), key, key + 1, (0, 0), &VersionVector::new(), 0, &mut clock);
    }
    let (no_digest, no_vv) = sender.digest();
    let (snapshot_cost, snapshot) = allocated(|| {
        DigestCache::default().missing_at_remote(&sender, NodeId(2), &no_digest, &no_vv)
    });
    assert!(matches!(snapshot, Items::Snapshot(_)), "counter state ships as a snapshot");
    assert_eq!(snapshot.len() as u64, KEYS);
    // An `Rc<[Item]>`: two reference counts, then the items.
    let buffer = (2 * size_of::<usize>() + KEYS as usize * size_of::<Item>()) as u64;
    assert_eq!(snapshot_cost, (buffer, 1), "the snapshot is one buffer of its size");

    // A receiver whose change set has held every key once: the join
    // below is then all that allocates, not the probe's bookkeeping.
    let mut receiver = Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge));
    receiver.apply(&snapshot, &mut clock);
    receiver.drain_changed_versions(&mut |_, _| {});
    receiver.reset();
    receiver.drain_changed_versions(&mut |_, _| {});
    assert_eq!(receiver.counter_value(0), None, "the receiver starts empty");

    let (join_cost, _) = allocated(|| receiver.apply(&snapshot, &mut clock));
    let set_aside = size_of::<(Key, &Rc<PnCounter>)>() as u64;
    let stored = size_of::<(Key, Rc<PnCounter>)>() as u64;
    assert_eq!(
        join_cost,
        (KEYS * (set_aside + stored), 2),
        "every key set aside in one buffer and merged into one more"
    );
    for key in [0, KEYS / 2, KEYS - 1] {
        assert_eq!(receiver.counter_value(key), Some(key as i64 + 1));
    }
}
