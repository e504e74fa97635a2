//! Integration: the receiving side of anti-entropy against the loops it
//! replaced.
//!
//! `ResolvingStore::apply` joins a shipped counter buffer with the store
//! in one lock-step walk, `DigestCache::missing_at_remote` joins the
//! store's own digest with the remote one, counter state is shipped as
//! one shared snapshot per store generation, `JoinedSnapshots` skips
//! a snapshot the store has joined before, and `DigestCache` answers a
//! peer's digest it found covering the store before by a pointer
//! comparison. Each of those rests on something the old code did not
//! need — a buffer in key order, a digest of *this* generation, a
//! snapshot or digest recognised for what it is, a store that has not
//! changed or been replaced in between — so each is held here to
//! `tests/oracle/anti_entropy.rs`, the per-item `entry` loop and the
//! store scan, on inputs chosen to break exactly that: buffers that are
//! shuffled, repeat keys, name only keys the store lacks, share every
//! state with it, carry items of another policy or nothing at all;
//! digests asked for after the store moved on; receivers reset between
//! two deliveries of one snapshot; snapshots freed and built again; one
//! remote digest asked about again after the store was written, applied
//! to or reset.

use proptest::prelude::*;
use rethinking_ec::clocks::{LamportClock, LamportTimestamp, VersionVector};
use rethinking_ec::crdt::PnCounter;
use rethinking_ec::kvstore::{Key, MvStore, SiblingStore, Value};
use rethinking_ec::replication::kernel::resolution::{
    Counters, DigestCache, Item, Items, JoinedSnapshots, ResolutionPolicy, ResolvingStore,
};
use rethinking_ec::replication::kernel::Probed;
use rethinking_ec::simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

#[path = "oracle/anti_entropy.rs"]
mod oracle;

// ---- Building blocks -----------------------------------------------------

/// `(actor, amount, decrement)` steps; amount 0 leaves a zero-count entry
/// behind, which the structural order must see.
fn arb_counter() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((0u64..3, 0u64..4, proptest::bool::ANY), 0..5)
}

fn counter_of(steps: &[(u64, u64, bool)]) -> Rc<PnCounter> {
    let mut c = PnCounter::new();
    for &(actor, n, down) in steps {
        if down {
            c.decrement(actor, n);
        } else {
            c.increment(actor, n);
        }
    }
    Rc::new(c)
}

/// The peer whose digest a store is asked about.
const REMOTE: NodeId = NodeId(9);

/// The keys a probed store reports changed since the last drain.
fn drained(store: &mut Probed<ResolvingStore>) -> BTreeSet<Key> {
    let mut keys = BTreeSet::new();
    store.drain_changed_versions(&mut |k, _| {
        keys.insert(k);
    });
    keys
}

fn counters(store: &ResolvingStore) -> &Counters {
    match store {
        ResolvingStore::Crdt(m) => m,
        other => panic!("not a counter store: {other:?}"),
    }
}

/// One `apply` of `items` on both sides, from the same starting store:
/// same contents afterwards, same outcome, same keys marked, and the
/// generation moved once per mark — so it moved iff something changed.
fn assert_apply_matches_the_entry_loop(start: ResolvingStore, items: &[Item]) {
    let rebuilt = |s: &ResolvingStore| match s {
        ResolvingStore::Lww(s) => ResolvingStore::Lww(s.clone()),
        ResolvingStore::Sib(s) => ResolvingStore::Sib(s.clone()),
        ResolvingStore::Crdt(m) => ResolvingStore::Crdt(m.clone()),
    };
    let (mut old_clock, mut new_clock) = (LamportClock::new(), LamportClock::new());
    let mut old = rebuilt(&start);
    let mut marks = Vec::new();
    let want = oracle::apply(&mut old, items, &mut old_clock, &mut marks);

    let mut new = Probed::new(start);
    drained(&mut new);
    let before = new.generation();
    let got = new.apply(items, &mut new_clock);

    match (&*new, &old) {
        (ResolvingStore::Lww(a), ResolvingStore::Lww(b)) => assert_eq!(a, b),
        (ResolvingStore::Sib(a), ResolvingStore::Sib(b)) => assert!(a.same_siblings(b)),
        (ResolvingStore::Crdt(a), ResolvingStore::Crdt(b)) => assert_eq!(a, b),
        (a, b) => panic!("policies differ: {a:?} vs {b:?}"),
    }
    assert_eq!((got.adopted, got.conflicts), (want.adopted, want.conflicts));
    assert_eq!(new_clock, old_clock);
    assert_eq!(new.generation() - before, marks.len() as u64, "one generation per mark");
    assert_eq!(drained(&mut new), marks.into_iter().collect(), "marked keys");
}

// ---- (a) the merge-join `apply` -----------------------------------------

proptest! {
    /// Random counter stores × random buffers: fresh states, states the
    /// store already shares by reference, LWW items that do not belong,
    /// in the order drawn (unsorted, repeating), sorted with repeats, or
    /// strictly ascending.
    #[test]
    fn counter_apply_matches_the_entry_loop(
        stored in proptest::collection::vec((0u64..10, arb_counter()), 0..10),
        shipped in proptest::collection::vec((0u64..14, 0u8..4, arb_counter()), 0..16),
        order in 0u8..3,
    ) {
        let store: BTreeMap<Key, Rc<PnCounter>> =
            stored.iter().map(|(k, steps)| (*k, counter_of(steps))).collect();
        let mut items: Vec<(Key, Item)> = shipped
            .iter()
            .map(|(key, kind, steps)| {
                let item = match kind {
                    0 | 1 => Item::Counter { key: *key, state: counter_of(steps) },
                    2 => Item::Counter {
                        key: *key,
                        state: store.get(key).cloned().unwrap_or_else(|| counter_of(steps)),
                    },
                    _ => Item::Lww {
                        key: *key,
                        value: 1,
                        ts: LamportTimestamp::new(1, 0),
                        written_at: 0,
                    },
                };
                (*key, item)
            })
            .collect();
        if order >= 1 {
            items.sort_by_key(|(k, _)| *k);
        }
        if order == 2 {
            items.dedup_by_key(|(k, _)| *k);
        }
        let items: Vec<Item> = items.into_iter().map(|(_, item)| item).collect();
        assert_apply_matches_the_entry_loop(ResolvingStore::Crdt(store.into_iter().collect()), &items);
    }

    /// The other two arms changed only in how they are handed their
    /// items: LWW versions (and counter items that do not belong) into an
    /// LWW store.
    #[test]
    fn lww_apply_matches_the_entry_loop(
        stored in proptest::collection::vec((0u64..6, 1u64..6, 0u64..2), 0..8),
        shipped in proptest::collection::vec((0u64..8, 1u64..8, 0u64..2, proptest::bool::ANY), 0..12),
    ) {
        let mut store = MvStore::new();
        for (key, counter, actor) in stored {
            store.put(key, Value::from_u64(counter), LamportTimestamp::new(counter, actor), counter);
        }
        let items: Vec<Item> = shipped
            .into_iter()
            .map(|(key, counter, actor, belongs)| if belongs {
                Item::Lww { key, value: counter * 10 + actor, ts: LamportTimestamp::new(counter, actor), written_at: counter }
            } else {
                Item::Counter { key, state: counter_of(&[(actor, counter, false)]) }
            })
            .collect();
        assert_apply_matches_the_entry_loop(ResolvingStore::Lww(store), &items);
    }

    /// Siblings written at two replicas, some in causal succession, all
    /// shipped to a third that has seen a random part of them already.
    #[test]
    fn sibling_apply_matches_the_entry_loop(
        script in proptest::collection::vec((0usize..2, 0u64..3, proptest::bool::ANY, proptest::bool::ANY), 0..12),
    ) {
        let mut writers = [SiblingStore::new(0), SiblingStore::new(1)];
        let mut receiver = SiblingStore::new(2);
        let mut items = Vec::new();
        for (i, (w, key, read_first, seen)) in script.into_iter().enumerate() {
            let ctx = if read_first { writers[w].read(key).context } else { VersionVector::new() };
            writers[w].write(key, Value::from_u64(i as u64), &ctx, 0);
            let sibling = writers[w].siblings(key).last().expect("just written").clone();
            if seen {
                receiver.apply_remote(key, sibling.clone());
            }
            items.push(Item::Sib { key, sibling });
        }
        assert_apply_matches_the_entry_loop(ResolvingStore::Sib(receiver), &items);
    }
}

#[test]
fn the_buffers_a_lock_step_walk_could_mishandle() {
    let state = |n| counter_of(&[(0, n, false)]);
    let store: BTreeMap<Key, Rc<PnCounter>> = (0..6).map(|k| (k * 2, state(1))).collect();
    let ship = |keys: &[Key], n| -> Vec<Item> {
        keys.iter().map(|&key| Item::Counter { key, state: state(n) }).collect()
    };
    let shared: Vec<Item> =
        store.iter().map(|(&key, c)| Item::Counter { key, state: Rc::clone(c) }).collect();
    let cases: [(&str, Vec<Item>); 9] = [
        ("nothing shipped", Vec::new()),
        (
            "only keys the store lacks, between, below and above its own",
            ship(&[1, 3, 5, 11, 13], 2),
        ),
        ("every state shared with the store", shared),
        ("descending", ship(&[10, 8, 6, 4, 2, 0], 2)),
        ("one key three times, growing", [ship(&[4], 2), ship(&[4], 3), ship(&[4], 4)].concat()),
        (
            "a vacant key twice, then a stored key behind it",
            [ship(&[7], 2), ship(&[7], 3), ship(&[2], 2)].concat(),
        ),
        ("the largest key first", ship(&[10, 0, 2, 4], 2)),
        ("descending, every state below what is stored", ship(&[10, 8, 6, 4, 2, 0], 0)),
        ("one key twice, shrinking", [ship(&[4], 3), ship(&[4], 2)].concat()),
    ];
    for (what, items) in cases {
        println!("{what}");
        assert_apply_matches_the_entry_loop(
            ResolvingStore::Crdt(store.clone().into_iter().collect()),
            &items,
        );
    }
    // The same buffers into an empty store: every key is vacant.
    for n in [0, 1, 5] {
        let keys: Vec<Key> = (0..n).collect();
        assert_apply_matches_the_entry_loop(
            ResolvingStore::Crdt(Counters::default()),
            &ship(&keys, 1),
        );
    }
}

// ---- (b), (c) what a store ships, by generation -------------------------

fn lww_store(versions: &[(Key, u64, u64)]) -> Probed<ResolvingStore> {
    let mut store = MvStore::new();
    for &(key, counter, actor) in versions {
        let ts = LamportTimestamp::new(counter, actor);
        store.put(key, Value::from_u64(counter * 10 + actor), ts, counter);
    }
    Probed::new(ResolvingStore::Lww(store))
}

fn lww_items(versions: &[(Key, u64, u64)]) -> Vec<Item> {
    versions
        .iter()
        .map(|&(key, counter, actor)| Item::Lww {
            key,
            value: counter * 10 + actor,
            ts: LamportTimestamp::new(counter, actor),
            written_at: counter,
        })
        .collect()
}

proptest! {
    /// LWW stores holding random subsets of one pool of versions — keys
    /// on one side only, equal stamps, newer on either side, equal and
    /// empty stores — asked what the other lacks with no digest of their
    /// own yet, with this generation's, and with one taken before `late`
    /// versions arrived: always what a scan of the store as it is now
    /// finds.
    #[test]
    fn lww_missing_matches_the_store_scan(
        pool in proptest::collection::vec(
            (0u64..6, 1u64..5, 0u64..2, proptest::bool::ANY, proptest::bool::ANY),
            0..12,
        ),
        late in proptest::collection::vec((0u64..8, 1u64..7, 0u64..2), 0..4),
    ) {
        let side = |want_a: bool| -> Vec<(Key, u64, u64)> {
            pool.iter()
                .filter(|(_, _, _, in_a, in_b)| if want_a { *in_a } else { *in_b })
                .map(|&(key, counter, actor, _, _)| (key, counter, actor))
                .collect()
        };
        let mut clock = LamportClock::new();
        for (local, remote) in [(side(true), side(false)), (side(false), side(true))] {
            let (digest, vv_digest) = lww_store(&remote).digest();
            for warmed in [false, true] {
                let mut local = lww_store(&local);
                let mut cache = DigestCache::default();
                if warmed {
                    cache.get(&local);
                }
                let got = cache.missing_at_remote(&local, REMOTE, &digest, &vv_digest);
                prop_assert_eq!(&got[..], &oracle::missing_at_remote(&local, &digest, &vv_digest)[..]);

                // The cache now holds a digest that `late` makes one
                // generation old (or leaves current, if nothing lands).
                cache.get(&local);
                local.apply(&lww_items(&late), &mut clock);
                let got = cache.missing_at_remote(&local, REMOTE, &digest, &vv_digest);
                prop_assert_eq!(&got[..], &oracle::missing_at_remote(&local, &digest, &vv_digest)[..]);
            }
        }
    }
}

#[test]
fn a_counter_snapshot_is_built_once_per_generation_and_never_outlives_its_store() {
    let mut store = Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge));
    let mut cache = DigestCache::default();
    let mut clock = LamportClock::new();
    let (no_digest, no_vv) = store.digest();
    let mut write = |store: &mut Probed<ResolvingStore>, key| {
        store.write_local(NodeId(0), key, 1, (0, 0), &VersionVector::new(), 0, &mut clock);
    };
    let buffer = |items: &Items| match items {
        Items::Snapshot(buffer) => Rc::clone(buffer),
        Items::Built(_) => panic!("counter state ships as a snapshot"),
    };

    write(&mut store, 3);
    write(&mut store, 1);
    let first = cache.missing_at_remote(&store, REMOTE, &no_digest, &no_vv);
    assert_eq!(first[..], oracle::missing_at_remote(&store, &no_digest, &no_vv)[..]);
    let again = cache.missing_at_remote(&store, REMOTE, &no_digest, &no_vv);
    assert!(Rc::ptr_eq(&buffer(&first), &buffer(&again)), "no change: one buffer");

    write(&mut store, 1);
    let second = cache.missing_at_remote(&store, REMOTE, &no_digest, &no_vv);
    assert!(!Rc::ptr_eq(&buffer(&first), &buffer(&second)), "a change: a new buffer");
    assert_eq!(second[..], oracle::missing_at_remote(&store, &no_digest, &no_vv)[..]);
    assert_ne!(first[..], second[..], "a snapshot in flight is immutable");

    store.reset();
    let after = cache.missing_at_remote(&store, REMOTE, &no_digest, &no_vv);
    assert!(after.is_empty(), "an amnesia restart cannot ship the store it lost");
}

// ---- (d) a snapshot joined before ----------------------------------------

/// A counter replica as a sender: its store and what it derives from it.
struct Sender {
    id: NodeId,
    store: Probed<ResolvingStore>,
    cache: DigestCache,
}

impl Sender {
    fn new(id: u32) -> Self {
        Sender {
            id: NodeId(id),
            store: Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge)),
            cache: DigestCache::default(),
        }
    }

    fn write(&mut self, key: Key, amount: u64) {
        let mut clock = LamportClock::new();
        self.store.write_local(self.id, key, amount, (0, 0), &VersionVector::new(), 0, &mut clock);
    }

    fn ship(&mut self) -> Items {
        let (no_digest, no_vv) = self.store.digest();
        self.cache.missing_at_remote(&self.store, REMOTE, &no_digest, &no_vv)
    }
}

/// A receiver that skips snapshots it has joined, and its twin that
/// applies every delivery with the `entry` loop.
struct Receiver {
    store: Probed<ResolvingStore>,
    joined: JoinedSnapshots,
    twin: ResolvingStore,
    twin_marks: Vec<Key>,
}

impl Receiver {
    fn new() -> Self {
        Receiver {
            store: Probed::new(ResolvingStore::new(ResolutionPolicy::CrdtMerge)),
            joined: JoinedSnapshots::default(),
            twin: ResolvingStore::new(ResolutionPolicy::CrdtMerge),
            twin_marks: Vec::new(),
        }
    }

    fn deliver(&mut self, from: NodeId, items: &Items) {
        let mut clock = LamportClock::new();
        self.joined.apply(&mut self.store, from, items, &mut clock);
        oracle::apply(&mut self.twin, items, &mut clock, &mut self.twin_marks);
    }

    fn write(&mut self, key: Key, amount: u64) {
        let mut clock = LamportClock::new();
        let me = NodeId(9);
        self.store.write_local(me, key, amount, (0, 0), &VersionVector::new(), 0, &mut clock);
        self.twin.write_local(me, key, amount, (0, 0), &VersionVector::new(), 0, &mut clock);
        self.twin_marks.push(key);
    }

    /// An amnesia restart of both. The probe reports every key of either
    /// store; the twin has no probe, so that drain is thrown away.
    fn reset(&mut self) {
        self.store.reset();
        drained(&mut self.store);
        self.twin = self.twin.restarted();
        self.twin_marks.clear();
    }

    fn assert_in_step(&mut self, after: &str) {
        assert_eq!(counters(&self.store), counters(&self.twin), "contents after {after}");
        let marks = std::mem::take(&mut self.twin_marks).into_iter().collect();
        assert_eq!(drained(&mut self.store), marks, "marked keys after {after}");
    }
}

#[test]
fn a_receiver_reset_between_two_deliveries_of_one_snapshot_joins_it_again() {
    let mut sender = Sender::new(1);
    for key in 0..5 {
        sender.write(key, key + 1);
    }
    let snapshot = sender.ship();
    let mut receiver = Receiver::new();
    receiver.deliver(sender.id, &snapshot);
    receiver.assert_in_step("the first delivery");
    assert_eq!(counters(&receiver.store), counters(&sender.store));

    receiver.deliver(sender.id, &snapshot);
    receiver.assert_in_step("the same snapshot again");

    receiver.reset();
    assert!(counters(&receiver.store).is_empty());
    receiver.deliver(sender.id, &snapshot);
    receiver.assert_in_step("the same snapshot after a restart from empty");
    assert_eq!(counters(&receiver.store), counters(&sender.store), "refilled");
}

#[test]
fn a_rebuilt_snapshot_is_never_taken_for_the_one_it_replaced() {
    // Every round frees the sender's last snapshot and builds one of the
    // same size, which an allocator likes to put where the old one was.
    // Only the receiver's reference keeps that from happening; a memory
    // of the bare address would skip the new state.
    let mut sender = Sender::new(1);
    let mut receiver = Receiver::new();
    for key in 0..8 {
        sender.write(key, 1);
    }
    for round in 0..32 {
        sender.write(round % 8, 1);
        let snapshot = sender.ship();
        receiver.deliver(sender.id, &snapshot);
        drop(snapshot);
        receiver.assert_in_step("a rebuilt snapshot");
        assert_eq!(counters(&receiver.store), counters(&sender.store), "round {round}");
    }
}

proptest! {
    /// Two senders and one receiver under a random script of writes on
    /// every side, fresh deliveries, re-deliveries of a sender's previous
    /// shipment (a delayed message), and receiver restarts: skipping what
    /// was joined before is never told apart from applying everything.
    #[test]
    fn skipping_joined_snapshots_matches_applying_every_delivery(
        script in proptest::collection::vec((0u8..6, 0usize..2, 0u64..4, 1u64..4), 0..40),
    ) {
        let mut senders = [Sender::new(1), Sender::new(2)];
        let mut delayed: [Option<Items>; 2] = [None, None];
        let mut receiver = Receiver::new();
        for (step, (kind, s, key, amount)) in script.into_iter().enumerate() {
            match kind {
                0 => senders[s].write(key, amount),
                1 => receiver.write(key, amount),
                2 | 3 => {
                    let items = senders[s].ship();
                    receiver.deliver(senders[s].id, &items);
                    delayed[s] = Some(items);
                }
                4 => {
                    if let Some(items) = &delayed[s] {
                        receiver.deliver(senders[s].id, items);
                    }
                }
                _ => receiver.reset(),
            }
            receiver.assert_in_step(&format!("step {step}"));
        }
    }
}

// ---- (e) a remote digest found covering the store before ---------------

proptest! {
    /// One LWW replica and two peers under a random script of writes,
    /// applies (new versions, old ones, duplicates) and amnesia resets on
    /// the replica, applies on the peers, peers catching up with the
    /// replica, and exchanges. A peer's digest is the one `Rc` its cache
    /// hands out while its store stands, so a quiet peer asks about the
    /// same digest again and again, and each exchange asks twice. Every
    /// answer must be what the digest-free scan finds in the store as it
    /// is now: a "covered" remembered from before a change fails here.
    #[test]
    fn a_remembered_covered_digest_answers_as_the_store_scan(
        script in proptest::collection::vec(
            (0u8..8, 0usize..2, 0u64..6, 1u64..6, 0u64..3),
            0..48,
        ),
    ) {
        let mut local = lww_store(&[]);
        let mut cache = DigestCache::default();
        let mut peers = [lww_store(&[]), lww_store(&[])];
        let mut peer_caches = [DigestCache::default(), DigestCache::default()];
        let mut clock = LamportClock::new();
        for (kind, p, key, counter, actor) in script {
            let shipped = lww_items(&[(key, counter, actor)]);
            match kind {
                0 => {
                    local.apply(&shipped, &mut clock);
                }
                1 => {
                    local.write_local(NodeId(7), key, counter, (0, 0), &VersionVector::new(), 0, &mut clock);
                }
                2 => local.reset(),
                3 => {
                    cache.get(&local);
                }
                4 => {
                    peers[p].apply(&shipped, &mut clock);
                }
                5 => {
                    let (digest, vv_digest) = peer_caches[p].get(&peers[p]);
                    let lacking = oracle::missing_at_remote(&local, &digest, &vv_digest);
                    peers[p].apply(&lacking, &mut clock);
                }
                _ => {
                    let (digest, vv_digest) = peer_caches[p].get(&peers[p]);
                    for _ in 0..2 {
                        let got = cache.missing_at_remote(&local, NodeId(p as u32), &digest, &vv_digest);
                        let want = oracle::missing_at_remote(&local, &digest, &vv_digest);
                        prop_assert_eq!(&got[..], &want[..]);
                    }
                }
            }
        }
    }
}
