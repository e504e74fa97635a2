//! The telemetry layer: which keys a replica's store changed.
//!
//! The replica-divergence probe samples, at every time-series bucket,
//! how many distinct versions of each key the replicas hold. Scanning
//! every store at every bucket costs O(stored keys × nodes) whatever
//! happened in between; a [`Probed`] store instead remembers the keys
//! written since the probe last looked, so the probe's cost follows the
//! work the protocol did. Every protocol's replica keeps its store in
//! one: updates, and whole-store replacement on amnesia recovery, can
//! only go through methods that mark what they touch.
//!
//! Always on, and bounded: the keys are a hash set, which holds each key
//! at most once, so it never outgrows the store's key count even when
//! nothing drains it (runs without a recorder never probe). A mark is
//! one hash-set insert; the order the probe sees is made at the drain,
//! which sorts the keys, so it hears of them ascending as before.
//!
//! The same funnel counts the store's *generation*
//! ([`Probed::generation`]): every mark and every whole-store
//! replacement moves it, a drain does not. What is derived from the
//! whole store — the anti-entropy digest — is kept until the generation
//! moves, so no caller has to remember to invalidate it and an amnesia
//! restart cannot advertise the store it lost. Replacements alone are
//! counted as the store's *epoch* ([`Probed::epoch`]): what is known
//! *about* the store rather than derived from it — which shipped
//! snapshots it has joined — holds until the epoch moves.

use super::resolution::{ApplyOutcome, Item, ResolvingStore, WriteOutcome};
use clocks::{LamportClock, LamportTimestamp, VersionVector};
use kvstore::{Key, MvStore, Value};
use simnet::{IdHashSet, NodeId};
use std::ops::Deref;

/// A store the divergence probe can read: per-key version fingerprints
/// (see [`simnet::Actor::key_versions`] for what a version must tell
/// apart).
pub trait ProbeVersions {
    /// `(key, version)` for every stored key, ascending by key.
    fn key_versions(&self) -> Vec<(Key, u64)>;

    /// The version [`ProbeVersions::key_versions`] reports for `key`;
    /// `None` if the key is not stored.
    fn key_version(&self, key: Key) -> Option<u64>;
}

/// Unique write ids identify LWW versions directly.
fn lww_version(v: &kvstore::Version) -> u64 {
    v.value.as_u64().unwrap_or(0)
}

impl ProbeVersions for MvStore {
    fn key_versions(&self) -> Vec<(Key, u64)> {
        self.scan(..).map(|(k, v)| (k, lww_version(v))).collect()
    }

    fn key_version(&self, key: Key) -> Option<u64> {
        self.get(key).map(lww_version)
    }
}

/// The keys a store changed since they were last drained, and how many
/// times it changed at all.
#[derive(Debug, Default)]
pub struct ChangedKeys {
    keys: IdHashSet<Key>,
    /// Where a drain sorts `keys`; empty between drains, and kept so a
    /// drain allocates nothing once it has seen the store's key count.
    sorted: Vec<Key>,
    /// Bumped by every mark and every whole-store replacement, and never
    /// reset: a drain empties `keys` and leaves this alone.
    generation: u64,
    /// Whole-store replacements so far.
    epoch: u64,
}

impl ChangedKeys {
    /// Remember that `key`'s version may have changed.
    pub fn mark(&mut self, key: Key) {
        self.keys.insert(key);
        self.generation += 1;
    }
}

/// A replica's store plus the keys it changed since the last probe.
///
/// Reads go through `Deref`; there is deliberately no `DerefMut`, so a
/// mutation the probe would not hear about does not type-check.
#[derive(Debug)]
pub struct Probed<S> {
    store: S,
    changed: ChangedKeys,
}

impl<S> Deref for Probed<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.store
    }
}

impl<S: ProbeVersions> Probed<S> {
    /// Wrap an (empty or pre-filled) store; everything in it counts as
    /// changed.
    pub fn new(store: S) -> Self {
        let mut probed = Probed { store, changed: ChangedKeys::default() };
        probed.mark_all();
        probed
    }

    fn mark_all(&mut self) {
        self.changed.keys.extend(self.store.key_versions().into_iter().map(|(k, _)| k));
    }

    /// The store's generation: two reads of the store that see the same
    /// generation see the same contents. Every mutation goes through a
    /// method of this wrapper that moves it, so whatever is derived from
    /// the store (the anti-entropy digest,
    /// [`super::resolution::DigestCache`]) can be kept until it moves.
    pub fn generation(&self) -> u64 {
        self.changed.generation
    }

    /// How many times the whole store was replaced. Between two
    /// replacements a store under a merging policy only ever grows, so
    /// what it is known to have joined
    /// ([`super::resolution::JoinedSnapshots`]) stays joined; across one,
    /// nothing is known.
    pub fn epoch(&self) -> u64 {
        self.changed.epoch
    }

    /// Replace the whole store (amnesia recovery: a WAL replay, or a
    /// restart from empty). Keys of either generation count as changed,
    /// so keys the new store lacks are reported as gone.
    pub fn replace(&mut self, store: S) {
        self.mark_all();
        self.store = store;
        self.mark_all();
        // `mark_all` fills the key set directly; a replacement is one
        // change whatever the two stores hold.
        self.changed.generation += 1;
        self.changed.epoch += 1;
    }

    /// [`simnet::Actor::drain_changed_versions`] for the actor owning
    /// this store.
    pub fn drain_changed_versions(&mut self, sink: &mut dyn FnMut(u64, Option<u64>)) {
        let ChangedKeys { keys, sorted, .. } = &mut self.changed;
        sorted.extend(keys.drain());
        sorted.sort_unstable();
        for key in sorted.drain(..) {
            sink(key, self.store.key_version(key));
        }
    }
}

impl Probed<MvStore> {
    /// [`MvStore::put`], marking the key when the version was new.
    pub fn put(&mut self, key: Key, value: Value, ts: LamportTimestamp, written_at: u64) -> bool {
        let new = self.store.put(key, value, ts, written_at);
        if new {
            self.changed.mark(key);
        }
        new
    }
}

impl Probed<ResolvingStore> {
    /// [`ResolvingStore::write_local`], marking the key.
    #[allow(clippy::too_many_arguments)]
    pub fn write_local(
        &mut self,
        me: NodeId,
        key: Key,
        value: u64,
        observed: (u64, u64),
        client_ctx: &VersionVector,
        now_us: u64,
        clock: &mut LamportClock,
    ) -> WriteOutcome {
        self.changed.mark(key);
        self.store.write_local(me, key, value, observed, client_ctx, now_us, clock)
    }

    /// [`ResolvingStore::apply`], marking the keys whose state changed.
    pub fn apply(&mut self, items: &[Item], clock: &mut LamportClock) -> ApplyOutcome {
        self.store.apply(items, clock, &mut self.changed)
    }

    /// Restart from empty under the same policy (volatile-state
    /// amnesia); see [`ResolvingStore::restarted`] for the one thing
    /// that survives.
    pub fn reset(&mut self) {
        self.replace(self.store.restarted());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(s: &mut Probed<MvStore>) -> Vec<(u64, Option<u64>)> {
        let mut out = Vec::new();
        s.drain_changed_versions(&mut |k, v| out.push((k, v)));
        out
    }

    fn put(s: &mut Probed<MvStore>, key: Key, value: u64, counter: u64) -> bool {
        s.put(key, Value::from_u64(value), LamportTimestamp::new(counter, 0), 0)
    }

    #[test]
    fn drains_each_changed_key_once_with_its_latest_version() {
        let mut s = Probed::new(MvStore::new());
        assert!(drained(&mut s).is_empty());
        put(&mut s, 7, 70, 1);
        put(&mut s, 3, 30, 1);
        put(&mut s, 7, 71, 2);
        assert_eq!(drained(&mut s), vec![(3, Some(30)), (7, Some(71))]);
        assert!(drained(&mut s).is_empty(), "a drain forgets what it reported");
        // A duplicate stamp is a no-op and marks nothing; an older
        // version lands mid-chain and reports the unchanged latest.
        assert!(!put(&mut s, 7, 71, 2));
        assert!(drained(&mut s).is_empty());
        assert!(put(&mut s, 3, 29, 0));
        assert_eq!(drained(&mut s), vec![(3, Some(30))]);
    }

    #[test]
    fn replacement_reports_lost_and_recovered_keys() {
        let mut s = Probed::new(MvStore::new());
        put(&mut s, 1, 10, 1);
        put(&mut s, 2, 20, 1);
        drained(&mut s);
        let mut replayed = MvStore::new();
        replayed.put(2, Value::from_u64(20), LamportTimestamp::new(1, 0), 0);
        replayed.put(5, Value::from_u64(50), LamportTimestamp::new(1, 0), 0);
        s.replace(replayed);
        assert_eq!(drained(&mut s), vec![(1, None), (2, Some(20)), (5, Some(50))]);
    }

    #[test]
    fn an_amnesia_restart_does_not_recycle_dots() {
        use crate::kernel::resolution::ResolutionPolicy;
        // A client reads 100 at A, A loses its state, the client
        // overwrites with 101 quoting what it read. Had A restarted its
        // dot counter, the overwrite would carry the dot of the write it
        // supersedes, and B — still holding that write — would drop it
        // as a duplicate and never converge.
        let new_store =
            || Probed::new(ResolvingStore::new(ResolutionPolicy::VersionVectorSiblings));
        let (mut a, mut b) = (new_store(), new_store());
        let mut clock = LamportClock::new();
        let dot_of = |items: &[Item]| match items {
            [Item::Sib { sibling, .. }] => sibling.dvv.dot,
            other => panic!("a sibling write ships one sibling, not {other:?}"),
        };
        let key = 9;

        let first =
            a.write_local(NodeId(0), key, 100, (0, 0), &VersionVector::new(), 0, &mut clock);
        b.apply(&first.items, &mut clock);
        let read_ctx = a.read(key).ctx;
        a.reset();
        assert!(a.read(key).values.is_empty(), "the state is gone");

        let second = a.write_local(NodeId(0), key, 101, (0, 0), &read_ctx, 0, &mut clock);
        assert_ne!(dot_of(&second.items), dot_of(&first.items), "a dot names one write, ever");
        b.apply(&second.items, &mut clock);
        assert_eq!(b.read(key).values, [101], "the overwrite supersedes what it quoted");
        assert_eq!(a.read(key).values, [101]);
    }

    #[test]
    fn undrained_marks_stay_bounded_by_the_key_count() {
        let mut s = Probed::new(MvStore::new());
        for round in 1..=50 {
            for key in 0..8 {
                put(&mut s, key, round * 100 + key, round);
            }
        }
        assert_eq!(s.changed.keys.len(), 8);
    }
}
