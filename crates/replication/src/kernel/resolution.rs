//! The resolution layer: how concurrent updates reconcile.
//!
//! A [`ResolvingStore`] is replica-side storage whose merge behaviour is
//! chosen by [`ResolutionPolicy`]: last-writer-wins over an
//! [`kvstore::MvStore`], dotted-version-vector siblings over a
//! [`kvstore::SiblingStore`], or CRDT join over [`crdt::PnCounter`]
//! state (wired to `crates/crdt`; `tests/crdt_semilattice.rs`
//! cross-checks the store's merges against direct CRDT merges). The
//! store also knows how to summarize itself for anti-entropy
//! ([`ResolvingStore::digest`] / [`DigestCache::missing_at_remote`])
//! so propagation policies stay resolution-agnostic.
//!
//! # What an exchange copies
//!
//! On the wire nothing is spared: a digest names every key, and
//! counters have no cheap digest, so CRDT gossip ships the full state of
//! every key in both directions. On the host — one address space, one
//! thread per simulation — none of that is a copy:
//!
//! * A [`Digest`] is an immutable snapshot behind an `Rc`. A
//!   [`DigestCache`] rebuilds it at most once per store generation, so a
//!   fan-out, and every `SyncReq` answered before the next change, is a
//!   reference count.
//! * A digest is ascending by key by construction (only the store's
//!   ordered scan makes one), so what a remote digest lacks is a
//!   lock-step walk of two sorted slices — the store's own digest of
//!   this generation against the remote one — that touches the store
//!   only for the keys that differ and allocates nothing but its result.
//! * Counter state is copy-on-write: [`Item::Counter`] carries the
//!   store's own `Rc<PnCounter>`, and `apply` decides by comparison
//!   ([`PnCounter::leq`]) whether a merge would change anything — the
//!   same state or a smaller one is dropped, a larger one is adopted by
//!   reference, and only concurrent states are merged, copying the
//!   counter first if someone else still holds it.
//! * A counter store's whole state is shipped as one [`Items::Snapshot`]
//!   per store generation, kept next to the digests: every message that
//!   carries it holds a reference to the same buffer, and `apply` walks
//!   it in lock-step with the store, so a state the receiver already
//!   holds costs a pointer comparison per key and no tree descent.
//! * A snapshot a store has already joined from a peer is not walked
//!   again ([`JoinedSnapshots`]): between two replacements a store only
//!   grows, so a quiet exchange costs reference counts and nothing else.
//! * The same holds for LWW digests: a [`DigestCache`] remembers, per
//!   peer, the last remote digest its generation was found to have
//!   nothing to add to, so a quiet peer's repeated `SyncReq` or
//!   `SyncResp` costs a pointer comparison instead of a digest compare.
//!
//! # What is still O(keys)
//!
//! One pass per store generation for the digest or the snapshot, into a
//! buffer allocated once at its exact size ([`MvStore::len`], or the
//! length of the [`Counters`] buffer). Per remote digest not found
//! covering the store before, one merge-join: of two slices, or of the
//! store's ordered scan with the remote digest when no digest of this
//! generation has been built (an apply has just changed the store). Per
//! snapshot not joined before, one pointer-cheap walk of the
//! [`Counters`] slice; a snapshot that brings keys the store lacks
//! rebuilds the slice once, in one merge, whatever their number.
//! Counters live in a sorted buffer rather than a tree because every
//! deployment holds 1 to 1 024 of them: a local write of a new key
//! shifts the buffer once, and a join that brings new keys copies it
//! once.

use super::telemetry::{ChangedKeys, ProbeVersions, Probed};
use clocks::{LamportClock, LamportTimestamp, VersionVector};
use crdt::{CvRdt, PnCounter};
use kvstore::siblings::{joint_context, Sibling};
use kvstore::{Key, MvStore, SiblingStore, Value};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::rc::Rc;

/// How conflicts resolve (the resolution axis of a
/// [`super::Composition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionPolicy {
    /// Last-writer-wins on `(Lamport counter, replica)` stamps.
    LwwRegister,
    /// Concurrent writes survive as dotted-version-vector siblings the
    /// client must reconcile (the Dynamo model).
    VersionVectorSiblings,
    /// Values are state-based CRDTs merged by join (PN-counters here);
    /// concurrent updates commute, nothing is lost.
    CrdtMerge,
}

/// Conflict-resolution policy of the eventual protocol — the name the
/// `Scheme::Eventual` preset spells a [`ResolutionPolicy`] with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictMode {
    /// Last-writer-wins on `(Lamport counter, replica)` stamps.
    Lww,
    /// Keep concurrent siblings (dotted version vectors).
    Siblings,
    /// Values are PN-counters; a write of `v` means "increment by v".
    Counter,
}

impl ConflictMode {
    /// The kernel resolution policy this mode names.
    pub fn policy(self) -> ResolutionPolicy {
        match self {
            ConflictMode::Lww => ResolutionPolicy::LwwRegister,
            ConflictMode::Siblings => ResolutionPolicy::VersionVectorSiblings,
            ConflictMode::Counter => ResolutionPolicy::CrdtMerge,
        }
    }
}

/// One replicated data item in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// An LWW version.
    Lww {
        /// Key.
        key: Key,
        /// Unique write id.
        value: u64,
        /// LWW stamp.
        ts: LamportTimestamp,
        /// Origin write time (µs).
        written_at: u64,
    },
    /// A DVV sibling.
    Sib {
        /// Key.
        key: Key,
        /// The sibling (value + dotted version vector).
        sibling: Sibling,
    },
    /// Full CRDT counter state for a key.
    Counter {
        /// Key.
        key: Key,
        /// Counter state, shared with the sender's store until either
        /// side changes it.
        state: Rc<PnCounter>,
    },
}

/// The item buffer of a state-carrying message (`Replicate`, `SyncResp`,
/// `SyncPush`); read through `Deref` as a slice.
#[derive(Debug, Clone)]
pub enum Items {
    /// Built for one receiver: a fresh write, or what one remote digest
    /// lacks. Empty (every quiet LWW answer) allocates nothing.
    Built(Vec<Item>),
    /// The sender's whole state as of one store generation
    /// ([`DigestCache::missing_at_remote`]): one buffer behind every
    /// message that ships that generation.
    Snapshot(Rc<[Item]>),
}

impl Deref for Items {
    type Target = [Item];
    fn deref(&self) -> &[Item] {
        match self {
            Items::Built(items) => items,
            Items::Snapshot(items) => items,
        }
    }
}

/// An anti-entropy digest: an immutable snapshot of one `(key, summary)`
/// pair per stored key, ascending by key, shared by reference count.
///
/// Only [`ResolvingStore::digest`] makes one, from an ordered scan of
/// the store, so the merge-joins in [`DigestCache::missing_at_remote`]
/// can rely on the order.
#[derive(Debug)]
pub struct Digest<S>(Rc<[(Key, S)]>);

impl<S> Clone for Digest<S> {
    fn clone(&self) -> Self {
        Digest(Rc::clone(&self.0))
    }
}

impl<S> Deref for Digest<S> {
    type Target = [(Key, S)];
    fn deref(&self) -> &[(Key, S)] {
        &self.0
    }
}

/// LWW and sibling-mode gossip digests, paired.
pub type Digests = (Digest<LamportTimestamp>, Digest<VersionVector>);

/// What anti-entropy derives from a whole store — its [`Digests`] and,
/// for counters, the [`Items::Snapshot`] of its state — each built at
/// most once per store generation ([`Probed::generation`]): every
/// fan-out target of a gossip round and every exchange answered before
/// the next change get the same buffers. Everything here asks the store
/// for its generation first, so nothing derived from a store that has
/// since changed, or been lost to an amnesia restart, is ever used.
#[derive(Debug, Default)]
pub struct DigestCache {
    /// The generation whatever is cached below was derived at.
    generation: u64,
    digests: Option<Digests>,
    state: Option<Rc<[Item]>>,
    /// Per peer, the last remote LWW digest this generation was found to
    /// hold nothing newer than: asked again about the same digest, the
    /// answer is still "nothing". Recognised by the reference held here,
    /// so its buffer cannot be freed and its address reused while it is
    /// remembered; at most one per peer.
    covered: Vec<(NodeId, Digest<LamportTimestamp>)>,
}

impl DigestCache {
    /// Drop what was derived from another generation of `store`.
    fn sync(&mut self, store: &Probed<ResolvingStore>) {
        if self.generation != store.generation() {
            self.generation = store.generation();
            self.digests = None;
            self.state = None;
            self.covered.clear();
        }
    }

    /// The digests of `store` as it is now.
    pub fn get(&mut self, store: &Probed<ResolvingStore>) -> Digests {
        self.sync(store);
        self.digests.get_or_insert_with(|| store.digest()).clone()
    }

    /// Items `store` has that the remote digests, sent by `from`, lack.
    ///
    /// LWW: a merge-join of the store's own `(key, stamp)` sequence with
    /// the remote digest that fetches from the store only the keys that
    /// differ. The own side is this generation's digest whenever one has
    /// been built — found here, by generation, never handed in — and two
    /// equal digests miss nothing. A digest from `from` found to miss
    /// nothing is remembered until the generation moves, so the same
    /// digest asked about again is answered by a pointer comparison.
    /// Siblings: a merge-join of the store's ordered scan with the remote
    /// digest. Counters have no digest: every key, every time, as a
    /// reference to the generation's one snapshot.
    pub fn missing_at_remote(
        &mut self,
        store: &Probed<ResolvingStore>,
        from: NodeId,
        digest: &Digest<LamportTimestamp>,
        vv_digest: &Digest<VersionVector>,
    ) -> Items {
        match &**store {
            ResolvingStore::Lww(s) => {
                self.sync(store);
                let remembered = self.covered.iter_mut().find(|(peer, _)| *peer == from);
                let asked_before =
                    remembered.as_ref().is_some_and(|(_, d)| Rc::ptr_eq(&d.0, &digest.0));
                if asked_before {
                    return Items::Built(Vec::new());
                }
                let items = match &self.digests {
                    Some((own, _)) if own[..] == digest[..] => Vec::new(),
                    Some((own, _)) => lww_newer_than(s, own.iter().copied(), digest),
                    // No digest of this generation yet — an apply has just
                    // changed the store. Walking the store costs what
                    // building one would, without the buffer, and the
                    // next change would throw it away unread.
                    None => lww_newer_than(s, s.scan(..).map(|(k, v)| (k, v.ts)), digest),
                };
                if items.is_empty() {
                    match remembered {
                        Some((_, covered)) => *covered = digest.clone(),
                        None => self.covered.push((from, digest.clone())),
                    }
                }
                Items::Built(items)
            }
            ResolvingStore::Sib(s) => {
                let mut remote = DigestCursor(vv_digest);
                let mut items = Vec::new();
                for (k, sibs) in s.iter() {
                    let seen = remote.seek(k);
                    for sib in sibs {
                        if seen.is_none_or(|vv| !sib.dvv.covered_by(vv)) {
                            items.push(Item::Sib { key: k, sibling: sib.clone() });
                        }
                    }
                }
                Items::Built(items)
            }
            ResolvingStore::Crdt(m) => {
                self.sync(store);
                // A slice walk: the snapshot is allocated once, at its size.
                let snapshot = self.state.get_or_insert_with(|| {
                    m.0.iter()
                        .map(|(k, c)| Item::Counter { key: *k, state: Rc::clone(c) })
                        .collect()
                });
                Items::Snapshot(Rc::clone(snapshot))
            }
        }
    }
}

/// The last state snapshot a store joined from each peer. Joining is
/// idempotent and a store between two replacements only grows, so a
/// snapshot already joined has nothing left to give: in a quiet system
/// every exchange ships the one snapshot of an unchanged generation, and
/// the receiver need not walk it again.
///
/// A snapshot is recognised by the reference held here — the buffer
/// cannot be freed and its address reused while it is remembered — and
/// everything is forgotten when the store has been replaced since
/// ([`Probed::epoch`]): a store restarted from empty must be refilled by
/// the very snapshot it joined before the crash.
#[derive(Debug, Default)]
pub struct JoinedSnapshots {
    /// The store epoch the entries below were joined under.
    epoch: u64,
    last: BTreeMap<NodeId, Rc<[Item]>>,
}

impl JoinedSnapshots {
    /// [`Probed::apply`] of what `from` shipped, unless it is a snapshot
    /// `store` has joined already.
    pub fn apply(
        &mut self,
        store: &mut Probed<ResolvingStore>,
        from: NodeId,
        items: &Items,
        clock: &mut LamportClock,
    ) -> ApplyOutcome {
        let Items::Snapshot(snapshot) = items else {
            return store.apply(items, clock);
        };
        if self.epoch != store.epoch() {
            self.epoch = store.epoch();
            self.last.clear();
        }
        if self.last.get(&from).is_some_and(|joined| Rc::ptr_eq(joined, snapshot)) {
            return ApplyOutcome::default();
        }
        let out = store.apply(items, clock);
        self.last.insert(from, Rc::clone(snapshot));
        out
    }
}

/// The latest versions of `s` that `remote` lacks or holds older, where
/// `own` yields `s`'s `(key, latest stamp)` pairs ascending by key.
fn lww_newer_than(
    s: &MvStore,
    own: impl Iterator<Item = (Key, LamportTimestamp)>,
    remote: &[(Key, LamportTimestamp)],
) -> Vec<Item> {
    let mut remote = DigestCursor(remote);
    own.filter(|(k, ts)| remote.seek(*k).is_none_or(|r| ts > r))
        .map(|(key, _)| {
            let v = s.get(key).expect("its own digest names stored keys only");
            Item::Lww {
                key,
                value: v.value.as_u64().unwrap_or(0),
                ts: v.ts,
                written_at: v.written_at,
            }
        })
        .collect()
}

/// Lock-step lookup into an ascending digest, for callers that ask for
/// ascending keys: the two cursors of a merge-join.
struct DigestCursor<'a, S>(&'a [(Key, S)]);

impl<'a, S> DigestCursor<'a, S> {
    /// The digest's summary for `key`, if it has one. `key` must not be
    /// below the key of an earlier call.
    fn seek(&mut self, key: Key) -> Option<&'a S> {
        let below = self.0.iter().take_while(|(k, _)| *k < key).count();
        self.0 = &self.0[below..];
        match self.0.first() {
            Some((k, summary)) if *k == key => Some(summary),
            _ => None,
        }
    }
}

/// What a local read returned, in wire shape.
#[derive(Debug, Clone)]
pub struct ReadView {
    /// Observed values (unique write ids, sibling values, or the counter
    /// sum); empty if the key is absent.
    pub values: Vec<u64>,
    /// Max stamp across returned versions (LWW/sibling policies).
    pub stamp: Option<(u64, u64)>,
    /// Origin write time of the newest returned version (µs).
    pub version_ts: Option<u64>,
    /// Causal context (sibling policy; empty otherwise).
    pub ctx: VersionVector,
}

/// The durable/observable side effect of a local write, for the caller
/// to log and record (the store itself stays event-free so it can be
/// shared across protocols with different durability policies).
#[derive(Debug, Clone)]
pub enum WriteEffect {
    /// An LWW version was adopted: log it to the WAL.
    Adopted {
        /// Key.
        key: Key,
        /// Stored value.
        value: Value,
        /// LWW stamp.
        ts: LamportTimestamp,
        /// Origin write time (µs).
        written_at: u64,
    },
    /// The write landed next to concurrent siblings.
    SiblingConflict {
        /// Key.
        key: Key,
        /// Sibling count after the write.
        siblings: u64,
    },
    /// The client's context covered every sibling: conflict resolved.
    SiblingResolved {
        /// Key.
        key: Key,
    },
    /// Nothing to log or record (counter inflation, superseded LWW).
    None,
}

/// The outcome of a local client write.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Stamp the replica assigned (what the client's session observes).
    pub stamp: (u64, u64),
    /// Items to propagate to peers.
    pub items: Vec<Item>,
    /// Durable/observable side effect for the caller.
    pub effect: WriteEffect,
}

/// The outcome of applying remote items.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Keys left with concurrent siblings (detected conflicts), with
    /// the sibling count.
    pub conflicts: Vec<(Key, u64)>,
    /// LWW versions adopted (for the caller's WAL).
    pub adopted: Vec<(Key, Value, LamportTimestamp, u64)>,
}

/// Replica-side storage with pluggable conflict resolution.
#[derive(Debug)]
pub enum ResolvingStore {
    /// Last-writer-wins register per key.
    Lww(MvStore),
    /// Dotted-version-vector sibling sets.
    Sib(SiblingStore),
    /// PN-counter per key, merged as a CRDT. Copy-on-write: a counter
    /// is shared with the items that ship it and with the replicas that
    /// adopted it, and copied by the first of them to change it.
    Crdt(Counters),
}

/// A counter store's state: one PN-counter per key, in one buffer
/// ascending by key. A join walks it as a slice and a snapshot copies it
/// into a buffer of its size; see the [module docs](self) for why a
/// buffer and not a tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(Vec<(Key, Rc<PnCounter>)>);

impl Counters {
    /// The counter stored for `key`.
    pub fn get(&self, key: Key) -> Option<&Rc<PnCounter>> {
        let at = self.0.binary_search_by_key(&key, |(k, _)| *k).ok()?;
        Some(&self.0[at].1)
    }

    /// Every `(key, counter)`, ascending by key.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Key, &Rc<PnCounter>)> {
        self.0.iter().map(|(k, c)| (*k, c))
    }

    /// Whether no key holds a counter.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The counter for `key`, a zero counter inserted in its place if
    /// there was none.
    fn get_or_default(&mut self, key: Key) -> &mut Rc<PnCounter> {
        let at = self.0.binary_search_by_key(&key, |(k, _)| *k).unwrap_or_else(|at| {
            self.0.insert(at, (key, Rc::default()));
            at
        });
        &mut self.0[at].1
    }

    /// Join the items a walk could not place, ascending by key and in
    /// buffer order within a key, in one merge with the stored buffer:
    /// one new buffer, whatever the number of keys that arrive.
    fn join_unplaced(&mut self, unplaced: Vec<(Key, &Rc<PnCounter>)>, changed: &mut ChangedKeys) {
        let stored = std::mem::take(&mut self.0);
        let mut merged = Vec::with_capacity(stored.len() + unplaced.len());
        let mut stored = stored.into_iter().peekable();
        for (key, state) in unplaced {
            merged.extend(std::iter::from_fn(|| stored.next_if(|(k, _)| *k <= key)));
            let changes = match merged.last_mut() {
                Some((k, mine)) if *k == key => join_counter(mine, state),
                _ => {
                    merged.push((key, Rc::clone(state)));
                    true
                }
            };
            if changes {
                changed.mark(key);
            }
        }
        merged.extend(stored);
        self.0 = merged;
    }
}

/// Pairs in any order; a repeated key keeps its last counter, as
/// collecting into a map would.
impl FromIterator<(Key, Rc<PnCounter>)> for Counters {
    fn from_iter<I: IntoIterator<Item = (Key, Rc<PnCounter>)>>(iter: I) -> Self {
        let mut pairs: Vec<_> = iter.into_iter().collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                std::mem::swap(later, kept);
            }
            repeated
        });
        Counters(pairs)
    }
}

impl ResolvingStore {
    /// An empty store under `policy`. A sibling store is built before
    /// its replica knows its node id; the `u64::MAX` placeholder never
    /// mints a dot, because [`ResolvingStore::write_local`] names the
    /// writing node on every write.
    pub fn new(policy: ResolutionPolicy) -> Self {
        match policy {
            ResolutionPolicy::LwwRegister => ResolvingStore::Lww(MvStore::new()),
            ResolutionPolicy::VersionVectorSiblings => {
                ResolvingStore::Sib(SiblingStore::new(u64::MAX))
            }
            ResolutionPolicy::CrdtMerge => ResolvingStore::Crdt(Counters::default()),
        }
    }

    /// The policy this store resolves under.
    pub fn policy(&self) -> ResolutionPolicy {
        match self {
            ResolvingStore::Lww(_) => ResolutionPolicy::LwwRegister,
            ResolvingStore::Sib(_) => ResolutionPolicy::VersionVectorSiblings,
            ResolvingStore::Crdt(_) => ResolutionPolicy::CrdtMerge,
        }
    }

    /// The store an amnesia restart begins with: empty, under the same
    /// policy. A sibling store keeps its dot counter, the one scalar
    /// modelled durable whatever the durability policy (as a Paxos
    /// acceptor's promised ballot is): see [`SiblingStore::restarted`].
    pub fn restarted(&self) -> Self {
        match self {
            ResolvingStore::Sib(s) => ResolvingStore::Sib(s.restarted()),
            other => ResolvingStore::new(other.policy()),
        }
    }

    /// Counter value for `key` (CRDT policy).
    pub fn counter_value(&self, key: Key) -> Option<i64> {
        match self {
            ResolvingStore::Crdt(m) => m.get(key).map(|c| c.value()),
            _ => None,
        }
    }

    /// Serve a local read.
    pub fn read(&self, key: Key) -> ReadView {
        match self {
            ResolvingStore::Lww(s) => match s.get(key) {
                Some(v) => ReadView {
                    values: v.value.as_u64().into_iter().collect(),
                    stamp: Some((v.ts.counter, v.ts.actor)),
                    version_ts: Some(v.written_at),
                    ctx: VersionVector::new(),
                },
                None => ReadView {
                    values: vec![],
                    stamp: None,
                    version_ts: None,
                    ctx: VersionVector::new(),
                },
            },
            ResolvingStore::Sib(s) => {
                let r = s.read(key);
                let newest = s.siblings(key).iter().map(|x| x.written_at).max();
                ReadView {
                    values: r.values.iter().filter_map(|v| v.as_u64()).collect(),
                    stamp: Some((r.context.total(), 0)),
                    version_ts: newest,
                    ctx: r.context,
                }
            }
            ResolvingStore::Crdt(m) => {
                let v = m.get(key).map(|c| c.value()).unwrap_or(0);
                ReadView {
                    values: vec![v as u64],
                    stamp: None,
                    version_ts: None,
                    ctx: VersionVector::new(),
                }
            }
        }
    }

    /// Apply a local client write at `me`, stamping with `clock`.
    ///
    /// `observed` is the session's piggybacked stamp floor (MW/WFR
    /// ordering under LWW), `client_ctx` its causal context (siblings).
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
        match self {
            ResolvingStore::Lww(s) => {
                // Piggybacked session stamp keeps MW/WFR ordering: tick
                // past everything the session has observed.
                clock.observe(LamportTimestamp::new(observed.0, observed.1), me.0 as u64);
                let ts = clock.tick(me.0 as u64);
                let v = Value::from_u64(value);
                let effect = if s.put(key, v.clone(), ts, now_us) {
                    WriteEffect::Adopted { key, value: v, ts, written_at: now_us }
                } else {
                    WriteEffect::None
                };
                WriteOutcome {
                    stamp: (ts.counter, ts.actor),
                    items: vec![Item::Lww { key, value, ts, written_at: now_us }],
                    effect,
                }
            }
            ResolvingStore::Sib(s) => {
                // Dots are minted as the writing node, whatever the store
                // already holds: a replica may have applied replicated
                // siblings before its first local write.
                s.set_replica(me.0 as u64);
                let before = s.siblings(key).len();
                s.write(key, Value::from_u64(value), client_ctx, now_us);
                let after = s.siblings(key).len();
                let effect = if after > 1 {
                    WriteEffect::SiblingConflict { key, siblings: after as u64 }
                } else if before > 1 {
                    WriteEffect::SiblingResolved { key }
                } else {
                    WriteEffect::None
                };
                let sib = s.siblings(key).last().expect("just wrote").clone();
                WriteOutcome {
                    stamp: (s.read(key).context.total(), 0),
                    items: vec![Item::Sib { key, sibling: sib }],
                    effect,
                }
            }
            ResolvingStore::Crdt(m) => {
                let c = m.get_or_default(key);
                Rc::make_mut(c).increment(me.0 as u64, value);
                WriteOutcome {
                    stamp: (0, 0),
                    items: vec![Item::Counter { key, state: Rc::clone(c) }],
                    effect: WriteEffect::None,
                }
            }
        }
    }

    /// Apply replicated items, resolving by policy. LWW adoptions are
    /// returned for the caller's WAL, conflict keys for its events; the
    /// keys whose state changed are marked in `changed` (replicas reach
    /// this through [`super::telemetry::Probed::apply`]). An item of
    /// another policy is a deployment bug and is dropped.
    pub fn apply(
        &mut self,
        items: &[Item],
        clock: &mut LamportClock,
        changed: &mut ChangedKeys,
    ) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        match self {
            ResolvingStore::Lww(s) => {
                for item in items {
                    let &Item::Lww { key, value, ts, written_at } = item else { continue };
                    // Keep the Lamport clock ahead of everything stored.
                    clock.observe(ts, 0);
                    let v = Value::from_u64(value);
                    if s.put(key, v.clone(), ts, written_at) {
                        out.adopted.push((key, v, ts, written_at));
                        changed.mark(key);
                    }
                }
            }
            ResolvingStore::Sib(s) => {
                for item in items {
                    let Item::Sib { key, sibling } = item else { continue };
                    if s.apply_remote(*key, sibling.clone()) {
                        changed.mark(*key);
                        let n = s.siblings(*key).len();
                        if n > 1 {
                            out.conflicts.push((*key, n as u64));
                        }
                    }
                }
            }
            ResolvingStore::Crdt(m) => join_counters(m, items, changed),
        }
        out
    }

    /// This store's anti-entropy digest, built by one ordered scan.
    /// Replicas ask a [`DigestCache`] instead, which calls this once per
    /// store generation.
    pub fn digest(&self) -> Digests {
        let (lww, sib) = match self {
            ResolvingStore::Lww(s) => {
                // An iterator of known length (a range mapped) is collected
                // straight into the shared buffer, allocated once at its
                // size; a scan's length is unknown to `collect`.
                let mut scan = s.scan(..);
                let lww = (0..s.len())
                    .map(|_| {
                        scan.next().map(|(k, v)| (k, v.ts)).expect("every key holds a version")
                    })
                    .collect();
                (lww, Rc::default())
            }
            ResolvingStore::Sib(s) => {
                (Rc::default(), s.iter().map(|(k, sibs)| (k, joint_context(sibs))).collect())
            }
            // Counters have no cheap digest; gossip ships full state.
            ResolvingStore::Crdt(_) => (Rc::default(), Rc::default()),
        };
        (Digest(lww), Digest(sib))
    }
}

/// Join `theirs` into `mine`; whether `mine` changed. A join-semilattice
/// decides by comparison what a merge would do: nothing below, adoption
/// above, and only concurrent states need the merge (and the copy, if
/// the counter is shared).
fn join_counter(mine: &mut Rc<PnCounter>, theirs: &Rc<PnCounter>) -> bool {
    if Rc::ptr_eq(mine, theirs) || theirs.leq(mine) {
        return false;
    }
    if mine.leq(theirs) {
        *mine = Rc::clone(theirs);
    } else {
        Rc::make_mut(mine).merge(theirs);
    }
    true
}

/// Join shipped counter states into `counters`: a merge-join of the
/// buffer with the store's own ascending slice, so a key both sides hold
/// costs a step of each and — when the receiver already shares the
/// state — one pointer comparison.
///
/// Nothing is assumed of the buffer. An item the walk cannot place —
/// its key is not stored, or lies at or behind a key the walk has
/// consumed (an unsorted or repeating buffer) — is set aside and joined
/// afterwards in one merge ([`Counters::join_unplaced`]), sorted by key
/// but in buffer order within a key, so a key's items are joined in the
/// order they were shipped whichever path takes them.
fn join_counters(counters: &mut Counters, items: &[Item], changed: &mut ChangedKeys) {
    let mut unplaced = Vec::new();
    let mut stored = counters.0.iter_mut().peekable();
    for (i, item) in items.iter().enumerate() {
        let Item::Counter { key, state } = item else { continue };
        while stored.next_if(|(k, _)| *k < *key).is_some() {}
        match stored.next_if(|(k, _)| *k == *key) {
            Some((_, mine)) => {
                if join_counter(mine, state) {
                    changed.mark(*key);
                }
            }
            None => {
                if unplaced.capacity() == 0 {
                    // At most the rest of the buffer: one allocation.
                    unplaced.reserve_exact(items.len() - i);
                }
                unplaced.push((*key, state));
            }
        }
    }
    if !unplaced.is_empty() {
        // Stable, and skipped for the sorted buffer a snapshot is.
        if !unplaced.is_sorted_by_key(|(k, _)| *k) {
            unplaced.sort_by_key(|(k, _)| *k);
        }
        counters.join_unplaced(unplaced, changed);
    }
}

/// Sibling sets are fingerprinted order-independently (XOR of values +
/// count): replicas holding different sets diverge.
fn sibling_fingerprint(sibs: &[Sibling]) -> u64 {
    sibs.iter().filter_map(|x| x.value.as_u64()).fold(sibs.len() as u64, |acc, v| acc ^ v)
}

/// Per-key version fingerprints for divergence probing
/// ([`simnet::Actor::key_versions`]). LWW stores answer as their
/// [`MvStore`] does; a counter's "version" is its current value.
impl ProbeVersions for ResolvingStore {
    fn key_versions(&self) -> Vec<(u64, u64)> {
        match self {
            ResolvingStore::Lww(s) => s.key_versions(),
            ResolvingStore::Sib(s) => {
                s.keys().map(|k| (k, sibling_fingerprint(s.siblings(k)))).collect()
            }
            ResolvingStore::Crdt(m) => m.iter().map(|(k, c)| (k, c.value() as u64)).collect(),
        }
    }

    fn key_version(&self, key: Key) -> Option<u64> {
        match self {
            ResolvingStore::Lww(s) => s.key_version(key),
            // An entry without siblings cannot exist: entries are
            // created by the write or apply that fills them.
            ResolvingStore::Sib(s) => match s.siblings(key) {
                [] => None,
                sibs => Some(sibling_fingerprint(sibs)),
            },
            ResolvingStore::Crdt(m) => m.get(key).map(|c| c.value() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_roundtrips_through_conflict_mode() {
        let modes = [ConflictMode::Lww, ConflictMode::Siblings, ConflictMode::Counter];
        assert_eq!(
            modes.map(ConflictMode::policy),
            [
                ResolutionPolicy::LwwRegister,
                ResolutionPolicy::VersionVectorSiblings,
                ResolutionPolicy::CrdtMerge,
            ]
        );
    }

    #[test]
    fn crdt_apply_merges_like_the_crdt_crate() {
        // The store's counter merge must agree with a direct
        // `crdt::PnCounter` merge of the same states.
        let mut a = PnCounter::default();
        a.increment(1, 5);
        let mut b = PnCounter::default();
        b.increment(2, 7);
        let mut store = ResolvingStore::new(ResolutionPolicy::CrdtMerge);
        let mut clock = LamportClock::new();
        let mut changed = ChangedKeys::default();
        for state in [&a, &b] {
            let item = Item::Counter { key: 9, state: Rc::new(state.clone()) };
            store.apply(&[item], &mut clock, &mut changed);
        }
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(store.counter_value(9), Some(direct.value()));
    }

    #[test]
    fn digest_is_rebuilt_once_per_store_generation() {
        let mut store = Probed::new(ResolvingStore::new(ResolutionPolicy::LwwRegister));
        let mut cache = DigestCache::default();
        let mut clock = LamportClock::new();
        let mut write = |store: &mut Probed<ResolvingStore>, key| {
            store.write_local(NodeId(0), key, 1, (0, 0), &VersionVector::new(), 0, &mut clock);
        };
        let keys = |d: &Digests| d.0.iter().map(|&(k, _)| k).collect::<Vec<_>>();
        let same_snapshot = |a: &Digests, b: &Digests| a.0.as_ptr() == b.0.as_ptr();

        write(&mut store, 3);
        let first = cache.get(&store);
        assert_eq!(keys(&first), [3]);
        assert!(same_snapshot(&cache.get(&store), &first), "no change: no rebuild");
        store.drain_changed_versions(&mut |_, _| {});
        assert!(same_snapshot(&cache.get(&store), &first), "a drain is not a change");

        write(&mut store, 4);
        assert_eq!(keys(&cache.get(&store)), [3, 4]);
        store.reset();
        assert_eq!(keys(&cache.get(&store)), [0u64; 0], "a replaced store is a new generation");
        assert_eq!(keys(&first), [3], "a snapshot in flight is immutable");
    }

    #[test]
    fn a_covered_digest_is_remembered_once_per_peer_until_the_store_changes() {
        let mut clock = LamportClock::new();
        let mut write = |store: &mut Probed<ResolvingStore>, key| {
            store.write_local(NodeId(0), key, 1, (0, 0), &VersionVector::new(), 0, &mut clock);
        };
        let lww = || Probed::new(ResolvingStore::new(ResolutionPolicy::LwwRegister));
        let (mut store, mut ahead, mut behind) = (lww(), lww(), lww());
        write(&mut store, 3);
        write(&mut ahead, 3);
        write(&mut ahead, 4);
        let mut cache = DigestCache::default();
        let remembered = |cache: &DigestCache| {
            cache.covered.iter().map(|(peer, d)| (peer.0, d.len())).collect::<Vec<_>>()
        };
        let ask = |cache: &mut DigestCache, store: &Probed<_>, peer, remote: &Probed<_>| {
            let (digest, vv_digest) = ResolvingStore::digest(remote);
            cache.missing_at_remote(store, NodeId(peer), &digest, &vv_digest).len()
        };

        assert_eq!(ask(&mut cache, &store, 1, &behind), 1, "the peer lacks key 3");
        assert_eq!(remembered(&cache), [], "a digest that misses something is not kept");
        assert_eq!(ask(&mut cache, &store, 1, &ahead), 0);
        assert_eq!(remembered(&cache), [(1, 2)]);
        write(&mut behind, 3);
        assert_eq!(ask(&mut cache, &store, 1, &behind), 0);
        assert_eq!(remembered(&cache), [(1, 1)], "one digest per peer, the last one");
        assert_eq!(ask(&mut cache, &store, 2, &ahead), 0);
        assert_eq!(remembered(&cache), [(1, 1), (2, 2)]);
        write(&mut store, 5);
        assert_eq!(ask(&mut cache, &store, 2, &ahead), 1, "key 5 is new since");
        assert_eq!(remembered(&cache), [], "a new generation forgets them all");
    }

    /// The dot of the one sibling a local write ships.
    fn minted(out: &WriteOutcome) -> (clocks::Dot, Vec<Item>) {
        match out.items.as_slice() {
            [Item::Sib { sibling, .. }] => (sibling.dvv.dot, out.items.clone()),
            other => panic!("a sibling write ships one sibling, not {other:?}"),
        }
    }

    #[test]
    fn replicas_that_apply_before_their_first_write_mint_their_own_dots() {
        // B and C hold a replicated sibling before either writes. If they
        // minted under the construction-time placeholder, both would
        // issue the same dot and the second of two concurrent writes
        // would be dropped as a duplicate.
        let new_store = || ResolvingStore::new(ResolutionPolicy::VersionVectorSiblings);
        let (mut a, mut b, mut c) = (new_store(), new_store(), new_store());
        let mut clock = LamportClock::new();
        let mut changed = ChangedKeys::default();
        let blind = VersionVector::new();
        let key = 5;

        let (_, seed) = minted(&a.write_local(NodeId(0), key, 100, (0, 0), &blind, 0, &mut clock));
        b.apply(&seed, &mut clock, &mut changed);
        c.apply(&seed, &mut clock, &mut changed);
        let ctx = b.read(key).ctx;
        let (dot_b, from_b) =
            minted(&b.write_local(NodeId(1), key, 200, (0, 0), &ctx, 0, &mut clock));
        let (dot_c, from_c) =
            minted(&c.write_local(NodeId(2), key, 300, (0, 0), &ctx, 0, &mut clock));
        assert_eq!((dot_b.actor, dot_c.actor), (1, 2), "dots carry the writing node's id");

        b.apply(&from_c, &mut clock, &mut changed);
        c.apply(&from_b, &mut clock, &mut changed);
        for store in [&b, &c] {
            let mut values = store.read(key).values;
            values.sort_unstable();
            assert_eq!(values, [200, 300], "both concurrent writes survive as siblings");
        }
    }

    #[test]
    fn lww_write_then_read() {
        let mut store = ResolvingStore::new(ResolutionPolicy::LwwRegister);
        let mut clock = LamportClock::new();
        let out =
            store.write_local(NodeId(0), 3, 42, (0, 0), &VersionVector::new(), 10, &mut clock);
        assert!(matches!(out.effect, WriteEffect::Adopted { key: 3, .. }));
        let view = store.read(3);
        assert_eq!(view.values, vec![42]);
        assert_eq!(view.stamp, Some(out.stamp));
    }
}
