//! The reference the receiving side of anti-entropy is held to: the two
//! loops `replication::kernel::resolution` ran before what a message
//! costs began to follow what changed — `apply` with one
//! `BTreeMap::entry` descent per shipped item, taken in buffer order,
//! and `missing_at_remote` as a scan of the whole store filtered by the
//! remote digest.
//!
//! That is their point. The `entry` loop knows nothing of sorted
//! buffers, of a walk that must not lose the keys it cannot place, or of
//! snapshots joined before; the store scan reads the store as it is and
//! has no digest of its own that could be a generation old. So
//! `tests/anti_entropy.rs` can hold the merge-join `apply`, the
//! digest-to-digest `DigestCache::missing_at_remote` and the
//! `JoinedSnapshots` skip against them on what the store ends up
//! holding, what is reported adopted and conflicted, and which keys are
//! marked how often.
//!
//! Never compiled into a crate. `apply` is the old loop word for word,
//! except that it borrows its items (so one buffer can be given to both
//! sides), marks into a plain list instead of the crate-private
//! `ChangedKeys`, and runs on a `BTreeMap` made from a counter store's
//! flat buffer and turned back into one afterwards: the map the store
//! was when the loop was written. `missing_at_remote` is the old scan
//! with the digest searched from the front for every key, in place of
//! the crate-private cursor that walked it in step: it does not even
//! rely on the digest's order.

use rethinking_ec::clocks::{LamportClock, LamportTimestamp, VersionVector};
use rethinking_ec::crdt::{CvRdt, PnCounter};
use rethinking_ec::kvstore::{Key, Value};
use rethinking_ec::replication::kernel::resolution::{ApplyOutcome, Digest, Item, ResolvingStore};
use std::collections::btree_map::{BTreeMap, Entry};
use std::rc::Rc;

/// `ResolvingStore::apply` as it was: every item by itself, in buffer
/// order. `marked` receives one entry per `ChangedKeys::mark` call.
// A guard with a side effect (clippy's collapse suggestion) would be
// worse than the nested `if`.
#[allow(clippy::collapsible_match)]
pub fn apply(
    store: &mut ResolvingStore,
    items: &[Item],
    clock: &mut LamportClock,
    marked: &mut Vec<Key>,
) -> ApplyOutcome {
    let mut out = ApplyOutcome::default();
    let mut map: Option<BTreeMap<Key, Rc<PnCounter>>> = match store {
        ResolvingStore::Crdt(c) => {
            Some(std::mem::take(c).iter().map(|(k, c)| (k, Rc::clone(c))).collect())
        }
        _ => None,
    };
    for item in items.iter().cloned() {
        match (&mut *store, &mut map, item) {
            (ResolvingStore::Lww(s), _, Item::Lww { key, value, ts, written_at }) => {
                clock.observe(ts, 0);
                let v = Value::from_u64(value);
                if s.put(key, v.clone(), ts, written_at) {
                    out.adopted.push((key, v, ts, written_at));
                    marked.push(key);
                }
            }
            (ResolvingStore::Sib(s), _, Item::Sib { key, sibling }) => {
                if s.apply_remote(key, sibling) {
                    marked.push(key);
                    let n = s.siblings(key).len();
                    if n > 1 {
                        out.conflicts.push((key, n as u64));
                    }
                }
            }
            (ResolvingStore::Crdt(_), Some(m), Item::Counter { key, state }) => {
                match m.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(state);
                        marked.push(key);
                    }
                    Entry::Occupied(mut slot) => {
                        let mine = slot.get_mut();
                        if Rc::ptr_eq(mine, &state) || state.leq(mine) {
                            continue;
                        }
                        if mine.leq(&state) {
                            *mine = state;
                        } else {
                            Rc::make_mut(mine).merge(&state);
                        }
                        marked.push(key);
                    }
                }
            }
            // Policy mismatch: a deployment bug; drop the item.
            _ => {}
        }
    }
    if let (ResolvingStore::Crdt(c), Some(m)) = (store, map) {
        *c = m.into_iter().collect();
    }
    out
}

/// The summary an ascending digest holds for `key`, found from the
/// front every time: no cursor to keep in step.
fn summary_of<S>(digest: &[(Key, S)], key: Key) -> Option<&S> {
    digest.iter().find(|(k, _)| *k == key).map(|(_, summary)| summary)
}

/// `ResolvingStore::missing_at_remote` as it was: the store's ordered
/// scan filtered by the remote digest, every key of a counter store.
pub fn missing_at_remote(
    store: &ResolvingStore,
    digest: &Digest<LamportTimestamp>,
    vv_digest: &Digest<VersionVector>,
) -> Vec<Item> {
    match store {
        ResolvingStore::Lww(s) => s
            .scan(..)
            .filter(|(k, v)| summary_of(digest, *k).is_none_or(|&ts| v.ts > ts))
            .map(|(k, v)| Item::Lww {
                key: k,
                value: v.value.as_u64().unwrap_or(0),
                ts: v.ts,
                written_at: v.written_at,
            })
            .collect(),
        ResolvingStore::Sib(s) => {
            let mut items = Vec::new();
            for (k, sibs) in s.iter() {
                let seen = summary_of(vv_digest, k);
                for sib in sibs {
                    if seen.is_none_or(|vv| !sib.dvv.covered_by(vv)) {
                        items.push(Item::Sib { key: k, sibling: sib.clone() });
                    }
                }
            }
            items
        }
        ResolvingStore::Crdt(m) => {
            m.iter().map(|(k, c)| Item::Counter { key: k, state: Rc::clone(c) }).collect()
        }
    }
}
