//! Consistent-hashing ring with virtual nodes — the partitioning layer.
//!
//! A [`Ring`] maps every key to a *preference list* of physical nodes:
//! each member node projects `vnodes` points onto a 64-bit circle, a key
//! hashes to a point on the same circle, and its owners are the first
//! `replication` **distinct physical nodes** met walking clockwise from
//! that point. Virtual nodes smooth the load distribution (more points
//! per node ⇒ smaller variance in arc length) and bound rebalancing: when
//! a node leaves, only the keys in the departed node's arcs move, ~K/M of
//! the keyspace for K keys over M members.
//!
//! The ring is a pure function of `(replication, vnodes, member set)`:
//! the point table is built from the member set alone, so a
//! join/leave/rejoin round-trip restores a ring equal to the original —
//! the property `tests/ring_properties.rs` pins. Hashing is seedless
//! splitmix64, so two processes (or two `--jobs` workers) always agree on
//! ownership.
//!
//! **One table per membership epoch, not per node.** A [`Ring`] is a
//! handle on an immutable snapshot: `clone` copies a pointer, and
//! [`Ring::join`] / [`Ring::leave`] move the handle to a *new* snapshot,
//! so a clone taken before a change never observes it. Every node of a
//! cluster starts from a clone of one ring and sees the same membership
//! events, so each snapshot remembers (weakly) the successor of the last
//! change applied to it: the first node to apply `(node, join)` builds
//! the next table, the others adopt the pointer. The memo is only a
//! memo — a handle on a different snapshot, a different change, or a
//! successor nobody holds any more builds its own table from its own
//! member set — and being weak it never keeps an old epoch alive.
//!
//! **Rebalancing walks only the keys that move.**
//! [`rebalance_pushes`] is the ownership diff of one membership change.
//! It rests on one lemma: adding (removing) a node's points changes a
//! key's first-N-distinct walk iff that node becomes (was) one of the N.
//! Every point met before the walk ends belongs to one of the nodes
//! already listed, so if the changed node is not listed, none of its
//! points lie on the walked prefix, and the prefix reads the same with
//! or without them. One walk of the ring that *contains* the changed
//! node therefore decides whether a key is affected at all.

use kvstore::Key;
use simnet::NodeId;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::{Rc, Weak};

/// Finalizer from splitmix64 — a cheap, statistically strong 64-bit
/// mixer. Used both for vnode placement and key lookup so the two share
/// one circle.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where `vnode` replica-point `i` of physical `node` sits on the circle.
/// XOR (not OR) combines the fields: it is injective over
/// `(node, vnode)` pairs below 2^32, so no two points ever collide by
/// construction.
fn point_hash(node: u32, vnode: usize) -> u64 {
    mix64((u64::from(node) << 32) ^ vnode as u64 ^ 0xda7a_ba5e_0000_0000)
}

/// Where a key sits on the circle.
fn key_hash(key: Key) -> u64 {
    mix64(key ^ 0x5ca1_ab1e_c0ff_ee00)
}

/// One membership epoch: immutable once built, shared by every handle
/// at that epoch.
struct Snapshot {
    /// Preference-list size N — how many distinct owners each key has
    /// (clamped to the member count when fewer nodes are live).
    replication: usize,
    /// Virtual nodes (points) per physical member.
    vnodes: usize,
    /// Current physical members.
    members: BTreeSet<u32>,
    /// The circle: `(point, node)` sorted by point (node id breaks the
    /// astronomically unlikely hash tie). A pure function of `members`.
    points: Vec<(u64, u32)>,
    /// The successor of the last `(node, join)` applied to this
    /// snapshot. Weak: whoever still needs the successor holds it, and a
    /// handle left behind at this epoch pins nothing after it.
    successor: RefCell<Option<(u32, bool, Weak<Snapshot>)>>,
}

impl Snapshot {
    fn build(replication: usize, vnodes: usize, members: BTreeSet<u32>) -> Snapshot {
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &node in &members {
            for vnode in 0..vnodes {
                points.push((point_hash(node, vnode), node));
            }
        }
        points.sort_unstable();
        Snapshot { replication, vnodes, members, points, successor: RefCell::new(None) }
    }
}

/// A consistent-hashing ring: `vnodes` points per member on a 64-bit
/// circle, preference lists of `replication` distinct physical nodes.
///
/// A value with value semantics — `==` compares contents, a clone is
/// unaffected by later changes to the original — that costs a pointer
/// to clone (see the module docs).
#[derive(Clone)]
pub struct Ring {
    snap: Rc<Snapshot>,
}

// `==` and `Debug` are written out so that both leave the successor
// memo out: two rings with the same members are the same value whatever
// either has been asked to compute since, and must print the same.
impl PartialEq for Ring {
    fn eq(&self, other: &Ring) -> bool {
        let (a, b) = (&*self.snap, &*other.snap);
        Rc::ptr_eq(&self.snap, &other.snap)
            || (a.replication, a.vnodes, &a.members, &a.points)
                == (b.replication, b.vnodes, &b.members, &b.points)
    }
}

impl Eq for Ring {}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("replication", &self.snap.replication)
            .field("vnodes", &self.snap.vnodes)
            .field("members", &self.snap.members)
            .field("points", &self.snap.points)
            .finish()
    }
}

impl Ring {
    /// Build a ring over `members` with `replication`-way ownership and
    /// `vnodes` points per member. Panics on a zero `replication` or
    /// `vnodes`, or an empty member set.
    pub fn new(
        replication: usize,
        vnodes: usize,
        members: impl IntoIterator<Item = NodeId>,
    ) -> Ring {
        assert!(replication >= 1, "ring replication factor must be at least 1");
        assert!(vnodes >= 1, "ring needs at least one virtual node per member");
        let members: BTreeSet<u32> = members.into_iter().map(|n| n.0).collect();
        assert!(!members.is_empty(), "ring needs at least one member");
        Ring { snap: Rc::new(Snapshot::build(replication, vnodes, members)) }
    }

    /// Move this handle to the snapshot one change on: the one a handle
    /// of the same snapshot already built for this very change if it is
    /// still held somewhere, else a table built here from the member set.
    fn advance(&mut self, node: u32, join: bool) {
        let snap = &self.snap;
        let adopted = match &*snap.successor.borrow() {
            Some((n, j, next)) if (*n, *j) == (node, join) => next.upgrade(),
            _ => None,
        };
        let next = adopted.unwrap_or_else(|| {
            let mut members = snap.members.clone();
            if join {
                members.insert(node);
            } else {
                members.remove(&node);
            }
            let next = Rc::new(Snapshot::build(snap.replication, snap.vnodes, members));
            *snap.successor.borrow_mut() = Some((node, join, Rc::downgrade(&next)));
            next
        });
        self.snap = next;
    }

    /// Preference-list size N this ring was built with.
    pub fn replication(&self) -> usize {
        self.snap.replication
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.snap.vnodes
    }

    /// Current members in ascending id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.snap.members.iter().map(|&n| NodeId(n))
    }

    /// Number of physical members.
    pub fn len(&self) -> usize {
        self.snap.members.len()
    }

    /// True when the ring has no members: never, since `new` refuses an
    /// empty member set and `leave` refuses the last member. Kept beside
    /// [`Ring::len`] (clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.snap.members.is_empty()
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.snap.members.contains(&node.0)
    }

    /// Add a member; returns false (and changes nothing) if it was
    /// already present.
    pub fn join(&mut self, node: NodeId) -> bool {
        if self.contains(node) {
            return false;
        }
        self.advance(node.0, true);
        true
    }

    /// Remove a member; returns false (and changes nothing) if it was
    /// absent or the last remaining member.
    pub fn leave(&mut self, node: NodeId) -> bool {
        if self.len() == 1 || !self.contains(node) {
            return false;
        }
        self.advance(node.0, false);
        true
    }

    /// The first `want` **distinct physical nodes** clockwise from
    /// `key`'s point, in walk order. Fewer than `want` are returned only
    /// when the ring has fewer members.
    pub fn preference_list(&self, key: Key, want: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(want);
        self.preference_list_into(key, want, &mut out);
        out
    }

    /// [`Ring::preference_list`] into a caller-owned buffer (cleared
    /// first), so per-operation walks on the sharded hot path can reuse
    /// one allocation.
    pub fn preference_list_into(&self, key: Key, want: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let points = &self.snap.points;
        let h = key_hash(key);
        let start = points.partition_point(|&(p, _)| p < h);
        for i in 0..points.len() {
            let (_, node) = points[(start + i) % points.len()];
            let id = NodeId(node);
            if !out.contains(&id) {
                out.push(id);
                if out.len() == want {
                    break;
                }
            }
        }
    }

    /// The key's home replica set: the first `replication` distinct
    /// members clockwise from its point, in walk order.
    pub fn owners(&self, key: Key) -> Vec<NodeId> {
        self.preference_list(key, self.snap.replication)
    }

    /// [`Ring::owners`] into a caller-owned buffer (cleared first).
    pub fn owners_into(&self, key: Key, out: &mut Vec<NodeId>) {
        self.preference_list_into(key, self.snap.replication, out);
    }

    /// The next `want` distinct members *after* the owners — the sloppy-
    /// quorum spares that accept hinted writes when owners are down.
    pub fn spares(&self, key: Key, want: usize) -> Vec<NodeId> {
        let replication = self.snap.replication;
        let mut list = self.preference_list(key, replication + want);
        list.drain(..replication.min(list.len()));
        list
    }

    /// Whether the two handles share one point table — what adopting a
    /// memoised successor looks like from outside. Test probe.
    #[doc(hidden)]
    pub fn shares_table_with(&self, other: &Ring) -> bool {
        Rc::ptr_eq(&self.snap, &other.snap)
    }

    /// A closure that says whether this ring's point table is still
    /// alive, without keeping it alive. Test probe.
    #[doc(hidden)]
    pub fn table_liveness(&self) -> impl Fn() -> bool {
        let table = Rc::downgrade(&self.snap);
        move || table.strong_count() > 0
    }
}

/// The ownership diff of one membership change, for one node: the
/// `(key, target)` pushes `me` owes after `changed` joined or left —
/// `old` is the ring before, `new` the ring after — in `keys` order
/// (then the new ring's walk order), and the number of keys with at
/// least one push.
///
/// Deterministic rebalancing: for each stored key, one designated
/// sender — the lowest-id previous owner still in the ring (falling back
/// to the lowest-id previous owner, which for a leave is the departing
/// node itself: still a live actor, merely retiring) — pushes the
/// version to every owner the key *gained*.
///
/// Only keys that have `changed` among their owners in the ring that
/// contains it can have gained anything (the module docs' lemma), so
/// every other key costs one allocation-free walk and nothing else.
pub fn rebalance_pushes(
    old: &Ring,
    new: &Ring,
    changed: NodeId,
    me: NodeId,
    keys: impl IntoIterator<Item = Key>,
) -> (Vec<(Key, NodeId)>, u64) {
    let joined = new.contains(changed);
    let mut old_owners = Vec::new();
    let mut new_owners = Vec::new();
    let mut pushes = Vec::new();
    let mut rebalanced = 0;
    for key in keys {
        if joined {
            new.owners_into(key, &mut new_owners);
            if !new_owners.contains(&changed) {
                continue;
            }
            old.owners_into(key, &mut old_owners);
        } else {
            old.owners_into(key, &mut old_owners);
            if !old_owners.contains(&changed) {
                continue;
            }
            new.owners_into(key, &mut new_owners);
        }
        let sender = old_owners
            .iter()
            .copied()
            .filter(|o| new.contains(*o))
            .min_by_key(|o| o.0)
            .or_else(|| old_owners.iter().copied().min_by_key(|o| o.0));
        if sender != Some(me) {
            continue;
        }
        let before = pushes.len();
        pushes.extend(new_owners.iter().filter(|o| !old_owners.contains(o)).map(|&o| (key, o)));
        rebalanced += u64::from(pushes.len() > before);
    }
    (pushes, rebalanced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, repl: usize, vnodes: usize) -> Ring {
        Ring::new(repl, vnodes, (0..n as u32).map(NodeId))
    }

    #[test]
    fn every_key_gets_exactly_n_distinct_owners() {
        let r = ring(10, 3, 16);
        for key in 0..500u64 {
            let owners = r.owners(key);
            assert_eq!(owners.len(), 3);
            let set: BTreeSet<u32> = owners.iter().map(|n| n.0).collect();
            assert_eq!(set.len(), 3, "owners must be distinct physical nodes");
        }
    }

    #[test]
    fn ownership_clamps_to_member_count() {
        let r = ring(2, 3, 8);
        assert_eq!(r.owners(42).len(), 2);
    }

    #[test]
    fn leave_only_remaps_departed_nodes_keys() {
        let mut r = ring(12, 3, 32);
        let before: Vec<Vec<NodeId>> = (0..2000u64).map(|k| r.owners(k)).collect();
        assert!(r.leave(NodeId(5)));
        for (k, old) in before.iter().enumerate() {
            let new = r.owners(k as u64);
            if !old.contains(&NodeId(5)) {
                assert_eq!(*old, new, "key {k} had no owner leave but was remapped");
            } else {
                assert!(!new.contains(&NodeId(5)));
            }
        }
    }

    #[test]
    fn join_leave_rejoin_restores_identical_ring() {
        let orig = ring(8, 3, 16);
        let mut r = orig.clone();
        assert!(r.leave(NodeId(3)));
        assert_ne!(orig, r);
        assert!(r.join(NodeId(3)));
        assert_eq!(orig, r, "membership round-trip must restore the exact ring");
    }

    #[test]
    fn duplicate_join_and_absent_leave_are_noops() {
        let mut r = ring(4, 2, 8);
        let snap = r.clone();
        assert!(!r.join(NodeId(2)));
        assert!(!r.leave(NodeId(99)));
        assert_eq!(snap, r);
    }

    #[test]
    fn last_member_cannot_leave() {
        let mut r = ring(1, 1, 4);
        assert!(!r.leave(NodeId(0)));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn spares_are_disjoint_from_owners() {
        let r = ring(10, 3, 16);
        for key in 0..200u64 {
            let owners = r.owners(key);
            for s in r.spares(key, 2) {
                assert!(!owners.contains(&s));
            }
        }
    }

    #[test]
    fn single_node_full_replication_owns_everything() {
        // The parity configuration: nodes = N, vnodes = 1, replication = N
        // makes every node an owner of every key.
        let r = ring(3, 3, 1);
        for key in 0..100u64 {
            let mut owners = r.owners(key);
            owners.sort();
            assert_eq!(owners, vec![NodeId(0), NodeId(1), NodeId(2)]);
        }
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_panics() {
        Ring::new(0, 4, [NodeId(0)]);
    }
}
