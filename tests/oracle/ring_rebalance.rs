//! The reference the ring's ownership diff is held to: the loop
//! `QuorumNode::on_membership` ran over its store before the diff became
//! `replication::kernel::ring::rebalance_pushes`, kept word for word —
//! `old.owners(key)`, `new_ring.owners(key)`, two fresh `Vec`s a key and
//! no filter on which keys can have moved. That is its point: it knows
//! nothing of the owner-set-changes-iff lemma the pure function's key
//! filter rests on, so `tests/ring_rebalance.rs` can hold the two
//! against each other on which pushes a node owes, in which order, and
//! how many keys it counts as rebalanced.
//!
//! Never compiled into a crate. The one thing that differs from the
//! original is that a move is `(key, target)` without the stored version
//! between them: the actor reads that from the same store either way.

use rethinking_ec::kvstore::Key;
use rethinking_ec::replication::sharded::Ring;
use rethinking_ec::simnet::NodeId;

/// The pushes `me` owes for its `stored` keys when the ring goes from
/// `old` to `new_ring`, and the number of keys it rebalanced.
pub fn rebalance_pushes(
    old: &Ring,
    new_ring: &Ring,
    me: NodeId,
    stored: impl IntoIterator<Item = Key>,
) -> (Vec<(Key, NodeId)>, u64) {
    let mut moves: Vec<(Key, NodeId)> = Vec::new();
    let mut rebalanced = 0u64;
    for key in stored {
        let old_owners = old.owners(key);
        let sender = old_owners
            .iter()
            .copied()
            .filter(|o| new_ring.contains(*o))
            .min_by_key(|o| o.0)
            .or_else(|| old_owners.iter().copied().min_by_key(|o| o.0));
        if sender != Some(me) {
            continue;
        }
        let gained: Vec<NodeId> =
            new_ring.owners(key).into_iter().filter(|o| !old_owners.contains(o)).collect();
        if gained.is_empty() {
            continue;
        }
        rebalanced += 1;
        moves.extend(gained.into_iter().map(|target| (key, target)));
    }
    (moves, rebalanced)
}
