//! Per-entity-group state: versioned store, commit log, OCC validation,
//! and write locks for two-phase commit.

use clocks::LamportTimestamp;
use kvstore::{Key, MvStore, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies an entity group.
pub type GroupId = u64;

/// Identifies a transaction (globally unique: `(session << 32) | seq`).
pub type TxnId = u64;

/// A committed transaction's footprint, kept for OCC validation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CommittedFootprint {
    pos: u64,
    write_set: Vec<Key>,
}

/// Why validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Conflict {
    /// A transaction committed after the snapshot wrote a key this
    /// transaction read or writes.
    OccConflict,
    /// A key is write-locked by an in-flight prepared transaction.
    Locked,
}

/// One entity group's state.
#[derive(Debug, Clone, Default)]
pub struct Group {
    store: MvStore,
    /// Position of the last committed transaction (0 = none).
    commit_pos: u64,
    /// Footprints of committed transactions (pruned below the horizon).
    history: Vec<CommittedFootprint>,
    /// Write locks: key → holding txn.
    locks: BTreeMap<Key, TxnId>,
    /// Prepared (locked, validated) transactions awaiting a decision.
    prepared: BTreeMap<TxnId, PreparedTxn>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PreparedTxn {
    writes: Vec<(Key, u64)>,
    /// When the prepare happened (µs) — for lock timeouts.
    prepared_at: u64,
}

impl Group {
    /// Current commit position (the snapshot a read phase returns).
    pub fn commit_pos(&self) -> u64 {
        self.commit_pos
    }

    /// Read keys at the current position.
    pub fn read(&self, keys: &[Key]) -> Vec<(Key, Option<u64>)> {
        keys.iter().map(|&k| (k, self.store.get(k).and_then(|v| v.value.as_u64()))).collect()
    }

    /// OCC validation: would a transaction that read `read_keys` at
    /// `snapshot` and writes `write_keys` commit cleanly now?
    pub fn validate(
        &self,
        snapshot: u64,
        read_keys: &[Key],
        write_keys: &[Key],
    ) -> Result<(), Conflict> {
        // Lock conflicts: anybody holding a write lock on my footprint.
        if read_keys.iter().chain(write_keys.iter()).any(|k| self.locks.contains_key(k)) {
            return Err(Conflict::Locked);
        }
        // OCC: committed writers after my snapshot intersecting my
        // footprint.
        for fp in self.history.iter().filter(|fp| fp.pos > snapshot) {
            if fp.write_set.iter().any(|k| read_keys.contains(k) || write_keys.contains(k)) {
                return Err(Conflict::OccConflict);
            }
        }
        Ok(())
    }

    /// Single-group fast path: validate and commit atomically.
    /// Returns the new commit position on success.
    pub fn commit_one(
        &mut self,
        snapshot: u64,
        read_keys: &[Key],
        writes: &[(Key, u64)],
        now_us: u64,
    ) -> Result<u64, Conflict> {
        let write_keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
        self.validate(snapshot, read_keys, &write_keys)?;
        Ok(self.apply(writes, now_us))
    }

    /// 2PC phase 1: validate, then lock the write set. The transaction
    /// stays prepared until [`Group::decide`].
    pub fn prepare(
        &mut self,
        txn: TxnId,
        snapshot: u64,
        read_keys: &[Key],
        writes: &[(Key, u64)],
        now_us: u64,
    ) -> Result<(), Conflict> {
        let write_keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
        self.validate(snapshot, read_keys, &write_keys)?;
        for k in &write_keys {
            self.locks.insert(*k, txn);
        }
        self.prepared.insert(txn, PreparedTxn { writes: writes.to_vec(), prepared_at: now_us });
        Ok(())
    }

    /// 2PC phase 2: apply or drop a prepared transaction, releasing its
    /// locks. Unknown transaction ids are ignored (duplicate decisions).
    /// Returns the commit position if the transaction applied.
    pub fn decide(&mut self, txn: TxnId, commit: bool, now_us: u64) -> Option<u64> {
        let prepared = self.prepared.remove(&txn)?;
        self.locks.retain(|_, holder| *holder != txn);
        if commit {
            Some(self.apply(&prepared.writes, now_us))
        } else {
            None
        }
    }

    /// Release locks of transactions prepared before `horizon_us` (the 2PC
    /// blocking mitigation), aborting them. Returns aborted txn ids.
    pub fn expire_locks(&mut self, horizon_us: u64) -> Vec<TxnId> {
        let expired: Vec<TxnId> = self
            .prepared
            .iter()
            .filter(|(_, p)| p.prepared_at < horizon_us)
            .map(|(&t, _)| t)
            .collect();
        for t in &expired {
            self.decide(*t, false, horizon_us);
        }
        expired
    }

    fn apply(&mut self, writes: &[(Key, u64)], now_us: u64) -> u64 {
        self.commit_pos += 1;
        let pos = self.commit_pos;
        for &(k, v) in writes {
            self.store.put(k, Value::from_u64(v), LamportTimestamp::new(pos, k), now_us);
        }
        self.history
            .push(CommittedFootprint { pos, write_set: writes.iter().map(|&(k, _)| k).collect() });
        // Prune footprints nobody can conflict with anymore (snapshots
        // older than 1000 positions are assumed dead — far beyond any
        // in-flight transaction in the experiments).
        if self.history.len() > 1_200 {
            let horizon = pos.saturating_sub(1_000);
            self.history.retain(|fp| fp.pos > horizon);
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a read of `key` at the current position would hit a
    /// write lock.
    fn locked(g: &Group, key: Key) -> bool {
        g.validate(g.commit_pos(), &[key], &[]) == Err(Conflict::Locked)
    }

    #[test]
    fn read_your_commits() {
        let mut g = Group::default();
        assert_eq!(g.commit_pos(), 0);
        g.commit_one(0, &[], &[(1, 100)], 0).unwrap();
        assert_eq!(g.commit_pos(), 1);
        assert_eq!(g.read(&[1]), vec![(1, Some(100))]);
        assert_eq!(g.read(&[2]), vec![(2, None)]);
    }

    #[test]
    fn occ_aborts_stale_snapshot_conflict() {
        let mut g = Group::default();
        let snap = g.commit_pos(); // 0
                                   // Another txn commits a write to key 1 after our snapshot.
        g.commit_one(0, &[], &[(1, 100)], 0).unwrap();
        // We read key 1 at snapshot 0 and try to write key 2: read-write
        // conflict on key 1 → abort.
        let err = g.commit_one(snap, &[1], &[(2, 200)], 0).unwrap_err();
        assert_eq!(err, Conflict::OccConflict);
        // A disjoint transaction at the same stale snapshot commits fine.
        g.commit_one(snap, &[3], &[(4, 400)], 0).unwrap();
    }

    #[test]
    fn write_write_conflict_detected() {
        let mut g = Group::default();
        let snap = g.commit_pos();
        g.commit_one(snap, &[], &[(1, 100)], 0).unwrap();
        let err = g.commit_one(snap, &[], &[(1, 200)], 0).unwrap_err();
        assert_eq!(err, Conflict::OccConflict);
    }

    #[test]
    fn fresh_snapshot_commits() {
        let mut g = Group::default();
        g.commit_one(0, &[], &[(1, 100)], 0).unwrap();
        let snap = g.commit_pos();
        g.commit_one(snap, &[1], &[(1, 200)], 0).unwrap();
        assert_eq!(g.read(&[1]), vec![(1, Some(200))]);
    }

    #[test]
    fn prepare_locks_block_conflicting_commits() {
        let mut g = Group::default();
        let snap = g.commit_pos();
        g.prepare(77, snap, &[], &[(1, 100)], 0).unwrap();
        assert!(locked(&g, 1));
        // A single-group commit touching key 1 hits the lock.
        assert_eq!(g.commit_one(snap, &[1], &[], 0), Err(Conflict::Locked));
        assert_eq!(g.commit_one(snap, &[], &[(1, 5)], 0), Err(Conflict::Locked));
        // Disjoint keys proceed.
        g.commit_one(snap, &[], &[(2, 5)], 0).unwrap();
    }

    #[test]
    fn decide_commit_applies_and_unlocks() {
        let mut g = Group::default();
        g.prepare(77, 0, &[], &[(1, 100)], 0).unwrap();
        let pos = g.decide(77, true, 10).expect("applied");
        assert_eq!(pos, 1);
        assert!(!locked(&g, 1));
        assert_eq!(g.read(&[1]), vec![(1, Some(100))]);
        // Duplicate decision is a no-op.
        assert_eq!(g.decide(77, true, 10), None);
    }

    #[test]
    fn decide_abort_drops_and_unlocks() {
        let mut g = Group::default();
        g.prepare(77, 0, &[], &[(1, 100)], 0).unwrap();
        assert_eq!(g.decide(77, false, 10), None);
        assert!(!locked(&g, 1));
        assert_eq!(g.read(&[1]), vec![(1, None)]);
        assert_eq!(g.commit_pos(), 0);
    }

    #[test]
    fn lock_expiry_aborts_in_doubt_txns() {
        let mut g = Group::default();
        g.prepare(77, 0, &[], &[(1, 100)], 1_000).unwrap();
        g.prepare(88, 0, &[], &[(2, 200)], 5_000).unwrap();
        let expired = g.expire_locks(3_000);
        assert_eq!(expired, vec![77]);
        assert!(!locked(&g, 1) && locked(&g, 2));
        assert_eq!(g.read(&[1]), vec![(1, None)]);
        assert!(g.decide(88, true, 5_000).is_some(), "88 is still prepared");
    }

    #[test]
    fn prepare_conflicts_with_prepare() {
        let mut g = Group::default();
        g.prepare(77, 0, &[], &[(1, 100)], 0).unwrap();
        assert_eq!(g.prepare(88, 0, &[], &[(1, 200)], 0), Err(Conflict::Locked));
        assert!(locked(&g, 1));
        assert_eq!(g.decide(88, true, 0), None, "88 was never prepared");
    }
}
