//! Convergence checking — "eventual" made falsifiable.
//!
//! Eventual consistency promises that once writes stop, replicas agree.
//! Over a black-box trace that becomes: after the last acknowledged write
//! (plus a caller-supplied grace period for propagation), all successful
//! reads of a key must return the same value set, regardless of which
//! replica served them. The checker reports disagreeing keys and the
//! replicas involved, and separately reports keys that were never read
//! after quiescence (unverifiable, not necessarily diverged).
//!
//! The criterion is written once, as `judge`; [`check_convergence`]
//! folds it over a finished trace, and [`crate::StreamVerifier`] feeds
//! it online.

use crate::stream::fold;
use serde::{Deserialize, Serialize};
use simnet::{Duration, IdHashMap, IdHashSet, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::BTreeMap;

/// One key's post-quiescence disagreement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// The key.
    pub key: u64,
    /// The distinct value sets observed (sorted), with an example replica
    /// that served each.
    pub views: Vec<(Vec<u64>, u32)>,
}

/// Result of the convergence check.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Keys read after quiescence that agreed everywhere.
    pub converged_keys: u64,
    /// Keys read after quiescence with disagreeing views, by ascending
    /// key.
    pub diverged: Vec<Divergence>,
    /// Keys with writes but no post-quiescence read (unverifiable).
    pub unverified_keys: u64,
    /// The quiescence point used (last write ack + grace).
    pub quiescence_at: SimTime,
}

impl ConvergenceReport {
    /// True if no key disagreed.
    pub fn converged(&self) -> bool {
        self.diverged.is_empty()
    }
}

/// Convergence's own state, fed one completed operation at a time
/// (feed-order contract in [`crate::stream`]).
///
/// Classifying a read needs the *final* quiescence point (last write ack
/// plus grace), which looks inherently offline. But each acknowledged
/// write *moves* quiescence past everything already seen: every stored
/// post-quiescence view was invoked at or before its own completion,
/// which precedes the new write's ack, which precedes the new quiescence
/// point (strictly, since grace > 0). So a write simply clears all
/// stored views, and what survives to the end is exactly the set of
/// reads invoked after the final quiescence point. Clearing is counted
/// as eviction.
///
/// The written-key set and post-quiescence views are bounded by the
/// keyspace, not the trace length, so watermark advances have nothing
/// further to evict.
#[derive(Debug)]
pub(crate) struct Convergence {
    grace: Duration,
    last_write_ack: Option<SimTime>,
    written: IdHashSet<u64>,
    /// Per key: sorted value set -> example replica that served it. The
    /// inner map is ordered because a [`Divergence`] lists its views in
    /// value-set order.
    views: IdHashMap<u64, BTreeMap<Vec<u64>, u32>>,
}

impl Convergence {
    /// Convergence state with the given propagation grace period.
    ///
    /// # Panics
    ///
    /// Panics if `grace` is zero: clear-on-write is only exact when
    /// quiescence falls strictly after the clearing write's ack.
    pub(crate) fn new(grace: Duration) -> Self {
        assert!(grace > Duration::ZERO, "convergence checking requires a non-zero grace period");
        Convergence {
            grace,
            last_write_ack: None,
            written: IdHashSet::default(),
            views: IdHashMap::default(),
        }
    }

    /// The quiescence estimate so far (last write ack + grace).
    fn quiescence_at(&self) -> Option<SimTime> {
        self.last_write_ack.map(|t| t + self.grace)
    }

    /// Classify every written key from the surviving views, in ascending
    /// key order. `None` if no write was ever acknowledged.
    pub(crate) fn report(&self) -> Option<ConvergenceReport> {
        let quiescence_at = self.quiescence_at()?;
        let mut report = ConvergenceReport { quiescence_at, ..Default::default() };
        // The written-key set is unordered: sort it for the report.
        let mut written: Vec<u64> = self.written.iter().copied().collect();
        written.sort_unstable();
        for key in written {
            match self.views.get(&key) {
                None => report.unverified_keys += 1,
                Some(v) if v.len() == 1 => report.converged_keys += 1,
                Some(v) => report.diverged.push(Divergence {
                    key,
                    views: v.iter().map(|(vals, rep)| (vals.clone(), *rep)).collect(),
                }),
            }
        }
        Some(report)
    }
}

/// Judge one completed, successful operation: a write moves quiescence
/// and clears the stored views, a read invoked after quiescence records
/// its view. Returns how many views were cleared. Convergence flags
/// nothing per op; its divergences are found at the end.
pub(crate) fn judge(state: &mut Convergence, op: &OpRecord) -> u64 {
    match op.kind {
        OpKind::Write => {
            state.written.insert(op.key);
            state.last_write_ack =
                Some(state.last_write_ack.map_or(op.completed, |t| t.max(op.completed)));
            // Quiescence just moved strictly past every stored view.
            let cleared = state.views.values().map(|v| v.len() as u64).sum();
            state.views.clear();
            cleared
        }
        OpKind::Read => {
            if state.quiescence_at().is_some_and(|q| op.invoked >= q) {
                let mut vals = op.value_read.clone();
                vals.sort_unstable();
                state.views.entry(op.key).or_default().entry(vals).or_insert(op.replica.0);
            }
            0
        }
    }
}

/// Check convergence over a finished trace: after the last acknowledged
/// write plus `grace`, every successful read of a key must return the
/// same value set. This is `judge` folded over the trace with a state of
/// its own. Returns `None` if the trace contains no acknowledged writes
/// (nothing to converge on).
///
/// # Panics
///
/// Panics if `grace` is zero: clear-on-write is only exact when
/// quiescence falls strictly after the clearing write's ack.
pub fn check_convergence(trace: &OpTrace, grace: Duration) -> Option<ConvergenceReport> {
    let mut state = Convergence::new(grace);
    fold(trace, |op, _| {
        judge(&mut state, op);
    });
    state.report()
}

/// One key's owner-set disagreement at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnerDivergence {
    /// The key.
    pub key: u64,
    /// `(owner, version)` per owner; `None` when the owner holds no copy.
    pub versions: Vec<(u32, Option<u64>)>,
}

/// Result of the ownership-aware convergence check.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnerConvergenceReport {
    /// Keys whose owners all agree on the stored version.
    pub converged_keys: u64,
    /// Keys whose owners disagree (or miss the key entirely).
    pub diverged: Vec<OwnerDivergence>,
}

impl OwnerConvergenceReport {
    /// True if every key's owners agree.
    pub fn converged(&self) -> bool {
        self.diverged.is_empty()
    }
}

/// Ownership-aware convergence over final store state: for every key
/// present anywhere, all of its *owners* (per the caller's placement
/// function — e.g. a consistent-hashing ring's preference list) must
/// hold the same version. An owner missing the key counts as divergence;
/// copies on non-owners (hints still parked, pre-rebalance residue) are
/// ignored — ownership, not residence, is the contract.
///
/// `versions` is `(node, key, version)` as produced by
/// `simnet::Actor::key_versions`.
pub fn check_owner_convergence(
    versions: &[(simnet::NodeId, u64, u64)],
    owners: impl Fn(u64) -> Vec<simnet::NodeId>,
) -> OwnerConvergenceReport {
    let mut by_key: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
    for &(node, key, version) in versions {
        by_key.entry(key).or_default().insert(node.0, version);
    }
    let mut report = OwnerConvergenceReport::default();
    for (&key, held) in &by_key {
        let owner_views: Vec<(u32, Option<u64>)> =
            owners(key).into_iter().map(|o| (o.0, held.get(&o.0).copied())).collect();
        let mut distinct: Vec<Option<u64>> = owner_views.iter().map(|&(_, v)| v).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() <= 1 && distinct.first().map(|v| v.is_some()).unwrap_or(true) {
            report.converged_keys += 1;
        } else {
            report.diverged.push(OwnerDivergence { key, versions: owner_views });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord};

    fn write(key: u64, completed_ms: u64) -> OpRecord {
        OpRecord {
            session: 1,
            op_id: completed_ms,
            key,
            kind: OpKind::Write,
            value_written: Some(completed_ms),
            value_read: vec![],
            invoked: SimTime::from_millis(completed_ms - 1),
            completed: SimTime::from_millis(completed_ms),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp: None,
        }
    }

    fn read(key: u64, values: Vec<u64>, invoked_ms: u64, replica: u32) -> OpRecord {
        OpRecord {
            session: 2 + u64::from(replica),
            op_id: invoked_ms,
            key,
            kind: OpKind::Read,
            value_written: None,
            value_read: values,
            invoked: SimTime::from_millis(invoked_ms),
            completed: SimTime::from_millis(invoked_ms + 1),
            replica: NodeId(replica),
            ok: true,
            version_ts: None,
            stamp: None,
        }
    }

    #[test]
    fn empty_trace_has_nothing_to_converge() {
        assert!(check_convergence(&OpTrace::new(), Duration::from_millis(10)).is_none());
    }

    #[test]
    fn zero_grace_is_rejected() {
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        let result = std::panic::catch_unwind(|| check_convergence(&t, Duration::ZERO));
        assert!(result.is_err());
    }

    #[test]
    fn agreeing_replicas_converge() {
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        t.push(read(1, vec![10], 100, 0));
        t.push(read(1, vec![10], 110, 1));
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        assert!(r.converged());
        assert_eq!(r.converged_keys, 1);
        assert_eq!(r.quiescence_at, SimTime::from_millis(30));
    }

    #[test]
    fn disagreeing_replicas_flagged() {
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        t.push(read(1, vec![10], 100, 0));
        t.push(read(1, vec![], 110, 2)); // replica 2 still empty
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        assert!(!r.converged());
        assert_eq!(r.diverged.len(), 1);
        assert_eq!(r.diverged[0].key, 1);
        assert_eq!(r.diverged[0].views.len(), 2);
    }

    #[test]
    fn reads_inside_grace_window_do_not_count() {
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        // A stale read at 15ms is within grace (quiescence at 30ms).
        t.push(read(1, vec![], 15, 2));
        t.push(read(1, vec![10], 100, 0));
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        assert!(r.converged(), "pre-quiescence staleness is not divergence");
    }

    #[test]
    fn unread_keys_are_unverified_not_converged() {
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        t.push(write(2, 20));
        t.push(read(1, vec![10], 100, 0));
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        assert_eq!(r.converged_keys, 1);
        assert_eq!(r.unverified_keys, 1);
        assert!(r.converged());
    }

    #[test]
    fn sibling_sets_compare_as_sets() {
        // Two replicas returning the same siblings in different orders agree.
        let mut t = OpTrace::new();
        t.push(write(1, 10));
        t.push(read(1, vec![7, 10], 100, 0));
        t.push(read(1, vec![10, 7], 110, 1));
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        assert!(r.converged());
    }

    #[test]
    fn diverged_keys_are_listed_by_ascending_key_whatever_the_table_order() {
        const KEYS: u64 = 1_024;
        // Keys written in a scrambled order (7 919 is prime, so
        // `i · 7 919 mod 1 024` visits every residue once), some twice.
        let key = |i: u64| (i * 7_919) % KEYS;
        let mut t = OpTrace::new();
        for i in 0..KEYS + 100 {
            t.push(write(key(i % KEYS), 10 + i));
        }
        // After quiescence every key is read twice, again scrambled; a
        // key divisible by 3 agrees, every other one disagrees.
        let settled = 10 + KEYS + 100 + 20;
        for i in 0..KEYS {
            let k = key(KEYS - 1 - i);
            let other = if k % 3 == 0 { k } else { k + 1 };
            t.push(read(k, vec![k], settled + 2 * i, 0));
            t.push(read(k, vec![other], settled + 2 * i + 1, 1));
        }
        let r = check_convergence(&t, Duration::from_millis(20)).unwrap();
        let want: Vec<u64> = (0..KEYS).filter(|k| k % 3 != 0).collect();
        let got: Vec<u64> = r.diverged.iter().map(|d| d.key).collect();
        assert_eq!(got, want);
        assert_eq!(r.converged_keys, KEYS - want.len() as u64);
        assert_eq!(r.unverified_keys, 0);
        for d in &r.diverged {
            assert_eq!(d.views, vec![(vec![d.key], 0), (vec![d.key + 1], 1)], "key {}", d.key);
        }
    }

    #[test]
    fn owner_convergence_checks_owners_only() {
        // Key 1 owned by {0, 1}: both agree. Key 2 owned by {1, 2}:
        // node 2 misses its copy. A stray copy of key 1 on non-owner 3
        // is ignored.
        let versions =
            vec![(NodeId(0), 1, 42), (NodeId(1), 1, 42), (NodeId(3), 1, 7), (NodeId(1), 2, 9)];
        let owners = |key: u64| match key {
            1 => vec![NodeId(0), NodeId(1)],
            _ => vec![NodeId(1), NodeId(2)],
        };
        let r = check_owner_convergence(&versions, owners);
        assert_eq!(r.converged_keys, 1);
        assert_eq!(r.diverged.len(), 1);
        assert_eq!(r.diverged[0].key, 2);
        assert_eq!(r.diverged[0].versions, vec![(1, Some(9)), (2, None)]);
        assert!(!r.converged());
    }

    #[test]
    fn owner_disagreement_is_divergence() {
        let versions = vec![(NodeId(0), 5, 10), (NodeId(1), 5, 11)];
        let r = check_owner_convergence(&versions, |_| vec![NodeId(0), NodeId(1)]);
        assert!(!r.converged());
        assert_eq!(r.diverged[0].versions, vec![(0, Some(10)), (1, Some(11))]);
    }
}
