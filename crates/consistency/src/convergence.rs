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
//! The criterion is written once, as [`ConvergenceStream`];
//! [`check_convergence`] is that operator folded over a finished trace.

use crate::stream::{fold, StreamChecker, StreamViolation, Watermark};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Keys read after quiescence with disagreeing views.
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

/// The convergence checker, one completed operation at a time
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
/// keyspace, not the trace length; watermark advances have nothing
/// further to evict.
#[derive(Debug)]
pub struct ConvergenceStream {
    grace: Duration,
    last_write_ack: Option<SimTime>,
    written: BTreeSet<u64>,
    /// Per key: sorted value set -> example replica that served it.
    views: BTreeMap<u64, BTreeMap<Vec<u64>, u32>>,
    evicted: u64,
}

impl ConvergenceStream {
    /// A convergence stream with the given propagation grace period.
    ///
    /// # Panics
    ///
    /// Panics if `grace` is zero: clear-on-write is only exact when
    /// quiescence falls strictly after the clearing write's ack.
    pub fn new(grace: Duration) -> Self {
        assert!(grace > Duration::ZERO, "convergence checking requires a non-zero grace period");
        ConvergenceStream {
            grace,
            last_write_ack: None,
            written: BTreeSet::new(),
            views: BTreeMap::new(),
            evicted: 0,
        }
    }

    /// The quiescence estimate so far (last write ack + grace).
    pub fn quiescence_at(&self) -> Option<SimTime> {
        self.last_write_ack.map(|t| t + self.grace)
    }

    /// Classify every written key from the surviving views. `None` if no
    /// write was ever acknowledged.
    pub fn report(&self) -> Option<ConvergenceReport> {
        let quiescence_at = self.quiescence_at()?;
        let mut report = ConvergenceReport { quiescence_at, ..Default::default() };
        for &key in &self.written {
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

impl StreamChecker for ConvergenceStream {
    fn feed(&mut self, op: &OpRecord, _out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        match op.kind {
            OpKind::Write => {
                self.written.insert(op.key);
                self.last_write_ack =
                    Some(self.last_write_ack.map_or(op.completed, |t| t.max(op.completed)));
                // Quiescence just moved strictly past every stored view.
                self.evicted += self.views.values().map(|v| v.len() as u64).sum::<u64>();
                self.views.clear();
            }
            OpKind::Read => {
                if let Some(q) = self.quiescence_at() {
                    if op.invoked >= q {
                        let mut vals = op.value_read.clone();
                        vals.sort_unstable();
                        self.views.entry(op.key).or_default().entry(vals).or_insert(op.replica.0);
                    }
                }
            }
        }
    }

    fn advance(&mut self, _wm: Watermark) {}

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

/// Check convergence over a finished trace: after the last acknowledged
/// write plus `grace`, every successful read of a key must return the
/// same value set. This is [`ConvergenceStream`] folded over the trace.
/// Returns `None` if the trace contains no acknowledged writes (nothing
/// to converge on).
///
/// # Panics
///
/// Panics if `grace` is zero (see [`ConvergenceStream::new`]).
pub fn check_convergence(trace: &OpTrace, grace: Duration) -> Option<ConvergenceReport> {
    fold(trace, ConvergenceStream::new(grace)).report()
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
