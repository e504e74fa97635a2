//! The incremental replica-divergence probe.
//!
//! `replica_divergence` samples, at every time-series bucket and for
//! every stored key, how many distinct versions of the key the replicas
//! hold. [`DivergenceProbe`] keeps that answer up to date from the
//! replicas' change reports ([`simnet::Actor::drain_changed_versions`])
//! instead of rescanning every store: per key the `(node, version)`
//! holders, and over all keys the running count, sum and histogram of
//! distinct-version counts, so a bucket costs O(keys changed since the
//! last one) and one folded time-series write.

use obs::TsMetric;
use simnet::{NodeId, Sim};
use std::collections::BTreeMap;

/// Running per-key replica divergence over a simulation's stores.
#[derive(Debug, Default)]
pub struct DivergenceProbe {
    /// Which node holds which version, per stored key. A key has a
    /// handful of holders (its replicas), so the vectors stay tiny.
    holders: BTreeMap<u64, Vec<(NodeId, u64)>>,
    /// Σ over stored keys of the key's distinct-version count.
    sum_distinct: u64,
    /// `keys_at[d]`: stored keys currently at `d` distinct versions.
    keys_at: Vec<u64>,
    /// Change reports folded so far (what the complexity guard counts).
    #[cfg(test)]
    touched: u64,
}

fn distinct_versions(holders: &[(NodeId, u64)]) -> usize {
    (0..holders.len()).filter(|&i| holders[..i].iter().all(|h| h.1 != holders[i].1)).count()
}

impl DivergenceProbe {
    /// A probe over stores that are all still empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one change report: `node` now holds `version` of `key`
    /// (`None`: it no longer stores the key).
    pub fn update(&mut self, node: NodeId, key: u64, version: Option<u64>) {
        #[cfg(test)]
        {
            self.touched += 1;
        }
        let Some(holders) = (match version {
            Some(_) => Some(self.holders.entry(key).or_default()),
            None => self.holders.get_mut(&key),
        }) else {
            return;
        };
        let before = distinct_versions(holders);
        let held = holders.iter().position(|h| h.0 == node);
        match (held, version) {
            (Some(i), Some(v)) => holders[i].1 = v,
            (Some(i), None) => {
                holders.swap_remove(i);
            }
            (None, Some(v)) => holders.push((node, v)),
            (None, None) => {}
        }
        let after = distinct_versions(holders);
        if holders.is_empty() {
            self.holders.remove(&key);
        }
        if before == after {
            return;
        }
        if self.keys_at.len() <= after {
            self.keys_at.resize(after + 1, 0);
        }
        // Slot 0 (a key nobody stores: not sampled) stays empty.
        if before > 0 {
            self.keys_at[before] -= 1;
        }
        if after > 0 {
            self.keys_at[after] += 1;
        }
        self.sum_distinct = self.sum_distinct + after as u64 - before as u64;
    }

    /// `(count, sum, max)` of the distinct-version counts of all stored
    /// keys: what one `replica_divergence` sample per key folds to.
    pub fn fold(&self) -> (u64, u64, u64) {
        let max = self.keys_at.iter().rposition(|&keys| keys > 0).unwrap_or(0);
        (self.holders.len() as u64, self.sum_distinct, max as u64)
    }

    /// Change reports folded so far.
    #[cfg(test)]
    pub(crate) fn touched(&self) -> u64 {
        self.touched
    }

    /// Every `(node, key, version)` the probe believes is stored, in
    /// [`Sim::key_versions`] order, for the driver's audit against it.
    #[cfg(test)]
    pub(crate) fn mirrored(&self) -> Vec<(NodeId, u64, u64)> {
        let mut all: Vec<_> = self
            .holders
            .iter()
            .flat_map(|(&key, holders)| holders.iter().map(move |&(node, v)| (node, key, v)))
            .collect();
        all.sort_unstable();
        all
    }

    /// One probe instant: drain every actor's change report, then write
    /// the bucket's `replica_divergence` samples as one folded sample.
    /// Draining clears telemetry-only dirty sets; it never schedules,
    /// reorders or drops an event.
    pub fn sample<M>(&mut self, sim: &mut Sim<M>, t_us: u64) {
        sim.drain_changed_versions(|node, key, version| self.update(node, key, version));
        let (count, sum, max) = self.fold();
        sim.recorder().sample_folded(t_us, TsMetric::ReplicaDivergence, count, sum, max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_like_one_sample_per_key() {
        let mut p = DivergenceProbe::new();
        assert_eq!(p.fold(), (0, 0, 0));
        p.update(NodeId(0), 7, Some(100));
        p.update(NodeId(1), 7, Some(100));
        p.update(NodeId(2), 7, Some(90));
        p.update(NodeId(0), 9, Some(5));
        // key 7: {100, 90}; key 9: {5}.
        assert_eq!(p.fold(), (2, 3, 2));
        p.update(NodeId(2), 7, Some(100));
        assert_eq!(p.fold(), (2, 2, 1));
        // An unchanged report and a report about an unknown key are
        // no-ops; they still count as touched.
        p.update(NodeId(2), 7, Some(100));
        p.update(NodeId(5), 1234, None);
        assert_eq!(p.fold(), (2, 2, 1));
        assert_eq!(p.touched(), 7);
    }

    #[test]
    fn a_node_losing_its_store_leaves_the_other_holders() {
        let mut p = DivergenceProbe::new();
        p.update(NodeId(0), 1, Some(10));
        p.update(NodeId(1), 1, Some(11));
        p.update(NodeId(1), 2, Some(20));
        assert_eq!(p.fold(), (2, 3, 2));
        // Amnesia at node 1: both its keys are reported gone.
        p.update(NodeId(1), 1, None);
        p.update(NodeId(1), 2, None);
        assert_eq!(p.fold(), (1, 1, 1), "key 2 has no holder left and is no longer sampled");
        p.update(NodeId(0), 1, None);
        assert_eq!(p.fold(), (0, 0, 0));
    }
}
