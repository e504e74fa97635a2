//! Workload specifications: the bundle experiments configure.

use crate::arrival::Arrival;
use crate::keys::{KeyDistribution, KeySampler};
use crate::mix::{OpMix, WorkloadOp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A complete workload description for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Size of the key space.
    pub keys: u64,
    /// Key popularity.
    pub distribution: KeyDistribution,
    /// Read/write/RMW mix.
    pub mix: OpMix,
    /// Arrival process per session.
    pub arrival: Arrival,
    /// Number of client sessions.
    pub sessions: u32,
    /// Operations issued per session.
    pub ops_per_session: u32,
}

impl WorkloadSpec {
    /// A small read-mostly default suitable for quick tests.
    pub fn small() -> Self {
        WorkloadSpec {
            keys: 100,
            distribution: KeyDistribution::Uniform,
            mix: OpMix::ycsb_b(),
            arrival: Arrival::Closed { think_us: 1_000 },
            sessions: 4,
            ops_per_session: 50,
        }
    }

    /// Total operations across all sessions.
    pub fn total_ops(&self) -> u64 {
        self.sessions as u64 * self.ops_per_session as u64
    }

    /// Build a per-session operation script: `(gap_us, op, key)` triples.
    ///
    /// For closed-loop arrivals `gap_us` is think time after the previous
    /// *response*; for open-loop it is the gap after the previous *issue*.
    pub fn session_script<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(u64, WorkloadOp, u64)> {
        let mut sampler: KeySampler = self.distribution.sampler(self.keys);
        (0..self.ops_per_session)
            .map(|_| {
                let gap = self.arrival.next_gap_us(rng);
                let op = self.mix.sample(rng);
                let key = sampler.sample(rng);
                (gap, op, key)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn total_ops() {
        let spec = WorkloadSpec { sessions: 3, ops_per_session: 7, ..WorkloadSpec::small() };
        assert_eq!(spec.total_ops(), 21);
    }

    #[test]
    fn script_has_requested_length_and_valid_keys() {
        let spec = WorkloadSpec::small();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let script = spec.session_script(&mut rng);
        assert_eq!(script.len(), 50);
        assert!(script.iter().all(|&(_, _, k)| k < spec.keys));
    }

    #[test]
    fn script_is_deterministic_per_seed() {
        let spec = WorkloadSpec::small();
        let s1 = spec.session_script(&mut ChaCha8Rng::seed_from_u64(7));
        let s2 = spec.session_script(&mut ChaCha8Rng::seed_from_u64(7));
        let s3 = spec.session_script(&mut ChaCha8Rng::seed_from_u64(8));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn read_only_mix_yields_read_only_script() {
        let spec = WorkloadSpec { mix: OpMix::new(0.0, 0.0), ..WorkloadSpec::small() };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(spec.session_script(&mut rng).iter().all(|&(_, op, _)| op == WorkloadOp::Read));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = WorkloadSpec::small();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
