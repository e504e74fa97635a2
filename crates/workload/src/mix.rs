//! Operation mixes.

use serde::{Deserialize, Serialize};
use simnet::SimRng;

/// An operation drawn from a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadOp {
    /// Read a key.
    Read,
    /// Overwrite a key.
    Write,
    /// Read-modify-write a key (read then write, same key).
    ReadModifyWrite,
}

/// A read/write/RMW mix. Fractions must sum to at most 1; the remainder is
/// assigned to reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpMix {
    /// Fraction of plain writes.
    pub write_fraction: f64,
    /// Fraction of read-modify-writes.
    pub rmw_fraction: f64,
}

impl OpMix {
    /// Build a mix; panics if fractions are out of range.
    pub fn new(write_fraction: f64, rmw_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&write_fraction), "write fraction out of range");
        assert!((0.0..=1.0).contains(&rmw_fraction), "rmw fraction out of range");
        assert!(write_fraction + rmw_fraction <= 1.0 + 1e-12, "fractions exceed 1");
        OpMix { write_fraction, rmw_fraction }
    }

    /// YCSB workload A: update-heavy, 50% reads / 50% writes.
    pub fn ycsb_a() -> Self {
        OpMix::new(0.5, 0.0)
    }

    /// YCSB workload B: read-mostly, 95% reads / 5% writes.
    pub fn ycsb_b() -> Self {
        OpMix::new(0.05, 0.0)
    }

    /// Write-only (replication-pressure stress).
    pub fn write_only() -> Self {
        OpMix::new(1.0, 0.0)
    }

    /// Draw the next operation kind.
    pub fn sample(&self, rng: &mut SimRng) -> WorkloadOp {
        let u = rng.unit();
        if u < self.write_fraction {
            WorkloadOp::Write
        } else if u < self.write_fraction + self.rmw_fraction {
            WorkloadOp::ReadModifyWrite
        } else {
            WorkloadOp::Read
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_fractions() {
        assert_eq!(OpMix::ycsb_a().write_fraction, 0.5);
        assert_eq!(OpMix::ycsb_b().write_fraction, 0.05);
        assert_eq!(OpMix::write_only().write_fraction, 1.0);
    }

    #[test]
    fn sample_respects_fractions() {
        let mix = OpMix::new(0.3, 0.2);
        let mut rng = SimRng::new(1);
        let n = 30_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            match mix.sample(&mut rng) {
                WorkloadOp::Read => counts[0] += 1,
                WorkloadOp::Write => counts[1] += 1,
                WorkloadOp::ReadModifyWrite => counts[2] += 1,
            }
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.5).abs() < 0.02);
        assert!((frac(counts[1]) - 0.3).abs() < 0.02);
        assert!((frac(counts[2]) - 0.2).abs() < 0.02);
    }

    #[test]
    fn read_only_never_writes() {
        let mix = OpMix::new(0.0, 0.0);
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            assert_eq!(mix.sample(&mut rng), WorkloadOp::Read);
        }
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn overfull_mix_panics() {
        OpMix::new(0.8, 0.5);
    }
}
