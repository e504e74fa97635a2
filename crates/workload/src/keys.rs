//! Key-popularity distributions.

use serde::{Deserialize, Serialize};
use simnet::SimRng;

/// How keys are chosen from a key space of size `n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with skew parameter `theta` (YCSB uses 0.99). Higher theta
    /// = more skew; theta must be in `(0, 1)` for this generator.
    Zipfian {
        /// Skew parameter in `(0, 1)`.
        theta: f64,
    },
}

impl KeyDistribution {
    /// The standard YCSB Zipfian skew.
    pub fn zipfian_default() -> Self {
        KeyDistribution::Zipfian { theta: 0.99 }
    }

    /// Build a sampler for a key space of `n` keys.
    ///
    /// # Panics
    /// If `n == 0`, or parameters are out of range.
    pub fn sampler(&self, n: u64) -> KeySampler {
        assert!(n > 0, "key space must be non-empty");
        let kind = match self {
            KeyDistribution::Uniform => SamplerKind::Uniform,
            KeyDistribution::Zipfian { theta } => SamplerKind::Zipfian(ZipfSampler::new(n, *theta)),
        };
        KeySampler { n, kind }
    }
}

/// A key sampler (see [`KeyDistribution::sampler`]).
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: u64,
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    Zipfian(ZipfSampler),
}

impl KeySampler {
    /// Draw the next key in `[0, n)`.
    pub fn sample(&mut self, rng: &mut SimRng) -> u64 {
        match &mut self.kind {
            SamplerKind::Uniform => rng.below(self.n),
            SamplerKind::Zipfian(z) => z.sample(rng),
        }
    }
}

/// The YCSB Zipfian generator (Gray et al.'s rejection-free algorithm with
/// precomputed zeta), skew `theta` in `(0, 1)`.
///
/// Rank 0 is the most popular key. To decorrelate rank from key id (YCSB's
/// "scrambled zipfian"), callers can hash the returned rank; the
/// experiments here keep rank = key id so "hot keys" are known a priori.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Create a sampler over `[0, n)` with skew `theta`.
    ///
    /// # Panics
    /// If `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta_theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_theta / zeta_n);
        let _ = zeta_theta; // folded into eta above
        ZipfSampler { n, theta, zeta_n, alpha, eta }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // O(n) precomputation; key spaces in the experiments are <= 1e6.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw a rank in `[0, n)` (0 = most popular).
    pub fn sample(&mut self, rng: &mut SimRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    #[test]
    fn uniform_covers_key_space() {
        let mut s = KeyDistribution::Uniform.sampler(10);
        let mut seen = [false; 10];
        let mut r = rng(1);
        for _ in 0..1000 {
            seen[s.sample(&mut r) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn zipfian_is_skewed_toward_rank_zero() {
        let mut s = ZipfSampler::new(1000, 0.99);
        let mut r = rng(2);
        let n = 20_000;
        let mut counts = vec![0u64; 1000];
        for _ in 0..n {
            counts[s.sample(&mut r) as usize] += 1;
        }
        // Rank 0 should get far more than uniform share (1/1000 of 20k = 20).
        assert!(counts[0] > 1000, "rank0 count {}", counts[0]);
        // Top 10 ranks should dominate the bottom half.
        let top10: u64 = counts[..10].iter().sum();
        let bottom500: u64 = counts[500..].iter().sum();
        assert!(top10 > bottom500, "top10 {top10} bottom500 {bottom500}");
    }

    #[test]
    fn zipfian_empirical_matches_theory_for_rank0() {
        let mut s = ZipfSampler::new(100, 0.9);
        let p0 = 1.0 / (1..=100).map(|k| 1.0 / (k as f64).powf(0.9)).sum::<f64>();
        let mut r = rng(3);
        let n = 50_000;
        let hits = (0..n).filter(|_| s.sample(&mut r) == 0).count();
        let emp = hits as f64 / n as f64;
        assert!((emp - p0).abs() < 0.02, "empirical {emp:.4} vs theoretical {p0:.4}");
    }

    #[test]
    fn samples_always_in_range() {
        for dist in [KeyDistribution::Uniform, KeyDistribution::zipfian_default()] {
            let mut s = dist.sampler(17);
            let mut r = rng(7);
            for _ in 0..500 {
                assert!(s.sample(&mut r) < 17);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_keys_panics() {
        KeyDistribution::Uniform.sampler(0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        ZipfSampler::new(10, 1.5);
    }
}
