//! Deterministic randomness.
//!
//! Every random choice in a simulation — latency samples, message loss,
//! workload keys — flows from a single [`SimRng`] seeded at construction.
//! [`SimRng::fork`] derives independent child streams so that, e.g., the
//! workload generator and the network can be reseeded independently without
//! perturbing each other's sequences when one of them changes.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded, forkable random number generator.
///
/// Backed by ChaCha8: fast, portable, and stable across platforms and rustc
/// versions (unlike `StdRng`, whose algorithm is unspecified). Stability
/// matters because `EXPERIMENTS.md` records concrete numbers for given seeds.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Derive an independent child stream.
    ///
    /// The child is keyed by the parent's seed material plus `stream`, so
    /// forks with distinct stream ids are statistically independent and
    /// reproducible.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut child = self.inner.clone();
        child.set_stream(stream.wrapping_add(1)); // stream 0 is the parent's
        SimRng { inner: child }
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with bound 0");
        self.inner.random_range(0..bound)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range called with empty range");
        self.inner.random_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random::<f64>() < p
        }
    }

    /// Standard normal sample via the Box–Muller transform.
    ///
    /// `rand_distr` is not among the approved offline crates, so we carry
    /// our own two-line implementation; it is exercised by the statistical
    /// tests below.
    pub fn std_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.inner.random::<f64>();
        let u2: f64 = self.inner.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample with the given median and shape `sigma`.
    ///
    /// `median` is the 50th percentile of the resulting distribution (the
    /// underlying normal has `mu = ln(median)`).
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        self.log_normal_from_mu(Self::ln_median(median), sigma)
    }

    /// `mu = ln(median)` of the log-normal with the given median: the
    /// part of [`SimRng::log_normal`] that draws nothing, for callers
    /// that sample one distribution many times.
    pub fn ln_median(median: f64) -> f64 {
        median.max(f64::MIN_POSITIVE).ln()
    }

    /// Log-normal sample given the underlying normal's `mu` (see
    /// [`SimRng::ln_median`]) and shape `sigma`; the same two draws and
    /// the same arithmetic as [`SimRng::log_normal`].
    pub fn log_normal_from_mu(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "SimRng::index called with empty slice length");
        self.inner.random_range(0..len)
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.inner.random_range(0..=i);
            xs.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let mut c1_again = parent.fork(1);
        let s1: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        let s1_again: Vec<u64> = (0..16).map(|_| c1_again.next_u64()).collect();
        assert_eq!(s1, s1_again);
        assert_ne!(s1, s2);
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = SimRng::new(13);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| r.log_normal(10.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 10.0).abs() < 0.5, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(19);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }
}
