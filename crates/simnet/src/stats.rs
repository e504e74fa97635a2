//! Small statistics helpers shared by the experiment harnesses.
//!
//! Nothing here is clever: percentiles use the nearest-rank method on a
//! sorted copy. The experiment binaries print these as the "rows" of each
//! table.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50, nearest rank).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// An all-zero summary for an empty sample.
    pub fn empty() -> Self {
        Summary { count: 0, mean: 0.0, min: 0.0, p50: 0.0, p90: 0.0, p99: 0.0, max: 0.0 }
    }
}

/// Compute summary statistics. Returns [`Summary::empty`] on empty input.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::empty();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    Summary {
        count: sorted.len(),
        mean,
        min: sorted[0],
        p50: percentile_sorted(&sorted, 50.0),
        p90: percentile_sorted(&sorted, 90.0),
        p99: percentile_sorted(&sorted, 99.0),
        max: sorted[sorted.len() - 1],
    }
}

/// Nearest-rank percentile of an already-sorted sample. `p` in `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if p <= 0.0 {
        return sorted[0];
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = summarize(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn summary_empty() {
        assert_eq!(summarize(&[]), Summary::empty());
    }

    #[test]
    fn percentile_singleton() {
        assert_eq!(percentile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 100.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
