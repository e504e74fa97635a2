//! Log-bucketed latency/size histograms.
//!
//! Values are `u64`s (microseconds for latencies, bytes or counts for
//! sizes) bucketed by bit length: bucket *i* holds values in
//! `[2^(i-1), 2^i)` (bucket 0 holds the value 0). That gives ~2x
//! resolution over the full `u64` range with 65 fixed buckets and no
//! allocation, which is plenty for the percentile summaries the
//! experiments report. The metrics are one `names!` table ([`Metric`]):
//! each is declared once, with its export name, and the recorder keeps
//! one histogram per entry of `Metric::ALL`.

use serde::{Deserialize, Serialize};

names! {
    /// The continuous metrics the observability layer tracks as histograms.
    #[derive(PartialOrd, Ord, Hash)]
    #[repr(usize)]
    Metric, "metric" {
        /// Microseconds a coordinator waited to assemble a read quorum.
        QuorumReadWaitUs = "quorum_read_wait_us",
        /// Microseconds a coordinator waited to assemble a write quorum.
        QuorumWriteWaitUs = "quorum_write_wait_us",
        /// Peers contacted per anti-entropy round.
        AntiEntropyFanout = "anti_entropy_fanout",
        /// Concurrent siblings present when a conflict was detected.
        ConflictSiblings = "conflict_siblings",
        /// Bytes per WAL append.
        WalAppendBytes = "wal_append_bytes",
        /// Approximate bytes per network message sent.
        MessageBytes = "message_bytes",
    }
}

const BUCKETS: usize = 65;

/// A log-bucketed histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper bound (inclusive-exclusive boundary) of a bucket, used as the
/// percentile estimate for values in that bucket.
fn bucket_hi(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all observations, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the value at quantile `q` in `[0, 1]` (bucket upper
    /// bound, clamped to the observed max). Returns 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_hi(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    ///
    /// Exact, not approximate: buckets, counts, sums, and extrema all
    /// add/commute, so merging per-cell histograms from a parallel grid
    /// run in any order yields the same result as recording every
    /// observation into one histogram serially.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Collapse into a fixed summary for export.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: if self.count == 0 { 0 } else { self.max },
        }
    }
}

/// Percentile summary of a [`Histogram`], exported into `results/*.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum observed value.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Log buckets overestimate by at most 2x.
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert_eq!(h.summary().max, 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_equals_serial_recording() {
        let mut serial = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0u64, 1, 7, 64, 1000, u64::MAX] {
            serial.record(v);
            a.record(v);
        }
        for v in [3u64, 500, 2] {
            serial.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), serial.summary());
        // Merging an empty histogram is the identity.
        let before = a.summary();
        a.merge(&Histogram::default());
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().max, 0);
    }
}
