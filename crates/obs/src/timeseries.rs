//! Windowed time-series telemetry over virtual time.
//!
//! Aggregate counters answer "how much, in total"; these series answer
//! "how did it evolve over the run". Samples are folded into
//! fixed-width virtual-time buckets holding `(count, sum, max)` — all
//! `u64`s — so merging per-cell series from a parallel grid run is
//! *exact* and commutative, the same property [`crate::Histogram`]
//! gives the latency summaries: `--jobs 1` and `--jobs 8` produce
//! byte-identical `timeseries` sections.
//!
//! The sampled quantities ([`TsMetric`]) are the consistency signals
//! the paper treats as a measurable spectrum: staleness of reads,
//! replica divergence, visibility lag, and in-flight message depth.
//! They are one `names!` table: each is declared once, with its export
//! name, and the recorder keeps one series per entry of `TsMetric::ALL`.

use serde::{Serialize, Value};

/// Default virtual-time bucket width: 100 ms.
pub const DEFAULT_TS_BUCKET_US: u64 = 100_000;

names! {
    /// The quantities tracked as windowed time series.
    #[derive(PartialOrd, Ord, Hash)]
    #[repr(usize)]
    TsMetric, "time-series metric" {
        /// Version lag of a completed read: how many committed writes to
        /// the key the returned version was behind (0 = fresh), from the
        /// per-key index of acknowledged writes the run's trace sink
        /// keeps while the simulation runs
        /// (`replication::sink::TraceSink::read_staleness`).
        StalenessVersions = "staleness_versions",
        /// Sampled at every successful read, like `StalenessVersions`: 0
        /// when the read missed no acknowledged write, otherwise its
        /// invocation time minus the completion time of the newest write
        /// it missed, in µs (the same call).
        VisibilityLagUs = "visibility_lag_us",
        /// Distinct versions of a key across replicas at a probe instant
        /// (1 = converged).
        ReplicaDivergence = "replica_divergence",
        /// Messages in flight in the simulated network at a probe instant.
        InflightDepth = "inflight_depth",
    }
}

/// One fixed-width bucket of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsBucket {
    /// Samples folded into this bucket.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
    /// Maximum sample value.
    pub max: u64,
}

impl TsBucket {
    /// Fold another bucket's samples into this one: counts and sums
    /// add, maxes take the max (exact and commutative).
    fn fold(&mut self, o: &TsBucket) {
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
        self.max = self.max.max(o.max);
    }
}

/// A windowed time series: fixed-width virtual-time buckets of
/// `(count, sum, max)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    bucket_us: u64,
    buckets: Vec<TsBucket>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(DEFAULT_TS_BUCKET_US)
    }
}

impl TimeSeries {
    /// An empty series with the given bucket width in microseconds
    /// (clamped to at least 1).
    pub fn new(bucket_us: u64) -> Self {
        TimeSeries { bucket_us: bucket_us.max(1), buckets: Vec::new() }
    }

    /// Fold one sample taken at virtual time `t_us` into its bucket.
    pub fn record(&mut self, t_us: u64, value: u64) {
        self.record_folded(t_us, 1, value, value);
    }

    /// Fold `count` samples taken at `t_us`, already reduced by the
    /// caller to their sum and maximum, into their bucket. Exactly
    /// equivalent to `count` [`TimeSeries::record`] calls with those
    /// values (the bucket algebra [`TimeSeries::merge`] uses), so a
    /// probe that maintains `(count, sum, max)` incrementally writes
    /// once per instant instead of once per sample.
    pub fn record_folded(&mut self, t_us: u64, count: u64, sum: u64, max: u64) {
        if count == 0 {
            return;
        }
        let idx = (t_us / self.bucket_us) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, TsBucket::default());
        }
        self.buckets[idx].fold(&TsBucket { count, sum, max });
    }

    /// Merge another series into this one.
    ///
    /// Exact and commutative (counts and sums add, maxes take the max),
    /// so per-cell series from a parallel grid fold in any order to the
    /// same result a single shared series would hold. Both sides must
    /// use the same bucket width; mismatched widths panic because a
    /// lossy re-bucketing would silently break the merge-identity
    /// guarantee the grid tests rely on.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_us, other.bucket_us,
            "cannot merge time series with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), TsBucket::default());
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            b.fold(o);
        }
    }

    /// Non-empty buckets as [`TsPoint`]s (bucket start time, count,
    /// sum, max), in time order. Empty buckets are skipped.
    pub fn points(&self) -> Vec<TsPoint> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.count > 0)
            .map(|(i, b)| TsPoint {
                t_us: i as u64 * self.bucket_us,
                count: b.count,
                sum: b.sum,
                max: b.max,
            })
            .collect()
    }

    /// Collapse into the export form embedded in `results/*.json`.
    pub fn summary(&self) -> TimeSeriesSummary {
        TimeSeriesSummary { bucket_us: self.bucket_us, points: self.points() }
    }
}

/// One exported point of a time series: the aggregate of all samples
/// whose virtual time fell in `[t_us, t_us + bucket_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsPoint {
    /// Bucket start, microseconds of virtual time.
    pub t_us: u64,
    /// Samples in the bucket.
    pub count: u64,
    /// Sum of sample values (exact; divide by `count` for the mean).
    pub sum: u64,
    /// Maximum sample value in the bucket.
    pub max: u64,
}

impl TsPoint {
    /// Mean sample value in the bucket.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Export form of a [`TimeSeries`]: bucket width plus non-empty points.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TimeSeriesSummary {
    /// Bucket width in microseconds.
    pub bucket_us: u64,
    /// Non-empty buckets in time order.
    pub points: Vec<TsPoint>,
}

impl Serialize for TsPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("t_us".to_string(), Value::U64(self.t_us)),
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            ("mean".to_string(), Value::F64(self.mean())),
            ("max".to_string(), Value::U64(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_their_buckets() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(0, 5);
        ts.record(999, 7);
        ts.record(1_000, 1);
        ts.record(5_500, 3);
        let points = ts.points();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], TsPoint { t_us: 0, count: 2, sum: 12, max: 7 });
        assert_eq!(points[1], TsPoint { t_us: 1_000, count: 1, sum: 1, max: 1 });
        assert_eq!(points[2], TsPoint { t_us: 5_000, count: 1, sum: 3, max: 3 });
        assert!((points[0].mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_serial_recording() {
        let mut serial = TimeSeries::new(500);
        let mut a = TimeSeries::new(500);
        let mut b = TimeSeries::new(500);
        for (t, v) in [(0u64, 2u64), (100, 4), (2_700, 9)] {
            serial.record(t, v);
            a.record(t, v);
        }
        for (t, v) in [(600u64, 1u64), (2_750, 3)] {
            serial.record(t, v);
            b.record(t, v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, serial);
        assert_eq!(ba, serial);
        // Merging an empty series is the identity.
        ab.merge(&TimeSeries::new(500));
        assert_eq!(ab, serial);
    }

    #[test]
    fn folded_write_equals_repeated_record() {
        // Samples at one instant, reduced by the caller, against the
        // same samples recorded one by one — saturation included.
        for samples in [vec![], vec![0], vec![3, 1, 4, 1, 5], vec![u64::MAX, 7, u64::MAX]] {
            let mut serial = TimeSeries::new(1_000);
            serial.record(10, 2); // the bucket already holds something
            let mut folded = serial.clone();
            for &v in &samples {
                serial.record(2_500, v);
            }
            let sum = samples.iter().fold(0u64, |a, &v| a.saturating_add(v));
            let max = samples.iter().copied().max().unwrap_or(0);
            folded.record_folded(2_500, samples.len() as u64, sum, max);
            assert_eq!(folded, serial, "{samples:?}");
        }
    }

    #[test]
    fn empty_series_exports_no_points() {
        let ts = TimeSeries::default();
        assert!(ts.summary().points.is_empty());
        assert_eq!(ts.summary().bucket_us, DEFAULT_TS_BUCKET_US);
    }

    #[test]
    fn metric_names_are_unique_and_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for m in TsMetric::ALL {
            let name = m.name();
            assert!(seen.insert(name), "duplicate ts metric name {name}");
            assert!(
                name.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "{name} is not snake_case"
            );
        }
        assert_eq!(seen.len(), TsMetric::COUNT);
    }
}
