//! Staleness measurement (PBS-style).
//!
//! A read is **stale** if, at the moment it was invoked, some write to the
//! same key had already been *acknowledged* (completed at its client) and
//! carries a stamp newer than the version the read returned. For each
//! stale read we record:
//!
//! * **k-staleness** — how many acknowledged-newer writes it missed, and
//! * **t-staleness** — how long before the read's invocation the oldest
//!   missed write was acknowledged (how far in the past the read's view
//!   is, in milliseconds).
//!
//! `probability of staleness = stale / (stale + fresh)` is the quantity
//! the PBS paper plots against (N, R, W); experiment E1 regenerates that
//! table on the quorum protocol.
//!
//! The definition is written once, as [`StalenessStream`]: it classifies
//! one completed read at a time against the writes acknowledged so far,
//! and [`measure_staleness`] is that operator folded over a finished
//! trace.

use crate::stream::{cutoff, fold, StreamChecker, StreamViolation, ViolationKind, Watermark};
use serde::{Deserialize, Serialize};
use simnet::{Duration, OpKind, OpRecord, OpTrace, SimTime};
use std::collections::BTreeMap;

/// An acknowledged write: completion time and version stamp.
type AckedWrite = (SimTime, (u64, u64));

/// Staleness metrics for one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StalenessReport {
    /// Reads that reflected the newest acknowledged write.
    pub fresh_reads: u64,
    /// Reads that missed at least one acknowledged write.
    pub stale_reads: u64,
    /// Reads with no acknowledged prior write (not classifiable).
    pub unclassified_reads: u64,
    /// k-staleness per stale read (number of missed acked writes).
    pub k_staleness: Vec<u64>,
    /// t-staleness per stale read, in milliseconds.
    pub t_staleness_ms: Vec<f64>,
}

impl StalenessReport {
    /// Probability a classifiable read was stale.
    pub fn p_stale(&self) -> f64 {
        let total = self.fresh_reads + self.stale_reads;
        if total == 0 {
            0.0
        } else {
            self.stale_reads as f64 / total as f64
        }
    }

    /// Mean k-staleness over stale reads (0 if none).
    pub fn mean_k(&self) -> f64 {
        if self.k_staleness.is_empty() {
            0.0
        } else {
            self.k_staleness.iter().sum::<u64>() as f64 / self.k_staleness.len() as f64
        }
    }

    /// Fraction of classifiable reads whose t-staleness exceeds `bound_ms`
    /// (fresh reads count as staleness 0).
    pub fn p_staler_than(&self, bound_ms: f64) -> f64 {
        let total = self.fresh_reads + self.stale_reads;
        if total == 0 {
            return 0.0;
        }
        let over = self.t_staleness_ms.iter().filter(|&&t| t > bound_ms).count();
        over as f64 / total as f64
    }
}

/// The staleness meter, one completed operation at a time (feed-order
/// contract in [`crate::stream`]).
///
/// State is the per-key index of acknowledged writes `(completed,
/// stamp)`, kept sorted by construction (feed order is completion
/// order). Eviction drops writes acknowledged before the window; a read
/// can then only miss *fewer* acked writes than an unbounded run sees,
/// so bounded runs under-count staleness and never over-count.
///
/// The per-read `k_staleness` / `t_staleness_ms` samples grow with the
/// number of stale reads, so only an unbounded stream (`window: None`)
/// keeps them; a windowed one is flat-memory and reports the scalar
/// counts alone.
#[derive(Debug)]
pub struct StalenessStream {
    window: Option<Duration>,
    writes: BTreeMap<u64, Vec<AckedWrite>>,
    report: StalenessReport,
    evicted: u64,
}

impl StalenessStream {
    /// A staleness stream; `window: None` never evicts.
    pub fn new(window: Option<Duration>) -> Self {
        StalenessStream {
            window,
            writes: BTreeMap::new(),
            report: StalenessReport::default(),
            evicted: 0,
        }
    }

    /// Consume the stream, yielding the final report.
    pub fn into_report(self) -> StalenessReport {
        self.report
    }
}

impl StreamChecker for StalenessStream {
    fn feed(&mut self, op: &OpRecord, out: &mut Vec<StreamViolation>) {
        if !op.ok {
            return;
        }
        match op.kind {
            OpKind::Write => {
                if let Some(s) = op.stamp {
                    self.writes.entry(op.key).or_default().push((op.completed, s));
                }
            }
            OpKind::Read => {
                let Some(ws) = self.writes.get(&op.key) else {
                    self.report.unclassified_reads += 1;
                    return;
                };
                // Writes acknowledged strictly before the read was
                // invoked: a prefix, since the index is completion-sorted.
                let acked = &ws[..ws.partition_point(|&(c, _)| c < op.invoked)];
                if acked.is_empty() {
                    self.report.unclassified_reads += 1;
                    return;
                }
                let returned = op.stamp.unwrap_or((0, 0));
                let missed = acked.iter().filter(|&&(_, s)| s > returned);
                let (k, oldest) = missed.fold((0u64, None::<SimTime>), |(k, oldest), &(c, _)| {
                    (k + 1, Some(oldest.map_or(c, |o| o.min(c))))
                });
                match oldest {
                    None => self.report.fresh_reads += 1,
                    Some(oldest_missed_ack) => {
                        self.report.stale_reads += 1;
                        if self.window.is_none() {
                            self.report.k_staleness.push(k);
                            self.report.t_staleness_ms.push(
                                op.invoked.saturating_since(oldest_missed_ack).as_millis_f64(),
                            );
                        }
                        out.push(StreamViolation::of(ViolationKind::StaleRead, op));
                    }
                }
            }
        }
    }

    fn advance(&mut self, wm: Watermark) {
        let Some(cut) = cutoff(wm, self.window) else { return };
        let mut dropped = 0;
        self.writes.retain(|_, ws| {
            let keep_from = ws.partition_point(|&(c, _)| c < cut);
            dropped += keep_from as u64;
            ws.drain(..keep_from);
            !ws.is_empty()
        });
        self.evicted += dropped;
    }

    fn events_evicted(&self) -> u64 {
        self.evicted
    }
}

/// Measure staleness over a finished trace: the unbounded
/// [`StalenessStream`] folded over it.
pub fn measure_staleness(trace: &OpTrace) -> StalenessReport {
    fold(trace, StalenessStream::new(None)).into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord};

    fn write(key: u64, stamp: (u64, u64), completed_ms: u64) -> OpRecord {
        OpRecord {
            session: 1,
            op_id: stamp.0,
            key,
            kind: OpKind::Write,
            value_written: Some(stamp.0),
            value_read: vec![],
            invoked: SimTime::from_millis(completed_ms.saturating_sub(1)),
            completed: SimTime::from_millis(completed_ms),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp: Some(stamp),
        }
    }

    fn read(key: u64, stamp: Option<(u64, u64)>, invoked_ms: u64) -> OpRecord {
        OpRecord {
            session: 2,
            op_id: 100 + invoked_ms,
            key,
            kind: OpKind::Read,
            value_written: None,
            value_read: stamp.map(|s| s.0).into_iter().collect(),
            invoked: SimTime::from_millis(invoked_ms),
            completed: SimTime::from_millis(invoked_ms + 1),
            replica: NodeId(0),
            ok: true,
            version_ts: None,
            stamp,
        }
    }

    #[test]
    fn fresh_read_counts_fresh() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(read(1, Some((1, 0)), 20));
        let r = measure_staleness(&t);
        assert_eq!(r.fresh_reads, 1);
        assert_eq!(r.stale_reads, 0);
        assert_eq!(r.p_stale(), 0.0);
    }

    #[test]
    fn stale_read_records_k_and_t() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(write(1, (2, 0), 30));
        t.push(write(1, (3, 0), 50));
        // Read at 100 returns version (1,0): missed 2 acked writes, the
        // oldest of which was acked at 30 → t-staleness = 70ms.
        t.push(read(1, Some((1, 0)), 100));
        let r = measure_staleness(&t);
        assert_eq!(r.stale_reads, 1);
        assert_eq!(r.k_staleness, vec![2]);
        assert_eq!(r.t_staleness_ms, vec![70.0]);
        assert_eq!(r.mean_k(), 2.0);
    }

    #[test]
    fn empty_read_with_acked_writes_is_maximally_stale() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(read(1, None, 100));
        let r = measure_staleness(&t);
        assert_eq!(r.stale_reads, 1);
        assert_eq!(r.k_staleness, vec![1]);
    }

    #[test]
    fn read_before_any_ack_is_unclassified() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 50));
        t.push(read(1, None, 20)); // write not yet acked at read time
        let r = measure_staleness(&t);
        assert_eq!(r.unclassified_reads, 1);
        assert_eq!(r.stale_reads, 0);
    }

    #[test]
    fn in_flight_write_does_not_make_read_stale() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(write(1, (2, 0), 200)); // acked after the read
        t.push(read(1, Some((1, 0)), 100));
        let r = measure_staleness(&t);
        assert_eq!(r.fresh_reads, 1);
        assert_eq!(r.stale_reads, 0);
    }

    #[test]
    fn read_of_newer_than_acked_is_fresh() {
        // A read can return a version newer than every *acked* write
        // (the write is still in flight): that is fresh, not stale.
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(write(1, (5, 0), 500));
        t.push(read(1, Some((5, 0)), 100)); // read sees the in-flight write
        let r = measure_staleness(&t);
        assert_eq!(r.fresh_reads, 1);
    }

    #[test]
    fn p_staler_than_counts_fresh_as_zero() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(write(1, (2, 0), 20));
        t.push(read(1, Some((2, 0)), 50)); // fresh
        t.push(read(1, Some((1, 0)), 100)); // stale by 80ms
        let r = measure_staleness(&t);
        assert_eq!(r.p_stale(), 0.5);
        assert_eq!(r.p_staler_than(50.0), 0.5);
        assert_eq!(r.p_staler_than(100.0), 0.0);
    }

    #[test]
    fn keys_are_independent() {
        let mut t = OpTrace::new();
        t.push(write(1, (1, 0), 10));
        t.push(read(2, None, 100)); // different key: nothing to miss
        let r = measure_staleness(&t);
        assert_eq!(r.unclassified_reads, 1);
    }
}
