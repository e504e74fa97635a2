//! The [`Recorder`] handle — the single entry point components use to
//! emit observability data.

use std::convert::Infallible;
use std::fs::File;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::counters::{Counter, CounterSet};
use crate::event::{EventKind, OpCompletion};
use crate::hist::{Histogram, Metric};
use crate::packed::EventLog;
use crate::prof::{HandlerKind, PauseAlloc, ProfSample, Profile};
use crate::report::{MetricsReport, NodeCounters};
use crate::timeseries::{TimeSeries, TsMetric};

/// Default cap on retained events when the event log is enabled. A
/// retained event is packed (`crate::packed`): 9.5 bytes in the mean
/// over the runs `tests/trace_golden.rs` pins, 11.3 over `labbench`'s
/// `trace_check` logs, so a full log of 2^20 events holds 10–12 MiB.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// What [`Recorder::export_jsonl`] reserves per event. A line of a
/// protocol run is 110 bytes in the mean (`obs.export_bytes_per_event`
/// in the ledger), so this is room to spare that is never written to;
/// a log of longer lines grows the buffer as any `String` grows.
const EXPORT_LINE_BYTES: usize = 128;

#[derive(Debug)]
struct ObsCore {
    /// `Some` iff the event log is enabled.
    events: Option<EventLog>,
    event_cap: usize,
    /// Events discarded once the cap was hit (counted, never silently lost).
    events_dropped: u64,
    next_seq: u64,
    global: CounterSet,
    per_node: Vec<CounterSet>,
    hists: [Histogram; Metric::COUNT],
    series: [TimeSeries; TsMetric::COUNT],
    /// `Some` iff the in-sim profiler is enabled (see [`crate::prof`]).
    profile: Option<Profile>,
}

impl ObsCore {
    fn new(with_events: bool) -> Self {
        ObsCore {
            events: with_events.then(EventLog::default),
            event_cap: DEFAULT_EVENT_CAP,
            events_dropped: 0,
            next_seq: 0,
            global: CounterSet::default(),
            per_node: Vec::new(),
            hists: std::array::from_fn(|_| Histogram::default()),
            series: std::array::from_fn(|_| TimeSeries::default()),
            profile: None,
        }
    }

    fn node_set(&mut self, node: u64) -> &mut CounterSet {
        let idx = node as usize;
        if idx >= self.per_node.len() {
            self.per_node.resize(idx + 1, CounterSet::default());
        }
        &mut self.per_node[idx]
    }

    fn record(&mut self, t_us: u64, kind: EventKind) {
        for (counter, node, delta) in kind.implied_counters() {
            self.global.add(counter, delta);
            if let Some(node) = node {
                self.node_set(node).add(counter, delta);
            }
        }
        match kind {
            EventKind::QuorumWait { kind: qk, waited_us, .. } => {
                let metric = match qk {
                    crate::event::QuorumKind::Read => Metric::QuorumReadWaitUs,
                    crate::event::QuorumKind::Write => Metric::QuorumWriteWaitUs,
                };
                self.hists[metric as usize].record(waited_us);
            }
            EventKind::AntiEntropyRound { fanout, .. } => {
                self.hists[Metric::AntiEntropyFanout as usize].record(fanout);
            }
            EventKind::ConflictDetected { siblings, .. } => {
                self.hists[Metric::ConflictSiblings as usize].record(siblings);
            }
            EventKind::WalAppend { bytes, .. } => {
                self.hists[Metric::WalAppendBytes as usize].record(bytes);
            }
            EventKind::MessageSent { bytes, .. } => {
                self.hists[Metric::MessageBytes as usize].record(bytes);
            }
            _ => {}
        }
        self.retain(|log, seq| kind.pack(seq, t_us, log));
    }

    /// Take the next sequence number and, if the event log has room,
    /// have `pack` append the event to it under that number; only then
    /// is `pack` called.
    fn retain(&mut self, pack: impl FnOnce(&mut EventLog, u64)) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(log) = &mut self.events {
            if log.len() < self.event_cap {
                pack(log, seq);
            } else {
                self.events_dropped += 1;
            }
        }
    }

    /// Fold another core's aggregates into this one. Counters,
    /// per-node counters, histograms, and event totals all add, so the
    /// merge commutes and parallel grid cells can be folded in any
    /// order with an identical result. Retained events are *not*
    /// copied: per-cell event logs stay with their cell (their `seq`
    /// numbering is per-run), which is what keeps per-cell JSONL traces
    /// byte-identical regardless of worker scheduling.
    fn merge(&mut self, other: &ObsCore) {
        self.next_seq += other.next_seq;
        self.events_dropped += other.events_dropped;
        for &c in Counter::ALL.iter() {
            self.global.add(c, other.global.get(c));
        }
        for (node, set) in other.per_node.iter().enumerate() {
            for &c in Counter::ALL.iter() {
                let v = set.get(c);
                if v != 0 {
                    self.node_set(node as u64).add(c, v);
                }
            }
        }
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
        for (s, o) in self.series.iter_mut().zip(other.series.iter()) {
            s.merge(o);
        }
        if let Some(theirs) = &other.profile {
            self.profile.get_or_insert_with(Profile::default).merge(theirs);
        }
    }

    fn report(&self) -> MetricsReport {
        let mut per_node = Vec::new();
        for (node, set) in self.per_node.iter().enumerate() {
            if !set.is_empty() {
                per_node.push(NodeCounters {
                    node: node as u64,
                    counters: set.nonzero().map(|(n, v)| (n.to_string(), v)).collect(),
                });
            }
        }
        MetricsReport {
            events_recorded: self.next_seq,
            events_dropped: self.events_dropped,
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), self.global.get(c)))
                .collect(),
            per_node,
            latencies: Metric::ALL
                .iter()
                .map(|&m| (m.name().to_string(), self.hists[m as usize].summary()))
                .filter(|(_, s)| s.count > 0)
                .collect(),
            timeseries: TsMetric::ALL
                .iter()
                .map(|&m| (m.name().to_string(), self.series[m as usize].summary()))
                .filter(|(_, s)| !s.points.is_empty())
                .collect(),
            profile: self.profile.as_ref().map(|p| p.report()),
        }
    }
}

/// Cheap-to-clone handle through which components report events,
/// counters, and latency observations.
///
/// A disabled recorder ([`Recorder::disabled`], also the `Default`) is a
/// `None` — every call is a branch on an `Option` and returns
/// immediately, so instrumented code pays nothing when observability is
/// off. Enabled recorders share one core, so cloning the handle into
/// many actors aggregates into a single log/counter set.
///
/// # Examples
///
/// ```
/// use obs::{Counter, EventKind, Recorder};
///
/// let rec = Recorder::with_event_log();
/// rec.record(10, EventKind::MessageSent { from: 0, to: 1, bytes: 24, trace: 0, span: 0 });
/// rec.record(55, EventKind::MessageDelivered { from: 0, to: 1, bytes: 24, trace: 0, span: 0 });
///
/// let report = rec.report();
/// assert_eq!(report.counter(Counter::MessagesSent), 1);
/// assert_eq!(report.counter(Counter::MessagesDelivered), 1);
/// assert_eq!(rec.export_jsonl().lines().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    core: Option<Arc<Mutex<ObsCore>>>,
}

impl Recorder {
    /// A recorder that discards everything (zero cost when threaded
    /// through hot paths).
    pub fn disabled() -> Self {
        Recorder { core: None }
    }

    /// A recorder that aggregates counters and histograms but does not
    /// retain individual events.
    pub fn enabled() -> Self {
        Recorder { core: Some(Arc::new(Mutex::new(ObsCore::new(false)))) }
    }

    /// A recorder that additionally retains the full typed event log
    /// (up to [`DEFAULT_EVENT_CAP`] events) for JSONL export.
    pub fn with_event_log() -> Self {
        Recorder { core: Some(Arc::new(Mutex::new(ObsCore::new(true)))) }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Override the retained-event cap (only meaningful with an event
    /// log). Events past the cap still bump counters and are tallied in
    /// [`MetricsReport::events_dropped`].
    pub fn set_event_cap(&self, cap: usize) {
        if let Some(core) = &self.core {
            core.lock().unwrap().event_cap = cap;
        }
    }

    /// Enable the in-sim profiler on this recorder: subsequent
    /// [`Recorder::prof_record`] calls accumulate per-handler samples
    /// and the [`MetricsReport`] grows a `profile` block. No-op on a
    /// disabled recorder; idempotent (re-enabling keeps existing
    /// samples).
    pub fn enable_profiling(&self) {
        if let Some(core) = &self.core {
            core.lock().unwrap().profile.get_or_insert_with(Profile::default);
        }
    }

    /// Whether profiling is enabled. The simulator caches this at
    /// construction, so enable profiling before building the `Sim`.
    pub fn profiling_enabled(&self) -> bool {
        match &self.core {
            Some(core) => core.lock().unwrap().profile.is_some(),
            None => false,
        }
    }

    /// Attribute subsequent profiler samples to `scheme` (experiment
    /// runners pass their scheme label). No-op unless profiling is
    /// enabled.
    pub fn set_profile_scheme(&self, scheme: &str) {
        if let Some(core) = &self.core {
            if let Some(profile) = &mut core.lock().unwrap().profile {
                profile.set_scheme(scheme);
            }
        }
    }

    /// Fold one handler probe sample into the profile and bump the
    /// `handler_invocations` / `alloc_bytes` counters. The profile
    /// bookkeeping runs under a [`PauseAlloc`] guard so its own
    /// allocations are never tallied against an enclosing probe
    /// (nested-probe reentrancy; see `docs/PROFILING.md`). No-op unless
    /// profiling is enabled.
    pub fn prof_record(
        &self,
        role: &'static str,
        kind: HandlerKind,
        variant: &'static str,
        sample: ProfSample,
    ) {
        if let Some(core) = &self.core {
            let _pause = PauseAlloc::new();
            let mut core = core.lock().unwrap();
            if let Some(profile) = &mut core.profile {
                profile.record(role, kind, variant, sample);
                core.global.add(Counter::HandlerInvocations, 1);
                core.global.add(Counter::AllocBytes, sample.alloc_bytes);
            }
        }
    }

    /// Record a typed event at virtual time `t_us` (microseconds).
    ///
    /// This is the one call sites use for every event but `op_complete`:
    /// it bumps the event's implied counters (global and per-node), feeds
    /// the relevant histograms, and packs the event into the event log
    /// when one is enabled. An `op_complete` goes through
    /// [`Recorder::record_op_complete`], which does not build its
    /// payload for a recorder that would drop it.
    pub fn record(&self, t_us: u64, kind: EventKind) {
        if let Some(core) = &self.core {
            core.lock().unwrap().record(t_us, kind);
        }
    }

    /// Record an [`EventKind::OpComplete`] at virtual time `t_us`, built
    /// by `payload` only if the event log keeps it.
    ///
    /// The event takes a sequence number whatever the mode, exactly as
    /// [`Recorder::record`] would give it, so `events_recorded` and every
    /// `seq` are the same either way; it implies no counter and no
    /// histogram. Without an event log, or past its cap (counted in
    /// `events_dropped`), `payload` is never called, so a counters-only
    /// run never copies the values a read returned. A kept payload is
    /// packed into the log, not boxed. `payload` runs under the
    /// recorder's lock and must not call the recorder.
    pub fn record_op_complete(&self, t_us: u64, payload: impl FnOnce() -> OpCompletion) {
        if let Some(core) = &self.core {
            core.lock().unwrap().retain(|log, seq| payload().pack(seq, t_us, log));
        }
    }

    /// Bump a counter for a specific node (and globally).
    pub fn count_node(&self, node: u64, counter: Counter, delta: u64) {
        if let Some(core) = &self.core {
            let mut core = core.lock().unwrap();
            core.global.add(counter, delta);
            core.node_set(node).add(counter, delta);
        }
    }

    /// Fold one time-series sample taken at virtual time `t_us` into
    /// the windowed series for `metric` (see [`TsMetric`] for what each
    /// series measures). Free when the recorder is disabled.
    pub fn sample(&self, t_us: u64, metric: TsMetric, value: u64) {
        if let Some(core) = &self.core {
            core.lock().unwrap().series[metric as usize].record(t_us, value);
        }
    }

    /// Fold `count` samples taken at one instant, already reduced to
    /// their sum and maximum, into the series for `metric` under one
    /// lock — exactly `count` [`Recorder::sample`] calls (see
    /// [`TimeSeries::record_folded`]).
    pub fn sample_folded(&self, t_us: u64, metric: TsMetric, count: u64, sum: u64, max: u64) {
        if let Some(core) = &self.core {
            core.lock().unwrap().series[metric as usize].record_folded(t_us, count, sum, max);
        }
    }

    /// Fold everything `other` aggregated into this recorder.
    ///
    /// This is the merge step of a parallel experiment grid: each cell
    /// runs with its own recorder (no cross-cell lock contention on the
    /// hot path), and the driver absorbs the per-cell recorders into
    /// one aggregate afterwards. The merge is exact and commutative —
    /// counters, per-node counters, histogram buckets, and event totals
    /// all add — so the folded [`MetricsReport`] is identical to the
    /// one a single shared recorder would have produced, independent of
    /// scheduling. Retained event logs are intentionally *not* copied;
    /// export per-cell logs from the per-cell recorders instead.
    ///
    /// No-op if either side is disabled. `other` is left untouched.
    pub fn absorb(&self, other: &Recorder) {
        if let (Some(mine), Some(theirs)) = (&self.core, &other.core) {
            if Arc::ptr_eq(mine, theirs) {
                return; // same core: nothing to fold, and avoid deadlock
            }
            let theirs = theirs.lock().unwrap();
            mine.lock().unwrap().merge(&theirs);
        }
    }

    /// Snapshot the aggregated counters and histogram summaries.
    ///
    /// Disabled recorders return an all-zero report.
    pub fn report(&self) -> MetricsReport {
        match &self.core {
            Some(core) => core.lock().unwrap().report(),
            None => MetricsReport::default(),
        }
    }

    /// Run `f` on the packed event log (an empty one when the event
    /// log is disabled), under the core's lock.
    fn with_log<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        let core = self.core.as_ref().map(|core| core.lock().unwrap());
        f(core.as_ref().and_then(|core| core.events.as_ref()).unwrap_or(&EventLog::default()))
    }

    /// Bytes the retained events take in the packed log (0 if
    /// disabled): the figure `tests/event_log_size.rs` holds to a bound.
    /// Test probe.
    #[doc(hidden)]
    pub fn event_log_bytes(&self) -> usize {
        self.with_log(EventLog::packed_bytes)
    }

    /// Serialize the retained event log as JSONL (one event per line,
    /// trailing newline after each). Byte-identical across runs that
    /// produce identical event sequences.
    ///
    /// Every line is written straight from the packed log into one
    /// buffer reserved from the event count, so the export allocates
    /// once, not per event or per field.
    pub fn export_jsonl(&self) -> String {
        self.with_log(|log| {
            let mut out = String::with_capacity(log.len() * EXPORT_LINE_BYTES);
            let Ok(()) = log.write_lines(&mut out, |_| Ok::<(), Infallible>(()));
            out
        })
    }

    /// Write the JSONL event log to `path`: the bytes of
    /// [`Recorder::export_jsonl`], through [`Recorder::write_jsonl_to`].
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.write_jsonl_to(&mut File::create(path)?)
    }

    /// Write the bytes of [`Recorder::export_jsonl`] to `out`, streamed
    /// from the packed log in chunks of about 64 KiB, so the log is
    /// never held in memory as text.
    pub fn write_jsonl_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        const CHUNK: usize = 64 * 1024;
        let mut chunk = String::with_capacity(CHUNK + EXPORT_LINE_BYTES);
        self.with_log(|log| {
            log.write_lines(&mut chunk, |chunk| {
                if chunk.len() >= CHUNK {
                    out.write_all(chunk.as_bytes())?;
                    chunk.clear();
                }
                Ok::<(), std::io::Error>(())
            })
        })?;
        out.write_all(chunk.as_bytes())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, QuorumKind};

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.record(0, EventKind::Crash { node: 1 });
        rec.count_node(0, Counter::TxnCommits, 5);
        assert!(!rec.is_enabled());
        assert_eq!(rec.report().counter(Counter::TxnCommits), 0);
        assert_eq!(rec.export_jsonl(), "");
    }

    #[test]
    fn events_imply_counters_and_histograms() {
        let rec = Recorder::with_event_log();
        rec.record(1, EventKind::MessageSent { from: 0, to: 1, bytes: 100, trace: 0, span: 0 });
        rec.record(
            2,
            EventKind::MessageDropped {
                from: 0,
                to: 1,
                reason: DropReason::Loss,
                trace: 0,
                span: 0,
            },
        );
        rec.record(
            3,
            EventKind::QuorumWait {
                node: 0,
                kind: QuorumKind::Read,
                waited_us: 250,
                acks: 2,
                needed: 2,
            },
        );
        let report = rec.report();
        assert_eq!(report.counter(Counter::MessagesSent), 1);
        assert_eq!(report.counter(Counter::MessagesDropped), 1);
        assert_eq!(report.counter(Counter::BytesSent), 100);
        assert_eq!(report.counter(Counter::QuorumReads), 1);
        let wait = &report.latencies.iter().find(|(n, _)| n == "quorum_read_wait_us").unwrap().1;
        assert_eq!(wait.count, 1);
        assert_eq!(wait.max, 250);
        assert_eq!(report.events_recorded, 3);
    }

    #[test]
    fn clones_share_one_core() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.count_node(2, Counter::WalAppends, 1);
        assert_eq!(rec.report().counter(Counter::WalAppends), 1);
        assert_eq!(rec.report().node_counter(2, Counter::WalAppends), 1);
    }

    #[test]
    fn absorb_equals_shared_recorder() {
        // Two cells with private recorders, folded afterwards, must
        // match one recorder shared by both cells.
        let shared = Recorder::enabled();
        let cell_a = Recorder::enabled();
        let cell_b = Recorder::enabled();
        for rec in [&shared, &cell_a] {
            rec.record(1, EventKind::MessageSent { from: 0, to: 1, bytes: 64, trace: 0, span: 0 });
            rec.record(
                2,
                EventKind::MessageDelivered { from: 0, to: 1, bytes: 64, trace: 0, span: 0 },
            );
            rec.count_node(3, Counter::WalAppends, 2);
            rec.sample(1_000, crate::TsMetric::StalenessVersions, 2);
        }
        for rec in [&shared, &cell_b] {
            rec.record(
                4,
                EventKind::QuorumWait {
                    node: 1,
                    kind: QuorumKind::Write,
                    waited_us: 99,
                    acks: 2,
                    needed: 2,
                },
            );
            rec.count_node(0, Counter::TxnCommits, 1);
            rec.sample(150_000, crate::TsMetric::StalenessVersions, 5);
            rec.sample(150_000, crate::TsMetric::InflightDepth, 3);
        }
        let folded = Recorder::enabled();
        folded.absorb(&cell_a);
        folded.absorb(&cell_b);
        assert_eq!(folded.report(), shared.report());
        // Fold order does not matter.
        let folded_rev = Recorder::enabled();
        folded_rev.absorb(&cell_b);
        folded_rev.absorb(&cell_a);
        assert_eq!(folded_rev.report(), shared.report());
    }

    #[test]
    fn absorb_is_inert_when_either_side_is_disabled() {
        let on = Recorder::enabled();
        on.count_node(0, Counter::TxnCommits, 3);
        let off = Recorder::disabled();
        off.absorb(&on); // no panic, still disabled
        assert_eq!(off.report(), MetricsReport::default());
        on.absorb(&off);
        on.absorb(&on.clone()); // same core: must not deadlock or double
        assert_eq!(on.report().counter(Counter::TxnCommits), 3);
    }

    #[test]
    fn profiling_is_opt_in_and_absorbs_across_recorders() {
        use crate::prof::{HandlerKind, ProfSample, NO_VARIANT};
        let sample = ProfSample { wall_ns: 10, alloc_bytes: 128, alloc_count: 4 };

        // Off by default: prof_record is inert.
        let plain = Recorder::enabled();
        plain.prof_record("replica", HandlerKind::Message, "Put", sample);
        assert!(!plain.profiling_enabled());
        assert!(plain.report().profile.is_none());
        assert_eq!(plain.report().counter(Counter::HandlerInvocations), 0);

        // Two profiled cells folded equal one shared profiled recorder.
        let shared = Recorder::enabled();
        shared.enable_profiling();
        let cell_a = Recorder::enabled();
        cell_a.enable_profiling();
        let cell_b = Recorder::enabled();
        cell_b.enable_profiling();
        for rec in [&shared, &cell_a] {
            rec.set_profile_scheme("paxos");
            rec.prof_record("replica", HandlerKind::Message, "Put", sample);
        }
        for rec in [&shared, &cell_b] {
            rec.set_profile_scheme("causal");
            rec.prof_record("client", HandlerKind::Timer, NO_VARIANT, sample);
        }
        let folded = Recorder::enabled();
        folded.absorb(&cell_a);
        folded.absorb(&cell_b);
        assert_eq!(folded.report(), shared.report());
        let profile = folded.report().profile.expect("profile absorbed");
        assert_eq!(profile.total_invocations(), 2);
        assert_eq!(folded.report().counter(Counter::HandlerInvocations), 2);
        assert_eq!(folded.report().counter(Counter::AllocBytes), 256);
        // Absorbing a profiled cell into an unprofiled aggregate turns
        // profiling on there (the grid path relies on this).
        assert!(folded.profiling_enabled());
    }

    #[test]
    fn event_cap_drops_are_counted() {
        let rec = Recorder::with_event_log();
        rec.set_event_cap(2);
        for i in 0..5 {
            rec.record(i, EventKind::Crash { node: 0 });
        }
        let report = rec.report();
        assert_eq!(report.events_recorded, 5);
        assert_eq!(report.events_dropped, 3);
        assert_eq!(rec.export_jsonl().lines().count(), 2);
        // Counters still see every event.
        assert_eq!(report.counter(Counter::Crashes), 5);
    }

    fn completion(op: u64) -> OpCompletion {
        OpCompletion {
            session: 1,
            op,
            key: 7,
            kind: crate::ClientOpKind::Read,
            ok: true,
            invoked_us: 0,
            replica: 2,
            value: None,
            values: vec![op],
            stamp: None,
            version_ts_us: None,
        }
    }

    /// The payload is built only for a log that keeps it, and the event
    /// takes its sequence number in every mode, so `events_recorded` and
    /// every `seq` are what a plain `record` would have made them.
    #[test]
    fn op_complete_payloads_are_built_only_for_a_log_that_keeps_them() {
        let unbuilt = || -> OpCompletion { panic!("payload built for a recorder that drops it") };
        for rec in [Recorder::disabled(), Recorder::enabled()] {
            rec.record(0, EventKind::Crash { node: 0 });
            rec.record_op_complete(1, unbuilt);
            rec.record(2, EventKind::Recover { node: 0 });
            assert_eq!(rec.report().events_recorded, if rec.is_enabled() { 3 } else { 0 });
            assert_eq!(rec.report().events_dropped, 0);
        }

        let rec = Recorder::with_event_log();
        rec.set_event_cap(3);
        rec.record(0, EventKind::Crash { node: 0 });
        rec.record_op_complete(1, || completion(1));
        rec.record(2, EventKind::Recover { node: 0 });
        // At the cap: counted, never built.
        rec.record_op_complete(3, unbuilt);
        let report = rec.report();
        assert_eq!((report.events_recorded, report.events_dropped), (4, 1));
        let events = crate::parse_jsonl(&rec.export_jsonl()).unwrap();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(events[1].kind, EventKind::OpComplete(Box::new(completion(1))));
        // It implies no counter: the crash and the recovery are all there is.
        assert_eq!(report.counters.iter().map(|(_, v)| v).sum::<u64>(), 2);
    }

    #[test]
    fn write_jsonl_streams_the_bytes_of_export_jsonl() {
        let rec = Recorder::with_event_log();
        for i in 0..300 {
            rec.record(i, EventKind::Crash { node: i });
            rec.record(i, EventKind::PartitionStart { island: vec![i, i + 1] });
            let name = if i % 2 == 0 { "op_read" } else { "we\"ird\\st\nep" };
            rec.record(i, EventKind::SpanOpen { trace: i, span: i, parent: 0, node: 0, name });
        }
        let dir = std::env::temp_dir();
        let path = dir.join(format!("obs_write_jsonl_{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(written, rec.export_jsonl().into_bytes());
        assert_eq!(written.iter().filter(|&&b| b == b'\n').count(), 900);

        // A recorder without a log still leaves a file, an empty one.
        Recorder::enabled().write_jsonl(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_file(&path).unwrap();
        // And a path that cannot be created is an error, not a panic.
        assert!(rec.write_jsonl(&dir.join("no_such_dir").join("x.jsonl")).is_err());
    }
}
