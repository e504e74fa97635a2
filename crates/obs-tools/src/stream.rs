//! Streaming consistency checking over a JSONL event log.
//!
//! The recorder emits an `op_complete` event at the moment each client
//! operation finishes (its `t_us` *is* the completion time), so a trace
//! file — or a live pipe being appended to — can be checked online
//! without ever materializing the full operation trace. Each event is
//! converted back into the [`simnet::OpRecord`] the `consistency`
//! checkers consume and fed to a [`consistency::StreamVerifier`]; the
//! watermark advances with the event clock, so a bounded
//! [`consistency::StreamConfig::window`] keeps memory flat on
//! arbitrarily long logs.
//!
//! Events in a log are time-ordered but ops completing in the same
//! microsecond may be interleaved arbitrarily; [`StreamTraceChecker`]
//! buffers one timestamp's worth of records and sorts the tie group by
//! `(session, op_id)` before feeding, which restores the feed-order
//! contract's order (`OpTrace::sort_by_completion`) — the one the
//! whole-trace checkers fold a finished trace in.
//!
//! A checker judges one run's history. The log of a `--seeds`/`--jobs`
//! grid is several runs one after another, each from `seq` 0 on a clock
//! of its own, so `tracequery check --stream` starts a fresh checker at
//! each run.

use consistency::{StreamConfig, StreamReports, StreamVerifier};
use obs::{ClientOpKind, EventKind, TracedEvent};
use simnet::{NodeId, OpKind, OpRecord, SimTime};

/// Convert an `op_complete` event back into the operation record the
/// consistency checkers consume. Every other event kind yields `None`.
pub fn op_record(ev: &TracedEvent) -> Option<OpRecord> {
    let EventKind::OpComplete(op) = &ev.kind else {
        return None;
    };
    Some(OpRecord {
        session: op.session,
        op_id: op.op,
        key: op.key,
        kind: match op.kind {
            ClientOpKind::Read => OpKind::Read,
            ClientOpKind::Write => OpKind::Write,
        },
        value_written: op.value,
        value_read: op.values.clone(),
        invoked: SimTime::from_micros(op.invoked_us),
        completed: SimTime::from_micros(ev.t_us),
        replica: NodeId(op.replica),
        ok: op.ok,
        version_ts: op.version_ts_us.map(SimTime::from_micros),
        stamp: op.stamp,
    })
}

/// Incremental checker over a stream of [`TracedEvent`]s.
///
/// Feed events in log order with [`observe`](Self::observe); call
/// [`finish`](Self::finish) once the stream ends. Non-`op_complete`
/// events are ignored, so the whole log can be piped through without
/// pre-filtering.
pub struct StreamTraceChecker {
    verifier: StreamVerifier,
    /// Records for the current completion microsecond, held back until
    /// the clock advances so same-time ties can be sorted.
    pending: Vec<OpRecord>,
    ops: u64,
}

impl StreamTraceChecker {
    /// A checker with the given streaming configuration.
    pub fn new(config: StreamConfig) -> Self {
        StreamTraceChecker { verifier: StreamVerifier::new(config), pending: Vec::new(), ops: 0 }
    }

    /// Ingest one event; returns how many new violations it exposed.
    pub fn observe(&mut self, ev: &TracedEvent) -> usize {
        let Some(rec) = op_record(ev) else { return 0 };
        let mut found = 0;
        if self.pending.last().is_some_and(|p| p.completed != rec.completed) {
            found = self.flush();
        }
        self.pending.push(rec);
        self.ops += 1;
        found
    }

    /// Feed the buffered tie group in `(session, op_id)` order and
    /// advance the watermark to its completion time.
    fn flush(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let before = self.verifier.violations().len();
        self.pending.sort_by_key(|r| (r.session, r.op_id));
        self.verifier.feed_slice(&self.pending);
        self.pending.clear();
        self.verifier.violations().len() - before
    }

    /// Flush the tail, classify convergence, and return every report
    /// plus the number of operations checked.
    pub fn finish(mut self) -> (u64, StreamReports) {
        self.flush();
        (self.ops, self.verifier.finish())
    }
}

/// Render a finished streaming check as the plain-text summary
/// `tracequery check --stream` prints.
pub fn render_stream_report(ops: u64, reports: &StreamReports) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {ops} op(s): {} violation(s), {} event(s) evicted",
        reports.violations.len(),
        reports.events_evicted
    );
    let s = &reports.session;
    let _ = writeln!(
        out,
        "session:     ryw={}/{} mr={}/{} mw={}/{} wfr={}/{} (violations/checks)",
        s.ryw_violations,
        s.ryw_checked,
        s.mr_violations,
        s.mr_checked,
        s.mw_violations,
        s.mw_checked,
        s.wfr_violations,
        s.wfr_checked
    );
    let st = &reports.staleness;
    let _ = writeln!(
        out,
        "staleness:   {} stale read(s) of {} classifiable",
        st.stale_reads,
        st.fresh_reads + st.stale_reads
    );
    let _ = writeln!(out, "monotonic:   {} value regression(s)", reports.monotonic.violations);
    match &reports.convergence {
        Some(c) => {
            let _ =
                writeln!(out, "convergence: {} key(s) diverged after quiescence", c.diverged.len());
        }
        None => {
            let _ = writeln!(out, "convergence: n/a (no acknowledged write)");
        }
    }
    for v in &reports.violations {
        let _ = writeln!(
            out,
            "VIOLATION {} session={} op={} key={} t={}µs",
            v.kind.name(),
            v.session,
            v.op_id,
            v.key,
            v.t_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::OpCompletion;

    fn op_event(seq: u64, t_us: u64, session: u64, op: u64, kind: ClientOpKind) -> TracedEvent {
        TracedEvent {
            seq,
            t_us,
            kind: EventKind::OpComplete(Box::new(OpCompletion {
                session,
                op,
                key: 1,
                kind,
                ok: true,
                invoked_us: t_us.saturating_sub(100),
                replica: 0,
                value: match kind {
                    ClientOpKind::Write => Some(session * 1000 + op + 100),
                    ClientOpKind::Read => None,
                },
                values: match kind {
                    ClientOpKind::Write => vec![],
                    ClientOpKind::Read => vec![101],
                },
                stamp: Some((op + 1, 0)),
                version_ts_us: None,
            })),
        }
    }

    #[test]
    fn op_record_roundtrips_fields() {
        let ev = op_event(0, 5_000, 2, 7, ClientOpKind::Write);
        let rec = op_record(&ev).unwrap();
        assert_eq!(rec.session, 2);
        assert_eq!(rec.op_id, 7);
        assert_eq!(rec.completed, SimTime::from_micros(5_000));
        assert_eq!(rec.invoked, SimTime::from_micros(4_900));
        assert_eq!(rec.value_written, Some(2107));
        assert_eq!(rec.kind, OpKind::Write);
        let span = TracedEvent {
            seq: 1,
            t_us: 0,
            kind: EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "x" },
        };
        assert!(op_record(&span).is_none());
    }

    #[test]
    fn same_microsecond_ties_are_fed_in_session_order() {
        // Two ops complete in the same microsecond, logged in reverse
        // session order; a later event flushes the tie group sorted.
        let mut checker = StreamTraceChecker::new(StreamConfig::default());
        checker.observe(&op_event(0, 1_000, 2, 0, ClientOpKind::Write));
        checker.observe(&op_event(1, 1_000, 1, 0, ClientOpKind::Write));
        checker.observe(&op_event(2, 2_000, 1, 1, ClientOpKind::Read));
        let (ops, reports) = checker.finish();
        assert_eq!(ops, 3);
        let st = &reports.staleness;
        assert_eq!(st.fresh_reads + st.stale_reads + st.unclassified_reads, 1);
    }

    #[test]
    fn stale_free_log_reports_clean() {
        let mut checker = StreamTraceChecker::new(StreamConfig::default());
        // A write of value 101, then a read observing it.
        let w = op_event(0, 1_000, 1, 0, ClientOpKind::Write);
        let mut r = op_event(1, 2_000, 1, 1, ClientOpKind::Read);
        if let EventKind::OpComplete(op) = &mut r.kind {
            op.values = vec![100];
            op.value = None;
        }
        // Make the write's value match what the read observes.
        let mut w = w;
        if let EventKind::OpComplete(op) = &mut w.kind {
            op.value = Some(100);
            op.stamp = Some((1, 0));
        }
        checker.observe(&w);
        checker.observe(&r);
        let (ops, reports) = checker.finish();
        assert_eq!(ops, 2);
        assert_eq!(reports.staleness.stale_reads, 0);
        assert!(reports.violations.is_empty(), "{:?}", reports.violations);
        let text = render_stream_report(ops, &reports);
        assert!(text.contains("checked 2 op(s): 0 violation(s)"), "{text}");
    }
}
