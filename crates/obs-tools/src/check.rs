//! Span conservation checks.
//!
//! The recorder guarantees (and the determinism tests rely on) a set of
//! structural invariants over span events — chiefly the conservation
//! identity `spans_opened == spans_closed`, with `abandoned` closes
//! marking spans cut short by the horizon, a crash, or a leader
//! demotion. This module re-verifies those invariants offline on a
//! parsed trace, so a truncated or hand-edited file fails loudly
//! (`tracequery check` exits non-zero).

use obs::{EventKind, SpanStatus, TracedEvent};
use simnet::{IdHashMap, IdHashSet};
use std::fmt;

/// Outcome of [`check_spans`] over one trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Events examined.
    pub events: usize,
    /// Distinct traces seen in span events.
    pub traces: usize,
    /// Spans opened.
    pub opened: u64,
    /// Spans closed (any status).
    pub closed: u64,
    /// Spans closed with status `abandoned` (subset of `closed`).
    pub abandoned: u64,
    /// Invariant violations, in detection order; the spans never closed
    /// come last, by ascending span id. Empty means the trace is
    /// well-formed.
    pub errors: Vec<String>,
}

impl CheckReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} event(s), {} trace(s): {} span(s) opened, {} closed ({} abandoned)",
            self.events, self.traces, self.opened, self.closed, self.abandoned
        )?;
        for e in &self.errors {
            writeln!(f, "ERROR: {e}")?;
        }
        write!(f, "{}", if self.ok() { "span conservation: OK" } else { "span conservation: FAIL" })
    }
}

/// State of one span while scanning the log.
struct Open {
    trace: u64,
    t_us: u64,
    closed: bool,
}

/// Verify the span invariants over an event log:
///
/// 1. span ids are unique — no second `span_open` for an id;
/// 2. every `span_close` matches a prior `span_open` with the same
///    trace, at the same or a later time;
/// 3. no span closes twice;
/// 4. a non-root span's parent opened earlier in the same trace;
/// 5. every opened span is closed by end of log (the recorder closes
///    survivors as `abandoned` at teardown, so an unclosed span means a
///    truncated or corrupted file).
pub fn check_spans(events: &[TracedEvent]) -> CheckReport {
    let mut report = CheckReport { events: events.len(), ..CheckReport::default() };
    let mut open: IdHashMap<u64, Open> = IdHashMap::default();
    let mut traces: IdHashSet<u64> = IdHashSet::default();
    for ev in events {
        match &ev.kind {
            EventKind::SpanOpen { trace, span, parent, .. } => {
                report.opened += 1;
                traces.insert(*trace);
                if *trace == 0 || *span == 0 {
                    report.errors.push(format!(
                        "span_open seq={} uses reserved id 0 (trace={trace}, span={span})",
                        ev.seq
                    ));
                }
                if *parent != 0 {
                    match open.get(parent) {
                        None => report.errors.push(format!(
                            "span {span} (seq={}) opened under unknown parent {parent}",
                            ev.seq
                        )),
                        Some(p) if p.trace != *trace => report.errors.push(format!(
                            "span {span} of trace {trace} has parent {parent} in trace {}",
                            p.trace
                        )),
                        Some(_) => {}
                    }
                }
                if open
                    .insert(*span, Open { trace: *trace, t_us: ev.t_us, closed: false })
                    .is_some()
                {
                    report.errors.push(format!("span {span} opened twice (seq={})", ev.seq));
                }
            }
            EventKind::SpanClose { trace, span, status, .. } => {
                report.closed += 1;
                if *status == SpanStatus::Abandoned {
                    report.abandoned += 1;
                }
                match open.get_mut(span) {
                    None => report
                        .errors
                        .push(format!("span {span} closed (seq={}) but never opened", ev.seq)),
                    Some(o) => {
                        if o.closed {
                            report
                                .errors
                                .push(format!("span {span} closed twice (seq={})", ev.seq));
                        }
                        if o.trace != *trace {
                            report.errors.push(format!(
                                "span {span} closed under trace {trace} but opened under {}",
                                o.trace
                            ));
                        }
                        if ev.t_us < o.t_us {
                            report.errors.push(format!(
                                "span {span} closes at {}µs before it opens at {}µs",
                                ev.t_us, o.t_us
                            ));
                        }
                        o.closed = true;
                    }
                }
            }
            _ => {}
        }
    }
    // The table is unordered: sort what is left open by span id.
    let mut unclosed: Vec<(u64, &Open)> =
        open.iter().filter(|(_, o)| !o.closed).map(|(&span, o)| (span, o)).collect();
    unclosed.sort_unstable_by_key(|&(span, _)| span);
    for (span, o) in unclosed {
        report.errors.push(format!(
            "span {span} (trace {}) opened at {}µs and never closed",
            o.trace, o.t_us
        ));
    }
    report.traces = traces.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ev(seq: u64, t_us: u64, kind: EventKind) -> TracedEvent {
        TracedEvent { seq, t_us, kind }
    }

    #[test]
    fn well_formed_trace_passes() {
        let events = vec![
            ev(0, 10, EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "op" }),
            ev(1, 20, EventKind::SpanOpen { trace: 1, span: 2, parent: 1, node: 1, name: "hop" }),
            ev(2, 30, EventKind::SpanClose { trace: 1, span: 2, node: 1, status: SpanStatus::Ok }),
            ev(
                3,
                40,
                EventKind::SpanClose { trace: 1, span: 1, node: 0, status: SpanStatus::Abandoned },
            ),
        ];
        let report = check_spans(&events);
        assert!(report.ok(), "{report}");
        assert_eq!((report.opened, report.closed, report.abandoned), (2, 2, 1));
        assert_eq!(report.traces, 1);
        assert!(report.to_string().contains("OK"));
    }

    #[test]
    fn detects_each_violation_kind() {
        // Unclosed span.
        let events = vec![ev(
            0,
            10,
            EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "x" },
        )];
        assert!(check_spans(&events).errors[0].contains("never closed"));

        // Close without open.
        let events = vec![ev(
            0,
            10,
            EventKind::SpanClose { trace: 1, span: 9, node: 0, status: SpanStatus::Ok },
        )];
        assert!(check_spans(&events).errors[0].contains("never opened"));

        // Double close.
        let events = vec![
            ev(0, 10, EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "x" }),
            ev(1, 20, EventKind::SpanClose { trace: 1, span: 1, node: 0, status: SpanStatus::Ok }),
            ev(2, 30, EventKind::SpanClose { trace: 1, span: 1, node: 0, status: SpanStatus::Ok }),
        ];
        assert!(check_spans(&events).errors[0].contains("closed twice"));

        // Unknown parent.
        let events = vec![ev(
            0,
            10,
            EventKind::SpanOpen { trace: 1, span: 2, parent: 7, node: 0, name: "x" },
        )];
        assert!(check_spans(&events).errors[0].contains("unknown parent"));

        // Trace mismatch between open and close.
        let events = vec![
            ev(0, 10, EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "x" }),
            ev(1, 20, EventKind::SpanClose { trace: 2, span: 1, node: 0, status: SpanStatus::Ok }),
        ];
        assert!(check_spans(&events).errors[0].contains("trace 2"));
    }

    #[test]
    fn unclosed_spans_are_reported_by_ascending_id_whatever_the_table_order() {
        const SPANS: u64 = 2_000;
        let open = |seq, span, t_us| TracedEvent {
            seq,
            t_us,
            kind: EventKind::SpanOpen { trace: span % 13 + 1, span, parent: 0, node: 0, name: "x" },
        };
        let close = |seq, span, t_us| TracedEvent {
            seq,
            t_us,
            kind: EventKind::SpanClose {
                trace: span % 13 + 1,
                span,
                node: 0,
                status: SpanStatus::Ok,
            },
        };
        // Span ids 1..=2000 opened in a scrambled order (7 919 is prime,
        // so `i · 7 919 mod 2 000` visits every residue once).
        let id = |i: u64| (i * 7_919) % SPANS + 1;
        let mut events: Vec<TracedEvent> = (0..SPANS).map(|i| open(i, id(i), 10 * i)).collect();
        let (reopened, closed) = (id(5), id(9));
        events.push(open(SPANS, reopened, 30_000));
        events.push(close(SPANS + 1, closed, 30_000));
        events.push(close(SPANS + 2, closed, 30_010));

        // What an ordered table reports: a reopened span keeps its
        // second opening, a closed one is not reported.
        let mut reference: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for ev in &events {
            match ev.kind {
                EventKind::SpanOpen { trace, span, .. } => {
                    reference.insert(span, (trace, ev.t_us));
                }
                EventKind::SpanClose { span, .. } => {
                    reference.remove(&span);
                }
                _ => {}
            }
        }
        let never_closed: Vec<String> = reference
            .iter()
            .map(|(span, (trace, t_us))| {
                format!("span {span} (trace {trace}) opened at {t_us}µs and never closed")
            })
            .collect();
        assert_eq!(never_closed.len(), SPANS as usize - 1);

        let report = check_spans(&events);
        assert_eq!(report.traces, 13);
        assert_eq!(
            report.errors[..2],
            [
                format!("span {reopened} opened twice (seq={SPANS})"),
                format!("span {closed} closed twice (seq={})", SPANS + 2),
            ]
        );
        assert_eq!(report.errors[2..], never_closed[..]);
    }
}
