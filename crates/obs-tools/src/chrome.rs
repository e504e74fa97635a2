//! Export a parsed trace as Chrome `trace_event` JSON.
//!
//! The output loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: each span becomes a complete (`"ph":"X"`) event
//! with its virtual-time bounds, grouped by trace (`pid`) and node
//! (`tid`), so one operation renders as one process row with its hops
//! as nested slices. Faults (crashes, recoveries, partitions) become
//! global instant events so anomalous spans can be eyeballed against
//! the fault timeline.

use consistency::all_spans;
use obs::{EventKind, TracedEvent};
use serde::Value;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_val(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Convert an event log to a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`). Timestamps are
/// virtual microseconds, which is exactly the unit `trace_event`
/// expects in `ts`/`dur`.
pub fn chrome_trace(events: &[TracedEvent]) -> String {
    let mut out: Vec<Value> = Vec::new();
    for s in all_spans(events) {
        let args = obj(vec![
            ("span", Value::U64(s.span)),
            ("parent", Value::U64(s.parent)),
            ("status", str_val(s.status.as_deref().unwrap_or("open"))),
        ]);
        let mut fields = vec![
            ("name", str_val(&s.name)),
            ("cat", str_val("span")),
            ("pid", Value::U64(s.trace)),
            ("tid", Value::U64(s.node)),
            ("ts", Value::U64(s.open_t_us)),
        ];
        match s.close_t_us.and_then(|close| close.checked_sub(s.open_t_us)) {
            // A closed span is one complete slice.
            Some(dur) => {
                fields.push(("ph", str_val("X")));
                fields.push(("dur", Value::U64(dur)));
            }
            // An unclosed span (truncated log) renders as a begin event
            // with no end; viewers draw it to the end of the timeline.
            // So does one whose close is stamped before its open
            // (reordered or hand-edited lines): it has no duration.
            None => fields.push(("ph", str_val("B"))),
        }
        fields.push(("args", args));
        out.push(obj(fields));
    }
    for ev in events {
        let node = match &ev.kind {
            EventKind::Crash { node } | EventKind::Recover { node } => *node,
            EventKind::PartitionStart { .. } | EventKind::PartitionHeal => 0,
            _ => continue,
        };
        out.push(obj(vec![
            ("name", str_val(ev.kind.type_name())),
            ("cat", str_val("fault")),
            ("ph", str_val("i")),
            // Global scope: the instant line spans every row.
            ("s", str_val("g")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(node)),
            ("ts", Value::U64(ev.t_us)),
        ]));
    }
    obj(vec![("traceEvents", Value::Array(out)), ("displayTimeUnit", str_val("ms"))]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::SpanStatus;

    #[test]
    fn exports_complete_slices_and_fault_instants() {
        let events = vec![
            TracedEvent {
                seq: 0,
                t_us: 100,
                kind: EventKind::SpanOpen { trace: 3, span: 1, parent: 0, node: 2, name: "op" },
            },
            TracedEvent {
                seq: 1,
                t_us: 400,
                kind: EventKind::SpanClose { trace: 3, span: 1, node: 2, status: SpanStatus::Ok },
            },
            TracedEvent { seq: 2, t_us: 250, kind: EventKind::Crash { node: 1 } },
        ];
        let json = chrome_trace(&events);
        // The document must itself be valid JSON with the expected shape.
        let doc = serde_json::parse_value(&json).unwrap();
        let traced = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(traced.len(), 2);
        let slice = &traced[0];
        assert_eq!(slice.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(slice.get("ts").and_then(Value::as_u64), Some(100));
        assert_eq!(slice.get("dur").and_then(Value::as_u64), Some(300));
        assert_eq!(slice.get("pid").and_then(Value::as_u64), Some(3));
        let inst = &traced[1];
        assert_eq!(inst.get("ph").and_then(Value::as_str), Some("i"));
        assert_eq!(inst.get("cat").and_then(Value::as_str), Some("fault"));
    }

    /// A close stamped before its open (reordered or hand-edited lines)
    /// is no slice with a 2^64 µs `dur`, and no overflow panic.
    #[test]
    fn a_span_that_closes_before_it_opens_becomes_a_begin_event() {
        let events = vec![
            TracedEvent {
                seq: 0,
                t_us: 400,
                kind: EventKind::SpanOpen { trace: 3, span: 1, parent: 0, node: 2, name: "op" },
            },
            TracedEvent {
                seq: 1,
                t_us: 100,
                kind: EventKind::SpanClose { trace: 3, span: 1, node: 2, status: SpanStatus::Ok },
            },
        ];
        let doc = serde_json::parse_value(&chrome_trace(&events)).unwrap();
        let traced = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].get("ph").and_then(Value::as_str), Some("B"));
        assert_eq!(traced[0].get("ts").and_then(Value::as_u64), Some(400));
        assert!(traced[0].get("dur").is_none());
        let status = traced[0].get("args").and_then(|a| a.get("status"));
        assert_eq!(status.and_then(Value::as_str), Some("ok"));
    }

    #[test]
    fn unclosed_span_becomes_begin_event() {
        let events = vec![TracedEvent {
            seq: 0,
            t_us: 5,
            kind: EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "op" },
        }];
        let doc = serde_json::parse_value(&chrome_trace(&events)).unwrap();
        let traced = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(traced[0].get("ph").and_then(Value::as_str), Some("B"));
        assert!(traced[0].get("dur").is_none());
    }
}
