//! The reference the trace decoder is held to: the parser `obs-tools`
//! shipped before its event-line decoder stopped building trees, kept
//! word for word. It asks `serde_json::parse_value` for the whole
//! [`Value`] tree of a line — a `String` per key, a `Vec` per array —
//! then finds every field by a linear `get`, and that is its point: it
//! shares nothing with `crates/obs-tools/src/parse.rs` above the JSON
//! lexer, neither the flat field reader nor the borrowed view nor the
//! lazy array decoding, so `tests/trace_codec.rs` can hold the two
//! against each other on what they accept, what they return and which
//! line they blame.
//!
//! Never compiled into a crate, and deliberately not kept in step with
//! the decoder's internals: only a change to the *wire format* (a new
//! event type or field) belongs here too. What differs from the
//! original is that errors and events are the decoder's own types, so
//! that agreement is one `assert_eq!`, and two deliberate divergences,
//! the rules the decoder made stricter on purpose. The original read
//! `replica` as any `u64` and the tool cast it to a `u32` node id, so
//! `4294967296` was checked as node 0; a node id past `u32::MAX` is now
//! an error naming the field ([`node_field`]). And the original took a
//! document's lines in any order of `seq`; now a line whose `seq`
//! repeats or goes back is an error naming both numbers, unless it is 0
//! and so starts the next run of a concatenated grid log
//! ([`parse_jsonl`]). Its intern table has no cap
//! (`obs_tools::parse::MAX_SPAN_NAMES` is the decoder's).

use rethinking_ec::obs::{
    ClientOpKind, DropReason, EventKind, OpCompletion, QuorumKind, SpanStatus, TracedEvent,
};
use rethinking_ec::obs_tools::ParseError;
use serde_json::Value;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Intern a step name so the parsed log can share
/// [`obs::EventKind::SpanOpen`]'s `&'static str` field with in-process
/// recording. The name set of a run is small and static, so each unique
/// name leaks exactly once for the life of the process.
fn intern(name: &str) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().unwrap();
    if let Some(&s) = set.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

fn u64_field(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{name}`"))
}

/// Deliberate divergence from the original (see the module header): a
/// node id must fit `u32`.
fn node_field(v: &Value, name: &str) -> Result<u32, String> {
    let id = u64_field(v, name)?;
    u32::try_from(id)
        .map_err(|_| format!("field `{name}` is {id}, past the largest node id {}", u32::MAX))
}

fn str_field<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    v.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field `{name}`"))
}

fn bool_field(v: &Value, name: &str) -> Result<bool, String> {
    match v.get(name) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field `{name}`")),
    }
}

/// An optional integer field: absent is `None`, present-but-malformed
/// is an error (a half-written trace must not silently degrade).
fn opt_u64_field(v: &Value, name: &str) -> Result<Option<u64>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(f) => f.as_u64().map(Some).ok_or_else(|| format!("non-integer field `{name}`")),
    }
}

fn u64_array_field(v: &Value, name: &str) -> Result<Vec<u64>, String> {
    v.get(name)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array field `{name}`"))?
        .iter()
        .map(|n| n.as_u64().ok_or_else(|| format!("non-integer element in `{name}`")))
        .collect()
}

fn parse_kind(v: &Value) -> Result<EventKind, String> {
    let ty = str_field(v, "type")?;
    let kind = match ty {
        "message_sent" => EventKind::MessageSent {
            from: u64_field(v, "from")?,
            to: u64_field(v, "to")?,
            bytes: u64_field(v, "bytes")?,
            trace: u64_field(v, "trace")?,
            span: u64_field(v, "span")?,
        },
        "message_delivered" => EventKind::MessageDelivered {
            from: u64_field(v, "from")?,
            to: u64_field(v, "to")?,
            bytes: u64_field(v, "bytes")?,
            trace: u64_field(v, "trace")?,
            span: u64_field(v, "span")?,
        },
        "message_dropped" => EventKind::MessageDropped {
            from: u64_field(v, "from")?,
            to: u64_field(v, "to")?,
            reason: match str_field(v, "reason")? {
                "partition" => DropReason::Partition,
                "loss" => DropReason::Loss,
                "crashed_destination" => DropReason::CrashedDestination,
                "shutdown" => DropReason::Shutdown,
                other => return Err(format!("unknown drop reason `{other}`")),
            },
            trace: u64_field(v, "trace")?,
            span: u64_field(v, "span")?,
        },
        "anti_entropy_round" => EventKind::AntiEntropyRound {
            node: u64_field(v, "node")?,
            fanout: u64_field(v, "fanout")?,
        },
        "quorum_wait" => EventKind::QuorumWait {
            node: u64_field(v, "node")?,
            kind: match str_field(v, "kind")? {
                "read" => QuorumKind::Read,
                "write" => QuorumKind::Write,
                other => return Err(format!("unknown quorum kind `{other}`")),
            },
            waited_us: u64_field(v, "waited_us")?,
            acks: u64_field(v, "acks")?,
            needed: u64_field(v, "needed")?,
        },
        "conflict_detected" => EventKind::ConflictDetected {
            node: u64_field(v, "node")?,
            key: u64_field(v, "key")?,
            siblings: u64_field(v, "siblings")?,
        },
        "conflict_resolved" => EventKind::ConflictResolved {
            node: u64_field(v, "node")?,
            key: u64_field(v, "key")?,
            survivors: u64_field(v, "survivors")?,
        },
        "wal_append" => EventKind::WalAppend {
            node: u64_field(v, "node")?,
            key: u64_field(v, "key")?,
            bytes: u64_field(v, "bytes")?,
        },
        "partition_start" => EventKind::PartitionStart {
            island: v
                .get("island")
                .and_then(Value::as_array)
                .ok_or("missing or non-array field `island`")?
                .iter()
                .map(|n| n.as_u64().ok_or("non-integer node in `island`".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "partition_heal" => EventKind::PartitionHeal,
        "crash" => EventKind::Crash { node: u64_field(v, "node")? },
        "recover" => EventKind::Recover { node: u64_field(v, "node")? },
        "membership_change" => EventKind::MembershipChange {
            node: u64_field(v, "node")?,
            join: bool_field(v, "join")?,
        },
        "wal_replay" => {
            EventKind::WalReplay { node: u64_field(v, "node")?, records: u64_field(v, "records")? }
        }
        "span_open" => EventKind::SpanOpen {
            trace: u64_field(v, "trace")?,
            span: u64_field(v, "span")?,
            parent: u64_field(v, "parent")?,
            node: u64_field(v, "node")?,
            name: intern(str_field(v, "name")?),
        },
        "span_close" => EventKind::SpanClose {
            trace: u64_field(v, "trace")?,
            span: u64_field(v, "span")?,
            node: u64_field(v, "node")?,
            status: match str_field(v, "status")? {
                "ok" => SpanStatus::Ok,
                "failed" => SpanStatus::Failed,
                "abandoned" => SpanStatus::Abandoned,
                other => return Err(format!("unknown span status `{other}`")),
            },
        },
        "op_complete" => EventKind::OpComplete(Box::new(OpCompletion {
            session: u64_field(v, "session")?,
            op: u64_field(v, "op")?,
            key: u64_field(v, "key")?,
            kind: match str_field(v, "kind")? {
                "read" => ClientOpKind::Read,
                "write" => ClientOpKind::Write,
                other => return Err(format!("unknown op kind `{other}`")),
            },
            ok: bool_field(v, "ok")?,
            invoked_us: u64_field(v, "invoked_us")?,
            replica: node_field(v, "replica")?,
            // The encoder omits absent optionals entirely, so presence
            // is the Some/None signal (a present-but-malformed field is
            // still an error).
            value: opt_u64_field(v, "value")?,
            values: u64_array_field(v, "values")?,
            stamp: match v.get("stamp") {
                None => None,
                Some(_) => {
                    let pair = u64_array_field(v, "stamp")?;
                    match pair[..] {
                        [ctr, actor] => Some((ctr, actor)),
                        _ => return Err("`stamp` must be a [counter, actor] pair".to_string()),
                    }
                }
            },
            version_ts_us: opt_u64_field(v, "version_ts_us")?,
        })),
        other => return Err(format!("unknown event type `{other}`")),
    };
    Ok(kind)
}

/// Parse one JSONL line (1-based `line_no` is only used for errors).
pub fn parse_line(text: &str, line_no: usize) -> Result<TracedEvent, ParseError> {
    let err = |message: String| ParseError { line: line_no, message };
    let v = serde_json::parse_value(text).map_err(|e| err(e.to_string()))?;
    Ok(TracedEvent {
        seq: u64_field(&v, "seq").map_err(&err)?,
        t_us: u64_field(&v, "t_us").map_err(&err)?,
        kind: parse_kind(&v).map_err(&err)?,
    })
}

/// Parse a whole JSONL document (blank lines ignored) into the event
/// sequence, preserving file order.
///
/// Deliberate divergence from the original (see the module header): an
/// event's `seq` must be above the one before it, or 0 — a run's events
/// are numbered upwards, with gaps where a capped log dropped some, and
/// a grid log is its cells' runs one after another, each from 0.
pub fn parse_jsonl(text: &str) -> Result<Vec<TracedEvent>, ParseError> {
    let mut events: Vec<TracedEvent> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_line(line, i + 1)?;
        if let Some(before) =
            events.last().filter(|before| event.seq != 0 && event.seq <= before.seq)
        {
            return Err(ParseError {
                line: i + 1,
                message: format!(
                    "`seq` {} after `seq` {}: a run's events are numbered in increasing order, \
                     and only 0 starts the next run",
                    event.seq, before.seq
                ),
            });
        }
        events.push(event);
    }
    Ok(events)
}
