//! Parse a JSONL trace file back into [`obs::TracedEvent`] values.
//!
//! The encoder ([`obs::TracedEvent::write_json_line`]) writes one JSON
//! object per line with a fixed field order; the parser here accepts
//! any field order (it reads by name) but insists on the documented
//! field *set* per event type, so a malformed or truncated trace fails
//! loudly instead of silently skewing analysis.
//!
//! No tree is built on the way. One pass of `serde_json`'s lexer
//! ([`serde_json::visit_fields`]) validates the line and lays its
//! fields, borrowed from the line, into a fixed-size view; `parse_kind`
//! then asks the view for each field by name. A line an encoder wrote is
//! parsed without touching the heap, apart from the `Vec` of a non-empty
//! `values` or `island` (`tests/trace_codec_allocs.rs` counts); so is
//! any other line without an escaped string and with no more than 14
//! fields, and the rest take the same path and allocate what they need.
//! There is one path: nothing selects between a fast and a careful one.
//!
//! The decode contract (stated in `docs/METRICS.md`, pinned by
//! `tests/trace_codec.rs` against the tree-building parser this
//! replaced, which lives on as `tests/oracle/trace_parse.rs`): fields in
//! any order, with any JSON whitespace between tokens; unknown fields
//! validated and ignored, whatever they hold; of a key that occurs twice
//! the first occurrence counts; an optional field is `Some` exactly when
//! its key is present; an integer is a run of digits that fits `u64`
//! (leading zeros and `-0` allowed, fractions and exponents not). Span
//! names are interned — a `span_open` holds a `&'static str` — in a
//! table of at most [`MAX_SPAN_NAMES`] names a process.

use obs::{ClientOpKind, DropReason, EventKind, QuorumKind, SpanStatus, TracedEvent};
use serde_json::{Field, RawArray};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// A trace line that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Distinct span names one process will intern. A run has about twenty;
/// a log with more than this many is corrupt or hostile, and parsing it
/// is an error rather than an unbounded leak.
pub const MAX_SPAN_NAMES: usize = 4096;

/// Intern a step name so the parsed log can share
/// [`obs::EventKind::SpanOpen`]'s `&'static str` field with in-process
/// recording. The name set of a run is small and static, so each unique
/// name leaks exactly once for the life of the process, and no more
/// than [`MAX_SPAN_NAMES`] of them ever do.
fn intern(name: &str) -> Result<&'static str, String> {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // A panic cannot leave the set half-updated: `insert` is its only
    // mutation.
    let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&s) = set.get(name) {
        return Ok(s);
    }
    if set.len() >= MAX_SPAN_NAMES {
        return Err(format!(
            "more than {MAX_SPAN_NAMES} distinct span names (the table is shared by every \
             log this process parses)"
        ));
    }
    let leaked: &'static str = Box::leak(name.into());
    set.insert(leaked);
    Ok(leaked)
}

/// The span names of the document being parsed, so that [`intern`]'s
/// process-wide lock is taken once per distinct name and not once per
/// `span_open`. Sorted by length, then by text: most probes of the
/// search are settled by the lengths alone.
#[derive(Default)]
struct DocumentNames(Vec<&'static str>);

impl DocumentNames {
    fn resolve(&mut self, name: &str) -> Result<&'static str, String> {
        match self.0.binary_search_by_key(&(name.len(), name), |known| (known.len(), known)) {
            Ok(at) => Ok(self.0[at]),
            Err(at) => {
                let interned = intern(name)?;
                self.0.insert(at, interned);
                Ok(interned)
            }
        }
    }
}

/// Fields of the longest line the encoder writes: an `op_complete` with
/// every optional present.
const INLINE_FIELDS: usize = 14;

type Entry<'a> = (Cow<'a, str>, Field<'a>);

/// A key's length and its first and last byte in one word. Keys that
/// differ here differ, so a lookup compares words and calls the string
/// comparison on the entry it is about to return and hardly ever on
/// another (no two field names of one event type share a tag).
fn tag(key: &str) -> u32 {
    let bytes = key.as_bytes();
    let ends = bytes.first().zip(bytes.last());
    let ends = ends.map_or(0, |(&first, &last)| u32::from(first) << 8 | u32::from(last));
    (bytes.len() as u32) << 16 | ends
}

/// The fields of one line in input order, borrowed from it, for lookup
/// by name. The first [`INLINE_FIELDS`] live in the struct; a line with
/// more (unknown or repeated ones, then) spills the rest to the heap
/// rather than dropping them. Made once per document and refilled per
/// line, so a line costs neither its set-up nor its tear-down.
struct Line<'a> {
    inline: [Entry<'a>; INLINE_FIELDS],
    /// [`tag`] of each key in `inline`.
    tags: [u32; INLINE_FIELDS],
    len: usize,
    spill: Vec<Entry<'a>>,
}

impl<'a> Line<'a> {
    fn new() -> Self {
        Line {
            inline: std::array::from_fn(|_| (Cow::Borrowed(""), Field::Object)),
            tags: [0; INLINE_FIELDS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Validate `text` as JSON and hold the fields of its object (a
    /// document that is not an object has none) in place of the last
    /// line's.
    fn scan(&mut self, text: &'a str) -> Result<(), serde_json::Error> {
        self.len = 0;
        self.spill.clear();
        serde_json::visit_fields(text, |key, value| match self.inline.get_mut(self.len) {
            Some(slot) => {
                self.tags[self.len] = tag(&key);
                *slot = (key, value);
                self.len += 1;
            }
            None => self.spill.push((key, value)),
        })
    }

    /// The first field called `name`. Inlined, with the `*_field`
    /// functions between it and [`parse_kind`], because every `name` is a
    /// literal there: its tag folds to a constant and the comparison to
    /// one of a fixed width.
    #[inline(always)]
    fn get(&self, name: &str) -> Option<&Field<'a>> {
        let wanted = tag(name);
        for (at, &tag) in self.tags[..self.len].iter().enumerate() {
            if tag == wanted && self.inline[at].0 == name {
                return Some(&self.inline[at].1);
            }
        }
        self.spill.iter().find(|(key, _)| key == name).map(|(_, value)| value)
    }
}

#[inline(always)]
fn u64_field(v: &Line, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Field::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{name}`"))
}

#[inline(always)]
fn str_field<'a>(v: &'a Line, name: &str) -> Result<&'a str, String> {
    v.get(name)
        .and_then(Field::as_str)
        .ok_or_else(|| format!("missing or non-string field `{name}`"))
}

#[inline(always)]
fn bool_field(v: &Line, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(Field::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field `{name}`"))
}

/// An optional integer field: absent is `None`, present-but-malformed
/// is an error (a half-written trace must not silently degrade).
#[inline(always)]
fn opt_u64_field(v: &Line, name: &str) -> Result<Option<u64>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(f) => f.as_u64().map(Some).ok_or_else(|| format!("non-integer field `{name}`")),
    }
}

/// The array field `name`, validated but not yet decoded.
fn array_field<'a>(v: &Line<'a>, name: &str) -> Result<RawArray<'a>, String> {
    v.get(name)
        .and_then(Field::as_array)
        .ok_or_else(|| format!("missing or non-array field `{name}`"))
}

/// The elements of array field `name`, in one `Vec` of exactly their
/// number (so none for an empty array); `element` is what the error
/// calls one that is not an integer.
fn u64_array_field(v: &Line, name: &str, element: &str) -> Result<Vec<u64>, String> {
    let array = array_field(v, name)?;
    let mut out = Vec::with_capacity(array.len());
    for item in array.u64s() {
        out.push(item.ok_or_else(|| format!("non-integer {element} in `{name}`"))?);
    }
    Ok(out)
}

/// The optional `stamp` pair, decoded straight into its tuple.
fn stamp_field(v: &Line) -> Result<Option<(u64, u64)>, String> {
    if v.get("stamp").is_none() {
        return Ok(None);
    }
    let mut pair = [0; 2];
    let mut len = 0;
    for item in array_field(v, "stamp")?.u64s() {
        let item = item.ok_or("non-integer element in `stamp`")?;
        if let Some(slot) = pair.get_mut(len) {
            *slot = item;
        }
        len += 1;
    }
    match len {
        2 => Ok(Some((pair[0], pair[1]))),
        _ => Err("`stamp` must be a [counter, actor] pair".to_string()),
    }
}

/// `names` turns a span name into the `&'static str` the event holds.
fn parse_kind(
    v: &Line,
    names: &mut impl FnMut(&str) -> Result<&'static str, String>,
) -> Result<EventKind, String> {
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
        "partition_start" => {
            EventKind::PartitionStart { island: u64_array_field(v, "island", "node")? }
        }
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
            name: names(str_field(v, "name")?)?,
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
        "op_complete" => EventKind::OpComplete {
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
            replica: u64_field(v, "replica")?,
            // The encoder omits absent optionals entirely, so presence
            // is the Some/None signal (a present-but-malformed field is
            // still an error).
            value: opt_u64_field(v, "value")?,
            values: u64_array_field(v, "values", "element")?,
            stamp: stamp_field(v)?,
            version_ts_us: opt_u64_field(v, "version_ts_us")?,
        },
        other => return Err(format!("unknown event type `{other}`")),
    };
    Ok(kind)
}

/// Parse `text` through `v`, whatever `v` held before.
fn parse_line_with<'a>(
    v: &mut Line<'a>,
    text: &'a str,
    line_no: usize,
    names: &mut impl FnMut(&str) -> Result<&'static str, String>,
) -> Result<TracedEvent, ParseError> {
    let err = |message: String| ParseError { line: line_no, message };
    v.scan(text).map_err(|e| err(e.to_string()))?;
    Ok(TracedEvent {
        seq: u64_field(v, "seq").map_err(&err)?,
        t_us: u64_field(v, "t_us").map_err(&err)?,
        kind: parse_kind(v, names).map_err(&err)?,
    })
}

/// Parse one JSONL line (1-based `line_no` is only used for errors).
pub fn parse_line(text: &str, line_no: usize) -> Result<TracedEvent, ParseError> {
    parse_line_with(&mut Line::new(), text, line_no, &mut intern)
}

/// Parse a whole JSONL document (blank lines ignored) into the event
/// sequence, preserving file order.
pub fn parse_jsonl(text: &str) -> Result<Vec<TracedEvent>, ParseError> {
    let mut fields = Line::new();
    let mut names = DocumentNames::default();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line_with(&mut fields, line, i + 1, &mut |name| names.resolve(name))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event kind must survive an encode → parse round-trip.
    #[test]
    fn round_trips_every_event_kind() {
        let kinds = vec![
            EventKind::MessageSent { from: 0, to: 1, bytes: 8, trace: 3, span: 4 },
            EventKind::MessageDelivered { from: 0, to: 1, bytes: 8, trace: 0, span: 0 },
            EventKind::MessageDropped {
                from: 2,
                to: 1,
                reason: DropReason::Partition,
                trace: 5,
                span: 6,
            },
            EventKind::AntiEntropyRound { node: 1, fanout: 2 },
            EventKind::QuorumWait {
                node: 0,
                kind: QuorumKind::Write,
                waited_us: 900,
                acks: 2,
                needed: 2,
            },
            EventKind::ConflictDetected { node: 0, key: 7, siblings: 2 },
            EventKind::ConflictResolved { node: 0, key: 7, survivors: 1 },
            EventKind::WalAppend { node: 0, key: 7, bytes: 16 },
            EventKind::PartitionStart { island: vec![0, 2] },
            EventKind::PartitionHeal,
            EventKind::Crash { node: 2 },
            EventKind::Recover { node: 2 },
            EventKind::WalReplay { node: 2, records: 5 },
            EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" },
            // A name nobody should write, and that must come back all the
            // same: quote, backslash, control characters, non-ASCII.
            EventKind::SpanOpen {
                trace: 1,
                span: 3,
                parent: 2,
                node: 3,
                name: "we\"ird\\st\nep\u{1}\u{e9}",
            },
            EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Abandoned },
            EventKind::MembershipChange { node: 4, join: true },
            EventKind::OpComplete {
                session: 2,
                op: 17,
                key: 7,
                kind: ClientOpKind::Read,
                ok: true,
                invoked_us: 1_000,
                replica: 1,
                value: None,
                values: vec![3, 9],
                stamp: Some((9, 1)),
                version_ts_us: Some(950),
            },
            EventKind::OpComplete {
                session: 0,
                op: 3,
                key: 1,
                kind: ClientOpKind::Write,
                ok: false,
                invoked_us: 2_000,
                replica: 0,
                value: Some(5),
                values: vec![],
                stamp: None,
                version_ts_us: None,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = TracedEvent { seq: i as u64, t_us: 10 * i as u64, kind };
            let parsed = parse_line(&ev.to_json_line(), 1).expect("round-trip parse");
            assert_eq!(parsed, ev);
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("not json", 1).is_err());
        assert!(parse_line(r#"{"seq":0,"t_us":0,"type":"no_such_event"}"#, 1).is_err());
        // span_open missing its `parent` field.
        let e = parse_line(
            r#"{"seq":0,"t_us":0,"type":"span_open","trace":1,"span":2,"node":0,"name":"x"}"#,
            7,
        )
        .unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("parent"));
    }

    #[test]
    fn parses_jsonl_documents_and_reports_line_numbers() {
        let doc = "\
{\"seq\":0,\"t_us\":0,\"type\":\"crash\",\"node\":1}\n\
\n\
{\"seq\":1,\"t_us\":5,\"type\":\"recover\",\"node\":1}\n";
        let events = parse_jsonl(doc).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, EventKind::Recover { node: 1 });

        let bad = "{\"seq\":0,\"t_us\":0,\"type\":\"crash\",\"node\":1}\n{broken\n";
        assert_eq!(parse_jsonl(bad).unwrap_err().line, 2);
    }

    #[test]
    fn reads_by_name_whatever_the_order_spacing_and_company() {
        let want = TracedEvent {
            seq: 7,
            t_us: 9,
            kind: EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "a\"b" },
        };
        let line = " {\t\"name\" : \"a\\u0022b\", \"later\": {\"seq\": [1, {\"x\": \"}\"}]}, \"node\":3,\r\n\
            \"parent\":0 ,\"span\":2,\"trace\":1,\"t\\u0079pe\":\"span_open\",\"t_us\":9,\
            \"seq\":7, \"seq\":\"not the first\", \"trace\":null } ";
        assert_eq!(parse_line(line, 1).unwrap(), want);
        // The first of two equal keys counts, also when it is the wrong one.
        let e =
            parse_line(r#"{"seq":"x","seq":7,"t_us":9,"type":"partition_heal"}"#, 4).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "missing or non-integer field `seq`"));
    }

    /// The view holds [`INLINE_FIELDS`] fields in place; the ones behind
    /// them are found all the same.
    #[test]
    fn a_line_with_more_fields_than_the_view_holds_is_not_cut_short() {
        let padding: String = (0..INLINE_FIELDS + 3).map(|i| format!("\"pad{i}\":{i},")).collect();
        let line = format!("{{{padding}\"type\":\"crash\",\"seq\":1,\"node\":5,\"t_us\":2}}");
        let want = TracedEvent { seq: 1, t_us: 2, kind: EventKind::Crash { node: 5 } };
        assert_eq!(parse_line(&line, 1).unwrap(), want);
        let missing = line.replace("\"node\":5,", "");
        assert_eq!(
            parse_line(&missing, 1).unwrap_err().message,
            "missing or non-integer field `node`"
        );
        // The next line of the document starts from an empty view.
        let doc = format!("{line}\n{{\"seq\":2,\"t_us\":3,\"type\":\"crash\"}}\n");
        let e = parse_jsonl(&doc).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "missing or non-integer field `node`"));
    }

    #[test]
    fn arrays_decode_lazily_and_exactly() {
        let op = |tail: &str| {
            format!(
                "{{\"seq\":0,\"t_us\":0,\"type\":\"op_complete\",\"session\":1,\"op\":2,\"key\":3,\
                 \"kind\":\"read\",\"ok\":true,\"invoked_us\":4,\"replica\":5,{tail}}}"
            )
        };
        let ok = parse_line(&op("\"values\":[ 1 , 007,-0 ],\"stamp\":[9,\n8]"), 1).unwrap();
        let EventKind::OpComplete { values, stamp, value, version_ts_us, .. } = ok.kind else {
            panic!("not an op_complete")
        };
        assert_eq!(
            (values, stamp, value, version_ts_us),
            (vec![1, 7, 0], Some((9, 8)), None, None)
        );
        for (tail, message) in [
            ("\"values\":[1,-1]", "non-integer element in `values`"),
            ("\"values\":[1,[2]]", "non-integer element in `values`"),
            ("\"values\":7", "missing or non-array field `values`"),
            ("\"value\":1", "missing or non-array field `values`"),
            ("\"values\":[],\"stamp\":[1]", "`stamp` must be a [counter, actor] pair"),
            ("\"values\":[],\"stamp\":[1,2,3]", "`stamp` must be a [counter, actor] pair"),
            ("\"values\":[],\"stamp\":[1,2,\"x\"]", "non-integer element in `stamp`"),
            ("\"values\":[],\"stamp\":null", "missing or non-array field `stamp`"),
            ("\"values\":[],\"version_ts_us\":1.5", "non-integer field `version_ts_us`"),
        ] {
            assert_eq!(parse_line(&op(tail), 3).unwrap_err().message, message, "{tail}");
        }
        let e = parse_line(r#"{"seq":0,"t_us":0,"type":"partition_start","island":[0,"1"]}"#, 1);
        assert_eq!(e.unwrap_err().message, "non-integer node in `island`");
    }
}
