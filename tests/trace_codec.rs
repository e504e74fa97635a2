//! Integration: the event-line codec, both directions, held to the
//! parser it replaced.
//!
//! `obs::TracedEvent::write_json_line` writes a line and
//! `obs_tools::parse_line` reads one without building a JSON tree. The
//! parser that did build one lives on as `tests/oracle/trace_parse.rs`,
//! and this suite holds the two against each other:
//!
//! * **round trip** — every `EventKind`, with fields drawn from
//!   `{0, 1, u64::MAX, random}`, every optional present and absent,
//!   arrays empty and not, names that need escaping;
//! * **differential** — encoder lines with their fields shuffled,
//!   whitespace between every token, unknown fields holding anything
//!   JSON can hold, duplicated keys and every spelling of an integer:
//!   decoder and oracle return the same event or the same error, line
//!   number and words;
//! * **expectations** — what is accepted and what is not is also written
//!   down here case by case (`docs/METRICS.md` states the same contract),
//!   because two parsers over one lexer could be wrong together;
//! * **truncation and corruption** — on the log of real nemesis runs,
//!   every prefix and every single-byte deletion of every distinct line
//!   is an error or exactly what the oracle makes of it, never a panic
//!   and never another event;
//! * **documents** — CRLF line ends, a missing final newline, blank
//!   lines, a file cut mid-line, and lines out of the order of their
//!   `seq`;
//! * **declined lines** — one single edit of an encoder-written line per
//!   place the decoder's template reader declines it (a space, a swapped
//!   or an extra key, an integer it does not read, an escape, a line end
//!   it does not take, a cut): the line goes to the general decoder,
//!   and what comes out is still what the oracle makes of it.

use proptest::prelude::*;
use rethinking_ec::core::scheme::{ChurnPlan, ClientPlacement};
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::obs::{
    ClientOpKind, DropReason, EventKind, OpCompletion, QuorumKind, Recorder, SpanStatus,
    TracedEvent,
};
use rethinking_ec::obs_tools::{parse_jsonl, parse_line};
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
use rethinking_ec::replication::Composition;
use rethinking_ec::simnet::{Duration, FaultSchedule, LatencyModel, NodeId, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};
use std::collections::{BTreeMap, BTreeSet};

#[path = "oracle/trace_parse.rs"]
mod oracle;

// ---------------------------------------------------------------------
// Generating events
// ---------------------------------------------------------------------

/// A tape of pre-drawn numbers that the generators below read in order
/// (and start over when it runs out).
struct Draws {
    tape: Vec<u64>,
    at: usize,
}

impl Draws {
    fn new(tape: Vec<u64>) -> Self {
        assert!(!tape.is_empty());
        Draws { tape, at: 0 }
    }

    fn u64(&mut self) -> u64 {
        self.at += 1;
        self.tape[(self.at - 1) % self.tape.len()]
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.u64() % bound as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.u64() % 2 == 1
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn vec(&mut self) -> Vec<u64> {
        (0..self.below(4)).map(|_| self.u64()).collect()
    }
}

/// The values an integer field is most likely to be mishandled at, and
/// any other.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), any::<u64>()]
}

fn tape(len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(edge_u64(), len)
}

/// Names a protocol would write, and names nobody should: empty, with a
/// quote, a backslash, control characters, non-ASCII.
const NAMES: [&str; 7] = [
    "op_read",
    "quorum_write",
    "",
    "we\"ird\\st\nep",
    "\u{0}\t\r\u{1f}\u{7f}",
    "naïve-é😀",
    "\\u0041 \"\"",
];

/// The kind declared after `prev` (the first for `None`), its fields
/// drawn from `d`. The `match` is exhaustive on purpose: a new
/// `EventKind` does not compile until it has an arm here, and so a line
/// in every test below.
fn kind_after(prev: Option<&EventKind>, d: &mut Draws) -> Option<EventKind> {
    use EventKind::*;
    Some(match prev {
        None => MessageSent {
            from: d.u64(),
            to: d.u64(),
            bytes: d.u64(),
            trace: d.u64(),
            span: d.u64(),
        },
        Some(MessageSent { .. }) => MessageDelivered {
            from: d.u64(),
            to: d.u64(),
            bytes: d.u64(),
            trace: d.u64(),
            span: d.u64(),
        },
        Some(MessageDelivered { .. }) => MessageDropped {
            from: d.u64(),
            to: d.u64(),
            reason: d.pick(&[
                DropReason::Partition,
                DropReason::Loss,
                DropReason::CrashedDestination,
                DropReason::Shutdown,
            ]),
            trace: d.u64(),
            span: d.u64(),
        },
        Some(MessageDropped { .. }) => AntiEntropyRound { node: d.u64(), fanout: d.u64() },
        Some(AntiEntropyRound { .. }) => QuorumWait {
            node: d.u64(),
            kind: d.pick(&[QuorumKind::Read, QuorumKind::Write]),
            waited_us: d.u64(),
            acks: d.u64(),
            needed: d.u64(),
        },
        Some(QuorumWait { .. }) => {
            ConflictDetected { node: d.u64(), key: d.u64(), siblings: d.u64() }
        }
        Some(ConflictDetected { .. }) => {
            ConflictResolved { node: d.u64(), key: d.u64(), survivors: d.u64() }
        }
        Some(ConflictResolved { .. }) => WalAppend { node: d.u64(), key: d.u64(), bytes: d.u64() },
        Some(WalAppend { .. }) => PartitionStart { island: d.vec() },
        Some(PartitionStart { .. }) => PartitionHeal,
        Some(PartitionHeal) => Crash { node: d.u64() },
        Some(Crash { .. }) => Recover { node: d.u64() },
        Some(Recover { .. }) => MembershipChange { node: d.u64(), join: d.flag() },
        Some(MembershipChange { .. }) => WalReplay { node: d.u64(), records: d.u64() },
        Some(WalReplay { .. }) => SpanOpen {
            trace: d.u64(),
            span: d.u64(),
            parent: d.u64(),
            node: d.u64(),
            name: d.pick(&NAMES),
        },
        Some(SpanOpen { .. }) => SpanClose {
            trace: d.u64(),
            span: d.u64(),
            node: d.u64(),
            status: d.pick(&[SpanStatus::Ok, SpanStatus::Failed, SpanStatus::Abandoned]),
        },
        Some(SpanClose { .. }) => OpComplete(Box::new(OpCompletion {
            session: d.u64(),
            op: d.u64(),
            key: d.u64(),
            kind: d.pick(&[ClientOpKind::Read, ClientOpKind::Write]),
            ok: d.flag(),
            invoked_us: d.u64(),
            // A node id: the low half of a draw, so `u64::MAX` is `u32::MAX`.
            replica: d.u64() as u32,
            value: d.flag().then(|| d.u64()),
            values: d.vec(),
            stamp: d.flag().then(|| (d.u64(), d.u64())),
            version_ts_us: d.flag().then(|| d.u64()),
        })),
        Some(OpComplete(_)) => return None,
    })
}

/// One event of every kind, in declaration order.
fn every_kind(d: &mut Draws) -> Vec<TracedEvent> {
    let mut events: Vec<TracedEvent> = Vec::new();
    while let Some(kind) = kind_after(events.last().map(|ev| &ev.kind), d) {
        events.push(TracedEvent { seq: d.u64(), t_us: d.u64(), kind });
    }
    assert_eq!(events.len(), 17);
    events
}

/// What the decoder and the oracle make of `text` must be one and the
/// same, as event or as error (line number and words).
fn assert_agree(text: &str, line_no: usize) -> Result<TracedEvent, String> {
    let got = parse_line(text, line_no);
    let want = oracle::parse_line(text, line_no);
    assert_eq!(got, want, "decoder and oracle differ on line {line_no}: {text:?}");
    got.map_err(|e| {
        assert_eq!(e.line, line_no);
        e.message
    })
}

// ---------------------------------------------------------------------
// (a) Round trip
// ---------------------------------------------------------------------

fn assert_round_trips(d: &mut Draws) {
    for ev in every_kind(d) {
        let line = ev.to_json_line();
        assert!(!line.contains('\n'), "one event, one line: {line:?}");
        let mut appended = String::from("{}\n");
        ev.write_json_line(&mut appended);
        assert_eq!(appended, format!("{{}}\n{line}"));
        assert_eq!(assert_agree(&line, 1).as_ref(), Ok(&ev), "{line}");
        // Any other JSON reader takes the line too.
        let tree = serde_json::parse_value(&line).expect("a JSON document");
        assert_eq!(tree.get("type").and_then(|t| t.as_str()), Some(ev.kind.type_name()));
    }
}

proptest! {
    #[test]
    fn every_kind_round_trips(tape in tape(96)) {
        assert_round_trips(&mut Draws::new(tape));
    }
}

/// The corners the random tapes are only likely to hit: everything
/// absent and empty (all draws 0), everything present with one element
/// (all 1), everything present, three elements, every integer at its
/// maximum (all `u64::MAX`).
#[test]
fn every_kind_round_trips_at_the_corners() {
    for draw in [0, 1, u64::MAX] {
        assert_round_trips(&mut Draws::new(vec![draw]));
    }
    let mut d = Draws::new(vec![u64::MAX]);
    let full = every_kind(&mut d).pop().unwrap();
    let EventKind::OpComplete(op) = &full.kind else { panic!("op_complete is declared last") };
    assert!(
        op.value.is_some()
            && op.values.len() == 3
            && op.stamp.is_some()
            && op.version_ts_us.is_some()
    );
    // Every integer at its maximum: `u64::MAX`, and the replica's `u32::MAX`.
    let line = full.to_json_line();
    assert_eq!(line.matches("18446744073709551615").count(), 13);
    assert!(line.contains("\"replica\":4294967295,"), "{line}");
}

// ---------------------------------------------------------------------
// (b) Differential, on mutated lines
// ---------------------------------------------------------------------

/// The members of the object on an encoder-written line, as `(key,
/// value)` source text.
fn members(line: &str) -> Vec<(String, String)> {
    let inner = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')).expect("an object");
    let (mut parts, mut start) = (Vec::new(), 0);
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    for (at, c) in inner.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                parts.push(&inner[start..at]);
                start = at + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
        .into_iter()
        .map(|part| {
            // The encoder's keys are identifiers: the first colon ends one.
            let (key, value) = part.split_once(':').expect("key: value");
            (key.to_string(), value.to_string())
        })
        .collect()
}

/// `members` put back together as the encoder would join them.
fn joined(members: &[(String, String)]) -> String {
    let fields: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Whitespace JSON allows between any two tokens.
const SPACES: [&str; 7] = ["", "", "", " ", "\t", "\r\n", " \n\t "];

fn render(members: &[(String, String)], d: &mut Draws) -> String {
    let mut out = format!("{}{{{}", d.pick(&SPACES), d.pick(&SPACES));
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for token in [d.pick(&SPACES), key, d.pick(&SPACES), ":", d.pick(&SPACES), value] {
            out.push_str(token);
        }
        out.push_str(d.pick(&SPACES));
    }
    out + "}" + d.pick(&SPACES)
}

/// Field order is free.
fn shuffle(members: &mut [(String, String)], d: &mut Draws) {
    for i in (1..members.len()).rev() {
        members.swap(i, d.below(i + 1));
    }
}

/// Keys no event has, some of them close to ones an event does have.
const UNKNOWN_KEYS: [&str; 8] = [
    "\"x\"",
    "\"\"",
    "\"Seq\"",
    "\"seq \"",
    "\"typ\"",
    "\"späñ\"",
    "\"a\\\"b\\\\\"",
    "\"\\u00e9\"",
];

/// Anything JSON can hold; an unknown field is validated and ignored.
const ANY_VALUES: [&str; 14] = [
    "null",
    "true",
    "\"\"",
    "\"a \\\"quoted\\\" \\\\ \\/ \\b\\f\\n\\r\\t \\u00e9 \\ud83d\\ude00 }]\"",
    "{}",
    "[]",
    "{\"seq\":1,\"type\":\"crash\",\"deep\":{\"er\":[{},{\"x\":[null]}]}}",
    "[1,[2,[3,{\"k\":\"v\"}]],\"]\"]",
    "0",
    "-12",
    "1.5e-3",
    "18446744073709551616",
    "007",
    "[ ]",
];

/// Every spelling of an integer the issue names, and a few values that
/// are no integer at all.
const INTEGER_FORMS: [&str; 16] = [
    "0",
    "007",
    "-0",
    "-1",
    "1.0",
    "1e3",
    "18446744073709551615",
    "18446744073709551616",
    "000000000000000000000042",
    "\"5\"",
    "null",
    "[1]",
    "{}",
    "true",
    "1.",
    "-00",
];

/// Source text that is not JSON at all, wherever it stands.
const BROKEN_VALUES: [&str; 12] =
    ["1e", "--1", "1.2.3", "+1", ".5", "0x10", "-", "tru", "\"open", "[1,]", "{\"a\"}", "\"\\q\""];

fn mutate(line: &str, d: &mut Draws) -> String {
    let mut members = members(line);
    for _ in 0..d.below(4) {
        let at = d.below(members.len() + 1);
        match d.below(6) {
            // An unknown field, holding anything.
            0 | 1 => members.insert(at, (d.pick(&UNKNOWN_KEYS).into(), d.pick(&ANY_VALUES).into())),
            // A known key a second time, with another value: before the
            // first it takes over, behind it it is ignored.
            2 => {
                let key = members[d.below(members.len())].0.clone();
                let value = d.pick(&["5", "\"partition\"", "null", "[3]", "false"]).to_string();
                members.insert(at, (key, value));
            }
            // One field's value in another spelling, or another type.
            3 => {
                let at = d.below(members.len());
                members[at].1 = d.pick(&INTEGER_FORMS).to_string();
            }
            // A known key spelt with an escape is the same key.
            4 => {
                let at = d.below(members.len());
                let key = &members[at].0;
                if let Some(c) = key[1..].chars().next().filter(char::is_ascii_alphabetic) {
                    members[at].0 = format!("\"\\u{:04x}{}", c as u32, &key[2..]);
                }
            }
            // Something that is not JSON, as a known or an unknown value.
            _ => {
                if d.flag() {
                    members.insert(at, ("\"x\"".into(), d.pick(&BROKEN_VALUES).into()));
                } else {
                    let at = d.below(members.len());
                    members[at].1 = d.pick(&BROKEN_VALUES).to_string();
                }
            }
        }
    }
    shuffle(&mut members, d);
    render(&members, d)
}

#[test]
fn members_splits_what_the_encoder_writes() {
    for ev in every_kind(&mut Draws::new(vec![u64::MAX, 3, 7])) {
        let line = ev.to_json_line();
        let members = members(&line);
        assert_eq!(joined(&members), line);
        assert_eq!(members[2], ("\"type\"".to_string(), format!("\"{}\"", ev.kind.type_name())));
    }
}

proptest! {
    /// Shuffled and respaced, a line is the same event.
    #[test]
    fn field_order_and_whitespace_are_free(tape in tape(256)) {
        let mut d = Draws::new(tape);
        for ev in every_kind(&mut d) {
            let mut members = members(&ev.to_json_line());
            shuffle(&mut members, &mut d);
            for _ in 0..d.below(3) {
                let at = d.below(members.len() + 1);
                members.insert(at, (d.pick(&UNKNOWN_KEYS).into(), d.pick(&ANY_VALUES).into()));
            }
            let text = render(&members, &mut d);
            prop_assert_eq!(assert_agree(&text, 9), Ok(ev), "{}", text);
        }
    }

    /// Whatever else is done to it, decoder and oracle agree on it.
    #[test]
    fn decoder_and_oracle_agree_on_mutated_lines(tape in tape(256)) {
        let mut d = Draws::new(tape);
        for ev in every_kind(&mut d) {
            let text = mutate(&ev.to_json_line(), &mut d);
            let line_no = d.below(1_000_000) + 1;
            let _ = assert_agree(&text, line_no);
        }
    }
}

/// The mutations above do reach both outcomes, and errors of both
/// kinds — the agreement is not agreement on one answer.
#[test]
fn mutated_lines_are_accepted_and_rejected() {
    let (mut ok, mut not_json, mut wrong_field) = (0, 0, 0);
    for seed in 0..200u64 {
        let mut d = Draws::new(
            (0..64).map(|i| (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15 + i)).collect(),
        );
        for ev in every_kind(&mut d) {
            match assert_agree(&mutate(&ev.to_json_line(), &mut d), 1) {
                Ok(_) => ok += 1,
                Err(m) if m.contains(" at byte ") => not_json += 1,
                Err(_) => wrong_field += 1,
            }
        }
    }
    assert!(ok > 500 && not_json > 100 && wrong_field > 100, "{ok} / {not_json} / {wrong_field}");
}

// ---------------------------------------------------------------------
// Expectations, case by case
// ---------------------------------------------------------------------

/// `{"seq":1,"t_us":2,"type":"crash","node":<value>}`.
fn crash_on(node: &str) -> String {
    format!(r#"{{"seq":1,"t_us":2,"type":"crash","node":{node}}}"#)
}

/// Which spellings of an integer a known field takes. Wider than JSON
/// in two places the tree-building parser always was — leading zeros
/// and `-0` — and nothing else: a fraction, an exponent, a negative
/// number, a number past `u64::MAX`, a string of digits are all "not an
/// integer". Nothing here may ever become more lenient.
#[test]
fn integer_spellings_are_the_ones_the_tree_parser_took() {
    for (text, want) in [
        ("0", 0),
        ("007", 7),
        ("-0", 0),
        ("-00", 0),
        ("18446744073709551615", u64::MAX),
        ("00000000000000000000018446744073709551615", u64::MAX),
    ] {
        let ev = assert_agree(&crash_on(text), 1).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(ev.kind, EventKind::Crash { node: want }, "{text}");
    }
    for text in [
        "-1",
        "1.0",
        "1.",
        "1e3",
        "1E0",
        "18446744073709551616",
        "99999999999999999999999",
        "\"1\"",
        "null",
        "true",
        "[1]",
        "{}",
    ] {
        let e = assert_agree(&crash_on(text), 5).unwrap_err();
        assert_eq!(e, "missing or non-integer field `node`", "{text}");
        // In a field no event has, the same text is just ignored.
        let padded = crash_on(&format!("3,\"unknown\":{text}"));
        assert_eq!(assert_agree(&padded, 5).unwrap().kind, EventKind::Crash { node: 3 }, "{text}");
    }
    // And what is not a JSON value is an error wherever it stands.
    for text in BROKEN_VALUES.iter().chain(&["-9223372036854775808", "1 2", "01x", ""]) {
        for line in [crash_on(text), crash_on(&format!("3,\"unknown\":{text}"))] {
            let e = assert_agree(&line, 5).unwrap_err();
            assert!(e.contains(" at byte "), "{line}: {e}");
        }
    }
}

/// A node id fits `u32`, the simulator's `NodeId`: one past it is an
/// error naming the field, not node 0 (the tree parser cast it). The
/// decode contract's one deliberate tightening; the oracle states it too.
#[test]
fn a_replica_past_the_largest_node_id_is_an_error_naming_it() {
    let op = |replica: &str| {
        format!(
            "{{\"seq\":0,\"t_us\":0,\"type\":\"op_complete\",\"session\":1,\"op\":2,\"key\":3,\
             \"kind\":\"read\",\"ok\":true,\"invoked_us\":4,\"replica\":{replica},\"values\":[]}}"
        )
    };
    for (text, want) in [("0", 0), ("4294967295", u32::MAX), ("0004294967295", u32::MAX)] {
        let ev = assert_agree(&op(text), 1).unwrap_or_else(|e| panic!("{text}: {e}"));
        let EventKind::OpComplete(op) = ev.kind else { panic!("not an op_complete") };
        assert_eq!(op.replica, want, "{text}");
    }
    for text in ["4294967296", "18446744073709551615"] {
        let e = assert_agree(&op(text), 3).unwrap_err();
        assert_eq!(e, format!("field `replica` is {text}, past the largest node id 4294967295"));
    }
    for text in ["-1", "1.0", "18446744073709551616", "\"7\""] {
        let e = assert_agree(&op(text), 3).unwrap_err();
        assert_eq!(e, "missing or non-integer field `replica`", "{text}");
    }
}

#[test]
fn field_errors_keep_their_words() {
    for (line, message) in [
        (r#"{"t_us":0,"type":"crash","node":1}"#, "missing or non-integer field `seq`"),
        (r#"{"seq":0,"type":"crash","node":1}"#, "missing or non-integer field `t_us`"),
        (r#"{"seq":0,"t_us":0,"node":1}"#, "missing or non-string field `type`"),
        (r#"{"seq":0,"t_us":0,"type":7}"#, "missing or non-string field `type`"),
        (r#"{"seq":0,"t_us":0,"type":"crashed","node":1}"#, "unknown event type `crashed`"),
        (r#"{"seq":0,"t_us":0,"type":"","node":1}"#, "unknown event type ``"),
        (r#"{"seq":0,"t_us":0,"type":"crash"}"#, "missing or non-integer field `node`"),
        (
            r#"{"seq":0,"t_us":0,"type":"membership_change","node":1,"join":1}"#,
            "missing or non-boolean field `join`",
        ),
        (
            r#"{"seq":0,"t_us":0,"type":"message_dropped","from":0,"to":1,"reason":"lost","trace":0,"span":0}"#,
            "unknown drop reason `lost`",
        ),
        (
            r#"{"seq":0,"t_us":0,"type":"quorum_wait","node":0,"kind":"both","waited_us":1,"acks":1,"needed":1}"#,
            "unknown quorum kind `both`",
        ),
        (
            r#"{"seq":0,"t_us":0,"type":"span_close","trace":1,"span":1,"node":0,"status":"OK"}"#,
            "unknown span status `OK`",
        ),
        (
            r#"{"seq":0,"t_us":0,"type":"span_open","trace":1,"span":1,"parent":0,"node":0,"name":null}"#,
            "missing or non-string field `name`",
        ),
        (r#"{"seq":0,"t_us":0,"type":"partition_start"}"#, "missing or non-array field `island`"),
        // Valid JSON that is no object has no fields at all.
        ("[1,2]", "missing or non-integer field `seq`"),
        ("\"seq\"", "missing or non-integer field `seq`"),
        ("{}", "missing or non-integer field `seq`"),
    ] {
        assert_eq!(assert_agree(line, 12).unwrap_err(), message, "{line}");
    }
    // The documented field set is enforced per type, and only it: a field
    // of another type is as unknown as any.
    let extra = r#"{"seq":0,"t_us":0,"type":"partition_heal","node":1,"island":"x","name":5}"#;
    assert_eq!(assert_agree(extra, 1).unwrap().kind, EventKind::PartitionHeal);
}

/// Twenty keys no event has — five of them of the length and the first,
/// second and last byte of a field of the line's own type, as a lookup
/// by those would take them for it — ahead of every field, then each field
/// again with another value: the decoder agrees with the oracle, and of
/// each field the first occurrence counts.
#[test]
fn unknown_keys_then_repeated_fields_agree_and_the_first_wins() {
    let lookalikes = ["nope", "tyre", "tribe", "spin", "nave"];
    let mut members: Vec<String> = lookalikes.iter().map(|k| format!("\"{k}\":\"x\"")).collect();
    members.extend((0..15).map(|i| format!("\"pad{i}\":[{i},{{\"node\":{i}}}]")));
    assert_eq!(members.len(), 20);
    let fields = r#""seq":4,"t_us":9,"type":"span_open","trace":1,"span":2,"parent":0,"node":3,"name":"op_read""#;
    let again = r#""node":7,"name":"other","seq":"x","type":"crash","trace":null,"span":-1"#;
    let line = format!("{{{},{fields},{again}}}", members.join(","));
    let want = TracedEvent {
        seq: 4,
        t_us: 9,
        kind: EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" },
    };
    assert_eq!(assert_agree(&line, 1), Ok(want));
    // A lookalike of the right type stands in for no field.
    let line = r#"{"nope":3,"nave":"op_read","seq":4,"t_us":9,"type":"span_open","trace":1,"span":2,"parent":0,"name":"op_read"}"#;
    assert_eq!(assert_agree(line, 1).unwrap_err(), "missing or non-integer field `node`");
}

/// One table of wire names an enum (an `obs::names!` list):
/// `name` and `from_name` are inverses over `ALL`, no two variants share
/// a name, and a name outside the table is refused in the words the
/// tree parser used — `line` carries `NAME` where the enum travels.
fn assert_wire_names<T: Copy + PartialEq + std::fmt::Debug>(
    all: &[T],
    name: fn(T) -> &'static str,
    from_name: fn(&str) -> Result<T, String>,
    what: &str,
    line: &str,
) {
    for &variant in all {
        assert_eq!(from_name(name(variant)), Ok(variant));
        let parsed = assert_agree(&line.replace("NAME", name(variant)), 1).unwrap();
        assert!(parsed.to_json_line().contains(&format!("\"{}\"", name(variant))));
    }
    let names: BTreeSet<&str> = all.iter().map(|&v| name(v)).collect();
    assert_eq!(names.len(), all.len(), "two {what}s share a name");
    for unknown in ["", "no_such", &name(all[0]).to_uppercase()] {
        let words = format!("unknown {what} `{unknown}`");
        assert_eq!(from_name(unknown), Err(words.clone()));
        assert_eq!(assert_agree(&line.replace("NAME", unknown), 9).unwrap_err(), words);
    }
}

#[test]
fn drop_reasons_round_trip_by_name() {
    let line = r#"{"seq":0,"t_us":0,"type":"message_dropped","from":0,"to":1,"reason":"NAME","trace":0,"span":0}"#;
    assert_wire_names(
        &DropReason::ALL,
        DropReason::name,
        DropReason::from_name,
        "drop reason",
        line,
    );
}

#[test]
fn quorum_kinds_round_trip_by_name() {
    let line = r#"{"seq":0,"t_us":0,"type":"quorum_wait","node":0,"kind":"NAME","waited_us":1,"acks":1,"needed":1}"#;
    assert_wire_names(
        &QuorumKind::ALL,
        QuorumKind::name,
        QuorumKind::from_name,
        "quorum kind",
        line,
    );
}

#[test]
fn op_kinds_round_trip_by_name() {
    let line = r#"{"seq":0,"t_us":0,"type":"op_complete","session":1,"op":2,"key":3,"kind":"NAME","ok":true,"invoked_us":4,"replica":5,"values":[]}"#;
    assert_wire_names(
        &ClientOpKind::ALL,
        ClientOpKind::name,
        ClientOpKind::from_name,
        "op kind",
        line,
    );
}

#[test]
fn span_statuses_round_trip_by_name() {
    let line =
        r#"{"seq":0,"t_us":0,"type":"span_close","trace":1,"span":1,"node":0,"status":"NAME"}"#;
    assert_wire_names(
        &SpanStatus::ALL,
        SpanStatus::name,
        SpanStatus::from_name,
        "span status",
        line,
    );
}

// ---------------------------------------------------------------------
// (c) Truncation and corruption of real logs
// ---------------------------------------------------------------------

fn log_of(scheme: Scheme, seed: u64) -> String {
    let recorder = Recorder::with_event_log();
    Experiment::new(scheme)
        .workload(WorkloadSpec {
            keys: 4,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 40_000 },
            sessions: 3,
            ops_per_session: 60,
        })
        .latency(LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
        })
        .faults(
            FaultSchedule::none()
                .crash_amnesia(NodeId(1), SimTime::from_millis(400), SimTime::from_millis(900))
                .partition(vec![NodeId(0), NodeId(2)], SimTime::from_secs(1), SimTime::from_secs(2))
                .loss_rate(SimTime::from_secs(0), 0.05),
        )
        .seed(seed)
        .horizon(SimTime::from_secs(6))
        .recorder(recorder.clone())
        .run();
    recorder.export_jsonl()
}

/// The logs of three small runs under one nemesis (amnesia crash,
/// partition, loss), chosen so that between them a run emits every
/// event kind there is: a sloppy quorum, sibling-mode gossip, a ring
/// under churn.
fn nemesis_logs() -> Vec<String> {
    vec![
        log_of(Scheme::SloppyQuorum { n: 3, r: 2, w: 2, spares: 2 }, 11),
        log_of(
            Scheme::Eventual {
                replicas: 3,
                eager: true,
                gossip: Some((Duration::from_millis(50), 1)),
                mode: ConflictMode::Siblings,
                guarantees: Guarantees::none(),
                placement: ClientPlacement::Random,
            },
            12,
        ),
        log_of(
            Scheme::Sharded {
                inner: Composition::quorum(3, 2, 2, true, 2),
                nodes: 6,
                vnodes: 8,
                churn: ChurnPlan::rolling(6, Duration::from_secs(1), 2, SimTime::from_millis(500)),
            },
            13,
        ),
    ]
}

/// A line with every run of digits struck out: lines that differ only
/// in their numbers are one line to a byte-level test.
fn shape(line: &str) -> String {
    let mut shape = String::new();
    for c in line.chars() {
        match c {
            '0'..='9' if shape.ends_with('#') => {}
            '0'..='9' => shape.push('#'),
            c => shape.push(c),
        }
    }
    shape
}

#[test]
fn every_prefix_and_every_deletion_of_a_real_line_is_an_error_or_what_the_oracle_reads() {
    let logs = nemesis_logs();
    let mut distinct: BTreeMap<String, &str> = BTreeMap::new();
    for line in logs.iter().flat_map(|log| log.lines()) {
        distinct.entry(shape(line)).or_insert(line);
    }
    let kinds: BTreeSet<String> = distinct
        .values()
        .map(|line| parse_line(line, 1).expect("an exported line").kind.type_name().to_string())
        .collect();
    assert_eq!(kinds.len(), 17, "the runs emit every kind there is: {kinds:?}");
    assert!(distinct.len() >= 40, "{} distinct lines", distinct.len());

    let (mut events, mut errors) = (0u64, 0u64);
    for (n, line) in distinct.values().enumerate() {
        assert!(line.is_ascii(), "a run's own lines are ASCII: {line}");
        let whole = assert_agree(line, n + 1).expect("an exported line");
        for cut in 0..line.len() {
            // A prefix is never the event: it lacks at least the brace.
            let prefix = assert_agree(&line[..cut], n + 1);
            assert!(prefix.is_err(), "a prefix parsed: {:?}", &line[..cut]);
            // A deletion may leave a valid line — then it is what the
            // oracle reads, checked inside. Four kinds of byte can go
            // like that: a digit of a number, the comma between two
            // numbers of an array (`[0,2]` becomes `[02]`), a letter of
            // a span's name (free text), and a letter of an optional
            // field's key, which turns the field into an unknown one
            // and so into an absent one.
            let deleted = format!("{}{}", &line[..cut], &line[cut + 1..]);
            match assert_agree(&deleted, n + 1) {
                Ok(ev) => {
                    let bytes = line.as_bytes();
                    let joins_numbers = bytes[cut] == b','
                        && bytes[cut - 1].is_ascii_digit()
                        && bytes[cut + 1].is_ascii_digit();
                    let in_optional_key = ["\"value\":", "\"stamp\":", "\"version_ts_us\":"]
                        .iter()
                        .filter_map(|key| Some((line.find(key)?, key.len())))
                        .any(|(at, len)| (at + 1..at + len - 2).contains(&cut));
                    let in_name = line
                        .find("\"name\":\"")
                        .is_some_and(|at| (at + 8..line.len() - 2).contains(&cut));
                    assert!(
                        bytes[cut].is_ascii_digit() || joins_numbers || in_optional_key || in_name,
                        "{deleted}"
                    );
                    assert_eq!(ev.kind.type_name(), whole.kind.type_name());
                    events += 1;
                }
                Err(_) => errors += 1,
            }
        }
    }
    assert!(events > 100 && errors > 1_000, "{events} events, {errors} errors");
}

// ---------------------------------------------------------------------
// (d) Documents
// ---------------------------------------------------------------------

#[test]
fn documents_split_into_lines_as_they_always_did() {
    let log = &nemesis_logs()[0];
    let lines: Vec<&str> = log.lines().take(200).collect();
    let events = parse_jsonl(&lines.join("\n")).expect("no final newline");
    assert_eq!(events.len(), 200);
    assert_eq!(events[199], parse_line(lines[199], 200).unwrap());
    for doc in [
        lines.join("\n"),
        lines.join("\n") + "\n",
        lines.join("\r\n"),
        lines.join("\r\n") + "\r\n",
        // Blank lines count as lines and hold no event.
        format!("\n \t\n{}\n\n", lines.join("\n\r\n")),
        String::new(),
        "\n\n".to_string(),
    ] {
        let got = parse_jsonl(&doc);
        assert_eq!(got, oracle::parse_jsonl(&doc));
        let got = got.expect("a well-formed document");
        assert!(got.is_empty() || got == events);
    }

    // A file cut mid-line blames its last line, whatever the line ends.
    for ending in ["\n", "\r\n"] {
        let mut doc = lines.join(ending) + ending;
        doc.truncate(doc.len() - 20);
        let e = parse_jsonl(&doc).unwrap_err();
        assert_eq!(Err(&e), oracle::parse_jsonl(&doc).as_ref());
        assert_eq!(e.line, 200, "{e}");
    }
    // A bare carriage return is not a line end, and not whitespace
    // inside a number either.
    let doc = lines[..3].join("\r");
    assert_eq!(parse_jsonl(&doc), oracle::parse_jsonl(&doc));
    assert_eq!(parse_jsonl(&doc).unwrap_err().line, 1);
    // A line that is garbage in the middle of a document.
    let doc = format!("{}\n\n{{broken\n{}\n", lines[0], lines[1]);
    assert_eq!(parse_jsonl(&doc), oracle::parse_jsonl(&doc));
    assert_eq!(parse_jsonl(&doc).unwrap_err().line, 3);
}

/// A run's lines follow their `seq` upwards; a line that repeats or
/// goes back is an error on that line naming both numbers, in the
/// decoder's words and the oracle's. A gap is no error, and neither is
/// a 0, which starts the next run of a grid log.
#[test]
fn a_document_whose_seq_goes_back_or_repeats_is_refused() {
    let log = &nemesis_logs()[0];
    let lines: Vec<&str> = log.lines().take(200).collect();
    let seq = |line: &str| parse_line(line, 1).expect("an exported line").seq;
    assert!(lines.windows(2).all(|w| seq(w[1]) == seq(w[0]) + 1), "an exported run counts up");
    let agree = |doc: &str| {
        let got = parse_jsonl(doc);
        assert_eq!(got, oracle::parse_jsonl(doc), "{doc}");
        got
    };
    let refused = |doc: &str, line: usize, message: String| {
        let e = agree(doc).unwrap_err();
        assert_eq!((e.line, e.message), (line, message));
    };
    let words = |seq: usize, before: usize| {
        format!(
            "`seq` {seq} after `seq` {before}: a run's events are numbered in increasing order, \
             and only 0 starts the next run"
        )
    };

    // Two neighbours swapped: the later one of the pair is blamed.
    let mut swapped = lines.clone();
    swapped.swap(99, 100);
    refused(&swapped.join("\n"), 101, words(99, 100));
    // A line copied, next to itself or further on; a blank line between
    // still counts for the line number.
    let mut repeated = lines.clone();
    repeated.insert(51, lines[50]);
    refused(&repeated.join("\n"), 52, words(50, 50));
    let doc = format!("{}\n\n{}\n", lines[..120].join("\n"), lines[60]);
    refused(&doc, 122, words(60, 119));
    // Gaps: every other line, or a stretch cut out.
    let sparse: Vec<&str> = lines.iter().step_by(2).copied().collect();
    assert_eq!(agree(&sparse.join("\n")).unwrap().len(), 100);
    let cut = format!("{}\n{}", lines[..10].join("\n"), lines[150..].join("\n"));
    assert_eq!(agree(&cut).unwrap().len(), 60);
    // A grid log: the same run twice, each numbered from 0.
    let twice = format!("{0}\n{0}", lines.join("\n"));
    assert_eq!(agree(&twice).unwrap().len(), 400);
    // A run that starts anywhere but 0 may follow one only by going up.
    let spliced = format!("{}\n{}", lines[..100].join("\n"), lines[20..].join("\n"));
    refused(&spliced, 101, words(20, 99));
}

// ---------------------------------------------------------------------
// (e) Where the template reader declines
// ---------------------------------------------------------------------

/// One event of every kind, numbered from 0 up, as the encoder writes
/// them: each is a line the template reader takes whole.
fn canonical_lines() -> Vec<String> {
    every_kind(&mut Draws::new(vec![3, 14, 15, 92, 65, 35, 89, 79, 0]))
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TracedEvent { seq: i as u64, ..ev }.to_json_line())
        .collect()
}

/// `line` with the value of the member called `key` replaced by `value`,
/// if it has one.
fn with_value(line: &str, key: &str, value: &str) -> Option<String> {
    let mut members = members(line);
    members.iter_mut().find(|(k, _)| k == &format!("\"{key}\""))?.1 = value.to_string();
    Some(joined(&members))
}

/// The first letter of the string value of `key` as a `\u` escape: the
/// same string, spelt as no encoder spells it.
fn escaped(line: &str, key: &str) -> Option<String> {
    let members = members(line);
    let value = &members.iter().find(|(k, _)| k == &format!("\"{key}\""))?.1;
    let first = value[1..].chars().next().filter(char::is_ascii_alphabetic)?;
    with_value(line, key, &format!("\"\\u{:04x}{}", first as u32, &value[2..]))
}

/// One edit of a canonical line, or `None` where it does not apply.
type Edit = fn(&str) -> Option<String>;

/// One single edit per place the template reader declines a line that
/// the general decoder still reads, or refuses in its own words.
const DECLINING_EDITS: [(&str, Edit); 14] = [
    ("a space after a colon", |line| Some(line.replacen("\":", "\": ", 1))),
    ("the envelope's keys swapped", |line| {
        let mut members = members(line);
        members.swap(0, 1);
        Some(joined(&members))
    }),
    ("two fields swapped", |line| {
        let mut members = members(line);
        (members.len() > 4).then(|| {
            members.swap(3, 4);
            joined(&members)
        })
    }),
    ("an unknown key inserted", |line| {
        let mut members = members(line);
        members.insert(3, ("\"x\"".into(), "1".into()));
        Some(joined(&members))
    }),
    ("a duplicate key appended", |line| {
        let mut members = members(line);
        members.push(members[members.len() - 1].clone());
        Some(joined(&members))
    }),
    ("a 20-digit integer", |line| with_value(line, "t_us", "10000000000000000000")),
    ("the largest integer", |line| with_value(line, "t_us", "18446744073709551615")),
    ("a leading zero", |line| {
        let t_us = members(line)[1].1.clone();
        with_value(line, "t_us", &format!("0{t_us}"))
    }),
    ("-0", |line| with_value(line, "t_us", "-0")),
    ("a replica past u32::MAX", |line| with_value(line, "replica", "4294967296")),
    ("an escaped tag", |line| escaped(line, "type")),
    ("an escaped name", |line| escaped(line, "name")),
    ("the closing brace cut", |line| Some(line[..line.len() - 1].to_string())),
    ("a line cut in half", |line| Some(line[..line.len() / 2].to_string())),
];

/// Each single edit of a canonical line, alone and in the middle of a
/// document of canonical lines, and every way a document's lines may
/// end: `parse_line` and `parse_jsonl` return what the oracle returns,
/// as event or as error with its line number.
#[test]
fn every_line_the_template_declines_reads_as_the_oracle_reads_it() {
    let lines = canonical_lines();
    assert!(lines.iter().all(|line| assert_agree(line, 1).is_ok()));
    let (mut events, mut errors) = (0, 0);
    for (what, edit) in DECLINING_EDITS {
        let mut applied = 0;
        for (at, line) in lines.iter().enumerate() {
            let Some(edited) = edit(line) else { continue };
            assert_ne!(&edited, line, "{what}");
            applied += 1;
            match assert_agree(&edited, at + 1) {
                Ok(_) => events += 1,
                Err(_) => errors += 1,
            }
            let mut doc: Vec<&str> = lines.iter().map(String::as_str).collect();
            doc[at] = &edited;
            let doc = doc.join("\n") + "\n";
            assert_eq!(parse_jsonl(&doc), oracle::parse_jsonl(&doc), "{what}: {edited}");
        }
        assert!(applied > 0, "`{what}` applies to no line");
    }
    assert!(events > 100 && errors > 30, "{events} events, {errors} errors");

    // How a document's lines end and where it stops.
    let all: Vec<&str> = lines.iter().map(String::as_str).collect();
    let events = parse_jsonl(&(all.join("\n") + "\n")).expect("canonical lines");
    assert_eq!(events.len(), lines.len());
    for doc in [
        all.join("\r\n") + "\r\n",
        all.join("\n"),
        format!("{}\r\n{}\n", all[..5].join("\n"), all[5..].join("\n")),
        all.join("\n\n"),
        format!("{}\n \t\n{}\n", all[..5].join("\n"), all[5..].join("\n")),
        format!("\n{}\n\n", all.join("\n")),
    ] {
        let got = parse_jsonl(&doc);
        assert_eq!(got, oracle::parse_jsonl(&doc), "{doc:?}");
        assert_eq!(got.as_ref(), Ok(&events), "{doc:?}");
        for (n, line) in doc.lines().enumerate() {
            if !line.trim().is_empty() {
                let _ = assert_agree(line, n + 1);
            }
        }
    }
    // A document cut anywhere: the oracle's error, on the oracle's line.
    let doc = all.join("\n") + "\n";
    for cut in (0..doc.len()).step_by(7) {
        let cut_doc = &doc[..cut];
        assert_eq!(parse_jsonl(cut_doc), oracle::parse_jsonl(cut_doc), "{cut_doc:?}");
    }
}
