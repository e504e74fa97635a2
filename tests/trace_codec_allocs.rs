//! Integration: what the event-line codec allocates, counted exactly.
//!
//! The decoder reads a line in one pass against the bytes the encoder
//! writes, or, any other line, through a borrowed view, and the encoder
//! writes digit pairs from a static table into the caller's buffer
//! (`obs::event`), so per line neither allocates
//! anything but what the event itself owns: the `Box` of an
//! `op_complete`'s [`OpCompletion`] and the `Vec` of a non-empty
//! `values` or `island`. A `String` per key, a `to_string()` per
//! integer or a tree per line — what both directions did before — shows
//! here as a count, not as a noisy ledger row. Exact, not timed: this
//! binary installs [`CountingAlloc`], which tallies per thread, and the
//! same input allocates the same every time.

use rethinking_ec::obs::{
    alloc_totals, ClientOpKind, CountingAlloc, DropReason, EventKind, OpCompletion, QuorumKind,
    Recorder, SpanStatus, TracedEvent,
};
use rethinking_ec::obs_tools::{parse_jsonl, parse_line};
use std::mem::size_of;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(bytes, allocations)` made by `f` on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, count) = alloc_totals();
    let out = f();
    let (bytes_after, count_after) = alloc_totals();
    (out, bytes_after - bytes, count_after - count)
}

fn op(value: Option<u64>, values: Vec<u64>, stamp: Option<(u64, u64)>) -> EventKind {
    EventKind::OpComplete(Box::new(OpCompletion {
        session: 2,
        op: 17,
        key: 7,
        kind: ClientOpKind::Read,
        ok: true,
        invoked_us: 1_000,
        replica: 1,
        value,
        values,
        stamp,
        version_ts_us: stamp.map(|(counter, _)| counter),
    }))
}

/// `(bytes, allocations)` an event of `kind` owns on the heap, besides
/// the `owned` `u64`s of its array: the box of an `op_complete` payload.
fn boxed(kind: &EventKind) -> (u64, u64) {
    match kind {
        EventKind::OpComplete(_) => (size_of::<OpCompletion>() as u64, 1),
        _ => (0, 0),
    }
}

/// One event of every kind, the array-carrying ones with arrays of
/// several lengths, and how many `u64`s each owns on the heap.
fn events() -> Vec<(TracedEvent, usize)> {
    let kinds = vec![
        (EventKind::MessageSent { from: 0, to: 1, bytes: 96, trace: 3, span: u64::MAX }, 0),
        (EventKind::MessageDelivered { from: 0, to: 1, bytes: 96, trace: 0, span: 0 }, 0),
        (
            EventKind::MessageDropped {
                from: 2,
                to: 1,
                reason: DropReason::CrashedDestination,
                trace: 5,
                span: 6,
            },
            0,
        ),
        (EventKind::AntiEntropyRound { node: 1, fanout: 2 }, 0),
        (
            EventKind::QuorumWait {
                node: 0,
                kind: QuorumKind::Write,
                waited_us: 900,
                acks: 2,
                needed: 2,
            },
            0,
        ),
        (EventKind::ConflictDetected { node: 0, key: 7, siblings: 2 }, 0),
        (EventKind::ConflictResolved { node: 0, key: 7, survivors: 1 }, 0),
        (EventKind::WalAppend { node: 0, key: 7, bytes: 16 }, 0),
        (EventKind::PartitionStart { island: vec![] }, 0),
        (EventKind::PartitionStart { island: vec![0, 2] }, 2),
        // Lengths past `Vec`'s growth steps: one allocation all the same.
        (EventKind::PartitionStart { island: (0..5).collect() }, 5),
        (EventKind::PartitionStart { island: (0..17).collect() }, 17),
        (EventKind::PartitionHeal, 0),
        (EventKind::Crash { node: 2 }, 0),
        (EventKind::Recover { node: 2 }, 0),
        (EventKind::MembershipChange { node: 4, join: true }, 0),
        (EventKind::WalReplay { node: 2, records: 5 }, 0),
        (EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" }, 0),
        (EventKind::SpanOpen { trace: 1, span: 3, parent: 2, node: 3, name: "quorum_read" }, 0),
        (EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Abandoned }, 0),
        // A stamp decodes into its tuple: no `Vec` for it.
        (op(Some(5), vec![], Some((9, 1))), 0),
        (op(None, vec![], None), 0),
        (op(None, vec![3], Some((9, 1))), 1),
        (op(None, vec![3, 9, 27, 81, 243, 729, u64::MAX], Some((9, 1))), 7),
        (op(None, (1..=5).collect(), Some((9, 1))), 5),
        (op(None, (1..=17).map(|i| i * 1_000_003).collect(), None), 17),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, (kind, owned))| (TracedEvent { seq: i as u64, t_us: 10 * i as u64, kind }, owned))
        .collect()
}

/// Every line but an `op_complete` costs what it did before the payload
/// was boxed; an `op_complete` costs exactly one allocation more, of
/// `size_of::<OpCompletion>()`.
#[test]
fn a_line_is_decoded_without_allocating_anything_but_its_arrays() {
    let lines: Vec<(String, TracedEvent, usize)> =
        events().into_iter().map(|(ev, owned)| (ev.to_json_line(), ev, owned)).collect();
    // The first sight of a span name interns it; that is once a process.
    for (line, ..) in &lines {
        parse_line(line, 1).expect("warm-up");
    }
    for (line, ev, owned) in &lines {
        let (parsed, bytes, count) = allocated(|| parse_line(line, 1));
        assert_eq!(parsed.as_ref(), Ok(ev));
        let (box_bytes, boxes) = boxed(&ev.kind);
        assert_eq!(
            (bytes, count),
            (8 * *owned as u64 + box_bytes, u64::from(*owned > 0) + boxes),
            "{line}: {bytes} bytes in {count} allocations"
        );
    }
    // A line respaced and reordered goes to the general decoder, which
    // allocates nothing for it either.
    let line =
        " { \"node\" : 2 ,\t\"type\":\"crash\", \"t_us\":1,\"seq\" : 0 , \"x\":[1,{\"y\":\"z\"}] }";
    let (parsed, bytes, count) = allocated(|| parse_line(line, 1));
    assert_eq!(parsed.unwrap().kind, EventKind::Crash { node: 2 });
    assert_eq!((bytes, count), (0, 0));
}

/// A line the encoder wrote is read by the decoder's template reader;
/// the same line with one space in front goes to its general decoder.
/// Both allocate the same, line by line and over a whole document.
#[test]
fn template_read_lines_allocate_what_the_general_decoder_allocates() {
    let lines: Vec<String> = events().iter().map(|(ev, _)| ev.to_json_line()).collect();
    let doc = lines.join("\n") + "\n";
    let spaced: String = lines.iter().map(|line| format!(" {line}\n")).collect();
    parse_jsonl(&doc).expect("warm-up");
    for line in &lines {
        let (template, template_bytes, template_count) = allocated(|| parse_line(line, 1));
        let spaced = format!(" {line}");
        let (general, general_bytes, general_count) = allocated(|| parse_line(&spaced, 1));
        assert_eq!(template, general);
        assert_eq!((template_bytes, template_count), (general_bytes, general_count), "{line}");
    }
    let (template, template_bytes, template_count) = allocated(|| parse_jsonl(&doc));
    let (general, general_bytes, general_count) = allocated(|| parse_jsonl(&spaced));
    assert_eq!(template.as_ref().map(Vec::len), Ok(lines.len()));
    assert_eq!(template, general);
    assert_eq!((template_bytes, template_count), (general_bytes, general_count));
}

/// However many fields a line has: twenty that no event has, some of
/// them spelt nearly as a field of the line's own type, then every
/// field, then every field again. No field is put aside anywhere.
#[test]
fn a_line_with_unknown_and_repeated_keys_allocates_nothing() {
    let unknown: String = ["nope", "tyre", "tribe", "spin", "nave"]
        .iter()
        .map(|k| format!("\"{k}\":\"x\","))
        .chain((0..15).map(|i| format!("\"pad{i}\":[{i},{{\"node\":{i}}}],")))
        .collect();
    let fields = r#""seq":4,"t_us":9,"type":"span_open","trace":1,"span":2,"parent":0,"node":3,"name":"op_read""#;
    let line = format!("{{{unknown}{fields},{fields}}}");
    parse_line(&line, 1).expect("warm-up");
    let (parsed, bytes, count) = allocated(|| parse_line(&line, 1));
    assert_eq!(
        parsed.unwrap().kind,
        EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" }
    );
    assert_eq!((bytes, count), (0, 0));
}

#[test]
fn a_line_is_encoded_in_place() {
    let mut out = String::with_capacity(64 * 1024);
    for (ev, _) in events() {
        let before = out.len();
        let ((), bytes, count) = allocated(|| ev.write_json_line(&mut out));
        assert_eq!((bytes, count), (0, 0), "{}", &out[before..]);
        assert_eq!(out[before..], ev.to_json_line());
        out.push('\n');
    }
    assert!(out.capacity() == 64 * 1024, "the buffer never grew");
}

/// What a whole log costs does not follow its length: the export is one
/// buffer, and a parse is the event `Vec` growing plus one `Vec` per
/// non-empty array and one box per `op_complete` payload. On this log
/// the tree-building codec made 83 813 allocations to write it (8.4 an
/// event) and 142 015 to read it (14.2).
#[test]
fn a_log_is_exported_and_parsed_in_a_handful_of_allocations() {
    const EVENTS: u64 = 10_000;
    let recorder = Recorder::with_event_log();
    let (mut arrays, mut boxes) = (0, 0);
    for i in 0..EVENTS {
        let kind = match i % 5 {
            0 => EventKind::MessageSent {
                from: i % 3,
                to: (i + 1) % 3,
                bytes: 96,
                trace: i,
                span: i,
            },
            1 => EventKind::SpanOpen { trace: i, span: i, parent: 0, node: i % 3, name: "op_read" },
            2 => EventKind::SpanClose { trace: i, span: i, node: i % 3, status: SpanStatus::Ok },
            3 => EventKind::WalAppend { node: i % 3, key: i % 64, bytes: 24 },
            _ if i % 50 == 4 => {
                arrays += 1;
                op(None, vec![i, i + 1], Some((i, 1)))
            }
            _ => op(Some(i), vec![], Some((i, 1))),
        };
        boxes += boxed(&kind).1;
        recorder.record(i * 100, kind);
    }
    let (jsonl, _, exports) = allocated(|| recorder.export_jsonl());
    assert_eq!(jsonl.lines().count() as u64, EVENTS);
    assert!(exports <= 2, "export_jsonl allocated {exports} times for {EVENTS} events");

    let head: Vec<&str> = jsonl.lines().take(10).collect();
    parse_jsonl(&head.join("\n")).expect("warm-up");
    let (events, _, parses) = allocated(|| parse_jsonl(&jsonl).expect("the export parses"));
    assert_eq!(events.len() as u64, EVENTS);
    // Measured: 1 for the export, 14 here — the event `Vec` doubling
    // thirteen times on the way to 10 000 and the document's name cache.
    assert_eq!(boxes, EVENTS / 5);
    let fixed = parses - arrays - boxes;
    assert!(
        fixed <= 24,
        "parse_jsonl allocated {fixed} times beside its {arrays} arrays and {boxes} payload boxes"
    );
}

/// `export_jsonl` writes every line from the packed log into one buffer
/// reserved from the event count: one allocation for a log of any
/// length whose lines are as long as a protocol run's in the mean (an
/// `op_complete` one line in four here, one in eight in a run), where a
/// line or an event that allocated would show here as thousands.
#[test]
fn export_jsonl_allocates_once_whatever_the_event_count() {
    for events in [1, 100, 10_000, 100_000] {
        let recorder = Recorder::with_event_log();
        for i in 0..events {
            let (t_us, id) = (5_000_000 + i % 1_000, i % 4_096);
            let sent = EventKind::MessageSent { from: 0, to: 1, bytes: 96, trace: id, span: id };
            let open =
                EventKind::SpanOpen { trace: id, span: id, parent: 0, node: 1, name: "op_read" };
            let close =
                EventKind::SpanClose { trace: id, span: id, node: 1, status: SpanStatus::Ok };
            for kind in [sent, open, close, op(Some(id), vec![id], Some((id, 1)))] {
                recorder.record(t_us, kind);
            }
        }
        let (jsonl, _, exports) = allocated(|| recorder.export_jsonl());
        assert_eq!(jsonl.lines().count() as u64, 4 * events);
        assert!(
            jsonl.len() as u64 <= 4 * events * 128,
            "{} B a line",
            jsonl.len() as u64 / (4 * events)
        );
        assert_eq!(exports, 1, "export_jsonl allocated {exports} times for {} events", 4 * events);
    }
}
