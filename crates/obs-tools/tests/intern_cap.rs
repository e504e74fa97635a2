//! The span-name table is bounded.
//!
//! `span_open`'s `name` is a `&'static str`, so every distinct name a
//! parsed log holds is leaked once, into a table the whole process
//! shares. A corrupt or hostile log must not be able to grow that table
//! without end: past [`MAX_SPAN_NAMES`] names, a line with a new one is
//! a [`obs_tools::ParseError`] that names the line — not a panic, and
//! not one more leaked string.
//!
//! One test, in a test binary of its own: it fills the process-wide
//! table on purpose, which no other test's process should have to live
//! with.

use obs::EventKind;
use obs_tools::parse::MAX_SPAN_NAMES;
use obs_tools::{parse_jsonl, parse_line};

/// A `span_open` line numbered `seq`: a document's lines count up.
fn span_open(seq: usize, name: &str) -> String {
    format!(
        r#"{{"seq":{seq},"t_us":0,"type":"span_open","trace":1,"span":2,"parent":0,"node":0,"name":"{name}"}}"#
    )
}

#[test]
fn the_table_of_span_names_is_capped() {
    // A whole document of distinct names, right up to the cap.
    let doc: String = (0..MAX_SPAN_NAMES).map(|i| span_open(i, &format!("n{i}")) + "\n").collect();
    let events = parse_jsonl(&doc).expect("as many names as the table holds");
    assert_eq!(events.len(), MAX_SPAN_NAMES);
    assert!(matches!(events[17].kind, EventKind::SpanOpen { name: "n17", .. }));

    // One more is an error that names its line, line by line …
    let e = parse_line(&span_open(4_096, "one_too_many"), 4_097).unwrap_err();
    assert_eq!(e.line, 4_097);
    assert!(e.message.contains("distinct span names"), "{e}");
    // … and in a document, however often it is tried.
    let doc = format!("{}\n{}\n", span_open(0, "n0"), span_open(1, "another"));
    for _ in 0..3 {
        let e = parse_jsonl(&doc).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains(&MAX_SPAN_NAMES.to_string()), "{e}");
    }

    // What the table holds still parses, and so does every other event.
    assert!(parse_line(&span_open(0, "n4095"), 1).is_ok());
    assert!(parse_line(&span_open(0, "n0"), 1).is_ok());
    assert!(parse_line(r#"{"seq":0,"t_us":0,"type":"crash","node":1}"#, 1).is_ok());
}
