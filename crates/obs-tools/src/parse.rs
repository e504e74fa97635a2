//! Parse a JSONL trace file back into [`obs::TracedEvent`] values.
//!
//! The decoder lives beside the encoder, in `obs::event`, where one
//! table declares every event type for both; the decode contract is
//! stated there and in `docs/METRICS.md`. This module only keeps the
//! names the offline tools and `labbench` have always imported.

pub use obs::{parse_jsonl, parse_line, ParseError, SeqOrder, MAX_SPAN_NAMES};

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{
        ClientOpKind, DropReason, EventKind, OpCompletion, QuorumKind, SpanStatus, TracedEvent,
    };

    /// Fields of the widest line an encoder writes: an `op_complete`
    /// with every optional present.
    const WIDEST_LINE: usize = 14;

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
            EventKind::OpComplete(Box::new(OpCompletion {
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
            })),
            EventKind::OpComplete(Box::new(OpCompletion {
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
            })),
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

    /// A line with more fields than the widest event, unknown ones in
    /// front: the ones behind them are found all the same.
    #[test]
    fn a_line_with_more_fields_than_the_view_holds_is_not_cut_short() {
        let padding: String = (0..WIDEST_LINE + 3).map(|i| format!("\"pad{i}\":{i},")).collect();
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
        let EventKind::OpComplete(ok) = ok.kind else { panic!("not an op_complete") };
        assert_eq!(
            (ok.values, ok.stamp, ok.value, ok.version_ts_us),
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
