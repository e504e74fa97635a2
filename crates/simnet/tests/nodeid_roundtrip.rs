//! Property tests for compact `u32` [`NodeId`] round-trips.
//!
//! The id type is the narrowest field on the hot path, so every place
//! it crosses a representation boundary must be lossless right up to
//! `u32::MAX`: the slab envelope compact/expand step inside the timing
//! wheel, serde (JSONL) serialization, and the client-visible
//! [`OpRecord`]. Strategies bias toward the top of the range — the
//! off-by-one and truncation bugs live there, not in the middle.

use proptest::prelude::*;
use simnet::event::{EventPayload, EventQueue};
use simnet::{NodeId, OpKind, OpRecord, SimTime};

/// Ids clustered near `u32::MAX`, near zero, and anywhere in between.
fn node_id() -> impl Strategy<Value = NodeId> {
    prop_oneof![u32::MAX - 64..=u32::MAX, u32::MAX - 64..=u32::MAX, 0u32..=64, any::<u32>()]
        .prop_map(NodeId)
}

proptest! {
    /// A `Deliver` envelope's `from`/`to` ids survive the wheel's
    /// slab compact/expand round-trip.
    #[test]
    fn deliver_ids_round_trip_through_queue(
        from in node_id(),
        to in node_id(),
        at in 0u64..5_000_000,
        msg in any::<u64>(),
    ) {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_micros(at),
            EventPayload::Deliver { from, to, msg, trace: 7, span: 9 },
        );
        let ev = q.pop().expect("one event was pushed");
        match ev.payload {
            EventPayload::Deliver { from: f, to: t, msg: m, trace, span } => {
                prop_assert_eq!(f, from);
                prop_assert_eq!(t, to);
                prop_assert_eq!(m, msg);
                prop_assert_eq!((trace, span), (7, 9));
            }
            other => prop_assert!(false, "unexpected payload {other:?}"),
        }
    }

    /// A `Timer` envelope's node id survives compact/expand too.
    #[test]
    fn timer_ids_round_trip_through_queue(
        node in node_id(),
        at in 0u64..5_000_000,
        tag in any::<u64>(),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(
            SimTime::from_micros(at),
            EventPayload::Timer { node, timer_id: 3, tag, trace: 0, span: 0 },
        );
        let ev = q.pop().expect("one event was pushed");
        match ev.payload {
            EventPayload::Timer { node: n, tag: g, .. } => {
                prop_assert_eq!(n, node);
                prop_assert_eq!(g, tag);
            }
            other => prop_assert!(false, "unexpected payload {other:?}"),
        }
    }

    /// `NodeId` serializes as a bare number and round-trips through the
    /// JSONL representation losslessly.
    #[test]
    fn node_id_round_trips_through_json(id in node_id()) {
        let line = serde_json::to_string(&id).unwrap();
        prop_assert_eq!(&line, &id.0.to_string(), "NodeId must serialize as a bare u32");
        let back: NodeId = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, id);
    }

    /// A full `OpRecord` — the unit of every JSONL trace line — keeps
    /// its replica id exactly through a serialize/deserialize cycle.
    #[test]
    fn op_record_round_trips_through_jsonl(
        replica in node_id(),
        key in any::<u64>(),
        value in any::<u64>(),
        ok in any::<bool>(),
    ) {
        let rec = OpRecord {
            session: 1,
            op_id: 42,
            key,
            kind: OpKind::Write,
            value_written: Some(value),
            value_read: vec![],
            invoked: SimTime::from_micros(10),
            completed: SimTime::from_micros(250),
            replica,
            ok,
            version_ts: None,
            stamp: Some((3, replica.0 as u64)),
        };
        let line = serde_json::to_string(&rec).unwrap();
        prop_assert!(!line.contains('\n'), "JSONL lines must be newline-free");
        let back: OpRecord = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, rec);
    }
}
