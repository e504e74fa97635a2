//! The recorder's event log, kept packed.
//!
//! A retained event is a run of bytes in one buffer, not a
//! [`TracedEvent`](crate::TracedEvent) row: its tag byte (the event
//! type's place in the `wire_events!` table), then `seq` and `t_us` as
//! zigzag varint deltas from the previous retained event, then its
//! fields in wire order, as `wire_events!` packs them
//! (`EventKind::pack`). An integer is a LEB128 varint; a flag or a named
//! enum is one byte; an `island` or `values` list is its length and then
//! its elements; an optional field is a presence byte and then its
//! value; a span name is its place in the log's own table of the
//! distinct `&'static str` names it has seen. A protocol run packs 9 to
//! 12 bytes an event where a row is 72, and an `op_complete` needs no
//! box.
//!
//! The log has one reader: [`EventLog::write_lines`] reads it in one
//! direction, from the start, writing JSON lines straight from the
//! bytes. Every export goes through it, and a row comes back only by
//! parsing that text.

use crate::event::EventKind;

/// Retained events, packed; see the module docs for the layout.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    bytes: Vec<u8>,
    /// Events retained.
    len: usize,
    /// `seq` and `t_us` of the last retained event, which the next
    /// one's deltas are taken from.
    last_seq: u64,
    last_t_us: u64,
    /// Every distinct span name the log holds, in order of first use.
    names: Vec<&'static str>,
}

/// `d` folded so that a small step either way is a small number.
#[inline(always)]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline(always)]
fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

impl EventLog {
    /// Events retained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the packed events take (what the buffer holds, not what it
    /// has reserved).
    pub(crate) fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Start the next event: its tag byte and its envelope deltas. The
    /// caller then packs its fields, in wire order.
    #[inline]
    pub(crate) fn open(&mut self, tag: u8, seq: u64, t_us: u64) {
        self.bytes.push(tag);
        self.int(zigzag(seq.wrapping_sub(self.last_seq) as i64));
        self.int(zigzag(t_us.wrapping_sub(self.last_t_us) as i64));
        (self.last_seq, self.last_t_us) = (seq, t_us);
        self.len += 1;
    }

    #[inline]
    pub(crate) fn int(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.bytes.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.bytes.push(value as u8);
    }

    #[inline]
    pub(crate) fn byte(&mut self, value: u8) {
        self.bytes.push(value);
    }

    pub(crate) fn ints(&mut self, values: impl ExactSizeIterator<Item = u64>) {
        self.int(values.len() as u64);
        values.for_each(|v| self.int(v));
    }

    #[inline]
    pub(crate) fn opt_int(&mut self, value: Option<u64>) {
        self.byte(u8::from(value.is_some()));
        if let Some(v) = value {
            self.int(v);
        }
    }

    #[inline]
    pub(crate) fn opt_pair(&mut self, value: Option<(u64, u64)>) {
        self.byte(u8::from(value.is_some()));
        if let Some((first, second)) = value {
            self.int(first);
            self.int(second);
        }
    }

    /// A span name, as its place in the log's name table. A run has
    /// about twenty, so a scan settles it.
    #[inline]
    pub(crate) fn name(&mut self, name: &'static str) {
        let at = match self.names.iter().position(|known| *known == name) {
            Some(at) => at,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        self.int(at as u64);
    }

    /// Append each event's JSON line and its `\n` to `out`, calling
    /// `after_line` after each: what `TracedEvent::write_json_line`
    /// writes, read straight from the packed bytes, with no event
    /// rebuilt and nothing allocated but what `out` grows by.
    pub(crate) fn write_lines<E>(
        &self,
        out: &mut String,
        mut after_line: impl FnMut(&mut String) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut r = self.reader();
        while let Some((tag, seq, t_us)) = r.next_event() {
            EventKind::write_packed_line(tag, seq, t_us, &mut r, out);
            out.push('\n');
            after_line(out)?;
        }
        Ok(())
    }

    fn reader(&self) -> Unpacker<'_> {
        Unpacker { rest: &self.bytes, names: &self.names, seq: 0, t_us: 0 }
    }
}

/// A forward reader of an [`EventLog`]'s bytes. The log wrote them, so a
/// read past the end or a name outside the table is a bug, and panics.
pub(crate) struct Unpacker<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    names: &'a [&'static str],
    seq: u64,
    t_us: u64,
}

impl<'a> Unpacker<'a> {
    /// The next event's tag, `seq` and `t_us`, with the reader left at
    /// its first field; `None` at the end of the log.
    #[inline]
    fn next_event(&mut self) -> Option<(u8, u64, u64)> {
        let (&tag, rest) = self.rest.split_first()?;
        self.rest = rest;
        self.seq = self.seq.wrapping_add(unzigzag(self.int()) as u64);
        self.t_us = self.t_us.wrapping_add(unzigzag(self.int()) as u64);
        Some((tag, self.seq, self.t_us))
    }

    #[inline(always)]
    pub(crate) fn int(&mut self) -> u64 {
        let mut value = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            value |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return value;
            }
            shift += 7;
        }
    }

    #[inline(always)]
    pub(crate) fn byte(&mut self) -> u8 {
        let (&b, rest) = self.rest.split_first().expect("the log holds every field it packed");
        self.rest = rest;
        b
    }

    /// A list's elements, read as they are taken.
    pub(crate) fn ints(&mut self) -> Ints<'_, 'a> {
        let left = self.int() as usize;
        Ints { r: self, left }
    }

    #[inline]
    pub(crate) fn opt_int(&mut self) -> Option<u64> {
        (self.byte() != 0).then(|| self.int())
    }

    #[inline]
    pub(crate) fn opt_pair(&mut self) -> Option<(u64, u64)> {
        (self.byte() != 0).then(|| (self.int(), self.int()))
    }

    #[inline]
    pub(crate) fn name(&mut self) -> &'static str {
        self.names[self.int() as usize]
    }
}

/// The elements of a packed list. Each must be taken before the reader
/// goes on to the next field.
pub(crate) struct Ints<'r, 'a> {
    r: &'r mut Unpacker<'a>,
    left: usize,
}

impl Iterator for Ints<'_, '_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        Some(self.r.int())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        ClientOpKind, DropReason, OpCompletion, QuorumKind, SpanStatus, TracedEvent,
    };
    use crate::{Counter, Recorder};
    use proptest::TestRng;
    use std::collections::BTreeSet;

    /// Span names, some of which a JSON string must escape.
    const NAMES: [&str; 8] = [
        "op_read",
        "",
        "we\"ird",
        "back\\slash",
        "new\nline",
        "\u{1}\u{1f}",
        "naïve/é😀",
        "op_write",
    ];

    /// A field value: 0, `u64::MAX`, small, or random at a random width.
    fn int(rng: &mut TestRng) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(300),
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    /// A node a counter is kept for, or an amount a counter adds: the
    /// recorder sizes a table by the one and sums the other.
    fn counted(rng: &mut TestRng, extreme: bool) -> u64 {
        if extreme {
            int(rng)
        } else {
            rng.below(5)
        }
    }

    fn list(rng: &mut TestRng) -> Vec<u64> {
        let len = match rng.below(3) {
            0 => 0,
            1 => 1 + rng.below(3),
            _ => 200 + rng.below(800),
        };
        (0..len).map(|_| int(rng)).collect()
    }

    fn opt<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
        (rng.below(2) == 0).then(|| value(rng))
    }

    fn pick<T: Copy>(rng: &mut TestRng, all: &[T]) -> T {
        all[rng.below(all.len() as u64) as usize]
    }

    fn completion(rng: &mut TestRng) -> OpCompletion {
        OpCompletion {
            session: int(rng),
            op: int(rng),
            key: int(rng),
            kind: pick(rng, &ClientOpKind::ALL),
            ok: rng.below(2) == 0,
            invoked_us: int(rng),
            replica: pick(rng, &[0, 1, u32::MAX]),
            value: opt(rng, int),
            values: list(rng),
            stamp: opt(rng, |rng| (int(rng), int(rng))),
            version_ts_us: opt(rng, int),
        }
    }

    /// An event of type `tag` (its place in `WIRE_TABLE`); what a
    /// counter is kept by or adds is small unless `extreme`.
    fn event(rng: &mut TestRng, tag: usize, extreme: bool) -> EventKind {
        let node = |rng: &mut TestRng| counted(rng, extreme);
        match tag {
            0 => EventKind::MessageSent {
                from: node(rng),
                to: int(rng),
                bytes: node(rng),
                trace: int(rng),
                span: int(rng),
            },
            1 => EventKind::MessageDelivered {
                from: int(rng),
                to: node(rng),
                bytes: node(rng),
                trace: int(rng),
                span: int(rng),
            },
            2 => EventKind::MessageDropped {
                from: int(rng),
                to: node(rng),
                reason: pick(rng, &DropReason::ALL),
                trace: int(rng),
                span: int(rng),
            },
            3 => EventKind::AntiEntropyRound { node: node(rng), fanout: int(rng) },
            4 => EventKind::QuorumWait {
                node: node(rng),
                kind: pick(rng, &QuorumKind::ALL),
                waited_us: int(rng),
                acks: int(rng),
                needed: int(rng),
            },
            5 => EventKind::ConflictDetected { node: node(rng), key: int(rng), siblings: int(rng) },
            6 => {
                EventKind::ConflictResolved { node: node(rng), key: int(rng), survivors: int(rng) }
            }
            7 => EventKind::WalAppend { node: node(rng), key: int(rng), bytes: node(rng) },
            8 => EventKind::PartitionStart { island: list(rng) },
            9 => EventKind::PartitionHeal,
            10 => EventKind::Crash { node: node(rng) },
            11 => EventKind::Recover { node: node(rng) },
            12 => EventKind::MembershipChange { node: int(rng), join: rng.below(2) == 0 },
            13 => EventKind::WalReplay { node: node(rng), records: node(rng) },
            14 => EventKind::SpanOpen {
                trace: int(rng),
                span: int(rng),
                parent: int(rng),
                node: node(rng),
                name: pick(rng, &NAMES),
            },
            15 => EventKind::SpanClose {
                trace: int(rng),
                span: int(rng),
                node: node(rng),
                status: pick(rng, &SpanStatus::ALL),
            },
            16 => EventKind::OpComplete(Box::new(completion(rng))),
            _ => unreachable!("{} event types", EventKind::WIRE_TABLE.len()),
        }
    }

    /// A `t_us` that mostly moves forward, sometimes stays or jumps back
    /// (as when a second run records into the same recorder), and is
    /// sometimes an extreme.
    fn next_t_us(rng: &mut TestRng, t_us: u64) -> u64 {
        match rng.below(8) {
            0 => t_us.saturating_sub(rng.below(1 << 20)),
            1 => int(rng),
            2 => t_us,
            _ => t_us.saturating_add(rng.below(5_000)),
        }
    }

    fn lines(events: &[TracedEvent]) -> String {
        let mut out = String::new();
        for ev in events {
            ev.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }

    #[test]
    fn the_generator_makes_every_event_type() {
        let mut rng = TestRng::new(1);
        let tags: BTreeSet<&str> = (0..EventKind::WIRE_TABLE.len())
            .map(|tag| event(&mut rng, tag, true).type_name())
            .collect();
        assert_eq!(tags.len(), EventKind::WIRE_TABLE.len());
    }

    proptest::proptest! {
        /// What is packed is what comes back, event for event, and what
        /// is written from the packed bytes is what the rows write: every
        /// event type, fields at 0 and at `u64::MAX`, empty and long
        /// lists, optional fields absent and present, names that need
        /// escaping, `seq` that skips and `t_us` that goes back.
        #[test]
        fn a_packed_log_gives_back_what_was_packed(seed in proptest::prelude::any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut log = EventLog::default();
            let mut events = Vec::new();
            let (mut seq, mut t_us) = (int(&mut rng), int(&mut rng));
            for _ in 0..rng.below(120) {
                let tag = rng.below(EventKind::WIRE_TABLE.len() as u64) as usize;
                let kind = event(&mut rng, tag, true);
                match &kind {
                    // A payload packs as the event that boxes it.
                    EventKind::OpComplete(payload) if rng.below(2) == 0 => {
                        payload.pack(seq, t_us, &mut log)
                    }
                    kind => kind.pack(seq, t_us, &mut log),
                }
                events.push(TracedEvent { seq, t_us, kind });
                seq = seq.wrapping_add(1 + rng.below(3) * rng.below(1 << 40));
                t_us = next_t_us(&mut rng, t_us);
            }
            proptest::prop_assert_eq!(log.len(), events.len());
            let mut out = String::new();
            let mut ends = 0;
            let Ok(()) = log.write_lines(&mut out, |out| {
                ends += 1;
                assert!(out.ends_with('\n'));
                Ok::<(), std::convert::Infallible>(())
            });
            proptest::prop_assert_eq!(ends, events.len());
            proptest::prop_assert_eq!(&out, &lines(&events));
            // Line by line: `seq` may wrap, which a whole document refuses.
            let back: Vec<TracedEvent> =
                out.lines().map(|line| crate::parse_line(line, 0).unwrap()).collect();
            proptest::prop_assert_eq!(back, events);
        }

        /// Through the recorder: `seq` numbers every event, a lowered cap
        /// drops (and counts) what comes past it, a raised one keeps what
        /// comes after, and each read of the log gives what was kept.
        #[test]
        fn a_recorder_keeps_what_its_cap_lets_in(seed in proptest::prelude::any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let rec = Recorder::with_event_log();
            let mut kept = Vec::new();
            let mut cap = usize::MAX;
            let mut t_us = 0;
            let total = rng.below(200);
            for seq in 0..total {
                if rng.below(20) == 0 {
                    // Lowered below what is kept, to it, or raised.
                    cap = match rng.below(3) {
                        0 => kept.len().saturating_sub(1 + rng.below(3) as usize),
                        1 => kept.len(),
                        _ => usize::MAX,
                    };
                    rec.set_event_cap(cap);
                }
                let tag = rng.below(EventKind::WIRE_TABLE.len() as u64) as usize;
                let kind = event(&mut rng, tag, false);
                match &kind {
                    EventKind::OpComplete(payload) if rng.below(2) == 0 => {
                        rec.record_op_complete(t_us, || (**payload).clone())
                    }
                    kind => rec.record(t_us, kind.clone()),
                }
                if kept.len() < cap {
                    kept.push(TracedEvent { seq, t_us, kind });
                }
                t_us = next_t_us(&mut rng, t_us);
            }
            let report = rec.report();
            proptest::prop_assert_eq!(report.events_recorded, total);
            proptest::prop_assert_eq!(report.events_dropped, total - kept.len() as u64);
            let jsonl = rec.export_jsonl();
            proptest::prop_assert_eq!(&jsonl, &lines(&kept));
            proptest::prop_assert_eq!(&crate::parse_jsonl(&jsonl).unwrap(), &kept);
            let mut streamed = Vec::new();
            rec.write_jsonl_to(&mut streamed).unwrap();
            proptest::prop_assert_eq!(streamed, jsonl.into_bytes());
            proptest::prop_assert_eq!(rec.event_log_bytes() > 0, !kept.is_empty());
            let crashes = kept.iter().filter(|ev| matches!(ev.kind, EventKind::Crash { .. })).count();
            proptest::prop_assert!(report.counter(Counter::Crashes) >= crashes as u64);
        }
    }

    #[test]
    fn zigzag_keeps_small_steps_small_and_round_trips() {
        assert_eq!([0, -1, 1, -2, 2].map(zigzag), [0, 1, 2, 3, 4]);
        for d in [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut log = EventLog::default();
        let values: Vec<u64> =
            (0..64).flat_map(|k| [(1u64 << k) - 1, 1 << k]).chain([u64::MAX]).collect();
        for &v in &values {
            log.int(v);
        }
        assert_eq!(
            log.packed_bytes(),
            values.iter().map(|&v| v.max(1).ilog2() / 7 + 1).sum::<u32>() as usize
        );
        let mut r = log.reader();
        for &v in &values {
            assert_eq!(r.int(), v);
        }
        assert!(r.rest.is_empty());
    }

    /// A named enum is packed as its discriminant and read back as that
    /// place in `ALL`, which `names!` makes the same thing.
    #[test]
    fn a_wire_enum_is_its_place_in_all() {
        macro_rules! check {
            ($($ty:ident),*) => {$(
                for (i, v) in $ty::ALL.into_iter().enumerate() {
                    assert_eq!(v as usize, i, "{v:?}");
                }
                assert!($ty::COUNT <= 256);
            )*};
        }
        check!(DropReason, QuorumKind, ClientOpKind, SpanStatus);
    }
}
