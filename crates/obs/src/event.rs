//! Typed simulation events and their JSONL wire format.
//!
//! Every event names the *cause* of an observable protocol behavior:
//! which message was dropped and why, which node ran an anti-entropy
//! round, how long a coordinator waited for its quorum. Checkers and
//! humans consume the log to attribute end-to-end anomalies (staleness,
//! latency spikes, unavailability) to concrete mechanisms.
//!
//! The wire format is one JSON object per line (JSONL), documented field
//! by field in `docs/METRICS.md`, and this module is its one owner: the
//! `wire_events!` table below declares every event type once — its tag
//! and its fields in wire order, each with its kind — and [`EventKind`],
//! [`EventKind::type_name`], the encoder
//! ([`TracedEvent::write_json_line`]), the decoder ([`parse_line`],
//! [`parse_jsonl`]) and the packed form the recorder keeps its log in
//! (`crate::packed`: packing, unpacking, and writing a line straight
//! from the packed bytes) are all generated from it; the four named
//! enums are `names!` lists, like every other name the lab exports. A
//! field or a name is spelled once.
//!
//! The encoder appends to the caller's buffer, so the byte output is a
//! pure function of the event sequence (the determinism tests compare
//! whole files) and costs no allocation. An integer goes out two digits
//! at a time: one division by 100 per pair, each pair below the leading
//! digits a slice of a 200-byte table of `"00"` to `"99"`, nothing to
//! validate.
//!
//! The decoder builds no tree either, and it has two readers. The
//! *template reader* reads a line in one forward pass against the exact
//! bytes the encoder writes — `{"seq":`, digits, `,"t_us":`, digits,
//! `,"type":"tag"`, each `,"field":value` in wire order, `}`, then `\n`
//! or the end of the input — and declines at the first byte that
//! differs. It is generated from the same table as the encoder, one
//! `wire_scan!` arm per field kind, so it takes what the encoder writes
//! and nothing else: integers of one to nineteen digits without a
//! leading zero, strings without a quote or a backslash, a `node` that
//! fits `u32`, names `from_name` knows, an optional field present
//! exactly when its key comes next. The input alone selects the reader,
//! line by line: [`parse_jsonl`] and [`parse_line`] try the template
//! first and give any line it declines, unchanged, to the *general
//! decoder*.
//!
//! The general decoder is the definition of what a line means; the
//! template reader only ever returns what it would. One pass of
//! `serde_json`'s lexer ([`serde_json::visit_fields`]) validates the
//! line and puts each field, borrowed from the line, into the slot of
//! its key: the keys are the ones the table declares, collected at
//! compile time, and a key that is none is validated and never read.
//! Every read of the generated reader names its field by a literal, so
//! its slot is a constant. It reads whitespace, any key order, unknown
//! and repeated keys and escapes, and it alone words every error, so
//! events, errors and line numbers are the ones it has always given.
//!
//! Either way a line an encoder wrote is parsed without touching the
//! heap, apart from the `Box` an `op_complete`'s [`OpCompletion`] lives
//! in and the `Vec` of a non-empty `values` or `island`, of exactly its
//! length (`tests/trace_codec_allocs.rs` counts); so is any other line
//! without an escaped string, however many fields it has.
//!
//! The decode contract (stated in `docs/METRICS.md`, pinned by
//! `tests/trace_codec.rs` against the tree-building parser this
//! replaced, which lives on as `tests/oracle/trace_parse.rs`): fields in
//! any order, with any JSON whitespace between tokens, but always the
//! documented field *set* of the event type, so a malformed or truncated
//! trace fails loudly instead of silently skewing analysis; unknown
//! fields validated and ignored, whatever they hold; of a key that
//! occurs twice the first occurrence counts; an optional field is `Some`
//! exactly when its key is present; an integer is a run of digits that
//! fits `u64` (leading zeros and `-0` allowed, fractions and exponents
//! not), and a `node` field's integer fits `u32`. Span names are
//! interned — a `span_open` holds a `&'static str` — in a table of at
//! most [`MAX_SPAN_NAMES`] names a process. Of a document, the lines
//! follow the order of their `seq` ([`SeqOrder`]).

use crate::counters::Counter;
use crate::packed::{EventLog, Unpacker};
use serde_json::{Field, RawArray};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, PoisonError};

names! {
    /// Why the network dropped a message.
    DropReason, "drop reason" {
        /// Sender and destination are in different partition islands.
        Partition = "partition",
        /// Random loss (the fault schedule's loss rate fired).
        Loss = "loss",
        /// The destination node is crashed.
        CrashedDestination = "crashed_destination",
        /// The simulation ended (horizon reached or torn down) with the
        /// message still in flight. Without this, in-flight messages would
        /// silently break the `messages_sent == messages_delivered +
        /// messages_dropped` conservation identity.
        Shutdown = "shutdown",
    }
}

names! {
    /// Whether a quorum operation was a read or a write.
    QuorumKind, "quorum kind" {
        /// Read quorum (R acks).
        Read = "read",
        /// Write quorum (W acks).
        Write = "write",
    }
}

names! {
    /// Whether a completed client operation was a read or a write.
    ///
    /// Mirrors the simulator's `OpKind` without importing it — `obs` stays
    /// independent of `simnet` (see [`EventKind`] docs).
    ClientOpKind, "op kind" {
        /// A read operation.
        Read = "read",
        /// A write operation.
        Write = "write",
    }
}

names! {
    /// How a span ended.
    SpanStatus, "span status" {
        /// The step completed normally.
        Ok = "ok",
        /// The step failed (timeout, quorum not reached, abort).
        Failed = "failed",
        /// The run ended (horizon or teardown) with the span still open.
        /// Mirrors [`DropReason::Shutdown`] for in-flight messages:
        /// without it, spans open at the horizon would break the
        /// `spans_opened == spans_closed` conservation identity.
        Abandoned = "abandoned",
    }
}

/// The keys every line opens with, ahead of its event's own fields.
macro_rules! envelope {
    (seq) => {
        "seq"
    };
    (t_us) => {
        "t_us"
    };
    (tag) => {
        "type"
    };
}

/// The [`Key`] called `$name`, a constant: a name that is no wire key
/// fails the build.
macro_rules! key {
    ($name:expr) => {
        const { Key::of($name) }
    };
}

/// The Rust type of a field of each kind (the kinds are listed at
/// `wire_events!`).
macro_rules! wire_type {
    (int) => { u64 };
    (node) => { u32 };
    (flag) => { bool };
    (named($ty:ident)) => { $ty };
    (ints($noun:literal)) => { Vec<u64> };
    (opt_int) => { Option<u64> };
    (opt_pair) => { Option<(u64, u64)> };
    (interned) => { &'static str };
}

/// `,"field":` — the punctuation is joined to the name at compile time,
/// so it goes out in one piece.
macro_rules! wire_key {
    ($field:ident $(, $open:literal)?) => {
        concat!(",\"", stringify!($field), "\":" $(, $open)?)
    };
}

/// Append `,"field":value` to `$out`, `$value` being field `$field`'s
/// value as [`wire_row!`] or [`wire_unpack!`] gives it, evaluated once.
/// An optional field is omitted when absent; the decoder reads by name,
/// so presence is the `None`/`Some` signal.
macro_rules! wire_write {
    (int, $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field));
        push_u64($out, $value);
    }};
    (node, $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field));
        push_u64($out, u64::from($value));
    }};
    (flag, $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field));
        $out.push_str(if $value { "true" } else { "false" });
    }};
    (named($ty:ident), $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field, "\""));
        $out.push_str($value.name());
        $out.push('"');
    }};
    (ints($noun:literal), $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field));
        push_u64_array($out, $value);
    }};
    (opt_int, $out:ident, $field:ident, $value:expr) => {
        if let Some(value) = $value {
            $out.push_str(wire_key!($field));
            push_u64($out, value);
        }
    };
    (opt_pair, $out:ident, $field:ident, $value:expr) => {
        if let Some((first, second)) = $value {
            $out.push_str(wire_key!($field));
            push_u64_array($out, [first, second]);
        }
    };
    (interned, $out:ident, $field:ident, $value:expr) => {{
        $out.push_str(wire_key!($field, "\""));
        push_escaped($out, $value);
        $out.push('"');
    }};
}

/// The value `wire_write!` and `wire_pack!` take for the binding
/// `$field` of a matched variant: a copy, or a list's elements.
macro_rules! wire_row {
    (ints($noun:literal), $field:ident) => {
        $field.iter().copied()
    };
    ($kind:ident $(($arg:tt))?, $field:ident) => {
        *$field
    };
}

/// Pack `$value`, a field's value as [`wire_row!`] gives it, into the
/// [`EventLog`] `$log` (the layout is in [`crate::packed`]).
macro_rules! wire_pack {
    (int, $log:ident, $value:expr) => {
        $log.int($value)
    };
    (node, $log:ident, $value:expr) => {
        $log.int(u64::from($value))
    };
    (flag, $log:ident, $value:expr) => {
        $log.byte(u8::from($value))
    };
    (named($ty:ident), $log:ident, $value:expr) => {
        $log.byte($value as u8)
    };
    (ints($noun:literal), $log:ident, $value:expr) => {
        $log.ints($value)
    };
    (opt_int, $log:ident, $value:expr) => {
        $log.opt_int($value)
    };
    (opt_pair, $log:ident, $value:expr) => {
        $log.opt_pair($value)
    };
    (interned, $log:ident, $value:expr) => {
        $log.name($value)
    };
}

/// The next field's value off the [`Unpacker`] `$r`, as `wire_pack!`
/// packed it: the field's type, but a list's elements as they are read.
macro_rules! wire_unpack {
    (int, $r:ident) => {
        $r.int()
    };
    (node, $r:ident) => {
        $r.int() as u32
    };
    (flag, $r:ident) => {
        $r.byte() != 0
    };
    (named($ty:ident), $r:ident) => {
        $ty::ALL[usize::from($r.byte())]
    };
    (ints($noun:literal), $r:ident) => {
        $r.ints()
    };
    (opt_int, $r:ident) => {
        $r.opt_int()
    };
    (opt_pair, $r:ident) => {
        $r.opt_pair()
    };
    (interned, $r:ident) => {
        $r.name()
    };
}

/// Read field `$field` out of the [`Line`] `$line`; `$names` interns.
/// The field's slot is a constant, so a read is one probe.
macro_rules! wire_read {
    (int, $line:ident, $names:ident, $field:ident) => {
        u64_field($line, key!(stringify!($field)))?
    };
    (node, $line:ident, $names:ident, $field:ident) => {
        node_field($line, key!(stringify!($field)))?
    };
    (flag, $line:ident, $names:ident, $field:ident) => {
        bool_field($line, key!(stringify!($field)))?
    };
    (named($ty:ident), $line:ident, $names:ident, $field:ident) => {
        $ty::from_name(str_field($line, key!(stringify!($field)))?)?
    };
    (ints($noun:literal), $line:ident, $names:ident, $field:ident) => {
        u64_array_field($line, key!(stringify!($field)), $noun)?
    };
    (opt_int, $line:ident, $names:ident, $field:ident) => {
        opt_u64_field($line, key!(stringify!($field)))?
    };
    (opt_pair, $line:ident, $names:ident, $field:ident) => {
        pair_field($line, key!(stringify!($field)))?
    };
    (interned, $line:ident, $names:ident, $field:ident) => {
        $names(str_field($line, key!(stringify!($field)))?)?
    };
}

/// Read `,"field":value` off the front of `$rest` in the bytes
/// `wire_write!` writes it in, or return `None` from the template reader
/// at the first byte that differs. An optional field is present exactly
/// when its key comes next. An `interned` name is left as the line has
/// it, for [`wire_take!`] to intern once the whole line has matched.
macro_rules! wire_scan {
    (int, $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field))?;
        scan_u64($rest)?
    }};
    (node, $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field))?;
        u32::try_from(scan_u64($rest)?).ok()?
    }};
    (flag, $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field))?;
        scan_bool($rest)?
    }};
    (named($ty:ident), $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field, "\""))?;
        $ty::from_name(scan_str($rest)?).ok()?
    }};
    (ints($noun:literal), $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field))?;
        scan_u64_array($rest)?
    }};
    (opt_int, $rest:ident, $field:ident) => {
        match expect($rest, wire_key!($field)) {
            Some(()) => Some(scan_u64($rest)?),
            None => None,
        }
    };
    (opt_pair, $rest:ident, $field:ident) => {
        match expect($rest, wire_key!($field)) {
            Some(()) => Some(scan_pair($rest)?),
            None => None,
        }
    };
    (interned, $rest:ident, $field:ident) => {{
        expect($rest, wire_key!($field, "\""))?;
        scan_str($rest)?
    }};
}

/// The value of a field `wire_scan!` read: an `interned` name goes
/// through `$names`, whose refusal (a full table) declines the line;
/// every other kind is what was read.
macro_rules! wire_take {
    (interned, $names:ident, $field:ident) => {
        $names($field).ok()?
    };
    ($kind:ident $(($arg:tt))?, $names:ident, $field:ident) => {
        $field
    };
}

/// The event table: `Variant = "type_tag" { field: kind, ... }`, fields
/// in wire order, then a `; boxed { ... }` group of `Variant =
/// "type_tag" Payload { field: kind, ... }` whose fields live in a
/// generated struct `Payload` that the variant holds in a `Box`, so
/// that a rare wide event does not set the size of every row (of a
/// parsed log; the recorder keeps no rows, and packs a payload without
/// boxing it). Both groups are one table to the wire: `WIRE_TABLE`, the
/// encoder, the decoder and the packing do not tell them apart; an
/// event type's place in the table is its tag byte in the packed log.
/// The kinds, with their Rust type, their JSON form and their packed
/// form:
///
/// | kind | type | on the wire | packed |
/// |---|---|---|---|
/// | `int` | `u64` | decimal integer | varint |
/// | `node` | `u32` | decimal integer; one past `u32::MAX` is an error naming the field | varint |
/// | `flag` | `bool` | `true` / `false` | one byte |
/// | `named(E)` | `E`, a `names!` enum | its name, as a string | one byte, its place in `E::ALL` |
/// | `ints("noun")` | `Vec<u64>` | array of integers (`noun` is what a decode error calls a bad element) | varint length, then varints |
/// | `opt_int` | `Option<u64>` | integer, key omitted when `None` | presence byte, then a varint |
/// | `opt_pair` | `Option<(u64, u64)>` | `[counter, actor]`, key omitted when `None` | presence byte, then two varints |
/// | `interned` | `&'static str` | string (interned on decode) | varint, its place in the log's name table |
macro_rules! wire_events {
    ($(#[$doc:meta])* $enum:ident {
        $(
            $(#[$vdoc:meta])*
            $variant:ident = $tag:literal $({
                $($(#[$fdoc:meta])* $field:ident: $kind:ident $(($arg:tt))?,)*
            })?
        )*
        ; boxed {
            $(
                $(#[$bdoc:meta])*
                $bvariant:ident = $btag:literal $payload:ident {
                    $($(#[$bfdoc:meta])* $bfield:ident: $bkind:ident $(($barg:tt))?,)*
                }
            )*
        }
    }) => {
        $(
            #[doc = concat!("The fields of [`", stringify!($enum), "::", stringify!($bvariant),
                "`], which holds them in a `Box`.")]
            #[derive(Debug, Clone, PartialEq)]
            pub struct $payload {
                $($(#[$bfdoc])* pub $bfield: wire_type!($bkind $(($barg))?),)*
            }
        )*

        /// The packed log's tag byte of each event type: its place in
        /// the table.
        #[derive(Clone, Copy)]
        enum Tag {
            $($variant,)*
            $($bvariant,)*
        }

        /// Every [`Tag`], at its own place.
        const TAGS: &[Tag] = &[$(Tag::$variant,)* $(Tag::$bvariant,)*];

        $(
            impl $payload {
                /// Append the event that holds this payload to `log` as
                /// event `seq` at `t_us`, without boxing it.
                pub(crate) fn pack(&self, seq: u64, t_us: u64, log: &mut EventLog) {
                    log.open(Tag::$bvariant as u8, seq, t_us);
                    let $payload { $($bfield),* } = self;
                    $(wire_pack!($bkind $(($barg))?, log, wire_row!($bkind $(($barg))?, $bfield));)*
                }
            }
        )*

        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $enum {
            $(
                $(#[$vdoc])*
                $variant $({
                    $($(#[$fdoc])* $field: wire_type!($kind $(($arg))?),)*
                })?,
            )*
            $(
                $(#[$bdoc])*
                $bvariant(Box<$payload>),
            )*
        }

        impl $enum {
            /// Every event type as `(type tag, field names in wire
            /// order)` — after `seq`, `t_us` and `type`, which every
            /// line starts with. `docs/METRICS.md` is held to this.
            pub const WIRE_TABLE: &'static [(&'static str, &'static [&'static str])] = &[
                $(($tag, &[$($(stringify!($field)),*)?]),)*
                $(($btag, &[$(stringify!($bfield)),*]),)*
            ];

            /// Stable snake_case type tag used in the JSONL encoding.
            pub fn type_name(&self) -> &'static str {
                match self {
                    $($enum::$variant { .. } => $tag,)*
                    $($enum::$bvariant(_) => $btag,)*
                }
            }

            /// Append `,"type":"tag"` — one constant per type — and
            /// `,"field":value` for each field, in wire order.
            #[inline]
            fn write_fields(&self, out: &mut String) {
                match self {
                    $($enum::$variant { $($($field),*)? } => {
                        out.push_str(concat!(",\"", envelope!(tag), "\":\"", $tag, "\""));
                        $($(wire_write!($kind $(($arg))?, out, $field,
                            wire_row!($kind $(($arg))?, $field));)*)?
                    })*
                    $($enum::$bvariant(payload) => {
                        out.push_str(concat!(",\"", envelope!(tag), "\":\"", $btag, "\""));
                        let $payload { $($bfield),* } = &**payload;
                        $(wire_write!($bkind $(($barg))?, out, $bfield,
                            wire_row!($bkind $(($barg))?, $bfield));)*
                    })*
                }
            }

            /// Append this event to `log` as event `seq` at `t_us`.
            pub(crate) fn pack(&self, seq: u64, t_us: u64, log: &mut EventLog) {
                match self {
                    $($enum::$variant { $($($field),*)? } => {
                        log.open(Tag::$variant as u8, seq, t_us);
                        $($(wire_pack!($kind $(($arg))?, log,
                            wire_row!($kind $(($arg))?, $field));)*)?
                    })*
                    $($enum::$bvariant(payload) => payload.pack(seq, t_us, log),)*
                }
            }

            /// Append the line [`TracedEvent::write_json_line`] writes for
            /// event `seq` at `t_us` of type `tag`, whose fields `r` is at,
            /// straight from the packed bytes.
            pub(crate) fn write_packed_line(
                tag: u8,
                seq: u64,
                t_us: u64,
                r: &mut Unpacker,
                out: &mut String,
            ) {
                write_envelope(out, seq, t_us);
                match TAGS[usize::from(tag)] {
                    $(Tag::$variant => {
                        out.push_str(concat!(",\"", envelope!(tag), "\":\"", $tag, "\""));
                        $($(wire_write!($kind $(($arg))?, out, $field,
                            wire_unpack!($kind $(($arg))?, r));)*)?
                    })*
                    $(Tag::$bvariant => {
                        out.push_str(concat!(",\"", envelope!(tag), "\":\"", $btag, "\""));
                        $(wire_write!($bkind $(($barg))?, out, $bfield,
                            wire_unpack!($bkind $(($barg))?, r));)*
                    })*
                }
                out.push('}');
            }

            /// The event of type `tag` whose fields `line` holds;
            /// `names` turns a span name into the `&'static str` the
            /// event holds.
            fn read_fields(
                tag: &str,
                line: &Line,
                names: &mut impl FnMut(&str) -> Result<&'static str, String>,
            ) -> Result<$enum, String> {
                Ok(match tag {
                    $($tag => $enum::$variant {
                        $($($field: wire_read!($kind $(($arg))?, line, names, $field),)*)?
                    },)*
                    $($btag => $enum::$bvariant(Box::new($payload {
                        $($bfield: wire_read!($bkind $(($barg))?, line, names, $bfield),)*
                    })),)*
                    other => return Err(format!("unknown event type `{other}`")),
                })
            }

            /// The template reader's part of a line: the event of type
            /// `tag` whose fields, the closing brace and the line end
            /// are the front of `rest`, exactly as `write_fields` and
            /// `write_json_line` write them, with `rest` moved past
            /// them; `None` at the first byte that differs. `names`
            /// interns a span name once the line has matched to its end.
            #[inline]
            fn scan_fields(
                tag: &str,
                rest: &mut &str,
                names: &mut impl FnMut(&str) -> Result<&'static str, String>,
            ) -> Option<$enum> {
                Some(match tag {
                    $($tag => {
                        $($(let $field = wire_scan!($kind $(($arg))?, rest, $field);)*)?
                        line_end(rest)?;
                        $enum::$variant {
                            $($($field: wire_take!($kind $(($arg))?, names, $field),)*)?
                        }
                    })*
                    $($btag => {
                        $(let $bfield = wire_scan!($bkind $(($barg))?, rest, $bfield);)*
                        line_end(rest)?;
                        $enum::$bvariant(Box::new($payload {
                            $($bfield: wire_take!($bkind $(($barg))?, names, $bfield),)*
                        }))
                    })*
                    _ => return None,
                })
            }
        }
    };
}

wire_events! {
    /// A structured simulation event.
    ///
    /// Node ids are raw `u64`s (the simulator's `NodeId` index) so that this
    /// crate stays independent of `simnet` and can also serve non-simulated
    /// components (e.g. the WAL in a threaded deployment).
    EventKind {
        /// A message left `from` bound for `to`. `bytes` is the approximate
        /// in-memory size of the payload.
        MessageSent = "message_sent" {
            /// Sending node.
            from: int,
            /// Destination node.
            to: int,
            /// Approximate payload size in bytes.
            bytes: int,
            /// Trace carrying this message (0 = untraced).
            trace: int,
            /// Span active when the message was sent (0 = none).
            span: int,
        }
        /// A message from `from` was delivered to `to`.
        MessageDelivered = "message_delivered" {
            /// Sending node.
            from: int,
            /// Destination node.
            to: int,
            /// Approximate payload size in bytes.
            bytes: int,
            /// Trace carrying this message (0 = untraced).
            trace: int,
            /// Span active when the message was sent (0 = none).
            span: int,
        }
        /// A message from `from` to `to` was dropped.
        MessageDropped = "message_dropped" {
            /// Sending node.
            from: int,
            /// Destination node.
            to: int,
            /// Why the network dropped it.
            reason: named(DropReason),
            /// Trace carrying this message (0 = untraced).
            trace: int,
            /// Span active when the message was sent (0 = none).
            span: int,
        }
        /// A replica initiated an anti-entropy (gossip) exchange round.
        AntiEntropyRound = "anti_entropy_round" {
            /// The initiating replica.
            node: int,
            /// How many peers it contacted this round.
            fanout: int,
        }
        /// A coordinator assembled a quorum: it waited `waited_us` between
        /// issuing the request and receiving the `needed`-th ack.
        QuorumWait = "quorum_wait" {
            /// The coordinating node.
            node: int,
            /// Read or write quorum.
            kind: named(QuorumKind),
            /// Microseconds from issue to quorum.
            waited_us: int,
            /// Acks actually received when the quorum completed.
            acks: int,
            /// Acks required (R or W).
            needed: int,
        }
        /// Concurrent versions of `key` were detected at `node`
        /// (`siblings` ≥ 2 versions with incomparable causality).
        ConflictDetected = "conflict_detected" {
            /// The observing node.
            node: int,
            /// The key with concurrent versions.
            key: int,
            /// Number of concurrent siblings.
            siblings: int,
        }
        /// A conflict on `key` at `node` was resolved down to `survivors`
        /// version(s) (last-writer-wins, merge, or read-repair).
        ConflictResolved = "conflict_resolved" {
            /// The resolving node.
            node: int,
            /// The key that was resolved.
            key: int,
            /// Versions remaining after resolution.
            survivors: int,
        }
        /// A record was appended to `node`'s write-ahead log.
        WalAppend = "wal_append" {
            /// The appending node.
            node: int,
            /// The key written.
            key: int,
            /// Encoded record size in bytes.
            bytes: int,
        }
        /// A network partition began; `island` lists the nodes cut off from
        /// the rest.
        PartitionStart = "partition_start" {
            /// Nodes in the minority island.
            island: ints("node"),
        }
        /// The current network partition healed.
        PartitionHeal = "partition_heal"
        /// `node` crashed (stops processing until recovery).
        Crash = "crash" {
            /// The crashed node.
            node: int,
        }
        /// `node` recovered from a crash.
        Recover = "recover" {
            /// The recovered node.
            node: int,
        }
        /// Cluster membership changed: `node` joined (`join`) or left the
        /// logical cluster, triggering deterministic ring rebalancing in
        /// ring-aware protocols.
        MembershipChange = "membership_change" {
            /// The node joining or leaving.
            node: int,
            /// `true` = join, `false` = leave.
            join: flag,
        }
        /// `node` rebuilt its store by replaying its write-ahead log after an
        /// amnesia (state-wiping) restart.
        WalReplay = "wal_replay" {
            /// The recovering node.
            node: int,
            /// Number of log records replayed into the store.
            records: int,
        }
        /// A trace span opened at `node`. Together with the matching
        /// [`EventKind::SpanClose`], the pair bounds one step of an
        /// operation in virtual time; `parent` links the span tree.
        SpanOpen = "span_open" {
            /// The trace this span belongs to.
            trace: int,
            /// This span's id (unique within the run).
            span: int,
            /// Parent span id (0 for a root span).
            parent: int,
            /// The node the step ran on.
            node: int,
            /// Static step name (e.g. `op_read`, `quorum_write`).
            name: interned,
        }
        /// The span opened by the matching [`EventKind::SpanOpen`] closed.
        SpanClose = "span_close" {
            /// The trace this span belongs to.
            trace: int,
            /// The closing span's id.
            span: int,
            /// The node the step ran on.
            node: int,
            /// How the step ended.
            status: named(SpanStatus),
        }
        ; boxed {
            /// A client operation completed (or timed out) — the event-stream
            /// mirror of the simulator's `OpRecord`, emitted at completion time
            /// so the streaming consistency checkers (`consistency::stream`,
            /// `tracequery check --stream`) can verify guarantees online from
            /// the JSONL log alone, without a materialized trace. Recorded
            /// through [`crate::Recorder::record_op_complete`], which builds
            /// the payload only for a log that keeps it.
            OpComplete = "op_complete" OpCompletion {
                /// The session (client) that issued the operation.
                session: int,
                /// Per-session operation id, in issue order.
                op: int,
                /// The key operated on.
                key: int,
                /// Read or write.
                kind: named(ClientOpKind),
                /// Whether the operation succeeded (false = timeout).
                ok: flag,
                /// When the client invoked the operation (simulation µs); the
                /// event's own `t_us` is the completion time.
                invoked_us: int,
                /// The replica that served (or was targeted by) the operation.
                replica: node,
                /// For writes: the globally unique value written.
                value: opt_int,
                /// For reads: the observed value(s); empty if the key was absent.
                values: ints("element"),
                /// Lamport `(counter, actor)` stamp of the version written/read.
                stamp: opt_pair,
                /// Origin wall time (µs) of the version a read returned.
                version_ts_us: opt_int,
            }
        }
    }
}

impl EventKind {
    /// The counters this event implies, as `(counter, node, delta)`
    /// triples; `node = None` updates only the global set.
    ///
    /// No event implies more than two counters, so this returns a
    /// fixed-size array iterator instead of a `Vec`: the recorder calls
    /// it once per recorded event (every span open/close on the handler
    /// hot path), and a heap allocation per event shows up directly in
    /// the in-sim profiler's per-handler `alloc_bytes`.
    pub(crate) fn implied_counters(&self) -> impl Iterator<Item = (Counter, Option<u64>, u64)> {
        type Triple = (Counter, Option<u64>, u64);
        let pair: [Option<Triple>; 2] = match *self {
            EventKind::MessageSent { from, bytes, .. } => [
                Some((Counter::MessagesSent, Some(from), 1)),
                Some((Counter::BytesSent, Some(from), bytes)),
            ],
            EventKind::MessageDelivered { to, bytes, .. } => [
                Some((Counter::MessagesDelivered, Some(to), 1)),
                Some((Counter::BytesDelivered, Some(to), bytes)),
            ],
            EventKind::MessageDropped { to, .. } => {
                [Some((Counter::MessagesDropped, Some(to), 1)), None]
            }
            EventKind::AntiEntropyRound { node, .. } => {
                [Some((Counter::AntiEntropyRounds, Some(node), 1)), None]
            }
            EventKind::QuorumWait { node, kind, .. } => [
                Some((
                    match kind {
                        QuorumKind::Read => Counter::QuorumReads,
                        QuorumKind::Write => Counter::QuorumWrites,
                    },
                    Some(node),
                    1,
                )),
                None,
            ],
            EventKind::ConflictDetected { node, .. } => {
                [Some((Counter::ConflictsDetected, Some(node), 1)), None]
            }
            EventKind::ConflictResolved { node, .. } => {
                [Some((Counter::ConflictsResolved, Some(node), 1)), None]
            }
            EventKind::WalAppend { node, bytes, .. } => [
                Some((Counter::WalAppends, Some(node), 1)),
                Some((Counter::WalBytes, Some(node), bytes)),
            ],
            EventKind::PartitionStart { .. } => [Some((Counter::PartitionsStarted, None, 1)), None],
            EventKind::PartitionHeal => [Some((Counter::PartitionsHealed, None, 1)), None],
            EventKind::Crash { node } => [Some((Counter::Crashes, Some(node), 1)), None],
            EventKind::Recover { node } => [Some((Counter::Recoveries, Some(node), 1)), None],
            // Membership itself bumps no counter; the rebalancing it
            // triggers is counted by actors (`rebalanced_keys`).
            EventKind::MembershipChange { .. } => [None, None],
            EventKind::WalReplay { node, records } => {
                [Some((Counter::WalReplayedRecords, Some(node), records)), None]
            }
            EventKind::SpanOpen { node, .. } => [Some((Counter::SpansOpened, Some(node), 1)), None],
            EventKind::SpanClose { node, status, .. } => [
                Some((Counter::SpansClosed, Some(node), 1)),
                (status == SpanStatus::Abandoned).then_some((
                    Counter::SpansAbandoned,
                    Some(node),
                    1,
                )),
            ],
            // Operation completions bump no counter: the op trace is the
            // source of truth for operation counts, and the streaming
            // checkers report their own findings (`stream_violations`
            // has no producer and goes with the next labbench re-pin).
            // `Recorder::record_op_complete` relies on this: it skips
            // the counters, and builds no event for a log that drops it.
            EventKind::OpComplete(_) => [None, None],
        };
        pair.into_iter().flatten()
    }
}

/// An [`EventKind`] stamped with its virtual time and sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Monotonic per-run sequence number (assigned by the recorder).
    pub seq: u64,
    /// Virtual time in microseconds since simulation start.
    pub t_us: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// The two decimal digits of every value below 100, `"00"` to `"99"`:
/// pair `p` is `PAIRS[2 * p..2 * p + 2]`.
const PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// The digits of pair `p < 100`.
#[inline(always)]
fn pair(p: usize) -> &'static str {
    &PAIRS[2 * p..2 * p + 2]
}

/// Append `value` in decimal, two digits at a time: one division by 100
/// per pair, each pair below the leading digits copied out of [`PAIRS`]
/// and the leading one or two pushed as chars, so nothing is allocated
/// or validated per integer.
fn push_u64(out: &mut String, mut value: u64) {
    // The pairs below the leading one or two digits, least significant
    // first: `u64::MAX` has twenty digits, so at most nine.
    let mut low = [0u8; 9];
    let mut len = 0;
    while value >= 100 {
        low[len] = (value % 100) as u8;
        value /= 100;
        len += 1;
    }
    // The leading one or two digits go out as chars: a copy of a run
    // that short would be a call to `memcpy`.
    let lead = value as u8;
    if lead >= 10 {
        out.push(char::from(b'0' + lead / 10));
    }
    out.push(char::from(b'0' + lead % 10));
    for &p in low[..len].iter().rev() {
        out.push_str(pair(usize::from(p)));
    }
}

/// Append `[a,b,...]`.
fn push_u64_array(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push(']');
}

/// Append `text` as the inside of a JSON string. A step name is an
/// identifier in every protocol the lab ships, and then this is one
/// `push_str`; a name with a quote, a backslash or a control character
/// in it is escaped the way `serde`'s string encoder escapes it.
fn push_escaped(out: &mut String, text: &str) {
    let clean = |b: u8| b != b'"' && b != b'\\' && b >= 0x20;
    if text.bytes().all(clean) {
        out.push_str(text);
        return;
    }
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                out.push_str("\\u00");
                for nibble in [c as u32 >> 4, c as u32 & 0xf] {
                    out.push(char::from_digit(nibble, 16).expect("a nibble is a hex digit"));
                }
            }
            c => out.push(c),
        }
    }
}

impl TracedEvent {
    /// Encode as one JSONL line (no trailing newline).
    ///
    /// Field order is fixed (`seq`, `t_us`, `type`, then event fields in
    /// declaration order) so identical event sequences produce
    /// byte-identical logs.
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(128);
        self.write_json_line(&mut line);
        line
    }

    /// Append the line [`TracedEvent::to_json_line`] returns to `out`,
    /// allocating nothing if `out` has the room.
    pub fn write_json_line(&self, out: &mut String) {
        write_envelope(out, self.seq, self.t_us);
        self.kind.write_fields(out);
        out.push('}');
    }
}

/// Append `{"seq":seq,"t_us":t_us`, what every line opens with.
#[inline]
fn write_envelope(out: &mut String, seq: u64, t_us: u64) {
    out.push_str(concat!("{\"", envelope!(seq), "\":"));
    push_u64(out, seq);
    out.push_str(concat!(",\"", envelope!(t_us), "\":"));
    push_u64(out, t_us);
}

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
/// [`EventKind::SpanOpen`]'s `&'static str` field with in-process
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

/// Most wire keys there may be: one bit each in a [`Line`]'s mask.
const MAX_KEYS: usize = u64::BITS as usize;

/// Whether `a` and `b` are the same string, where `==` is not `const`.
const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Every key a line is read by — the envelope's, then each event
/// type's fields in table order, each once — and how many there are.
/// Derived from `wire_events!` at compile time, so no list of names is
/// kept beside the table.
const fn wire_keys() -> ([&'static str; MAX_KEYS], usize) {
    const fn add(keys: &mut [&'static str; MAX_KEYS], len: usize, key: &'static str) -> usize {
        let mut k = 0;
        while k < len {
            if same(keys[k], key) {
                return len;
            }
            k += 1;
        }
        assert!(len < MAX_KEYS, "more wire keys than a line's mask has bits");
        keys[len] = key;
        len + 1
    }
    let mut keys = [""; MAX_KEYS];
    let mut len = 0;
    let envelope = [envelope!(seq), envelope!(t_us), envelope!(tag)];
    let mut e = 0;
    while e < envelope.len() {
        len = add(&mut keys, len, envelope[e]);
        e += 1;
    }
    let table = EventKind::WIRE_TABLE;
    let mut t = 0;
    while t < table.len() {
        let fields = table[t].1;
        let mut f = 0;
        while f < fields.len() {
            len = add(&mut keys, len, fields[f]);
            f += 1;
        }
        t += 1;
    }
    (keys, len)
}

const WIRE_KEYS: ([&str; MAX_KEYS], usize) = wire_keys();

/// The wire keys, in the first [`KEY_COUNT`] places; a key's place here
/// is its slot in a [`Line`].
const KEYS: [&str; MAX_KEYS] = WIRE_KEYS.0;
const KEY_COUNT: usize = WIRE_KEYS.1;

/// The slot of `key`: its place in [`KEYS`], or `None` when it is no
/// wire key. For [`key!`], at compile time.
const fn slot(key: &str) -> Option<usize> {
    let mut k = 0;
    while k < KEY_COUNT {
        if same(KEYS[k], key) {
            return Some(k);
        }
        k += 1;
    }
    None
}

/// A wire key and its slot, found at compile time: [`key!`] builds one
/// in a `const` block, and a name that is no wire key fails the build.
#[derive(Clone, Copy)]
struct Key {
    name: &'static str,
    slot: usize,
}

impl Key {
    const fn of(name: &'static str) -> Key {
        match slot(name) {
            Some(slot) => Key { name, slot },
            None => panic!("not a key of any event type"),
        }
    }
}

/// The fields of one line, borrowed from it, each in the slot of its
/// wire key, so that reading a field is one probe; a key that is no
/// wire key is validated by the lexer and dropped. Made once per
/// document and refilled per line, so a line costs neither its set-up
/// nor its tear-down.
struct Line<'a> {
    /// Per slot, the field of its key, where the slot's bit is set in
    /// `present`.
    fields: [Field<'a>; KEY_COUNT],
    present: u64,
}

impl<'a> Line<'a> {
    fn new() -> Self {
        Line { fields: std::array::from_fn(|_| Field::Object), present: 0 }
    }

    /// Validate `text` as JSON and hold the fields of its object (a
    /// document that is not an object has none) in place of the last
    /// line's.
    fn scan(&mut self, text: &'a str) -> Result<(), serde_json::Error> {
        self.present = 0;
        serde_json::visit_fields(text, |key, value| {
            let Some(slot) = KEYS[..KEY_COUNT].iter().position(|k| *k == key) else { return };
            // Of a key that occurs twice the first occurrence counts.
            if self.present & 1 << slot == 0 {
                self.present |= 1 << slot;
                self.fields[slot] = value;
            }
        })
    }

    /// The first field called `key.name`, if the line has one.
    #[inline(always)]
    fn get(&self, key: Key) -> Option<&Field<'a>> {
        (self.present & 1 << key.slot != 0).then_some(&self.fields[key.slot])
    }
}

#[inline(always)]
fn u64_field(v: &Line, key: Key) -> Result<u64, String> {
    v.get(key)
        .and_then(Field::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{}`", key.name))
}

/// A node id: an integer that fits `u32`, the simulator's `NodeId`. A
/// larger one is an error rather than another node.
#[inline(always)]
fn node_field(v: &Line, key: Key) -> Result<u32, String> {
    let id = u64_field(v, key)?;
    u32::try_from(id)
        .map_err(|_| format!("field `{}` is {id}, past the largest node id {}", key.name, u32::MAX))
}

#[inline(always)]
fn str_field<'a>(v: &'a Line, key: Key) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Field::as_str)
        .ok_or_else(|| format!("missing or non-string field `{}`", key.name))
}

#[inline(always)]
fn bool_field(v: &Line, key: Key) -> Result<bool, String> {
    v.get(key)
        .and_then(Field::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field `{}`", key.name))
}

/// An optional integer field: absent is `None`, present-but-malformed
/// is an error (a half-written trace must not silently degrade).
#[inline(always)]
fn opt_u64_field(v: &Line, key: Key) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f.as_u64().map(Some).ok_or_else(|| format!("non-integer field `{}`", key.name)),
    }
}

/// The array field `key`, validated but not yet decoded.
fn array_field<'a>(v: &Line<'a>, key: Key) -> Result<RawArray<'a>, String> {
    v.get(key)
        .and_then(Field::as_array)
        .ok_or_else(|| format!("missing or non-array field `{}`", key.name))
}

/// The elements of array field `key`, in one `Vec` of exactly their
/// number (so none for an empty array); `element` is what the error
/// calls one that is not an integer.
fn u64_array_field(v: &Line, key: Key, element: &str) -> Result<Vec<u64>, String> {
    let array = array_field(v, key)?;
    let mut out = Vec::with_capacity(array.len());
    for item in array.u64s() {
        out.push(item.ok_or_else(|| format!("non-integer {element} in `{}`", key.name))?);
    }
    Ok(out)
}

/// An optional `[counter, actor]` pair, decoded straight into its tuple.
fn pair_field(v: &Line, key: Key) -> Result<Option<(u64, u64)>, String> {
    if v.get(key).is_none() {
        return Ok(None);
    }
    let mut pair = [0; 2];
    let mut len = 0;
    for item in array_field(v, key)?.u64s() {
        let item = item.ok_or_else(|| format!("non-integer element in `{}`", key.name))?;
        if let Some(slot) = pair.get_mut(len) {
            *slot = item;
        }
        len += 1;
    }
    match len {
        2 => Ok(Some((pair[0], pair[1]))),
        _ => Err(format!("`{}` must be a [counter, actor] pair", key.name)),
    }
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
        seq: u64_field(v, key!(envelope!(seq))).map_err(&err)?,
        t_us: u64_field(v, key!(envelope!(t_us))).map_err(&err)?,
        kind: str_field(v, key!(envelope!(tag)))
            .and_then(|tag| EventKind::read_fields(tag, v, names))
            .map_err(&err)?,
    })
}

/// Move `rest` past `literal`, or `None` if it does not start with it.
#[inline(always)]
fn expect(rest: &mut &str, literal: &str) -> Option<()> {
    *rest = rest.strip_prefix(literal)?;
    Some(())
}

/// An integer as the encoder writes it: one to nineteen digits, the
/// first of several not a zero. Nineteen digits always fit a `u64`;
/// twenty may not, so a longer run (read on, wrapping, and dropped) is
/// left, with every other spelling, to the general decoder.
#[inline(always)]
fn scan_u64(rest: &mut &str) -> Option<u64> {
    let bytes = rest.as_bytes();
    let mut value = 0u64;
    let mut len = 0;
    while let Some(digit) = bytes.get(len).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        len += 1;
    }
    if !(1..=19).contains(&len) || (len > 1 && bytes[0] == b'0') {
        return None;
    }
    *rest = &rest[len..];
    Some(value)
}

#[inline(always)]
fn scan_bool(rest: &mut &str) -> Option<bool> {
    if let Some(after) = rest.strip_prefix("true") {
        *rest = after;
        return Some(true);
    }
    expect(rest, "false")?;
    Some(false)
}

/// The inside of a string whose opening quote is behind `rest`, up to
/// and past its closing quote: a run with no backslash, so that what
/// the line holds is what the string is.
#[inline(always)]
fn scan_str<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let len = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
    let text = &rest[..len];
    *rest = rest[len..].strip_prefix('"')?;
    Some(text)
}

/// `[a,b,...]`, counted first and then read into one `Vec` of exactly
/// its length, so none for an empty array.
fn scan_u64_array(rest: &mut &str) -> Option<Vec<u64>> {
    expect(rest, "[")?;
    if let Some(after) = rest.strip_prefix(']') {
        *rest = after;
        return Some(Vec::new());
    }
    let mut end = *rest;
    let mut len = 1;
    scan_u64(&mut end)?;
    while let Some(after) = end.strip_prefix(',') {
        end = after;
        scan_u64(&mut end)?;
        len += 1;
    }
    expect(&mut end, "]")?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        // Each element is followed by the `,` or the `]` counted above.
        values.push(scan_u64(rest)?);
        *rest = &rest[1..];
    }
    Some(values)
}

/// `[counter,actor]`.
#[inline(always)]
fn scan_pair(rest: &mut &str) -> Option<(u64, u64)> {
    expect(rest, "[")?;
    let first = scan_u64(rest)?;
    expect(rest, ",")?;
    let second = scan_u64(rest)?;
    expect(rest, "]")?;
    Some((first, second))
}

/// The object's closing brace and the line's end: a `\n`, or the end of
/// the input.
#[inline(always)]
fn line_end(rest: &mut &str) -> Option<()> {
    expect(rest, "}")?;
    if !rest.is_empty() {
        expect(rest, "\n")?;
    }
    Some(())
}

/// The template reader: the event on the line at the front of `text`
/// and what follows the line, if the line is byte for byte what
/// [`TracedEvent::write_json_line`] writes and ends in `\n` or with
/// `text`; `None` at the first byte that differs, for the general
/// decoder to read the line. What it returns is what the general
/// decoder returns for the line: it takes nothing the general decoder
/// would refuse or read otherwise.
#[inline]
fn read_template<'a>(
    text: &'a str,
    names: &mut impl FnMut(&str) -> Result<&'static str, String>,
) -> Option<(TracedEvent, &'a str)> {
    let mut rest = text;
    let rest = &mut rest;
    expect(rest, concat!("{\"", envelope!(seq), "\":"))?;
    let seq = scan_u64(rest)?;
    expect(rest, concat!(",\"", envelope!(t_us), "\":"))?;
    let t_us = scan_u64(rest)?;
    expect(rest, concat!(",\"", envelope!(tag), "\":\""))?;
    let tag = scan_str(rest)?;
    let kind = EventKind::scan_fields(tag, rest, names)?;
    Some((TracedEvent { seq, t_us, kind }, *rest))
}

/// Parse one JSONL line (1-based `line_no` is only used for errors).
/// A reader that parses a log line by line holds the lines to the order
/// of their `seq` with a [`SeqOrder`], as [`parse_jsonl`] does.
pub fn parse_line(text: &str, line_no: usize) -> Result<TracedEvent, ParseError> {
    match read_template(text, &mut intern) {
        Some((event, "")) => Ok(event),
        _ => parse_line_with(&mut Line::new(), text, line_no, &mut intern),
    }
}

/// Parse a whole JSONL document (blank lines ignored) into the event
/// sequence, preserving file order, which must be the order of `seq`
/// ([`SeqOrder`]). Lines end as [`str::lines`] ends them: at `\n`, and
/// a `\r` before it is not part of the line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TracedEvent>, ParseError> {
    let mut fields = Line::new();
    let mut names = DocumentNames::default();
    let mut order = SeqOrder::default();
    let mut events = Vec::new();
    let mut rest = text;
    let mut line_no = 0;
    while !rest.is_empty() {
        line_no += 1;
        let event = match read_template(rest, &mut |name| names.resolve(name)) {
            Some((event, after)) => {
                rest = after;
                event
            }
            None => {
                let (line, after) = match rest.split_once('\n') {
                    Some((line, after)) => (line.strip_suffix('\r').unwrap_or(line), after),
                    None => (rest, ""),
                };
                rest = after;
                if line.trim().is_empty() {
                    continue;
                }
                parse_line_with(&mut fields, line, line_no, &mut |name| names.resolve(name))?
            }
        };
        order.check(event.seq, line_no)?;
        events.push(event);
    }
    Ok(events)
}

/// The order of `seq` from line to line. Within one run's log `seq`
/// increases: it may skip (an event past the log's cap still takes its
/// number) but never repeats or goes back, so a line that does was
/// swapped, copied or spliced in. A `seq` of 0 starts the next run, as
/// in the log of a `--seeds`/`--jobs` grid, which is its cells' logs
/// one after another, each numbered from 0.
#[derive(Debug, Default)]
pub struct SeqOrder {
    last: Option<u64>,
}

impl SeqOrder {
    /// Take the `seq` of the event on 1-based line `line_no`, the next
    /// event of the log; an error names the line and both numbers.
    pub fn check(&mut self, seq: u64, line_no: usize) -> Result<(), ParseError> {
        if let Some(last) = self.last.filter(|&last| seq <= last && seq != 0) {
            return Err(ParseError {
                line: line_no,
                message: format!(
                    "`seq` {seq} after `seq` {last}: a run's events are numbered in \
                     increasing order, and only 0 starts the next run"
                ),
            });
        }
        self.last = Some(seq);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A retained or parsed log is a `Vec` of rows, so the row size is
    /// what a log costs: the widest unboxed variant (`span_open`, four
    /// integers and a name) sets it, and `op_complete` is a pointer.
    #[test]
    fn event_row_size_is_pinned() {
        assert_eq!(std::mem::size_of::<EventKind>(), 56);
        assert_eq!(std::mem::size_of::<TracedEvent>(), 72);
    }

    /// What the recorder keeps of an event is its packed bytes
    /// (`crate::packed`), so these sizes are what a log costs: one event
    /// of each common type as a protocol run records it, a microsecond
    /// or so after the one before. `tests/event_log_size.rs` holds whole
    /// runs to a bound in bytes per event.
    #[test]
    fn packed_event_sizes_are_pinned() {
        let payload = OpCompletion {
            session: 3,
            op: 41,
            key: 1_017,
            kind: ClientOpKind::Read,
            ok: true,
            invoked_us: 2_412_345,
            replica: 2,
            value: None,
            values: vec![90_001],
            stamp: Some((1_234, 2)),
            version_ts_us: Some(2_400_017),
        };
        let kinds = [
            EventKind::MessageSent { from: 0, to: 2, bytes: 96, trace: 812, span: 3_301 },
            EventKind::SpanOpen {
                trace: 812,
                span: 3_302,
                parent: 3_301,
                node: 2,
                name: "op_read",
            },
            EventKind::SpanClose { trace: 812, span: 3_302, node: 2, status: SpanStatus::Ok },
            EventKind::QuorumWait {
                node: 1,
                kind: QuorumKind::Read,
                waited_us: 4_100,
                acks: 2,
                needed: 2,
            },
            EventKind::Crash { node: 1 },
            EventKind::OpComplete(Box::new(payload)),
        ];
        let sizes = kinds.map(|kind| {
            let mut log = EventLog::default();
            kind.pack(99, 2_412_000, &mut log);
            let before = log.packed_bytes();
            kind.pack(100, 2_412_700, &mut log);
            log.packed_bytes() - before
        });
        assert_eq!(sizes, [11, 12, 10, 10, 5, 29]);
    }

    #[test]
    fn json_lines_are_stable() {
        let ev = TracedEvent {
            seq: 3,
            t_us: 1500,
            kind: EventKind::MessageDropped {
                from: 0,
                to: 2,
                reason: DropReason::Loss,
                trace: 4,
                span: 9,
            },
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"seq":3,"t_us":1500,"type":"message_dropped","from":0,"to":2,"reason":"loss","trace":4,"span":9}"#
        );
        let ev =
            TracedEvent { seq: 0, t_us: 0, kind: EventKind::PartitionStart { island: vec![1, 2] } };
        assert_eq!(
            ev.to_json_line(),
            r#"{"seq":0,"t_us":0,"type":"partition_start","island":[1,2]}"#
        );
        let ev = TracedEvent {
            seq: 1,
            t_us: 250,
            kind: EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" },
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"seq":1,"t_us":250,"type":"span_open","trace":1,"span":2,"parent":0,"node":3,"name":"op_read"}"#
        );
        let ev = TracedEvent {
            seq: 2,
            t_us: 900,
            kind: EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Ok },
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"seq":2,"t_us":900,"type":"span_close","trace":1,"span":2,"node":3,"status":"ok"}"#
        );
    }

    #[test]
    fn every_kind_encodes_with_its_type_tag() {
        let kinds = vec![
            EventKind::MessageSent { from: 0, to: 1, bytes: 8, trace: 0, span: 0 },
            EventKind::MessageDelivered { from: 0, to: 1, bytes: 8, trace: 0, span: 0 },
            EventKind::MessageDropped {
                from: 0,
                to: 1,
                reason: DropReason::Partition,
                trace: 0,
                span: 0,
            },
            EventKind::AntiEntropyRound { node: 1, fanout: 2 },
            EventKind::QuorumWait {
                node: 0,
                kind: QuorumKind::Read,
                waited_us: 100,
                acks: 2,
                needed: 2,
            },
            EventKind::ConflictDetected { node: 0, key: 7, siblings: 2 },
            EventKind::ConflictResolved { node: 0, key: 7, survivors: 1 },
            EventKind::WalAppend { node: 0, key: 7, bytes: 16 },
            EventKind::PartitionStart { island: vec![0] },
            EventKind::PartitionHeal,
            EventKind::Crash { node: 2 },
            EventKind::Recover { node: 2 },
            EventKind::MembershipChange { node: 4, join: true },
            EventKind::WalReplay { node: 2, records: 5 },
            EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "op_write" },
            EventKind::SpanClose { trace: 1, span: 1, node: 0, status: SpanStatus::Abandoned },
            EventKind::OpComplete(Box::new(OpCompletion {
                session: 1,
                op: 2,
                key: 7,
                kind: ClientOpKind::Read,
                ok: true,
                invoked_us: 500,
                replica: 0,
                value: None,
                values: vec![42],
                stamp: Some((3, 1)),
                version_ts_us: None,
            })),
        ];
        for kind in kinds {
            let tag = kind.type_name();
            let line = TracedEvent { seq: 0, t_us: 0, kind }.to_json_line();
            assert!(line.contains(&format!("\"type\":\"{tag}\"")), "{line}");
        }
    }

    /// A step name is written as a JSON string, not pasted between
    /// quotes: `json.loads` must take the line whatever the name holds.
    #[test]
    fn span_names_are_escaped() {
        let line = |name| {
            let kind = EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name };
            TracedEvent { seq: 0, t_us: 0, kind }.to_json_line()
        };
        let head =
            r#"{"seq":0,"t_us":0,"type":"span_open","trace":1,"span":2,"parent":0,"node":3,"#;
        assert_eq!(line("op_read"), format!(r#"{head}"name":"op_read"}}"#));
        assert_eq!(line("naïve/é😀"), format!(r#"{head}"name":"naïve/é😀"}}"#));
        assert_eq!(line("we\"ird\\st\nep"), format!(r#"{head}"name":"we\"ird\\st\nep"}}"#));
        assert_eq!(
            line("\r\t\u{0}\u{1f}\u{7f}"),
            format!(r#"{head}"name":"\r\t\u0000\u001f{}"}}"#, '\u{7f}')
        );
        // The escapes are the ones `serde`'s encoder writes.
        for name in ["we\"ird\\st\nep", "\r\t\u{0}\u{1f}\u{7f}", "plain"] {
            let quoted = serde_json::to_string(name).unwrap();
            assert!(line(name).ends_with(&format!("\"name\":{quoted}}}")), "{name:?}");
        }
    }

    #[test]
    fn integers_are_written_in_full() {
        for value in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX - 1, u64::MAX] {
            let mut out = String::from("x");
            push_u64(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
        let ev = TracedEvent { seq: u64::MAX, t_us: 0, kind: EventKind::Crash { node: u64::MAX } };
        let mut out = String::from("kept|");
        ev.write_json_line(&mut out);
        assert_eq!(out, format!("kept|{}", ev.to_json_line()));
        assert!(out.ends_with(r#""type":"crash","node":18446744073709551615}"#));
    }

    fn pushed(value: u64) -> String {
        let mut out = String::new();
        push_u64(&mut out, value);
        out
    }

    /// Where the digit count changes, and so where the leading digits
    /// change from one to two or back, at every length a `u64` has.
    #[test]
    fn every_digit_count_is_written_in_full() {
        for (p, digits) in PAIRS.as_bytes().chunks(2).enumerate() {
            assert_eq!(digits, format!("{p:02}").as_bytes());
        }
        for k in 1..=19 {
            let power = 10u64.pow(k);
            for value in [power - 1, power, power + 1] {
                assert_eq!(pushed(value), value.to_string());
            }
        }
        assert_eq!(pushed(u64::MAX), u64::MAX.to_string());
    }

    proptest::proptest! {
        /// Random values cut to random lengths, so that odd and even
        /// digit counts both come up.
        #[test]
        fn integers_are_written_as_to_string_writes_them(
            value in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let value = value >> shift;
            proptest::prop_assert_eq!(pushed(value), value.to_string());
        }
    }

    /// Every key a line is read by has a slot of its own, its place in
    /// `KEYS`: no two share one, and nothing else is a key.
    #[test]
    fn every_wire_key_has_a_slot_of_its_own() {
        let mut names = BTreeSet::from([envelope!(seq), envelope!(t_us), envelope!(tag)]);
        names.extend(EventKind::WIRE_TABLE.iter().flat_map(|(_, fields)| fields.iter().copied()));
        assert_eq!(names.len(), KEY_COUNT);
        let mut slots = BTreeSet::new();
        for name in names {
            let at = slot(name).unwrap_or_else(|| panic!("`{name}` has no slot"));
            assert_eq!(KEYS[at], name);
            assert!(slots.insert(at), "`{name}` shares slot {at}");
        }
        assert_eq!(slots, (0..KEY_COUNT).collect());
        for other in ["", "Seq", "seq ", "typ", "types", "nope", "nave", "tribe"] {
            assert_eq!(slot(other), None, "`{other}` is no wire key");
        }
    }

    /// A line holding every key once, each with its own value, reads
    /// each back; so does one whose every key comes after a key that
    /// nearly spells it, and before itself with another value.
    #[test]
    fn a_line_reads_every_key_from_its_own_slot() {
        // The same length and the same first, second and last byte.
        let lookalike = |name: &str| {
            let mut fake = name.as_bytes().to_vec();
            if let Some(middle) = fake.get_mut(2..name.len() - 1) {
                middle.fill(b'#');
            }
            String::from_utf8(fake).expect("ASCII")
        };
        let mut plain = Vec::new();
        let mut crowded = Vec::new();
        for (i, name) in KEYS[..KEY_COUNT].iter().enumerate() {
            plain.push(format!("\"{name}\":{i}"));
            let fake = lookalike(name);
            if fake != *name {
                assert_eq!(slot(&fake), None, "{fake}");
                crowded.push(format!("\"{fake}\":\"no\""));
            }
            crowded.push(format!("\"{name}\":{i}"));
            crowded.push(format!("\"{name}\":\"later\""));
        }
        assert!(crowded.len() > 2 * KEY_COUNT + KEY_COUNT / 2, "{} fields", crowded.len());
        for fields in [plain, crowded] {
            let text = format!("{{{}}}", fields.join(","));
            let mut line = Line::new();
            line.scan(&text).expect("valid JSON");
            for (i, name) in KEYS[..KEY_COUNT].iter().enumerate() {
                let key = Key::of(name);
                assert_eq!(key.slot, i);
                assert_eq!(line.get(key).and_then(Field::as_u64), Some(i as u64), "{name}");
            }
        }
    }

    /// What the general decoder alone makes of `text`.
    fn general(text: &str) -> Result<TracedEvent, ParseError> {
        parse_line_with(&mut Line::new(), text, 1, &mut intern)
    }

    fn completion(value: Option<u64>, values: Vec<u64>, stamp: Option<(u64, u64)>) -> EventKind {
        EventKind::OpComplete(Box::new(OpCompletion {
            session: 3,
            op: 41,
            key: 1_000_000_007,
            kind: if value.is_some() { ClientOpKind::Write } else { ClientOpKind::Read },
            ok: stamp.is_some(),
            invoked_us: 12_345_678,
            replica: u32::MAX,
            value,
            values,
            stamp,
            version_ts_us: stamp.map(|(counter, _)| 10 * counter),
        }))
    }

    /// The template reader fires on every line the encoder writes, and
    /// returns what the general decoder returns for it: without this, a
    /// reader that always declined would pass every equality test and
    /// quietly give the gain back. A name that needs escaping is left to
    /// the general decoder, and `parse_line` still reads it.
    #[test]
    fn the_template_reader_takes_every_line_the_encoder_writes() {
        let many: Vec<u64> = (0..17).map(|i| 7u64.pow(i) + i as u64).collect();
        let kinds = vec![
            EventKind::MessageSent { from: 0, to: 1, bytes: 96, trace: 3, span: 9_999 },
            EventKind::MessageDelivered { from: 2, to: 0, bytes: 0, trace: 0, span: 0 },
            EventKind::MessageDropped {
                from: 1,
                to: 2,
                reason: DropReason::CrashedDestination,
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
            EventKind::PartitionStart { island: vec![] },
            EventKind::PartitionStart { island: vec![4] },
            EventKind::PartitionStart { island: many.clone() },
            EventKind::PartitionHeal,
            EventKind::Crash { node: 2 },
            EventKind::Recover { node: 2 },
            EventKind::MembershipChange { node: 4, join: true },
            EventKind::MembershipChange { node: 4, join: false },
            EventKind::WalReplay { node: 2, records: 5 },
            EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name: "op_read" },
            EventKind::SpanOpen { trace: 1, span: 3, parent: 2, node: 3, name: "" },
            EventKind::SpanOpen {
                trace: 1, span: 4, parent: 2, node: 3, name: "naïve/é😀\u{7f}"
            },
            EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Abandoned },
            completion(None, vec![], None),
            completion(Some(77), vec![], Some((9, 1))),
            completion(None, vec![5], Some((9, 1))),
            completion(None, many, None),
        ];
        let tags: BTreeSet<&str> = kinds.iter().map(EventKind::type_name).collect();
        assert_eq!(tags.len(), EventKind::WIRE_TABLE.len(), "one event of every kind");
        // The largest integer the template reads has nineteen digits.
        let stamps = [(0, 0), (1, 10), (9_999_999_999_999_999_999, 1_234_567_890_123)];
        for (i, kind) in kinds.into_iter().enumerate() {
            let (seq, t_us) = stamps[i % stamps.len()];
            let ev = TracedEvent { seq, t_us, kind };
            let line = ev.to_json_line();
            assert_eq!(read_template(&line, &mut intern), Some((ev.clone(), "")), "{line}");
            assert_eq!(general(&line).as_ref(), Ok(&ev), "{line}");
            // A line end is the template's; what follows it is not.
            let doc = format!("{line}\n{line}\n");
            assert_eq!(
                read_template(&doc, &mut intern),
                Some((ev.clone(), &doc[line.len() + 1..]))
            );
            assert_eq!(parse_line(&line, 1), Ok(ev));
        }
        for name in ["we\"ird", "back\\slash", "new\nline", "\u{1}"] {
            let ev = TracedEvent {
                seq: 1,
                t_us: 2,
                kind: EventKind::SpanOpen { trace: 1, span: 2, parent: 0, node: 3, name },
            };
            let line = ev.to_json_line();
            assert_eq!(read_template(&line, &mut intern), None, "{line}");
            assert_eq!(parse_line(&line, 1), Ok(ev));
        }
    }

    /// The template declines a spelling the encoder never writes, and a
    /// value the general decoder refuses or words an error for.
    #[test]
    fn the_template_reader_declines_what_the_encoder_does_not_write() {
        let crash = |node: &str| format!(r#"{{"seq":1,"t_us":2,"type":"crash","node":{node}}}"#);
        assert!(read_template(&crash("42"), &mut intern).is_some());
        for node in ["10000000000000000000", "042", "-0", "-1", "1.0", "1e3", "\"1\"", "", "1 "] {
            assert_eq!(read_template(&crash(node), &mut intern), None, "{node}");
        }
        let op = |replica: &str| {
            format!(
                "{{\"seq\":0,\"t_us\":0,\"type\":\"op_complete\",\"session\":1,\"op\":2,\
                 \"key\":3,\"kind\":\"read\",\"ok\":true,\"invoked_us\":4,\"replica\":{replica},\
                 \"values\":[]}}"
            )
        };
        assert!(read_template(&op("4294967295"), &mut intern).is_some());
        assert_eq!(read_template(&op("4294967296"), &mut intern), None);
        for line in [
            r#"{"seq":1,"t_us":2,"type":"crashed","node":1}"#,
            r#"{"seq":1,"t_us":2,"type":"message_dropped","from":0,"to":1,"reason":"lost","trace":0,"span":0}"#,
            "{\"seq\":1,\"t_us\":2,\"type\":\"crash\",\"node\":1}\r\n",
            r#"{"seq":1,"t_us":2,"type":"crash","node":1} "#,
            r#"{"seq":1,"t_us":2,"type":"crash","node":1,"node":1}"#,
            r#"{"seq":1,"t_us":2,"type":"partition_start","island":[1,]}"#,
            r#"{"seq":1,"t_us":2,"type":"partition_start","island":[1 ]}"#,
        ] {
            assert_eq!(read_template(line, &mut intern), None, "{line}");
        }
    }
}
