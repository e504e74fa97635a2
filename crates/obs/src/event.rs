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
//! ([`TracedEvent::write_json_line`]) and the decoder ([`parse_line`],
//! [`parse_jsonl`]) are all generated from it; the four named enums are
//! `names!` lists, like every other name the lab exports. A field or a
//! name is spelled once.
//!
//! The encoder appends to the caller's buffer, so the byte output is a
//! pure function of the event sequence (the determinism tests compare
//! whole files) and costs no allocation. An integer goes out two digits
//! at a time: one division by 100 per pair, each pair a slice of a
//! 200-byte table of `"00"` to `"99"`, nothing to validate.
//!
//! The decoder builds no tree either. One pass of `serde_json`'s lexer
//! ([`serde_json::visit_fields`]) validates the line and puts each
//! field, borrowed from the line, into the slot of the key it hashes
//! to. The keys are the ones the table declares, collected and hashed
//! into buckets of their own at compile time; a key that is none is
//! validated and never read. Every read of the generated reader names
//! its field by a literal, so its slot is a constant and a read is one
//! probe and one comparison of a known width, with no scan of the line's
//! keys. A line an encoder wrote is parsed without touching the heap,
//! apart from the `Box` an `op_complete`'s [`OpCompletion`] lives in and
//! the `Vec` of a non-empty `values` or `island`
//! (`tests/trace_codec_allocs.rs` counts); so is any other line without
//! an escaped string, however many fields it has, and the rest take the
//! same path and allocate what they need. There is one path: nothing
//! selects between a fast and a careful one.
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
use serde_json::{Field, RawArray};
use std::borrow::Cow;
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

/// Append `,"field":value` to `$out` for the binding `$field` of a
/// matched variant. An optional field is omitted when absent; the
/// decoder reads by name, so presence is the `None`/`Some` signal.
macro_rules! wire_write {
    (int, $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field));
        push_u64($out, *$field);
    }};
    (node, $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field));
        push_u64($out, u64::from(*$field));
    }};
    (flag, $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field));
        $out.push_str(if *$field { "true" } else { "false" });
    }};
    (named($ty:ident), $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field, "\""));
        $out.push_str($field.name());
        $out.push('"');
    }};
    (ints($noun:literal), $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field));
        push_u64_array($out, $field);
    }};
    (opt_int, $out:ident, $field:ident) => {
        if let Some(value) = $field {
            $out.push_str(wire_key!($field));
            push_u64($out, *value);
        }
    };
    (opt_pair, $out:ident, $field:ident) => {
        if let Some((first, second)) = $field {
            $out.push_str(wire_key!($field));
            push_u64_array($out, &[*first, *second]);
        }
    };
    (interned, $out:ident, $field:ident) => {{
        $out.push_str(wire_key!($field, "\""));
        push_escaped($out, $field);
        $out.push('"');
    }};
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

/// The event table: `Variant = "type_tag" { field: kind, ... }`, fields
/// in wire order, then a `; boxed { ... }` group of `Variant =
/// "type_tag" Payload { field: kind, ... }` whose fields live in a
/// generated struct `Payload` that the variant holds in a `Box`, so
/// that a rare wide event does not set the size of every row. Both
/// groups are one table to the wire: `WIRE_TABLE`, the encoder and the
/// decoder do not tell them apart. The kinds, with their Rust type and
/// their JSON form:
///
/// | kind | type | on the wire |
/// |---|---|---|
/// | `int` | `u64` | decimal integer |
/// | `node` | `u32` | decimal integer; one past `u32::MAX` is an error naming the field |
/// | `flag` | `bool` | `true` / `false` |
/// | `named(E)` | `E`, a `names!` enum | its name, as a string |
/// | `ints("noun")` | `Vec<u64>` | array of integers (`noun` is what a decode error calls a bad element) |
/// | `opt_int` | `Option<u64>` | integer, key omitted when `None` |
/// | `opt_pair` | `Option<(u64, u64)>` | `[counter, actor]`, key omitted when `None` |
/// | `interned` | `&'static str` | string (interned on decode) |
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
                        $($(wire_write!($kind $(($arg))?, out, $field);)*)?
                    })*
                    $($enum::$bvariant(payload) => {
                        out.push_str(concat!(",\"", envelope!(tag), "\":\"", $btag, "\""));
                        let $payload { $($bfield),* } = &**payload;
                        $(wire_write!($bkind $(($barg))?, out, $bfield);)*
                    })*
                }
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
            // checkers count their own findings (`stream_violations`).
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
/// per pair, and each pair copied out of [`PAIRS`], so nothing is
/// allocated or validated per integer.
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
    let lead = value as usize;
    out.push_str(if lead < 10 { &pair(lead)[1..] } else { pair(lead) });
    for &p in low[..len].iter().rev() {
        out.push_str(pair(usize::from(p)));
    }
}

/// Append `[a,b,...]`.
fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, *v);
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
        out.push_str(concat!("{\"", envelope!(seq), "\":"));
        push_u64(out, self.seq);
        out.push_str(concat!(",\"", envelope!(t_us), "\":"));
        push_u64(out, self.t_us);
        self.kind.write_fields(out);
        out.push('}');
    }
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

/// `log2` of the buckets [`INDEX`] spreads the keys over: six times as
/// many buckets as keys or more, so that a [`MULTIPLIER`] that gives
/// every key a bucket of its own is one of the first few tried, and a
/// key that is none mostly meets an empty bucket.
const BUCKET_BITS: u32 = 8;
const BUCKETS: usize = 1 << BUCKET_BITS;
const _: () = assert!(6 * KEY_COUNT <= BUCKETS);

/// The bucket `key` hashes to under `multiplier`: its length and its
/// first, second and last byte in one word (`node` and `name` differ
/// only in the second), times `multiplier`, cut to the top
/// [`BUCKET_BITS`].
const fn hash(key: &str, multiplier: u32) -> usize {
    let bytes = key.as_bytes();
    let (first, second, last) = match *bytes {
        [] => (0, 0, 0),
        [only] => (only, 0, only),
        [first, second, ..] => (first, second, bytes[bytes.len() - 1]),
    };
    let word =
        (bytes.len() as u32) << 24 | (first as u32) << 16 | (second as u32) << 8 | last as u32;
    (word.wrapping_mul(multiplier) >> (u32::BITS - BUCKET_BITS)) as usize
}

/// Whether no two wire keys share a bucket under `multiplier`.
const fn spreads_apart(multiplier: u32) -> bool {
    let mut taken = [false; BUCKETS];
    let mut k = 0;
    while k < KEY_COUNT {
        let b = hash(KEYS[k], multiplier);
        if taken[b] {
            return false;
        }
        taken[b] = true;
        k += 1;
    }
    true
}

/// The multiplier [`bucket`] hashes with: the first odd number from
/// 2^32 / φ on under which every wire key has a bucket of its own,
/// found at compile time, so a new field needs no new constant.
const MULTIPLIER: u32 = {
    let mut multiplier = 0x9E37_79B9_u32;
    let mut tries = 0;
    while !spreads_apart(multiplier) {
        tries += 1;
        assert!(tries < 1 << 16, "no multiplier gives every wire key a bucket of its own");
        multiplier = multiplier.wrapping_add(2);
    }
    multiplier
};

const fn bucket(key: &str) -> usize {
    hash(key, MULTIPLIER)
}

/// An [`INDEX`] bucket that no wire key hashes to.
const EMPTY: u8 = u8::MAX;

/// Bucket → slot of the wire key that hashes there, or [`EMPTY`].
const INDEX: [u8; BUCKETS] = {
    let mut index = [EMPTY; BUCKETS];
    let mut k = 0;
    while k < KEY_COUNT {
        index[bucket(KEYS[k])] = k as u8;
        k += 1;
    }
    index
};

/// The slot of the one wire key that `key` could be, or `None` when it
/// is none.
const fn slot(key: &str) -> Option<usize> {
    match INDEX[bucket(key)] {
        EMPTY => None,
        at => Some(at as usize),
    }
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
            Some(slot) if same(KEYS[slot], name) => Key { name, slot },
            _ => panic!("not a key of any event type"),
        }
    }
}

type Entry<'a> = (Cow<'a, str>, Field<'a>);

/// The fields of one line, borrowed from it, each in the slot of the
/// wire key it hashes to, so that reading a field is one probe. A key
/// that hashes to no slot is validated by the lexer and dropped; one
/// that hashes to a slot it is not the key of holds the slot until that
/// key comes, and is never read. Made once per document and refilled
/// per line, so a line costs neither its set-up nor its tear-down.
struct Line<'a> {
    /// Per slot, the key that holds it and its field, where the slot's
    /// bit is set in `present`.
    entries: [Entry<'a>; KEY_COUNT],
    present: u64,
}

impl<'a> Line<'a> {
    fn new() -> Self {
        Line { entries: std::array::from_fn(|_| (Cow::Borrowed(""), Field::Object)), present: 0 }
    }

    /// Validate `text` as JSON and hold the fields of its object (a
    /// document that is not an object has none) in place of the last
    /// line's.
    fn scan(&mut self, text: &'a str) -> Result<(), serde_json::Error> {
        self.present = 0;
        serde_json::visit_fields(text, |key, value| {
            let Some(slot) = slot(&key) else { return };
            let bit = 1 << slot;
            let entry = &mut self.entries[slot];
            // The first key to reach a slot holds it. A later one takes
            // it only if it is the slot's own wire key and the holder
            // is another key that merely hashes there, so that of the
            // wire key the first occurrence counts.
            if self.present & bit == 0 || (key == KEYS[slot] && entry.0 != KEYS[slot]) {
                self.present |= bit;
                *entry = (key, value);
            }
        })
    }

    /// The first field called `key.name`, if the line has one. Inlined,
    /// with the `*_field` functions between it and `wire_read!`: the
    /// slot is a constant there, and the name comparison one of a
    /// fixed width.
    #[inline(always)]
    fn get(&self, key: Key) -> Option<&Field<'a>> {
        let (name, field) = &self.entries[key.slot];
        (self.present & 1 << key.slot != 0 && name == key.name).then_some(field)
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

/// Parse one JSONL line (1-based `line_no` is only used for errors).
/// A reader that parses a log line by line holds the lines to the order
/// of their `seq` with a [`SeqOrder`], as [`parse_jsonl`] does.
pub fn parse_line(text: &str, line_no: usize) -> Result<TracedEvent, ParseError> {
    parse_line_with(&mut Line::new(), text, line_no, &mut intern)
}

/// Parse a whole JSONL document (blank lines ignored) into the event
/// sequence, preserving file order, which must be the order of `seq`
/// ([`SeqOrder`]).
pub fn parse_jsonl(text: &str) -> Result<Vec<TracedEvent>, ParseError> {
    let mut fields = Line::new();
    let mut names = DocumentNames::default();
    let mut order = SeqOrder::default();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_line_with(&mut fields, line, i + 1, &mut |name| names.resolve(name))?;
        order.check(event.seq, i + 1)?;
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

    /// Every key a line is read by has a slot of its own, found through
    /// its own bucket: no two share either, and nothing else is a key.
    #[test]
    fn every_wire_key_has_a_slot_of_its_own() {
        let mut names = BTreeSet::from([envelope!(seq), envelope!(t_us), envelope!(tag)]);
        names.extend(EventKind::WIRE_TABLE.iter().flat_map(|(_, fields)| fields.iter().copied()));
        assert_eq!(names.len(), KEY_COUNT);
        let mut slots = BTreeSet::new();
        let mut buckets = BTreeSet::new();
        for name in names {
            let at = slot(name).unwrap_or_else(|| panic!("`{name}` hashes to no slot"));
            assert_eq!(KEYS[at], name);
            assert!(slots.insert(at), "`{name}` shares slot {at}");
            assert!(buckets.insert(bucket(name)), "`{name}` shares its bucket");
        }
        assert_eq!(slots.len(), KEY_COUNT);
        assert_eq!(INDEX.iter().filter(|&&at| at != EMPTY).count(), KEY_COUNT);
    }

    /// A line holding every key once, each with its own value, reads
    /// each back; so does one whose every key comes after a key that
    /// merely hashes to its slot, and after itself with another value.
    #[test]
    fn a_line_reads_every_key_from_its_own_slot() {
        // A key of the same length and the same first, second and last
        // byte hashes to the same bucket.
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
                assert_eq!(bucket(&fake), bucket(name), "{fake}");
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
}
