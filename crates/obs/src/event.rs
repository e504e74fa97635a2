//! Typed simulation events and their JSONL encoding.
//!
//! Every event names the *cause* of an observable protocol behavior:
//! which message was dropped and why, which node ran an anti-entropy
//! round, how long a coordinator waited for its quorum. Checkers and
//! humans consume the log to attribute end-to-end anomalies (staleness,
//! latency spikes, unavailability) to concrete mechanisms.
//!
//! The wire format is one JSON object per line (JSONL), documented field
//! by field in `docs/METRICS.md`. Encoding is hand-written so that the
//! byte output is a pure function of the event sequence — the
//! determinism tests compare whole files.

use crate::counters::Counter;
use crate::span::SpanStatus;

/// Why the network dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Sender and destination are in different partition islands.
    Partition,
    /// Random loss (the fault schedule's loss rate fired).
    Loss,
    /// The destination node is crashed.
    CrashedDestination,
    /// The simulation ended (horizon reached or torn down) with the
    /// message still in flight. Without this, in-flight messages would
    /// silently break the `messages_sent == messages_delivered +
    /// messages_dropped` conservation identity.
    Shutdown,
}

impl DropReason {
    /// Stable snake_case name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Partition => "partition",
            DropReason::Loss => "loss",
            DropReason::CrashedDestination => "crashed_destination",
            DropReason::Shutdown => "shutdown",
        }
    }
}

/// Whether a quorum operation was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumKind {
    /// Read quorum (R acks).
    Read,
    /// Write quorum (W acks).
    Write,
}

impl QuorumKind {
    /// Stable snake_case name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            QuorumKind::Read => "read",
            QuorumKind::Write => "write",
        }
    }
}

/// Whether a completed client operation was a read or a write.
///
/// Mirrors the simulator's `OpKind` without importing it — `obs` stays
/// independent of `simnet` (see [`EventKind`] docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOpKind {
    /// A read operation.
    Read,
    /// A write operation.
    Write,
}

impl ClientOpKind {
    /// Stable snake_case name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            ClientOpKind::Read => "read",
            ClientOpKind::Write => "write",
        }
    }
}

/// A structured simulation event.
///
/// Node ids are raw `u64`s (the simulator's `NodeId` index) so that this
/// crate stays independent of `simnet` and can also serve non-simulated
/// components (e.g. the WAL in a threaded deployment).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message left `from` bound for `to`. `bytes` is the approximate
    /// in-memory size of the payload.
    MessageSent {
        /// Sending node.
        from: u64,
        /// Destination node.
        to: u64,
        /// Approximate payload size in bytes.
        bytes: u64,
        /// Trace carrying this message (0 = untraced).
        trace: u64,
        /// Span active when the message was sent (0 = none).
        span: u64,
    },
    /// A message from `from` was delivered to `to`.
    MessageDelivered {
        /// Sending node.
        from: u64,
        /// Destination node.
        to: u64,
        /// Approximate payload size in bytes.
        bytes: u64,
        /// Trace carrying this message (0 = untraced).
        trace: u64,
        /// Span active when the message was sent (0 = none).
        span: u64,
    },
    /// A message from `from` to `to` was dropped.
    MessageDropped {
        /// Sending node.
        from: u64,
        /// Destination node.
        to: u64,
        /// Why the network dropped it.
        reason: DropReason,
        /// Trace carrying this message (0 = untraced).
        trace: u64,
        /// Span active when the message was sent (0 = none).
        span: u64,
    },
    /// A replica initiated an anti-entropy (gossip) exchange round.
    AntiEntropyRound {
        /// The initiating replica.
        node: u64,
        /// How many peers it contacted this round.
        fanout: u64,
    },
    /// A coordinator assembled a quorum: it waited `waited_us` between
    /// issuing the request and receiving the `needed`-th ack.
    QuorumWait {
        /// The coordinating node.
        node: u64,
        /// Read or write quorum.
        kind: QuorumKind,
        /// Microseconds from issue to quorum.
        waited_us: u64,
        /// Acks actually received when the quorum completed.
        acks: u64,
        /// Acks required (R or W).
        needed: u64,
    },
    /// Concurrent versions of `key` were detected at `node`
    /// (`siblings` ≥ 2 versions with incomparable causality).
    ConflictDetected {
        /// The observing node.
        node: u64,
        /// The key with concurrent versions.
        key: u64,
        /// Number of concurrent siblings.
        siblings: u64,
    },
    /// A conflict on `key` at `node` was resolved down to `survivors`
    /// version(s) (last-writer-wins, merge, or read-repair).
    ConflictResolved {
        /// The resolving node.
        node: u64,
        /// The key that was resolved.
        key: u64,
        /// Versions remaining after resolution.
        survivors: u64,
    },
    /// A record was appended to `node`'s write-ahead log.
    WalAppend {
        /// The appending node.
        node: u64,
        /// The key written.
        key: u64,
        /// Encoded record size in bytes.
        bytes: u64,
    },
    /// A network partition began; `island` lists the nodes cut off from
    /// the rest.
    PartitionStart {
        /// Nodes in the minority island.
        island: Vec<u64>,
    },
    /// The current network partition healed.
    PartitionHeal,
    /// `node` crashed (stops processing until recovery).
    Crash {
        /// The crashed node.
        node: u64,
    },
    /// `node` recovered from a crash.
    Recover {
        /// The recovered node.
        node: u64,
    },
    /// Cluster membership changed: `node` joined (`join`) or left the
    /// logical cluster, triggering deterministic ring rebalancing in
    /// ring-aware protocols.
    MembershipChange {
        /// The node joining or leaving.
        node: u64,
        /// `true` = join, `false` = leave.
        join: bool,
    },
    /// `node` rebuilt its store by replaying its write-ahead log after an
    /// amnesia (state-wiping) restart.
    WalReplay {
        /// The recovering node.
        node: u64,
        /// Number of log records replayed into the store.
        records: u64,
    },
    /// A trace span opened at `node`. Together with the matching
    /// [`EventKind::SpanClose`], the pair bounds one step of an
    /// operation in virtual time; `parent` links the span tree.
    SpanOpen {
        /// The trace this span belongs to.
        trace: u64,
        /// This span's id (unique within the run).
        span: u64,
        /// Parent span id (0 for a root span).
        parent: u64,
        /// The node the step ran on.
        node: u64,
        /// Static step name (e.g. `op_read`, `quorum_write`).
        name: &'static str,
    },
    /// The span opened by the matching [`EventKind::SpanOpen`] closed.
    SpanClose {
        /// The trace this span belongs to.
        trace: u64,
        /// The closing span's id.
        span: u64,
        /// The node the step ran on.
        node: u64,
        /// How the step ended.
        status: SpanStatus,
    },
    /// A client operation completed (or timed out) — the event-stream
    /// mirror of the simulator's `OpRecord`, emitted at completion time
    /// so the streaming consistency checkers (`consistency::stream`,
    /// `tracequery check --stream`) can verify guarantees online from
    /// the JSONL log alone, without a materialized trace.
    OpComplete {
        /// The session (client) that issued the operation.
        session: u64,
        /// Per-session operation id, in issue order.
        op: u64,
        /// The key operated on.
        key: u64,
        /// Read or write.
        kind: ClientOpKind,
        /// Whether the operation succeeded (false = timeout).
        ok: bool,
        /// When the client invoked the operation (simulation µs); the
        /// event's own `t_us` is the completion time.
        invoked_us: u64,
        /// The replica that served (or was targeted by) the operation.
        replica: u64,
        /// For writes: the globally unique value written.
        value: Option<u64>,
        /// For reads: the observed value(s); empty if the key was absent.
        values: Vec<u64>,
        /// Lamport `(counter, actor)` stamp of the version written/read.
        stamp: Option<(u64, u64)>,
        /// Origin wall time (µs) of the version a read returned.
        version_ts_us: Option<u64>,
    },
}

impl EventKind {
    /// Stable snake_case type tag used in the JSONL encoding.
    pub fn type_name(&self) -> &'static str {
        match self {
            EventKind::MessageSent { .. } => "message_sent",
            EventKind::MessageDelivered { .. } => "message_delivered",
            EventKind::MessageDropped { .. } => "message_dropped",
            EventKind::AntiEntropyRound { .. } => "anti_entropy_round",
            EventKind::QuorumWait { .. } => "quorum_wait",
            EventKind::ConflictDetected { .. } => "conflict_detected",
            EventKind::ConflictResolved { .. } => "conflict_resolved",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::PartitionStart { .. } => "partition_start",
            EventKind::PartitionHeal => "partition_heal",
            EventKind::Crash { .. } => "crash",
            EventKind::Recover { .. } => "recover",
            EventKind::MembershipChange { .. } => "membership_change",
            EventKind::WalReplay { .. } => "wal_replay",
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::OpComplete { .. } => "op_complete",
        }
    }

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
            EventKind::OpComplete { .. } => [None, None],
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

/// Append `value` in decimal: the digits are laid out in a stack buffer
/// and copied over in one piece, so nothing is allocated per integer.
fn push_u64(out: &mut String, mut value: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Append `,"name":value`; the punctuation around a literal name is
/// joined to it at compile time, so it goes out in one piece.
macro_rules! field {
    ($out:expr, $name:literal, $value:expr) => {{
        $out.push_str(concat!(",\"", $name, "\":"));
        push_u64($out, $value);
    }};
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
        out.push_str("{\"seq\":");
        push_u64(out, self.seq);
        out.push_str(",\"t_us\":");
        push_u64(out, self.t_us);
        out.push_str(",\"type\":\"");
        out.push_str(self.kind.type_name());
        out.push('"');
        match &self.kind {
            EventKind::MessageSent { from, to, bytes, trace, span }
            | EventKind::MessageDelivered { from, to, bytes, trace, span } => {
                field!(out, "from", *from);
                field!(out, "to", *to);
                field!(out, "bytes", *bytes);
                field!(out, "trace", *trace);
                field!(out, "span", *span);
            }
            EventKind::MessageDropped { from, to, reason, trace, span } => {
                field!(out, "from", *from);
                field!(out, "to", *to);
                out.push_str(",\"reason\":\"");
                out.push_str(reason.name());
                out.push('"');
                field!(out, "trace", *trace);
                field!(out, "span", *span);
            }
            EventKind::AntiEntropyRound { node, fanout } => {
                field!(out, "node", *node);
                field!(out, "fanout", *fanout);
            }
            EventKind::QuorumWait { node, kind, waited_us, acks, needed } => {
                field!(out, "node", *node);
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push('"');
                field!(out, "waited_us", *waited_us);
                field!(out, "acks", *acks);
                field!(out, "needed", *needed);
            }
            EventKind::ConflictDetected { node, key, siblings } => {
                field!(out, "node", *node);
                field!(out, "key", *key);
                field!(out, "siblings", *siblings);
            }
            EventKind::ConflictResolved { node, key, survivors } => {
                field!(out, "node", *node);
                field!(out, "key", *key);
                field!(out, "survivors", *survivors);
            }
            EventKind::WalAppend { node, key, bytes } => {
                field!(out, "node", *node);
                field!(out, "key", *key);
                field!(out, "bytes", *bytes);
            }
            EventKind::PartitionStart { island } => {
                out.push_str(",\"island\":");
                push_u64_array(out, island);
            }
            EventKind::PartitionHeal => {}
            EventKind::Crash { node } | EventKind::Recover { node } => {
                field!(out, "node", *node);
            }
            EventKind::MembershipChange { node, join } => {
                field!(out, "node", *node);
                out.push_str(",\"join\":");
                out.push_str(if *join { "true" } else { "false" });
            }
            EventKind::WalReplay { node, records } => {
                field!(out, "node", *node);
                field!(out, "records", *records);
            }
            EventKind::SpanOpen { trace, span, parent, node, name } => {
                field!(out, "trace", *trace);
                field!(out, "span", *span);
                field!(out, "parent", *parent);
                field!(out, "node", *node);
                out.push_str(",\"name\":\"");
                push_escaped(out, name);
                out.push('"');
            }
            EventKind::SpanClose { trace, span, node, status } => {
                field!(out, "trace", *trace);
                field!(out, "span", *span);
                field!(out, "node", *node);
                out.push_str(",\"status\":\"");
                out.push_str(status.name());
                out.push('"');
            }
            EventKind::OpComplete {
                session,
                op,
                key,
                kind,
                ok,
                invoked_us,
                replica,
                value,
                values,
                stamp,
                version_ts_us,
            } => {
                field!(out, "session", *session);
                field!(out, "op", *op);
                field!(out, "key", *key);
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push('"');
                out.push_str(",\"ok\":");
                out.push_str(if *ok { "true" } else { "false" });
                field!(out, "invoked_us", *invoked_us);
                field!(out, "replica", *replica);
                // Optional fields are omitted when absent; the parser
                // reads by name, so presence is the None/Some signal.
                if let Some(v) = value {
                    field!(out, "value", *v);
                }
                out.push_str(",\"values\":");
                push_u64_array(out, values);
                if let Some((ctr, actor)) = stamp {
                    out.push_str(",\"stamp\":");
                    push_u64_array(out, &[*ctr, *actor]);
                }
                if let Some(ts) = version_ts_us {
                    field!(out, "version_ts_us", *ts);
                }
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            EventKind::OpComplete {
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
            },
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
}
