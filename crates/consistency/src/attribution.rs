//! Attribute consistency violations to network conditions.
//!
//! The checkers in this crate report *that* a guarantee was violated and
//! *when*; this module consumes the structured simulation event log
//! ([`obs::TracedEvent`], see `docs/METRICS.md`) to explain *why*: was a
//! partition active at the violation time, how many messages were being
//! dropped around it, how long had it been since the victim's last
//! anti-entropy round, and which nodes were down.
//!
//! The event log is the one exported as JSONL via `--trace-out`:
//! attribution reads it parsed ([`obs::parse_jsonl`]), whether the text
//! came from a file or from [`obs::Recorder::export_jsonl`] in-process.
//!
//! With causal tracing enabled the log also carries span open/close
//! pairs, and attribution walks them: [`spans_at`] lists the operation
//! steps in flight at the violation instant, and [`causal_chain`]
//! follows a span's parent links up to its trace root — the exact path
//! the stale operation took through the system. `tracequery explain`
//! (crate `obs-tools`) is the offline front-end for both.

use obs::{EventKind, TracedEvent};
use serde::{Deserialize, Serialize};

/// Network conditions around one violation instant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationContext {
    /// The violation time being explained (simulation µs).
    pub t_us: u64,
    /// Was a partition active at `t_us`?
    pub in_partition: bool,
    /// Messages dropped in the `window_us` before `t_us`, by reason name
    /// (`"partition"`, `"loss"`, `"crashed_destination"`).
    pub drops_by_reason: Vec<(String, u64)>,
    /// Nodes that crashed before `t_us` and had not recovered by it.
    pub crashed_nodes: Vec<u64>,
    /// Time since the most recent anti-entropy round anywhere in the
    /// cluster (µs), if any round happened before `t_us`.
    pub since_anti_entropy_us: Option<u64>,
    /// Operation steps (spans) in flight at `t_us`: opened at or before
    /// it and not yet closed. Empty when the trace was recorded without
    /// span events.
    pub in_flight_spans: Vec<SpanAt>,
}

/// One operation step (span) as seen by the attribution walk: its
/// identity in the span tree plus its virtual-time bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanAt {
    /// The trace this span belongs to.
    pub trace: u64,
    /// The span id.
    pub span: u64,
    /// Parent span id (0 for a trace root).
    pub parent: u64,
    /// The node the step ran on.
    pub node: u64,
    /// Static step name (e.g. `op_read`, `quorum_write`).
    pub name: String,
    /// When the span opened (simulation µs).
    pub open_t_us: u64,
    /// When the span closed, if the log contains its close event.
    pub close_t_us: Option<u64>,
    /// Close status name (`ok`, `failed`, `abandoned`), if closed.
    pub status: Option<String>,
}

/// Collect every span in the log, in span-id order (ids are allocated
/// serially, so that is open order too), with close times and statuses
/// filled in from matching [`EventKind::SpanClose`] events. The offline
/// trace tools build span trees from this.
pub fn all_spans(events: &[TracedEvent]) -> Vec<SpanAt> {
    SpanTable::of_log(events).spans.into_values().collect()
}

/// The spans in flight at `t_us`: opened at or before it and either
/// never closed or closed strictly after it, in span-id order.
pub fn spans_at(events: &[TracedEvent], t_us: u64) -> Vec<SpanAt> {
    SpanTable::of_log(events).in_flight_at(t_us)
}

/// The causal chain of span `span_id`: the span itself followed by its
/// ancestors up to the trace root (parent links from the span-open
/// events). Empty if the span is not in the log. Builds the span table
/// of the whole log: for more than one chain, build it once
/// ([`SpanTable::of_log`]) and walk that.
pub fn causal_chain(events: &[TracedEvent], span_id: u64) -> Vec<SpanAt> {
    SpanTable::of_log(events).causal_chain(span_id)
}

/// The span table of a whole log: every span by id, with its bounds and
/// close status, which [`all_spans`], [`spans_at`], [`causal_chain`] and
/// `tracequery explain` read.
#[derive(Debug, Default)]
pub struct SpanTable {
    spans: std::collections::BTreeMap<u64, SpanAt>,
}

impl SpanTable {
    /// The table of `events`; non-span events are ignored, and a close
    /// without its open is dropped.
    pub fn of_log(events: &[TracedEvent]) -> Self {
        let mut table = SpanTable::default();
        for ev in events {
            match &ev.kind {
                EventKind::SpanOpen { trace, span, parent, node, name } => {
                    let open = SpanAt {
                        trace: *trace,
                        span: *span,
                        parent: *parent,
                        node: *node,
                        name: (*name).to_string(),
                        open_t_us: ev.t_us,
                        close_t_us: None,
                        status: None,
                    };
                    table.spans.insert(*span, open);
                }
                EventKind::SpanClose { span, status, .. } => {
                    if let Some(s) = table.spans.get_mut(span) {
                        s.close_t_us = Some(ev.t_us);
                        s.status = Some(status.name().to_string());
                    }
                }
                _ => {}
            }
        }
        table
    }

    /// The spans in flight at `t_us`: opened at or before it and either
    /// not closed or closed strictly after it.
    pub fn in_flight_at(&self, t_us: u64) -> Vec<SpanAt> {
        let in_flight = |s: &&SpanAt| s.open_t_us <= t_us && s.close_t_us.is_none_or(|c| c > t_us);
        self.spans.values().filter(in_flight).cloned().collect()
    }

    /// The causal chain of `span_id`: the span and its ancestors up to
    /// the trace root. The walk stops at a parent the log never opened.
    pub fn causal_chain(&self, span_id: u64) -> Vec<SpanAt> {
        let span = |id: u64| self.spans.get(&id).filter(|_| id != 0);
        // No chain is longer than the table: parent links that loop (a
        // hand-edited log) end the walk there instead of never ending it.
        std::iter::successors(span(span_id), |s| span(s.parent))
            .take(self.spans.len())
            .cloned()
            .collect()
    }
}

impl ViolationContext {
    /// Total drops in the window, all reasons combined.
    pub fn total_drops(&self) -> u64 {
        self.drops_by_reason.iter().map(|(_, n)| n).sum()
    }

    /// One-line human-readable verdict, most-likely cause first.
    pub fn verdict(&self) -> String {
        if self.in_partition {
            "partition active at violation time".to_string()
        } else if !self.crashed_nodes.is_empty() {
            format!("{} node(s) down at violation time", self.crashed_nodes.len())
        } else if self.total_drops() > 0 {
            format!("{} message(s) dropped in the window before", self.total_drops())
        } else {
            "no fault active: replication lag alone".to_string()
        }
    }
}

/// Explain the network conditions at violation time `t_us`, looking back
/// `window_us` for message drops. Events must be in recording order
/// (ascending `seq`), which [`obs::parse_jsonl`] holds an exported log to.
pub fn attribute_violation(events: &[TracedEvent], t_us: u64, window_us: u64) -> ViolationContext {
    attribute_violation_in(events, &SpanTable::of_log(events), t_us, window_us)
}

/// [`attribute_violation`] with the log's span table
/// ([`SpanTable::of_log`]) built by the caller, once for any number of
/// violation times and chain walks.
pub fn attribute_violation_in(
    events: &[TracedEvent],
    spans: &SpanTable,
    t_us: u64,
    window_us: u64,
) -> ViolationContext {
    let mut open_partitions: u64 = 0;
    let mut crashed: Vec<u64> = Vec::new();
    let mut last_ae: Option<u64> = None;
    let mut drops: Vec<(String, u64)> = Vec::new();
    let window_start = t_us.saturating_sub(window_us);
    for ev in events.iter().take_while(|e| e.t_us <= t_us) {
        match &ev.kind {
            EventKind::PartitionStart { .. } => open_partitions += 1,
            EventKind::PartitionHeal => open_partitions = open_partitions.saturating_sub(1),
            EventKind::Crash { node } if !crashed.contains(node) => crashed.push(*node),
            EventKind::Recover { node } => crashed.retain(|n| n != node),
            EventKind::AntiEntropyRound { .. } => last_ae = Some(ev.t_us),
            EventKind::MessageDropped { reason, .. } if ev.t_us >= window_start => {
                let name = reason.name();
                match drops.iter_mut().find(|(r, _)| r == name) {
                    Some((_, n)) => *n += 1,
                    None => drops.push((name.to_string(), 1)),
                }
            }
            _ => {}
        }
    }
    ViolationContext {
        t_us,
        in_partition: open_partitions > 0,
        drops_by_reason: drops,
        crashed_nodes: crashed,
        since_anti_entropy_us: last_ae.map(|ae| t_us.saturating_sub(ae)),
        in_flight_spans: spans.in_flight_at(t_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::DropReason;

    fn ev(seq: u64, t_us: u64, kind: EventKind) -> TracedEvent {
        TracedEvent { seq, t_us, kind }
    }

    #[test]
    fn partition_interval_is_attributed() {
        let events = vec![
            ev(0, 100, EventKind::PartitionStart { island: vec![0] }),
            ev(1, 500, EventKind::PartitionHeal),
        ];
        assert!(attribute_violation(&events, 300, 1_000).in_partition);
        assert!(!attribute_violation(&events, 600, 0).in_partition);
        assert!(!attribute_violation(&events, 50, 0).in_partition);
    }

    #[test]
    fn drops_window_and_crash_tracking() {
        let events = vec![
            ev(0, 100, EventKind::Crash { node: 2 }),
            ev(
                1,
                200,
                EventKind::MessageDropped {
                    from: 0,
                    to: 2,
                    reason: DropReason::CrashedDestination,
                    trace: 0,
                    span: 0,
                },
            ),
            ev(2, 300, EventKind::Recover { node: 2 }),
            ev(
                3,
                400,
                EventKind::MessageDropped {
                    from: 1,
                    to: 0,
                    reason: DropReason::Loss,
                    trace: 0,
                    span: 0,
                },
            ),
        ];
        let ctx = attribute_violation(&events, 250, 100);
        assert_eq!(ctx.crashed_nodes, vec![2]);
        assert_eq!(ctx.total_drops(), 1);
        let ctx = attribute_violation(&events, 450, 100);
        assert!(ctx.crashed_nodes.is_empty());
        assert_eq!(ctx.drops_by_reason, vec![("loss".to_string(), 1)]);
        assert!(ctx.verdict().contains("dropped"));
    }

    #[test]
    fn spans_at_and_causal_chain_walk_the_tree() {
        use obs::SpanStatus;
        // Trace 1: root span 1 (node 9) -> child span 2 (node 3).
        let events = vec![
            ev(0, 100, EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 9, name: "op" }),
            ev(
                1,
                200,
                EventKind::SpanOpen { trace: 1, span: 2, parent: 1, node: 3, name: "replica" },
            ),
            ev(2, 300, EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Ok }),
            ev(3, 500, EventKind::SpanClose { trace: 1, span: 1, node: 9, status: SpanStatus::Ok }),
        ];
        // At t=250 both spans are in flight; at t=400 only the root.
        let at = spans_at(&events, 250);
        assert_eq!(at.iter().map(|s| s.span).collect::<Vec<_>>(), vec![1, 2]);
        let at = spans_at(&events, 400);
        assert_eq!(at.iter().map(|s| s.span).collect::<Vec<_>>(), vec![1]);
        // The chain from the child reaches the root via the parent link.
        let chain = causal_chain(&events, 2);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].name, "replica");
        assert_eq!(chain[0].close_t_us, Some(300));
        assert_eq!(chain[1].name, "op");
        assert_eq!(chain[1].parent, 0);
        // attribute_violation carries the in-flight spans along.
        let ctx = attribute_violation(&events, 250, 0);
        assert_eq!(ctx.in_flight_spans.len(), 2);
    }

    /// Parent links that loop (a hand-edited log) end the walk after one
    /// round instead of never ending it.
    #[test]
    fn a_chain_of_looping_parents_ends() {
        let open =
            |span, parent| EventKind::SpanOpen { trace: 1, span, parent, node: 0, name: "op" };
        let events = vec![ev(0, 10, open(1, 2)), ev(1, 20, open(2, 1))];
        let chain: Vec<u64> = causal_chain(&events, 2).iter().map(|s| s.span).collect();
        assert_eq!(chain, vec![2, 1]);
    }

    /// The verdict puts each violation in one bucket: under a partition,
    /// or with no fault in sight (pure replication lag).
    #[test]
    fn summary_buckets_violations() {
        let events = vec![
            ev(0, 100, EventKind::PartitionStart { island: vec![0, 1] }),
            ev(1, 200, EventKind::PartitionHeal),
            ev(2, 900, EventKind::AntiEntropyRound { node: 0, fanout: 1 }),
        ];
        assert!(attribute_violation(&events, 150, 50).in_partition);
        let ctx = attribute_violation(&events, 1_000, 50);
        assert_eq!(ctx.verdict(), "no fault active: replication lag alone");
        assert_eq!(ctx.since_anti_entropy_us, Some(100));
    }
}
