//! Attribute consistency violations to network conditions.
//!
//! The checkers in this crate report *that* a guarantee was violated and
//! *when*; this module consumes the structured simulation event log
//! ([`obs::TracedEvent`], see `docs/METRICS.md`) to explain *why*: was a
//! partition active at the violation time, how many messages were being
//! dropped around it, how long had it been since the victim's last
//! anti-entropy round, and which nodes were down.
//!
//! The event log is the same one exported as JSONL via `--trace-out`, so
//! attribution works both in-process (on [`obs::Recorder::events`]) and
//! offline on a parsed trace.
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
    SpanWindow::of_log(events).spans.into_values().collect()
}

/// The spans in flight at `t_us`: opened at or before it and either
/// never closed or closed strictly after it, in span-id order.
pub fn spans_at(events: &[TracedEvent], t_us: u64) -> Vec<SpanAt> {
    SpanWindow::of_log(events).in_flight_at(t_us)
}

/// The causal chain of span `span_id`: the span itself followed by its
/// ancestors up to the trace root (parent links from the span-open
/// events). Empty if the span is not in the log. Builds the span table
/// of the whole log: for more than one chain, build it once
/// ([`SpanWindow::of_log`]) and walk that.
pub fn causal_chain(events: &[TracedEvent], span_id: u64) -> Vec<SpanAt> {
    let chain = SpanWindow::of_log(events).causal_chain(span_id);
    chain.iter().filter_map(ChainLink::span).cloned().collect()
}

/// One link in a windowed causal chain: either a resident ancestor span
/// or an explanation of why it is absent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChainLink {
    /// The ancestor is resident in the window.
    Span(SpanAt),
    /// The ancestor was evicted at a watermark advance; the chain stops
    /// here (its own parent is unknowable without the full table).
    Evicted {
        /// The evicted span's id.
        span: u64,
        /// The retention window that aged it out (µs).
        window_us: u64,
    },
    /// The ancestor never appeared in the observed event stream.
    Missing {
        /// The unresolved span id.
        span: u64,
    },
}

impl ChainLink {
    /// The span, if this link is a resident one.
    pub fn span(&self) -> Option<&SpanAt> {
        match self {
            ChainLink::Span(s) => Some(s),
            _ => None,
        }
    }
}

/// The span table: every span by id, built event by event, with bounded
/// memory for **online** attribution.
///
/// The streaming checkers (see [`crate::stream`]) deliberately keep no
/// full event log, so a `SpanWindow` that is [advanced](Self::advance)
/// keeps only spans that are still open or closed within the retention
/// window behind the watermark; walking a causal chain through an
/// evicted ancestor yields an explicit [`ChainLink::Evicted`] marker
/// instead of a panic or a silently truncated chain. One that is never
/// advanced evicts nothing: [`SpanWindow::of_log`] is the table of a
/// whole log, which [`all_spans`], [`spans_at`] and [`causal_chain`]
/// read.
///
/// Span ids are allocated serially by the recorder, so an absent id at
/// or below the highest evicted id is reported as evicted; higher
/// absent ids were never observed.
#[derive(Debug, Default)]
pub struct SpanWindow {
    window_us: u64,
    spans: std::collections::BTreeMap<u64, SpanAt>,
    max_evicted_span: Option<u64>,
    evicted: u64,
}

impl SpanWindow {
    /// A span table retaining closed spans for `window_us` behind the
    /// watermark.
    pub fn new(window_us: u64) -> Self {
        SpanWindow { window_us, ..Default::default() }
    }

    /// The table of a whole log: every span resident.
    pub fn of_log(events: &[TracedEvent]) -> Self {
        let mut table = SpanWindow::new(0);
        for ev in events {
            table.observe(ev);
        }
        table
    }

    /// The resident spans in flight at `t_us`: opened at or before it
    /// and either not closed or closed strictly after it.
    pub fn in_flight_at(&self, t_us: u64) -> Vec<SpanAt> {
        let in_flight = |s: &&SpanAt| s.open_t_us <= t_us && s.close_t_us.is_none_or(|c| c > t_us);
        self.spans.values().filter(in_flight).cloned().collect()
    }

    /// Observe one event from the log; non-span events are ignored.
    pub fn observe(&mut self, ev: &TracedEvent) {
        match &ev.kind {
            EventKind::SpanOpen { trace, span, parent, node, name } => {
                self.spans.insert(
                    *span,
                    SpanAt {
                        trace: *trace,
                        span: *span,
                        parent: *parent,
                        node: *node,
                        name: (*name).to_string(),
                        open_t_us: ev.t_us,
                        close_t_us: None,
                        status: None,
                    },
                );
            }
            EventKind::SpanClose { span, status, .. } => {
                if let Some(s) = self.spans.get_mut(span) {
                    s.close_t_us = Some(ev.t_us);
                    s.status = Some(status.name().to_string());
                }
            }
            _ => {}
        }
    }

    /// Advance the watermark: spans closed before `t_us - window` are
    /// evicted (open spans are always retained — they may still close).
    /// Returns how many were dropped.
    pub fn advance(&mut self, t_us: u64) -> u64 {
        let cut = t_us.saturating_sub(self.window_us);
        let before = self.spans.len();
        let max_evicted = &mut self.max_evicted_span;
        self.spans.retain(|&id, s| {
            let keep = s.close_t_us.is_none_or(|c| c >= cut);
            if !keep {
                *max_evicted = Some(max_evicted.map_or(id, |m| m.max(id)));
            }
            keep
        });
        let dropped = (before - self.spans.len()) as u64;
        self.evicted += dropped;
        dropped
    }

    /// Total spans evicted so far.
    pub fn events_evicted(&self) -> u64 {
        self.evicted
    }

    /// The causal chain of `span_id` from the windowed state: the span
    /// and its ancestors up to the trace root, ending in an
    /// [`ChainLink::Evicted`] or [`ChainLink::Missing`] marker if the
    /// walk leaves the window. Equals [`causal_chain`] (wrapped in
    /// [`ChainLink::Span`]) whenever nothing on the path was evicted.
    pub fn causal_chain(&self, span_id: u64) -> Vec<ChainLink> {
        let mut chain = Vec::new();
        let mut cursor = span_id;
        while cursor != 0 {
            match self.spans.get(&cursor) {
                // No chain is longer than the table: parent links that
                // loop (a hand-edited log) end the walk here instead of
                // never ending it.
                Some(_) if chain.len() == self.spans.len() => break,
                Some(s) => {
                    chain.push(ChainLink::Span(s.clone()));
                    cursor = s.parent;
                }
                None => {
                    if self.max_evicted_span.is_some_and(|m| cursor <= m) {
                        chain.push(ChainLink::Evicted { span: cursor, window_us: self.window_us });
                    } else {
                        chain.push(ChainLink::Missing { span: cursor });
                    }
                    break;
                }
            }
        }
        chain
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
/// (ascending `seq`), which [`obs::Recorder::events`] guarantees.
pub fn attribute_violation(events: &[TracedEvent], t_us: u64, window_us: u64) -> ViolationContext {
    attribute_violation_in(events, &SpanWindow::of_log(events), t_us, window_us)
}

/// [`attribute_violation`] with the log's span table
/// ([`SpanWindow::of_log`]) built by the caller, once for any number of
/// violation times and chain walks.
pub fn attribute_violation_in(
    events: &[TracedEvent],
    spans: &SpanWindow,
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

/// Attribute a batch of violation times and summarize: how many happened
/// under a partition, with a node down, near drops, or with no fault at
/// all (pure replication lag).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionSummary {
    /// Violations with a partition active.
    pub during_partition: u64,
    /// Violations with at least one node down (and no partition).
    pub during_crash: u64,
    /// Violations preceded by message drops (no partition, no crash).
    pub near_drops: u64,
    /// Violations with no fault in sight.
    pub unattributed: u64,
}

/// Classify each violation time with [`attribute_violation`] and count
/// the buckets.
pub fn summarize_attributions(
    events: &[TracedEvent],
    violation_times_us: &[u64],
    window_us: u64,
) -> AttributionSummary {
    let mut s = AttributionSummary::default();
    let spans = SpanWindow::of_log(events);
    for &t in violation_times_us {
        let ctx = attribute_violation_in(events, &spans, t, window_us);
        if ctx.in_partition {
            s.during_partition += 1;
        } else if !ctx.crashed_nodes.is_empty() {
            s.during_crash += 1;
        } else if ctx.total_drops() > 0 {
            s.near_drops += 1;
        } else {
            s.unattributed += 1;
        }
    }
    s
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

    #[test]
    fn windowed_chain_matches_full_table_when_nothing_evicted() {
        use obs::SpanStatus;
        let events = vec![
            ev(0, 100, EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 9, name: "op" }),
            ev(
                1,
                200,
                EventKind::SpanOpen { trace: 1, span: 2, parent: 1, node: 3, name: "replica" },
            ),
            ev(2, 300, EventKind::SpanClose { trace: 1, span: 2, node: 3, status: SpanStatus::Ok }),
        ];
        let mut w = SpanWindow::new(1_000_000);
        for e in &events {
            w.observe(e);
        }
        w.advance(400);
        let windowed = w.causal_chain(2);
        let full = causal_chain(&events, 2);
        assert_eq!(windowed.len(), full.len());
        for (link, span) in windowed.iter().zip(&full) {
            assert_eq!(link, &ChainLink::Span(span.clone()));
        }
        assert_eq!(w.events_evicted(), 0);
    }

    #[test]
    fn evicted_cause_is_reported_not_missed() {
        use obs::SpanStatus;
        // Root span 1 closes early; its grandchild's violation is
        // investigated long after the root aged out of the window.
        let mut w = SpanWindow::new(100);
        w.observe(&ev(
            0,
            10,
            EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "op" },
        ));
        w.observe(&ev(
            1,
            20,
            EventKind::SpanClose { trace: 1, span: 1, node: 0, status: SpanStatus::Ok },
        ));
        w.observe(&ev(
            2,
            30,
            EventKind::SpanOpen { trace: 1, span: 2, parent: 1, node: 3, name: "replica" },
        ));
        assert_eq!(w.advance(500), 1, "the closed root ages out");
        let chain = w.causal_chain(2);
        assert_eq!(chain.len(), 2);
        assert!(matches!(chain[0], ChainLink::Span(ref s) if s.span == 2));
        assert_eq!(chain[1], ChainLink::Evicted { span: 1, window_us: 100 });
        // A parent id that was never observed is distinguishable from an
        // evicted one.
        let ghost = w.causal_chain(99);
        assert_eq!(ghost, vec![ChainLink::Missing { span: 99 }]);
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

    #[test]
    fn open_spans_survive_eviction() {
        let mut w = SpanWindow::new(0);
        w.observe(&ev(
            0,
            10,
            EventKind::SpanOpen { trace: 1, span: 1, parent: 0, node: 0, name: "op" },
        ));
        assert_eq!(w.advance(1_000_000), 0, "open spans are never evicted");
        assert!(matches!(w.causal_chain(1)[..], [ChainLink::Span(ref s)] if s.span == 1));
    }

    #[test]
    fn summary_buckets_violations() {
        let events = vec![
            ev(0, 100, EventKind::PartitionStart { island: vec![0, 1] }),
            ev(1, 200, EventKind::PartitionHeal),
            ev(2, 900, EventKind::AntiEntropyRound { node: 0, fanout: 1 }),
        ];
        let s = summarize_attributions(&events, &[150, 1_000], 50);
        assert_eq!(s.during_partition, 1);
        assert_eq!(s.unattributed, 1);
        let ctx = attribute_violation(&events, 1_000, 50);
        assert_eq!(ctx.since_anti_entropy_us, Some(100));
    }
}
