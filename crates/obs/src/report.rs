//! Exported metrics snapshots ([`MetricsReport`]).

use serde::{Serialize, Value};

use crate::counters::Counter;
use crate::hist::HistogramSummary;
use crate::prof::ProfileReport;
use crate::timeseries::TimeSeriesSummary;

/// Non-zero counters for one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeCounters {
    /// The node's id.
    pub node: u64,
    /// `(counter_name, value)` pairs in export order, zeros omitted.
    pub counters: Vec<(String, u64)>,
}

/// A point-in-time snapshot of everything a [`crate::Recorder`]
/// aggregated: counters (global and per node) and histogram summaries.
///
/// This is the `metrics` section embedded in every `results/*.json`;
/// the field-by-field contract lives in `docs/METRICS.md`.
///
/// # Examples
///
/// A snapshot answers by counter and checks the conservation identity
/// every run must satisfy:
///
/// ```
/// use obs::{Counter, EventKind, Recorder};
///
/// let rec = Recorder::enabled();
/// rec.record(0, EventKind::MessageSent { from: 0, to: 1, bytes: 8, trace: 0, span: 0 });
/// rec.record(1, EventKind::MessageSent { from: 1, to: 0, bytes: 8, trace: 0, span: 0 });
/// rec.record(2, EventKind::MessageDelivered { from: 0, to: 1, bytes: 8, trace: 0, span: 0 });
///
/// let report = rec.report();
/// assert_eq!(report.counter(Counter::MessagesSent), 2);
/// assert_eq!(report.check_message_conservation(), Err((2, 1, 0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Total events recorded (including any past the event-log cap).
    pub events_recorded: u64,
    /// Events not retained in the log because the cap was hit.
    pub events_dropped: u64,
    /// Global counters as `(name, value)`, every counter present, in
    /// the fixed order of [`Counter::ALL`].
    pub counters: Vec<(String, u64)>,
    /// Per-node non-zero counters, ordered by node id.
    pub per_node: Vec<NodeCounters>,
    /// Histogram summaries as `(metric_name, summary)`, empty
    /// histograms omitted.
    pub latencies: Vec<(String, HistogramSummary)>,
    /// Windowed time series as `(metric_name, summary)`, empty series
    /// omitted. See [`crate::TsMetric`] for the sampled quantities.
    pub timeseries: Vec<(String, TimeSeriesSummary)>,
    /// Per-handler profiler output, present only when profiling was
    /// enabled ([`crate::Recorder::enable_profiling`]); serialized as a
    /// `profile` member only when present, so unprofiled reports keep
    /// their historical JSON shape. See `docs/PROFILING.md`.
    pub profile: Option<ProfileReport>,
}

impl MetricsReport {
    /// Look up a global counter value (0 if absent).
    pub fn counter(&self, counter: Counter) -> u64 {
        let name = counter.name();
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    /// Look up a counter value for one node (0 if absent).
    pub fn node_counter(&self, node: u64, counter: Counter) -> u64 {
        let name = counter.name();
        self.per_node
            .iter()
            .find(|nc| nc.node == node)
            .and_then(|nc| nc.counters.iter().find(|(n, _)| n == name))
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The conservation identity every run must satisfy:
    /// `messages_sent == messages_delivered + messages_dropped`.
    ///
    /// Returns `Err` with the three values when violated, so tests can
    /// print a useful failure.
    pub fn check_message_conservation(&self) -> Result<(), (u64, u64, u64)> {
        let sent = self.counter(Counter::MessagesSent);
        let delivered = self.counter(Counter::MessagesDelivered);
        let dropped = self.counter(Counter::MessagesDropped);
        if sent == delivered + dropped {
            Ok(())
        } else {
            Err((sent, delivered, dropped))
        }
    }
}

impl Serialize for NodeCounters {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("node".to_string(), Value::U64(self.node)),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect(),
                ),
            ),
        ])
    }
}

impl Serialize for MetricsReport {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("events_recorded".to_string(), Value::U64(self.events_recorded)),
            ("events_dropped".to_string(), Value::U64(self.events_dropped)),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect(),
                ),
            ),
            (
                "per_node".to_string(),
                Value::Array(self.per_node.iter().map(|nc| nc.to_value()).collect()),
            ),
            (
                "latencies".to_string(),
                Value::Object(
                    self.latencies.iter().map(|(n, s)| (n.clone(), s.to_value())).collect(),
                ),
            ),
            (
                "timeseries".to_string(),
                Value::Object(
                    self.timeseries.iter().map(|(n, s)| (n.clone(), s.to_value())).collect(),
                ),
            ),
        ];
        if let Some(profile) = &self.profile {
            members.push(("profile".to_string(), profile.to_value()));
        }
        Value::Object(members)
    }
}

#[cfg(test)]
mod tests {
    use crate::event::EventKind;
    use crate::Recorder;

    #[test]
    fn conservation_check_catches_imbalance() {
        let rec = Recorder::enabled();
        rec.record(0, EventKind::MessageSent { from: 0, to: 1, bytes: 8, trace: 0, span: 0 });
        let report = rec.report();
        assert_eq!(report.check_message_conservation(), Err((1, 0, 0)));
        rec.record(5, EventKind::MessageDelivered { from: 0, to: 1, bytes: 8, trace: 0, span: 0 });
        assert!(rec.report().check_message_conservation().is_ok());
    }

    #[test]
    fn report_serializes_to_deterministic_json() {
        let rec = Recorder::enabled();
        rec.record(0, EventKind::WalAppend { node: 1, key: 9, bytes: 32 });
        let a = serde::Serialize::to_value(&rec.report()).to_json();
        let b = serde::Serialize::to_value(&rec.report()).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"wal_appends\":1"));
        assert!(a.contains("\"wal_append_bytes\""));
    }
}
