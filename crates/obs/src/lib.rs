//! Structured observability for the rethinking-ec workspace.
//!
//! This crate is the metrics contract between the simulator, the
//! replication protocols, and the experiment harness:
//!
//! - a **typed event log** ([`EventKind`], [`TracedEvent`]) recording
//!   what the protocols did and why (message sends/drops, anti-entropy
//!   rounds, quorum waits, conflicts, WAL appends, faults), kept packed
//!   in memory (about ten bytes an event), exportable as deterministic
//!   JSONL and read back by [`parse_jsonl`] — one table in `event.rs`
//!   declares each event type for every direction;
//! - **counters** ([`Counter`]), global and per node, derived
//!   automatically from recorded events;
//! - **histograms** ([`Metric`], [`Histogram`]) for continuous
//!   quantities such as quorum wait times;
//! - **causal span ids** ([`SpanId`]; trace ids are plain `u64`) that group
//!   every event caused by one client operation into a span tree
//!   (`span_open`/`span_close` event pairs, documented in
//!   `docs/TRACING.md`);
//! - **windowed time series** ([`TsMetric`], [`TimeSeries`]) tracking
//!   how staleness, divergence, visibility lag, and in-flight depth
//!   evolve over virtual time.
//!
//! All three are fed through a single cheap-to-clone [`Recorder`]
//! handle, which is free when disabled, and snapshot into a
//! [`MetricsReport`] — the `metrics` section of every
//! `results/*.json`. Field-by-field documentation lives in
//! `docs/METRICS.md`.
//!
//! This crate deliberately depends on no other crate of the lab, only
//! on the vendored `serde` / `serde_json` (node ids are plain `u64`,
//! times are microsecond `u64`s), so every layer —
//! `simnet`, `kvstore`, `replication`, `txn`, `rec-core` — can report
//! into it without dependency cycles.
//!
//! # Examples
//!
//! Recording and exporting a trace:
//!
//! ```
//! use obs::{EventKind, Recorder};
//!
//! let rec = Recorder::with_event_log();
//! rec.record(100, EventKind::AntiEntropyRound { node: 0, fanout: 2 });
//! rec.record(220, EventKind::WalAppend { node: 0, key: 7, bytes: 64 });
//!
//! let jsonl = rec.export_jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! assert!(jsonl.starts_with(r#"{"seq":0,"t_us":100,"type":"anti_entropy_round""#));
//! ```
//!
//! Reading a JSONL trace back (each line is a standalone JSON object):
//!
//! ```
//! use obs::{EventKind, Recorder};
//!
//! let rec = Recorder::with_event_log();
//! rec.record(5, EventKind::Crash { node: 3 });
//! for line in rec.export_jsonl().lines() {
//!     let value: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
//!     let obj = value.as_object().expect("object per line");
//!     let ty = obj.iter().find(|(k, _)| k == "type").unwrap().1.as_str();
//!     assert_eq!(ty, Some("crash"));
//! }
//! ```

#![warn(missing_docs)]

/// Declare a closed list whose members travel by name: the enum, `ALL`
/// (every variant in declaration order, an array the macro sizes),
/// `COUNT`, `name` and its inverse `from_name`. `$what` is what
/// `from_name`'s error calls a name it does not know. The enum derives
/// `Debug, Clone, Copy, PartialEq, Eq`; attributes written above the
/// name (docs, more derives, `#[repr(usize)]`) are passed through.
///
/// Every list of names the lab exports is declared once, through this
/// macro: counters, histogram and time-series metrics, handler kinds,
/// fold weights, the wire enums, `consistency::ViolationKind` and
/// `rec_core::fuzz::FuzzScheme`.
///
/// ```
/// obs::names! {
///     /// A colour.
///     Colour, "colour" {
///         /// Red.
///         Red = "red",
///         /// Green.
///         Green = "green",
///     }
/// }
/// assert_eq!(Colour::ALL, [Colour::Red, Colour::Green]);
/// assert_eq!(Colour::from_name(Colour::Green.name()), Ok(Colour::Green));
/// assert_eq!(Colour::from_name("blue"), Err("unknown colour `blue`".to_string()));
/// ```
#[macro_export]
macro_rules! names {
    ($(#[$attr:meta])* $ty:ident, $what:literal {
        $($(#[$vattr:meta])* $variant:ident = $name:literal,)*
    }) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vattr])* $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration (and export) order.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// Number of variants.
            pub const COUNT: usize = Self::ALL.len();

            /// The variant's stable name, as exported.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            /// The variant [`Self::name`] spells `name`.
            pub fn from_name(name: &str) -> ::std::result::Result<Self, ::std::string::String> {
                match name {
                    $($name => ::std::result::Result::Ok($ty::$variant),)*
                    other => ::std::result::Result::Err(::std::format!(
                        ::std::concat!("unknown ", $what, " `{}`"),
                        other
                    )),
                }
            }
        }
    };
}

mod counters;
mod event;
mod hist;
mod packed;
mod prof;
mod recorder;
mod report;
mod span;
mod timeseries;

pub use counters::Counter;
pub use event::{
    parse_jsonl, parse_line, ClientOpKind, DropReason, EventKind, OpCompletion, ParseError,
    QuorumKind, SeqOrder, SpanStatus, TracedEvent, MAX_SPAN_NAMES,
};
pub use hist::{Histogram, HistogramSummary, Metric};
pub use prof::{
    alloc_totals, CountingAlloc, FoldWeight, HandlerKind, HandlerProfile, PauseAlloc, Probe,
    ProfSample, Profile, ProfileReport, SchemeProfile, NO_VARIANT,
};
pub use recorder::{Recorder, DEFAULT_EVENT_CAP};
pub use report::{MetricsReport, NodeCounters};
pub use span::SpanId;
pub use timeseries::{
    TimeSeries, TimeSeriesSummary, TsBucket, TsMetric, TsPoint, DEFAULT_TS_BUCKET_US,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// One `names!` list: no two variants share a name, every name is
    /// snake_case, and `from_name` inverts `name`.
    fn assert_names<T: Copy + PartialEq + Debug, const N: usize>(
        all: [T; N],
        name: fn(T) -> &'static str,
        from_name: fn(&str) -> Result<T, String>,
    ) {
        let names: BTreeSet<&str> = all.iter().map(|&v| name(v)).collect();
        assert_eq!(names.len(), N, "two variants of {all:?} share a name");
        for v in all {
            assert_eq!(from_name(name(v)), Ok(v));
            assert!(
                name(v).chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{} is not snake_case",
                name(v)
            );
        }
    }

    #[test]
    fn every_names_list_is_unique_and_round_trips() {
        macro_rules! check {
            ($($ty:ident),*) => { $(assert_names($ty::ALL, $ty::name, $ty::from_name);)* };
        }
        check!(Counter, Metric, TsMetric, HandlerKind, FoldWeight);
        check!(DropReason, QuorumKind, ClientOpKind, SpanStatus);
    }
}
