//! Offline profile analysis: read the `profile` block of a results
//! document back into the [`obs::ProfileReport`] that wrote it and
//! answer the `tracequery prof` questions (top-K hot handlers,
//! per-scheme regression diffs; the folded-stack view is the report's
//! own [`obs::ProfileReport::to_folded`]).
//!
//! Profiles are produced by any harness run with `--profile` (see
//! `docs/PROFILING.md`); the canonical checked-in artifact is
//! `results/profile_protos.json` from the `profile_protos` bin.

use obs::{FoldWeight, HandlerProfile, ProfileReport};
use serde::{Deserialize, Value};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Locate the `profile` block in a parsed results document. Accepts any
/// of the shapes a profile travels in:
///
/// * a bare profile object (`{"schemes": [...]}`),
/// * a document with a top-level `profile` member
///   (`results/profile_protos.json`),
/// * a document with `metrics.profile` (the `Obs::save` shape).
pub fn find_profile(doc: &Value) -> Option<&Value> {
    if doc.get("schemes").is_some() {
        return Some(doc);
    }
    if let Some(p) = doc.get("profile") {
        return Some(p);
    }
    doc.get("metrics").and_then(|m| m.get("profile"))
}

/// Parse a results document into the profile it carries. A handler row
/// with a missing or mistyped field is an error naming the scheme, the
/// row and the field (`schemes[1].handlers[0]: missing field
/// `alloc_bytes``) — never a row of empty strings and zeros, which
/// `tracequery prof diff` would report as "no differences".
pub fn parse_profile(text: &str) -> Result<ProfileReport, String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let profile = find_profile(&doc).ok_or_else(|| {
        "no profile block found (expected `schemes`, `profile`, or `metrics.profile`; \
         was the run made with --profile?)"
            .to_string()
    })?;
    ProfileReport::from_value(profile).map_err(|e| e.to_string())
}

/// Every handler row of `report` with its scheme label, scheme-major in
/// the deterministic export order.
fn rows(report: &ProfileReport) -> impl Iterator<Item = (&str, &HandlerProfile)> {
    report.schemes.iter().flat_map(|s| s.handlers.iter().map(|h| (s.scheme.as_str(), h)))
}

/// The top `k` rows by `weight`, heaviest first; ties break on the
/// `scheme;frame` string so the order is deterministic.
pub fn top_rows(
    report: &ProfileReport,
    weight: FoldWeight,
    k: usize,
) -> Vec<(&str, &HandlerProfile)> {
    let mut sorted: Vec<_> = rows(report).collect();
    sorted.sort_by_cached_key(|(scheme, h)| {
        (Reverse(h.weight(weight)), format!("{scheme};{}", h.frame()))
    });
    sorted.truncate(k);
    sorted
}

/// One line of a profile diff: how a `(scheme, frame)` cell moved
/// between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Scheme label.
    pub scheme: String,
    /// `role;handler[:variant]` frame.
    pub frame: String,
    /// The cell's weight in the old run (0 when the cell is new).
    pub old: u64,
    /// The cell's weight in the new run (0 when the cell vanished).
    pub new: u64,
}

impl DiffRow {
    /// Relative change in percent (`+25.0` = new is 25% heavier).
    /// A cell appearing from zero reports `+inf`.
    pub fn pct(&self) -> f64 {
        if self.old == 0 {
            if self.new == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.new as f64 - self.old as f64) / self.old as f64 * 100.0
        }
    }
}

/// Diff two profiles cell-by-cell on `weight`. Returns every
/// `(scheme, frame)` present in either run whose weight changed, sorted
/// by descending relative regression (biggest growth first, ties on the
/// cell name).
pub fn diff_rows(old: &ProfileReport, new: &ProfileReport, weight: FoldWeight) -> Vec<DiffRow> {
    let mut cells: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for (scheme, h) in rows(old) {
        cells.entry((scheme.to_string(), h.frame())).or_default().0 += h.weight(weight);
    }
    for (scheme, h) in rows(new) {
        cells.entry((scheme.to_string(), h.frame())).or_default().1 += h.weight(weight);
    }
    // In cell-name order already, and the sort is stable: ties stay so.
    let mut out: Vec<DiffRow> = cells
        .into_iter()
        .filter(|(_, (o, n))| o != n)
        .map(|((scheme, frame), (old, new))| DiffRow { scheme, frame, old, new })
        .collect();
    out.sort_by(|a, b| b.pct().partial_cmp(&a.pct()).unwrap_or(std::cmp::Ordering::Equal));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        let summary = r#"{"count": 0, "mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}"#;
        let tail = format!(r#""time_ns": {summary}, "bytes_per_call": {summary}"#);
        format!(
            r#"{{
            "tool": "profile_protos",
            "profile": {{"schemes": [
                {{"scheme": "paxos", "handlers": [
                    {{"role": "replica", "handler": "on_message", "variant": "accept",
                     "invocations": 100, "alloc_bytes": 4096, "alloc_count": 10,
                     "time_total_ns": 5000, {tail}}},
                    {{"role": "replica", "handler": "on_timer", "variant": "-",
                     "invocations": 7, "alloc_bytes": 0, "alloc_count": 0,
                     "time_total_ns": 900, {tail}}}
                ]}},
                {{"scheme": "causal", "handlers": [
                    {{"role": "client", "handler": "on_message", "variant": "get_resp",
                     "invocations": 40, "alloc_bytes": 512, "alloc_count": 4,
                     "time_total_ns": 100, {tail}}}
                ]}}
            ]}}
        }}"#
        )
    }

    #[test]
    fn parses_all_three_document_shapes() {
        let report = parse_profile(&sample_doc()).expect("top-level profile parses");
        let frames: Vec<String> = rows(&report).map(|(_, h)| h.frame()).collect();
        assert_eq!(
            frames,
            ["replica;on_message:accept", "replica;on_timer", "client;on_message:get_resp"]
        );

        // Bare profile object: what the report itself serialises to.
        let bare = serde_json::to_string(&report).unwrap();
        assert_eq!(parse_profile(&bare).unwrap(), report);

        // Nested under metrics (the `Obs::save` shape).
        let nested = format!(r#"{{"rows": [], "metrics": {{"profile": {bare}}}}}"#);
        assert_eq!(parse_profile(&nested).unwrap(), report);

        assert!(parse_profile(r#"{"rows": []}"#).is_err());
        assert!(parse_profile("not json").is_err());
    }

    #[test]
    fn malformed_handler_rows_are_errors_naming_the_field() {
        let missing = sample_doc().replace(r#""alloc_bytes": 512, "#, "");
        let err = parse_profile(&missing).expect_err("a row without alloc_bytes");
        assert_eq!(err, "schemes[1].handlers[0]: missing field `alloc_bytes`");

        let mistyped = sample_doc().replace(r#""invocations": 7,"#, r#""invocations": "7","#);
        let err = parse_profile(&mistyped).expect_err("a string where an integer belongs");
        assert_eq!(err, "schemes[0].handlers[1].invocations: expected u64");

        let no_role = sample_doc().replace(r#""role": "client", "#, "");
        let err = parse_profile(&no_role).expect_err("a row without role");
        assert_eq!(err, "schemes[1].handlers[0]: missing field `role`");

        let numeric_role = sample_doc().replace(r#""role": "client""#, r#""role": 3"#);
        let err = parse_profile(&numeric_role).expect_err("an integer where a string belongs");
        assert_eq!(err, "schemes[1].handlers[0].role: expected string");

        let no_summary = sample_doc().replace(r#""p99": 0, "#, "");
        let err = parse_profile(&no_summary).expect_err("a summary without p99");
        assert_eq!(err, "schemes[0].handlers[0].time_ns: missing field `p99`");
    }

    /// The checked-in baseline profile must keep parsing under the
    /// strict row reader.
    #[test]
    fn checked_in_baseline_profile_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/profile_protos.json");
        let text = std::fs::read_to_string(path).expect("results/profile_protos.json reads");
        let report = parse_profile(&text).expect("baseline profile parses");
        let rows = rows(&report).count();
        assert!(rows > 50, "baseline profile shrank to {rows} rows");
    }

    #[test]
    fn top_sorts_by_weight_with_deterministic_ties() {
        let report = parse_profile(&sample_doc()).unwrap();
        let by_calls = top_rows(&report, FoldWeight::Calls, 2);
        assert_eq!(by_calls[0].1.invocations, 100);
        assert_eq!((by_calls[1].0, by_calls[1].1.invocations), ("causal", 40));
        let by_time = top_rows(&report, FoldWeight::Time, 3);
        assert_eq!(by_time[2].1.time_total_ns, 100);
    }

    #[test]
    fn diff_reports_regressions_first() {
        let old = parse_profile(&sample_doc()).unwrap();
        let mut new = old.clone();
        new.schemes[1].handlers[0].invocations = 80; // causal doubled
        new.schemes[0].handlers[0].invocations = 90; // paxos accept shrank 10%
        let d = diff_rows(&old, &new, FoldWeight::Calls);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].scheme, "causal");
        assert!((d[0].pct() - 100.0).abs() < 1e-9);
        assert!((d[1].pct() + 10.0).abs() < 1e-9);
        // Unchanged cells are omitted.
        assert!(d.iter().all(|r| r.frame != "replica;on_timer"));
    }

    #[test]
    fn folded_matches_recorder_export_shape() {
        let report = parse_profile(&sample_doc()).unwrap();
        assert_eq!(
            report.to_folded(FoldWeight::Calls),
            "causal;client;on_message:get_resp 40\n\
             paxos;replica;on_message:accept 100\n\
             paxos;replica;on_timer 7\n"
        );
        // Zero-weight cells are skipped.
        assert!(!report.to_folded(FoldWeight::AllocBytes).contains("on_timer"));
    }
}
