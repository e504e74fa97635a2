//! Offline profile analysis: parse the `profile` block out of a results
//! document and answer the `profquery` questions (top-K hot handlers,
//! per-scheme regression diffs, folded-stack re-emission).
//!
//! Profiles are produced by any harness run with `--profile` (see
//! `docs/PROFILING.md`); the canonical checked-in artifact is
//! `results/profile_protos.json` from the `profile_protos` bin.

use serde::Value;

/// One flattened handler row of a parsed profile: the jobs-invariant
/// measurements plus the host-dependent total wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfRow {
    /// Scheme label the samples were attributed to.
    pub scheme: String,
    /// Actor role (`"replica"`, `"client"`, ...).
    pub role: String,
    /// Handler kind name (`"on_message"`, `"on_timer"`, ...).
    pub handler: String,
    /// Message variant (`"-"` for messageless handlers).
    pub variant: String,
    /// Invocations recorded (jobs-invariant).
    pub invocations: u64,
    /// Gross bytes allocated inside the handler (jobs-invariant).
    pub alloc_bytes: u64,
    /// Gross allocation count (jobs-invariant).
    pub alloc_count: u64,
    /// Total wall nanoseconds (host-dependent; never diffed across
    /// machines, only within one run).
    pub time_total_ns: u64,
}

impl ProfRow {
    /// `role;handler[:variant]` — the same frame syntax the folded
    /// export uses ([`obs::HandlerProfile::frame`]).
    pub fn frame(&self) -> String {
        if self.variant == obs::NO_VARIANT {
            format!("{};{}", self.role, self.handler)
        } else {
            format!("{};{}:{}", self.role, self.handler, self.variant)
        }
    }

    /// The measurement selected by `weight`.
    pub fn weight(&self, weight: obs::FoldWeight) -> u64 {
        match weight {
            obs::FoldWeight::Calls => self.invocations,
            obs::FoldWeight::Time => self.time_total_ns,
            obs::FoldWeight::AllocBytes => self.alloc_bytes,
        }
    }
}

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

/// Parse a results document into flattened profile rows (scheme-major,
/// preserving the deterministic export order). A handler row with a
/// missing or mistyped field is an error naming the scheme, the row's
/// index and the field — never a row of empty strings and zeros, which
/// `profquery diff` would report as "no differences".
pub fn parse_profile(text: &str) -> Result<Vec<ProfRow>, String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let profile = find_profile(&doc).ok_or_else(|| {
        "no profile block found (expected `schemes`, `profile`, or `metrics.profile`; \
         was the run made with --profile?)"
            .to_string()
    })?;
    let schemes = profile
        .get("schemes")
        .and_then(|s| s.as_array())
        .ok_or_else(|| "profile block has no `schemes` array".to_string())?;
    let mut rows = Vec::new();
    for scheme in schemes {
        let label = scheme
            .get("scheme")
            .and_then(|s| s.as_str())
            .ok_or_else(|| "scheme entry missing `scheme` label".to_string())?
            .to_string();
        let handlers = scheme
            .get("handlers")
            .and_then(|h| h.as_array())
            .ok_or_else(|| format!("scheme {label:?} missing `handlers` array"))?;
        for (i, h) in handlers.iter().enumerate() {
            let bad = |k: &str, want: &str| format!("scheme {label:?} handler {i}: `{k}` {want}");
            let field = |k: &str| h.get(k).ok_or_else(|| bad(k, "is missing"));
            let s = |k: &str| {
                field(k)?.as_str().map(str::to_string).ok_or_else(|| bad(k, "is not a string"))
            };
            let u =
                |k: &str| field(k)?.as_u64().ok_or_else(|| bad(k, "is not an unsigned integer"));
            rows.push(ProfRow {
                scheme: label.clone(),
                role: s("role")?,
                handler: s("handler")?,
                variant: s("variant")?,
                invocations: u("invocations")?,
                alloc_bytes: u("alloc_bytes")?,
                alloc_count: u("alloc_count")?,
                time_total_ns: u("time_total_ns")?,
            });
        }
    }
    Ok(rows)
}

/// The top `k` rows by `weight`, heaviest first; ties break on the
/// `scheme;frame` string so the order is deterministic.
pub fn top_rows(rows: &[ProfRow], weight: obs::FoldWeight, k: usize) -> Vec<ProfRow> {
    let mut sorted: Vec<ProfRow> = rows.to_vec();
    sorted.sort_by(|a, b| {
        b.weight(weight).cmp(&a.weight(weight)).then_with(|| {
            format!("{};{}", a.scheme, a.frame()).cmp(&format!("{};{}", b.scheme, b.frame()))
        })
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

/// Diff two parsed profiles cell-by-cell on `weight`. Returns every
/// `(scheme, frame)` present in either run whose weight changed, sorted
/// by descending relative regression (biggest growth first, ties on the
/// cell name).
pub fn diff_rows(old: &[ProfRow], new: &[ProfRow], weight: obs::FoldWeight) -> Vec<DiffRow> {
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for r in old {
        cells.entry((r.scheme.clone(), r.frame())).or_default().0 += r.weight(weight);
    }
    for r in new {
        cells.entry((r.scheme.clone(), r.frame())).or_default().1 += r.weight(weight);
    }
    let mut out: Vec<DiffRow> = cells
        .into_iter()
        .filter(|(_, (o, n))| o != n)
        .map(|((scheme, frame), (old, new))| DiffRow { scheme, frame, old, new })
        .collect();
    out.sort_by(|a, b| {
        b.pct().partial_cmp(&a.pct()).unwrap_or(std::cmp::Ordering::Equal).then_with(|| {
            (a.scheme.clone(), a.frame.clone()).cmp(&(b.scheme.clone(), b.frame.clone()))
        })
    });
    out
}

/// Re-emit parsed rows as folded stacks — byte-identical to
/// [`obs::ProfileReport::to_folded`] on the same data: one
/// `scheme;role;handler[:variant] weight` line per non-zero cell,
/// lexicographically sorted, trailing newline.
pub fn to_folded(rows: &[ProfRow], weight: obs::FoldWeight) -> String {
    let mut lines: Vec<String> = rows
        .iter()
        .filter(|r| r.weight(weight) > 0)
        .map(|r| format!("{};{} {}", r.scheme, r.frame(), r.weight(weight)))
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::FoldWeight;

    fn sample_doc() -> String {
        r#"{
            "tool": "profile_protos",
            "profile": {"schemes": [
                {"scheme": "paxos", "handlers": [
                    {"role": "replica", "handler": "on_message", "variant": "accept",
                     "invocations": 100, "alloc_bytes": 4096, "alloc_count": 10,
                     "time_total_ns": 5000},
                    {"role": "replica", "handler": "on_timer", "variant": "-",
                     "invocations": 7, "alloc_bytes": 0, "alloc_count": 0,
                     "time_total_ns": 900}
                ]},
                {"scheme": "causal", "handlers": [
                    {"role": "client", "handler": "on_message", "variant": "get_resp",
                     "invocations": 40, "alloc_bytes": 512, "alloc_count": 4,
                     "time_total_ns": 100}
                ]}
            ]}
        }"#
        .to_string()
    }

    #[test]
    fn parses_all_three_document_shapes() {
        let rows = parse_profile(&sample_doc()).expect("top-level profile parses");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].frame(), "replica;on_message:accept");
        assert_eq!(rows[1].frame(), "replica;on_timer");

        // Bare profile object.
        let doc = serde_json::parse_value(&sample_doc()).unwrap();
        let bare = doc.get("profile").unwrap().to_json();
        assert_eq!(parse_profile(&bare).unwrap(), rows);

        // Nested under metrics (the `Obs::save` shape).
        let nested = format!(r#"{{"rows": [], "metrics": {{"profile": {bare}}}}}"#);
        assert_eq!(parse_profile(&nested).unwrap(), rows);

        assert!(parse_profile(r#"{"rows": []}"#).is_err());
        assert!(parse_profile("not json").is_err());
    }

    #[test]
    fn malformed_handler_rows_are_errors_naming_the_field() {
        let missing = sample_doc().replace(r#""alloc_bytes": 512, "#, "");
        let err = parse_profile(&missing).expect_err("a row without alloc_bytes");
        assert_eq!(err, r#"scheme "causal" handler 0: `alloc_bytes` is missing"#);

        let mistyped = sample_doc().replace(r#""invocations": 7,"#, r#""invocations": "7","#);
        let err = parse_profile(&mistyped).expect_err("a string where an integer belongs");
        assert_eq!(err, r#"scheme "paxos" handler 1: `invocations` is not an unsigned integer"#);

        let no_role = sample_doc().replace(r#""role": "client", "#, "");
        let err = parse_profile(&no_role).expect_err("a row without role");
        assert_eq!(err, r#"scheme "causal" handler 0: `role` is missing"#);

        let numeric_role = sample_doc().replace(r#""role": "client""#, r#""role": 3"#);
        let err = parse_profile(&numeric_role).expect_err("an integer where a string belongs");
        assert_eq!(err, r#"scheme "causal" handler 0: `role` is not a string"#);
    }

    /// The checked-in baseline profile must keep parsing under the
    /// strict row reader.
    #[test]
    fn checked_in_baseline_profile_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/profile_protos.json");
        let text = std::fs::read_to_string(path).expect("results/profile_protos.json reads");
        let rows = parse_profile(&text).expect("baseline profile parses");
        assert!(rows.len() > 50, "baseline profile shrank to {} rows", rows.len());
    }

    #[test]
    fn top_sorts_by_weight_with_deterministic_ties() {
        let rows = parse_profile(&sample_doc()).unwrap();
        let by_calls = top_rows(&rows, FoldWeight::Calls, 2);
        assert_eq!(by_calls[0].invocations, 100);
        assert_eq!(by_calls[1].invocations, 40);
        let by_time = top_rows(&rows, FoldWeight::Time, 3);
        assert_eq!(by_time[2].time_total_ns, 100);
    }

    #[test]
    fn diff_reports_regressions_first() {
        let old = parse_profile(&sample_doc()).unwrap();
        let mut new = old.clone();
        new[2].invocations = 80; // causal doubled
        new[0].invocations = 90; // paxos accept shrank 10%
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
        let rows = parse_profile(&sample_doc()).unwrap();
        let folded = to_folded(&rows, FoldWeight::Calls);
        assert_eq!(
            folded,
            "causal;client;on_message:get_resp 40\n\
             paxos;replica;on_message:accept 100\n\
             paxos;replica;on_timer 7\n"
        );
        // Zero-weight cells are skipped.
        let by_alloc = to_folded(&rows, FoldWeight::AllocBytes);
        assert!(!by_alloc.contains("on_timer"));
    }
}
