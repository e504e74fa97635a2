//! Every published table, declared once.
//!
//! A [`Table`] names the `results/<name>.json` it shows and lists its
//! columns as (header, row field, format). One renderer turns the rows
//! of that file, or the rows a harness is about to save, into cells, and
//! frames them either as fixed-width text for stdout ([`Table::text`])
//! or as a markdown table for EXPERIMENTS.md ([`Table::markdown`]).
//! EXPERIMENTS.md holds each table between `<!-- table: <name> -->` and
//! `<!-- /table -->`; `tests/experiments_doc.rs` renders all of them
//! from the committed results and fails on any difference.

use serde::Value;

/// How a column renders its field. A `null` field renders as `-` in
/// every format (a checker column that does not apply to the row).
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// A string, as is.
    Text,
    /// An integer.
    Int,
    /// A boolean, as `yes` / `no`.
    YesNo,
    /// A number with this many decimals.
    Fixed(usize),
    /// A fraction, as a percentage with one decimal.
    Pct,
}

use Fmt::{Fixed, Int, Pct, Text, YesNo};

/// One column: its header, the row field it shows, and the format.
#[derive(Debug)]
pub struct Col(pub &'static str, pub &'static str, pub Fmt);

/// A table: the results name it renders and its columns.
#[derive(Debug)]
pub struct Table {
    /// `results/<name>.json`, and the name in the EXPERIMENTS.md marker.
    pub name: &'static str,
    /// The heading above the stdout table.
    pub title: &'static str,
    /// The columns, left to right.
    pub cols: &'static [Col],
}

/// The twelve experiment tables, in EXPERIMENTS.md order.
#[rustfmt::skip]
pub const TABLES: &[Table] = &[
    Table {
        name: "e1_quorum_staleness",
        title: "E1: staleness of partial quorums (PBS)",
        cols: &[
            Col("N", "n", Int), Col("R", "r", Int), Col("W", "w", Int),
            Col("repair", "read_repair", YesNo), Col("R+W>N", "intersecting", YesNo),
            Col("P(stale)", "p_stale", Pct), Col("mean k", "mean_k", Fixed(3)),
            Col("P(t>10ms)", "p_t_gt_10ms", Pct), Col("reads", "reads", Int),
        ],
    },
    Table {
        name: "e2_latency_spectrum",
        title: "E2: latency across the consistency spectrum (5-region geo)",
        cols: &[
            Col("scheme", "scheme", Text),
            Col("read p50", "read_p50_ms", Fixed(1)), Col("read p99", "read_p99_ms", Fixed(1)),
            Col("write p50", "write_p50_ms", Fixed(1)), Col("write p99", "write_p99_ms", Fixed(1)),
            Col("avail", "availability", Fixed(3)),
        ],
    },
    Table {
        name: "e3_session_guarantees",
        title: "E3: session-guarantee violations and enforcement cost",
        cols: &[
            Col("config", "config", Text), Col("gossip", "gossip_ms", Int),
            Col("RYW", "ryw_rate", Pct), Col("MR", "mr_rate", Pct),
            Col("MW", "mw_rate", Pct), Col("WFR", "wfr_rate", Pct),
            Col("read p50", "read_p50_ms", Fixed(1)), Col("read p99", "read_p99_ms", Fixed(1)),
        ],
    },
    Table {
        name: "e4_partition_availability",
        title: "E4: availability under a 5s partition (replica 0 + its clients cut off)",
        cols: &[
            Col("scheme", "scheme", Text), Col("overall", "overall", Pct),
            Col("during partition", "during_partition", Pct),
        ],
    },
    Table {
        name: "e5_gossip_convergence",
        title: "E5: anti-entropy convergence (gossip-only, 50ms rounds)",
        cols: &[
            Col("replicas", "replicas", Int), Col("fanout", "fanout", Int),
            Col("interval", "gossip_interval_ms", Int),
            Col("mean ms", "mean_convergence_ms", Fixed(1)),
            Col("max ms", "max_convergence_ms", Fixed(1)),
            Col("unconverged", "unconverged", Int),
        ],
    },
    Table {
        name: "e6_conflict_resolution",
        title: "E6: lost updates — LWW read-modify-write vs CRDT counter",
        cols: &[
            Col("mode", "mode", Text), Col("writers", "writers", Int),
            Col("incr each", "increments_each", Int), Col("expected", "expected", Int),
            Col("observed", "observed", Fixed(1)), Col("lost", "lost", Fixed(1)),
            Col("loss", "loss_rate", Pct),
        ],
    },
    Table {
        name: "e7_sla_utility",
        title: "E7: delivered utility of consistency SLAs (Pileus)",
        cols: &[
            Col("portfolio", "portfolio", Text), Col("strategy", "strategy", Text),
            Col("mean utility", "mean_utility", Fixed(3)),
            Col("primary frac", "primary_fraction", Fixed(3)),
            Col("mean lat ms", "mean_latency_ms", Fixed(1)),
        ],
    },
    Table {
        name: "e8_entity_groups",
        title: "E8: entity-group transactions — contention and group span",
        cols: &[
            Col("span", "span", Text), Col("theta", "theta", Fixed(2)),
            Col("clients", "clients", Int), Col("committed", "committed", Int),
            Col("aborted", "aborted", Int), Col("timed out", "timed_out", Int),
            Col("abort rate", "abort_rate", Pct), Col("commit ms", "mean_commit_ms", Fixed(1)),
        ],
    },
    Table {
        name: "e9_bounded_staleness",
        title: "E9: staleness vs replication lag (async primary-copy, backup reads)",
        cols: &[
            Col("lag ms", "ship_ms", Int), Col("P(stale)", "p_stale", Pct),
            Col("mean t ms", "mean_t_ms", Fixed(1)),
            Col("P(t>25)", "p_gt_25", Pct), Col("P(t>50)", "p_gt_50", Pct),
            Col("P(t>100)", "p_gt_100", Pct), Col("P(t>250)", "p_gt_250", Pct),
        ],
    },
    Table {
        name: "e10_sync_cost",
        title: "E10: cost of synchrony (write-only, LAN, 8 closed-loop clients)",
        cols: &[
            Col("scheme", "scheme", Text),
            Col("write p50", "write_p50_ms", Fixed(1)), Col("write p99", "write_p99_ms", Fixed(1)),
            Col("ops/s", "ops_per_sec", Fixed(1)), Col("avail", "availability", Fixed(3)),
        ],
    },
    Table {
        name: "e11_composition_matrix",
        title: "E11: kernel composition matrix under nemesis (amnesia + partition)",
        cols: &[
            Col("composition", "composition", Text),
            Col("read p99", "read_p99_ms", Fixed(1)), Col("write p99", "write_p99_ms", Fixed(1)),
            Col("avail", "availability", Fixed(3)), Col("stale", "stale_reads", Fixed(1)),
            Col("ryw-viol", "ryw_violations", Fixed(1)),
            Col("mr-viol", "mr_value_violations", Fixed(1)),
        ],
    },
    Table {
        name: "e12_ring_scale",
        title: "E12: ring-sharded sloppy quorum vs cluster size and churn (100k-key domain)",
        cols: &[
            Col("nodes", "nodes", Int), Col("churn", "churn_events", Int),
            Col("avail", "availability", Fixed(3)), Col("stale", "stale_reads", Fixed(1)),
            Col("hints", "hints_stored", Fixed(1)), Col("drained", "hints_drained", Fixed(1)),
            Col("rebalanced", "rebalanced_keys", Fixed(1)),
            Col("diverged", "owner_diverged_keys", Fixed(1)),
            Col("max keys", "ring_max_keys_per_node", Int),
            Col("mean keys", "ring_mean_keys_per_node", Fixed(1)),
        ],
    },
];

/// `profile_protos`'s ten most-called handlers (printed only).
#[rustfmt::skip]
pub const HOT_HANDLERS: Table = Table {
    name: "profile_protos",
    title: "hot handlers (by calls)",
    cols: &[
        Col("frame", "frame", Text), Col("calls", "calls", Int),
        Col("alloc_bytes", "alloc_bytes", Int), Col("allocs", "alloc_count", Int),
    ],
};

/// The table declared for `results/<name>.json`, if any.
pub fn published(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name == name)
}

/// The field that holds `field`'s 95% CI half-width: `<field>_ci95`,
/// with a trailing `_ms` unit dropped first (`read_p99_ms` →
/// `read_p99_ci95`).
fn ci_field(field: &str) -> String {
    format!("{}_ci95", field.strip_suffix("_ms").unwrap_or(field))
}

impl Table {
    /// One row of cells per element of `rows` (a JSON array of row
    /// objects). A column whose field has a CI sibling renders
    /// `mean±ci` in rows with `seeds > 1`. A declared field missing from
    /// a row, or of the wrong kind for its format, is an error that
    /// names the table and the field.
    pub fn cells(&self, rows: &Value) -> Result<Vec<Vec<String>>, String> {
        let err = |what: String| format!("table {}: {what}", self.name);
        let rows = rows.as_array().ok_or_else(|| err("rows are not a JSON array".into()))?;
        let mut out = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let multi_seed = row.get("seeds").and_then(Value::as_u64).is_some_and(|n| n > 1);
            let mut cells = Vec::with_capacity(self.cols.len());
            for &Col(_, field, fmt) in self.cols {
                let v = row.get(field).ok_or_else(|| err(format!("row {i} has no `{field}`")))?;
                let bad = || err(format!("row {i}: `{field}` = {} is not {fmt:?}", v.to_json()));
                let mut cell = render(v, fmt).ok_or_else(bad)?;
                if let Some(ci) = row.get(&ci_field(field)).filter(|_| multi_seed) {
                    cell = format!("{cell}±{}", render(ci, fmt).ok_or_else(bad)?);
                }
                cells.push(cell);
            }
            out.push(cells);
        }
        Ok(out)
    }

    /// The table as fixed-width text: a `== title ==` line, the
    /// right-aligned headers, a rule, then the rows.
    pub fn text(&self, rows: &Value) -> Result<String, String> {
        let cells = self.cells(rows)?;
        let mut widths: Vec<usize> = self.cols.iter().map(|c| c.0.chars().count()).collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |row: Vec<&str>| {
            let padded: Vec<String> =
                row.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
            padded.join("  ") + "\n"
        };
        let mut out = format!("\n== {} ==\n", self.title);
        out += &line(self.cols.iter().map(|c| c.0).collect());
        out += &"-".repeat(widths.iter().map(|w| w + 2).sum());
        out.push('\n');
        for row in &cells {
            out += &line(row.iter().map(String::as_str).collect());
        }
        Ok(out)
    }

    /// The table as markdown, numeric columns right-aligned: the text
    /// EXPERIMENTS.md holds between this table's markers.
    pub fn markdown(&self, rows: &Value) -> Result<String, String> {
        let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
        let mut out = line(self.cols.iter().map(|c| c.0).collect());
        out += &line(
            self.cols
                .iter()
                .map(|c| if matches!(c.2, Text | YesNo) { "---" } else { "--:" })
                .collect(),
        );
        for row in self.cells(rows)? {
            out += &line(row.iter().map(String::as_str).collect());
        }
        Ok(out)
    }
}

/// One value in one format; `None` when the value is not of the kind the
/// format shows.
fn render(v: &Value, fmt: Fmt) -> Option<String> {
    Some(match (fmt, v) {
        (_, Value::Null) => "-".to_string(),
        (Text, Value::String(s)) => s.clone(),
        (Int, Value::U64(n)) => n.to_string(),
        (Int, Value::I64(n)) => n.to_string(),
        (YesNo, Value::Bool(b)) => if *b { "yes" } else { "no" }.to_string(),
        (Fixed(d), _) => format!("{:.d$}", v.as_f64()?),
        (Pct, _) => format!("{:.1}%", v.as_f64()? * 100.0),
        _ => return None,
    })
}
