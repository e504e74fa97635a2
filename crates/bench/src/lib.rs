//! Shared plumbing for the experiment harnesses (E1–E12).
//!
//! Each `src/bin/e*_*.rs` binary regenerates one table or figure from
//! `EXPERIMENTS.md`: it builds a [`rec_core::Grid`] of variants, runs
//! every variant at `--seeds N` seeds on `--jobs N` workers through
//! [`Obs::run_grid`] (the grid decides each cell's seed, recorder and
//! trace-id range; a harness that builds its own `Sim` builds it from
//! the cell's `SimConfig`), and saves the
//! seed-aggregated rows as `results/<name>.json` so the recorded numbers
//! are diffable across runs. Saving also prints the rows as the table
//! [`table`] declares for `<name>`, with the renderer that generates
//! EXPERIMENTS.md's tables. Results are byte-identical for any `--jobs`
//! value; see `EXPERIMENTS.md` ("Parallel grid execution") for the
//! contract.

use obs::Recorder;
use rec_core::{default_jobs, CellResult, Grid};
use serde::Serialize;
use simnet::SimConfig;
use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};

pub mod table;

/// Count heap traffic so `--profile` can attribute allocations to
/// handlers (see `docs/PROFILING.md`). The counting wrapper is two
/// thread-local adds over the system allocator — cheap enough to leave
/// installed unconditionally in every harness binary linking this crate.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;

/// Observability and grid wiring shared by every experiment binary:
/// `--jobs N` / `--seeds N` / `--trace-out <path>` handling, the one
/// grid driver [`Obs::run_grid`], and the aggregate [`Recorder`] the
/// per-cell metrics fold into.
///
/// Every grid cell runs with what [`rec_core::Grid`] gives it — its
/// seed, its **own** recorder (no shared lock on the hot path) and its
/// own trace-id range; after the pool drains, cells are folded into
/// [`Obs::recorder`] in deterministic grid order via
/// [`Recorder::absorb`], so the `metrics` block of `results/<name>.json`
/// is independent of `--jobs`. With `--trace-out <path>`, each cell's
/// JSONL event log lands in `<path stem>.cellNNN.<ext>` and the
/// concatenation (grid order) in `<path>` itself. See `docs/METRICS.md`
/// for the field-by-field contract.
pub struct Obs {
    /// Aggregate recorder the per-cell metrics are folded into.
    pub recorder: Recorder,
    /// Worker count for grid execution (`--jobs N`, default: num CPUs).
    pub jobs: usize,
    /// Seeds per grid variant (`--seeds N`, default 1; seed `k` of a
    /// variant runs at `base_seed + k`, so `--seeds 1` reproduces the
    /// historical single-seed numbers exactly).
    pub seeds: u64,
    /// Drop the windowed `timeseries` buckets from the saved results
    /// (`--summary-only`): counters, histograms, and rows survive, so the
    /// checked-in `results/*.json` stay compact and diffable. Also drops
    /// the `profile` block when `--profile` is on.
    pub summary_only: bool,
    /// Profile every handler invocation (`--profile`): the saved results
    /// gain a `profile` block and a `results/<name>.folded` flamegraph
    /// stack file. See `docs/PROFILING.md`.
    pub profile: bool,
    /// Where the JSONL event log goes (`--trace-out <path>`), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Each traced cell's recorder, in grid order, for the concatenated
    /// export (their count names the next per-cell trace file). A
    /// recorder holds its log packed, so this is not the logs' text.
    trace_cells: RefCell<Vec<Recorder>>,
}

impl Obs {
    /// The flags [`Obs::from_args`] consumes, for usage lines.
    pub const USAGE: &'static str =
        "[--jobs N] [--seeds N] [--trace-out PATH] [--summary-only] [--profile]";

    /// Build from `std::env::args`: consumes `--trace-out <path>`,
    /// `--jobs <n>`, `--seeds <n>` (and their `=` forms) plus the bare
    /// `--summary-only` and `--profile` flags, and hands back every
    /// other argument, in order, for the caller to consume or
    /// [`reject_args`]. A value flag given last, without its value,
    /// comes back too.
    pub fn from_args() -> (Self, Vec<String>) {
        let mut trace_out = None;
        let mut jobs = default_jobs();
        let mut seeds = 1u64;
        let mut summary_only = false;
        let mut profile = false;
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if let Some(p) = take_value(&a, "--trace-out", &mut args) {
                trace_out = Some(PathBuf::from(p));
            } else if let Some(n) = take_value(&a, "--jobs", &mut args) {
                jobs = parse_positive("--jobs", &n, Self::USAGE) as usize;
            } else if let Some(n) = take_value(&a, "--seeds", &mut args) {
                seeds = parse_positive("--seeds", &n, Self::USAGE);
            } else if a == "--summary-only" {
                summary_only = true;
            } else if a == "--profile" {
                profile = true;
            } else {
                rest.push(a);
            }
        }
        let obs = Obs {
            recorder: Recorder::enabled(),
            jobs,
            seeds,
            summary_only,
            profile,
            trace_out,
            trace_cells: RefCell::new(Vec::new()),
        };
        (obs, rest)
    }

    /// Run `grid` at `--seeds` seeds per variant on `--jobs` workers,
    /// profiling with `--profile` and keeping event logs with
    /// `--trace-out`: each cell is `run(variant, cell)`, `cell` being the
    /// [`SimConfig`] the grid gives it ([`rec_core::Experiment::run_in`]
    /// for an experiment grid, or a closure that builds its own `Sim`).
    /// Results return in grid order (variant-major, then seed): chunk by
    /// `self.seeds` to group a variant's seed column. Per-cell metrics are
    /// folded into [`Obs::recorder`] and per-cell traces staged for
    /// [`Obs::save`].
    pub fn run_grid<V, R, F>(&self, grid: Grid<V>, run: F) -> Vec<CellResult<R>>
    where
        V: Sync,
        R: Send,
        F: Fn(&V, SimConfig) -> R + Sync,
    {
        let recorder =
            if self.trace_out.is_some() { Recorder::with_event_log } else { Recorder::enabled };
        let cells =
            grid.seeds(self.seeds).profile(self.profile).run_cells(self.jobs, recorder, run);
        for cell in &cells {
            self.finish_cell(&cell.recorder);
        }
        cells
    }

    /// Fold one finished cell into the aggregate: absorb its metrics
    /// and, when tracing, write its JSONL and keep its recorder for the
    /// concatenated export. Called in grid order only.
    fn finish_cell(&self, cell: &Recorder) {
        self.recorder.absorb(cell);
        if self.trace_out.is_some() {
            let idx = self.trace_cells.borrow().len();
            let path = self.per_cell_trace_path(idx);
            written_or_exit(&path, cell.write_jsonl(&path));
            self.trace_cells.borrow_mut().push(cell.clone());
        }
    }

    /// Where cell `idx`'s trace lands: `--trace-out a/b.jsonl` maps to
    /// `a/b.cell042.jsonl` for cell 42 (cells count in grid order).
    pub fn per_cell_trace_path(&self, idx: usize) -> PathBuf {
        let base = self.trace_out.clone().expect("tracing enabled");
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let name = match base.extension().and_then(|e| e.to_str()) {
            Some(ext) => format!("{stem}.cell{idx:03}.{ext}"),
            None => format!("{stem}.cell{idx:03}"),
        };
        base.with_file_name(name)
    }

    /// Print `rows` as the table [`table::published`] declares for
    /// `name`, save `results/<name>.json` as `{"rows": ..., "metrics":
    /// ...}`, and write the JSONL event trace if `--trace-out` was given
    /// (the concatenation of all per-cell logs, in grid order). With
    /// `--profile`, a flamegraph stack file lands beside the JSON as
    /// `results/<name>.folded` (call-count weighted, so the checked-in
    /// file is deterministic; see `docs/PROFILING.md`). A row the table
    /// cannot render, or a file that cannot be written, exits 1.
    pub fn save<T: Serialize>(&self, name: &str, rows: &T) {
        let rows = rows.to_value();
        let table = table::published(name)
            .unwrap_or_else(|| fail(&format!("no table is declared for `{name}`")));
        print!("{}", table.text(&rows).unwrap_or_else(|e| fail(&e)));
        let report = self.recorder.report();
        if let Some(profile) = &report.profile {
            let path = results_dir().join(format!("{name}.folded"));
            write_or_exit(&path, profile.to_folded(obs::FoldWeight::Calls));
            println!("[saved {}]", path.display());
        }
        let mut metrics = report.to_value();
        if self.summary_only {
            strip_timeseries(&mut metrics);
            strip_profile(&mut metrics);
        }
        let doc = serde::Value::Object(vec![
            ("rows".to_string(), rows),
            ("metrics".to_string(), metrics),
        ]);
        save_json(name, &doc);
        if let Some(path) = &self.trace_out {
            let cells = self.trace_cells.borrow();
            // The cells' logs one after another, streamed from each.
            let written = fs::File::create(path).and_then(|mut file| {
                cells.iter().try_for_each(|cell| cell.write_jsonl_to(&mut file))
            });
            written_or_exit(path, written);
            println!("[trace saved to {} (+{} cell files)]", path.display(), cells.len());
        }
    }
}

/// The value of `flag` if `arg` is `flag` (value in the next argument)
/// or `flag=value`. `None` when `arg` is some other argument — or is
/// `flag` with nothing after it, which callers then treat as unknown.
pub fn take_value(arg: &str, flag: &str, args: &mut dyn Iterator<Item = String>) -> Option<String> {
    if arg == flag {
        args.next()
    } else {
        arg.strip_prefix(flag)?.strip_prefix('=').map(str::to_string)
    }
}

/// Parse a flag value that must be an integer >= 1, or exit 2.
pub fn parse_positive(flag: &str, value: &str, usage: &str) -> u64 {
    match value.parse() {
        Ok(n) if n >= 1 => n,
        _ => usage_exit(&format!("{flag} expects a positive integer, got `{value}`"), usage),
    }
}

/// Exit 2 with a one-line usage if any argument was left unconsumed:
/// a misspelt flag must not run (and save over the results of) the
/// default experiment. `usage` lists the flags the bin does take.
pub fn reject_args(rest: &[String], usage: &str) {
    if let Some(a) = rest.first() {
        usage_exit(&format!("unknown or value-less flag `{a}`"), usage);
    }
}

/// Print `<bin>: <problem>; usage: <bin> <usage>` to stderr and exit 2.
pub fn usage_exit(problem: &str, usage: &str) -> ! {
    let bin = bin_name();
    eprintln!("{bin}: {problem}; usage: {bin} {usage}");
    std::process::exit(2)
}

/// Print `<bin>: <problem>` to stderr and exit 1: a harness that cannot
/// produce its output fails rather than exit 0 with a warning.
pub fn fail(problem: &str) -> ! {
    eprintln!("{}: {problem}", bin_name());
    std::process::exit(1)
}

/// The running binary's file name, for messages.
fn bin_name() -> String {
    let exe = std::env::args().next().unwrap_or_default();
    let name = Path::new(&exe).file_name().and_then(|n| n.to_str());
    name.unwrap_or("bench").to_string()
}

/// Write `contents` to `path`, or exit 1 naming the path.
pub fn write_or_exit(path: &Path, contents: impl AsRef<[u8]>) {
    written_or_exit(path, fs::write(path, contents));
}

/// Exit 1 naming `path` if writing it failed.
fn written_or_exit(path: &Path, written: std::io::Result<()>) {
    if let Err(e) = written {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
}

/// Mean and a 95% confidence half-width over per-seed measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStat {
    /// Sample mean.
    pub mean: f64,
    /// 95% CI half-width (normal approximation, `1.96·s/√n`; 0 when
    /// fewer than two samples).
    pub ci95: f64,
}

/// Aggregate per-seed values into a [`SeedStat`]. Summation runs in
/// input (seed) order, so the result is bitwise deterministic.
pub fn seed_stat(values: &[f64]) -> SeedStat {
    let n = values.len();
    if n == 0 {
        return SeedStat { mean: 0.0, ci95: 0.0 };
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let ci95 = if n < 2 {
        0.0
    } else {
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
        1.96 * (var / n as f64).sqrt()
    };
    SeedStat { mean, ci95 }
}

/// Mean of per-seed values (seed-order summation, deterministic).
pub fn seed_mean(values: &[f64]) -> f64 {
    seed_stat(values).mean
}

/// Remove the `timeseries` member from a serialized metrics object (the
/// `--summary-only` export shape). Leaves every other key untouched; a
/// non-object value passes through unchanged.
pub fn strip_timeseries(metrics: &mut serde::Value) {
    if let serde::Value::Object(members) = metrics {
        members.retain(|(k, _)| k != "timeseries");
    }
}

/// Remove the `profile` member from a serialized metrics object
/// (`--summary-only` drops the per-handler detail; the
/// `handler_invocations` / `alloc_bytes` counters survive).
pub fn strip_profile(metrics: &mut serde::Value) {
    if let serde::Value::Object(members) = metrics {
        members.retain(|(k, _)| k != "profile");
    }
}

/// Where results land (`results/` at the workspace root, or the current
/// directory as a fallback when run from elsewhere).
pub fn results_dir() -> PathBuf {
    // The harnesses are run from the workspace root via `cargo run`; walk
    // up from the manifest dir so `cargo run -p bench` also works.
    let candidates = [
        PathBuf::from("results"),
        PathBuf::from("../../results"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    ];
    for c in &candidates {
        if c.is_dir() {
            return c.clone();
        }
    }
    let fallback = candidates[2].clone();
    let _ = fs::create_dir_all(&fallback);
    fallback
}

/// Save a serializable result set as `results/<name>.json`, or exit 1.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| fail(&format!("cannot serialize {name}: {e}")));
    write_or_exit(&path, json);
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stat_mean_and_ci() {
        let empty = seed_stat(&[]);
        assert_eq!((empty.mean, empty.ci95), (0.0, 0.0));
        let one = seed_stat(&[4.0]);
        assert_eq!((one.mean, one.ci95), (4.0, 0.0));
        let s = seed_stat(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // s² = 5/3, ci = 1.96·√(5/3/4) ≈ 1.2655
        assert!((s.ci95 - 1.2655).abs() < 1e-3, "ci {}", s.ci95);
    }

    #[test]
    fn strip_timeseries_removes_only_that_key() {
        let mut v = serde::Value::Object(vec![
            ("counters".to_string(), serde::Value::Object(vec![])),
            ("timeseries".to_string(), serde::Value::Object(vec![])),
            ("latencies".to_string(), serde::Value::Object(vec![])),
        ]);
        strip_timeseries(&mut v);
        let serde::Value::Object(members) = &v else { panic!("still an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["counters", "latencies"]);
    }

    #[test]
    fn results_dir_exists_or_is_created() {
        let d = results_dir();
        assert!(d.is_dir() || fs::create_dir_all(&d).is_ok());
    }
}
