//! Shared plumbing for the experiment harnesses (E1–E10).
//!
//! Each `src/bin/e*_*.rs` binary regenerates one table or figure from
//! `EXPERIMENTS.md`: it builds a grid of config variants, runs every
//! variant at `--seeds N` seeds on `--jobs N` workers, prints the
//! seed-aggregated rows to stdout, and drops a machine-readable copy
//! under `results/<name>.json` so the recorded numbers are diffable
//! across runs. Results are byte-identical for any `--jobs` value; see
//! `EXPERIMENTS.md` ("Parallel grid execution") for the contract.

use obs::Recorder;
use rec_core::{default_jobs, par_map, CellResult, Grid};
use serde::Serialize;
use std::cell::RefCell;
use std::fs;
use std::path::PathBuf;

/// Count heap traffic so `--profile` can attribute allocations to
/// handlers (see `docs/PROFILING.md`). The counting wrapper is two
/// thread-local adds over the system allocator — cheap enough to leave
/// installed unconditionally in every harness binary linking this crate.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;

/// Observability and grid wiring shared by every experiment binary:
/// `--jobs N` / `--seeds N` / `--trace-out <path>` handling, the
/// parallel sweep drivers ([`Obs::run_grid`], [`Obs::sweep`]), and the
/// aggregate [`Recorder`] the per-cell metrics fold into.
///
/// Every grid cell runs with its **own** recorder (no shared lock on
/// the hot path); after the pool drains, cells are folded into
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
    /// Per-cell JSONL chunks in grid order, for the concatenated export.
    trace_chunks: RefCell<Vec<String>>,
    /// Cells finished so far (names the next per-cell trace file).
    cells_done: RefCell<usize>,
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
            trace_chunks: RefCell::new(Vec::new()),
            cells_done: RefCell::new(0),
        };
        (obs, rest)
    }

    /// The recorder constructor each grid cell runs with: full event log
    /// when `--trace-out` was given, counters-only otherwise.
    pub fn cell_recorder_spec(&self) -> fn() -> Recorder {
        if self.trace_out.is_some() {
            Recorder::with_event_log
        } else {
            Recorder::enabled
        }
    }

    /// Run an experiment [`Grid`] at `--seeds` seeds per variant on
    /// `--jobs` workers. Results return in deterministic grid order
    /// (variant-major, then seed) — chunk by `self.seeds` to group a
    /// variant's seed column. Per-cell metrics are folded into
    /// [`Obs::recorder`] and per-cell traces staged for [`Obs::save`].
    pub fn run_grid(&self, grid: Grid) -> Vec<CellResult> {
        let cells =
            grid.seeds(self.seeds).profile(self.profile).run(self.jobs, self.cell_recorder_spec());
        for cell in &cells {
            self.finish_cell(&cell.recorder);
        }
        cells
    }

    /// Parallel seed sweep for harnesses that drive `Sim` directly
    /// instead of going through [`rec_core::Experiment`].
    ///
    /// Runs `run(&params[i], base_seed + k, &recorder)` for every
    /// variant `i` × seed `k` on `--jobs` workers, each call with its
    /// own fresh recorder, and returns the results grouped per variant
    /// (`result[i][k]`), independent of scheduling. Metrics and traces
    /// are folded exactly as in [`Obs::run_grid`].
    pub fn sweep<P, R, F>(&self, params: &[P], base_seed: u64, run: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64, &Recorder) -> R + Sync,
    {
        let new_recorder = self.cell_recorder_spec();
        let flat: Vec<(usize, u64)> =
            (0..params.len()).flat_map(|p| (0..self.seeds).map(move |s| (p, s))).collect();
        // Copy the flag out so the worker closure doesn't capture the
        // whole `Obs` (its RefCell trace staging is not Sync).
        let profile = self.profile;
        let mut results: Vec<(Recorder, R)> = par_map(&flat, self.jobs, |_, &(p, s)| {
            let rec = new_recorder();
            if profile {
                // Direct-Sim harness: samples key under the default
                // "sim" scheme label unless the run sets one itself.
                rec.enable_profiling();
            }
            let r = run(&params[p], base_seed + s, &rec);
            (rec, r)
        });
        let mut grouped: Vec<Vec<R>> = Vec::with_capacity(params.len());
        let mut drain = results.drain(..);
        for _ in 0..params.len() {
            let mut column = Vec::with_capacity(self.seeds as usize);
            for _ in 0..self.seeds {
                let (rec, r) = drain.next().expect("one result per grid cell");
                self.finish_cell(&rec);
                column.push(r);
            }
            grouped.push(column);
        }
        grouped
    }

    /// Fold one finished cell into the aggregate: absorb its metrics
    /// and, when tracing, write its JSONL and stage it for the
    /// concatenated export. Called in grid order only.
    fn finish_cell(&self, cell: &Recorder) {
        self.recorder.absorb(cell);
        let idx = {
            let mut done = self.cells_done.borrow_mut();
            *done += 1;
            *done - 1
        };
        if self.trace_out.is_some() {
            let jsonl = cell.export_jsonl();
            let path = self.per_cell_trace_path(idx);
            if let Err(e) = fs::write(&path, &jsonl) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
            self.trace_chunks.borrow_mut().push(jsonl);
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

    /// Save `results/<name>.json` as `{"rows": ..., "metrics": ...}` and
    /// write the JSONL event trace(s) if `--trace-out` was given (the
    /// concatenation of all per-cell logs, in grid order). With
    /// `--profile`, a flamegraph stack file lands beside the JSON as
    /// `results/<name>.folded` (call-count weighted, so the checked-in
    /// file is deterministic; see `docs/PROFILING.md`).
    pub fn save<T: Serialize>(&self, name: &str, rows: &T) {
        let report = self.recorder.report();
        if let Some(profile) = &report.profile {
            let folded = profile.to_folded(obs::FoldWeight::Calls);
            let path = results_dir().join(format!("{name}.folded"));
            match fs::write(&path, folded) {
                Ok(()) => println!("[saved {}]", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        let mut metrics = report.to_value();
        if self.summary_only {
            strip_timeseries(&mut metrics);
            strip_profile(&mut metrics);
        }
        let doc = serde::Value::Object(vec![
            ("rows".to_string(), rows.to_value()),
            ("metrics".to_string(), metrics),
        ]);
        save_json(name, &doc);
        if let Some(path) = &self.trace_out {
            let cells = self.trace_chunks.borrow();
            match fs::write(path, cells.concat()) {
                Ok(()) => {
                    println!("[trace saved to {} (+{} cell files)]", path.display(), cells.len())
                }
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
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
    let exe = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&exe).file_name().and_then(|n| n.to_str()).unwrap_or("bench");
    eprintln!("{bin}: {problem}; usage: {bin} {usage}");
    std::process::exit(2)
}

/// Mean and a 95% confidence half-width over per-seed measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SeedStat {
    /// Sample mean.
    pub mean: f64,
    /// 95% CI half-width (normal approximation, `1.96·s/√n`; 0 when
    /// fewer than two samples).
    pub ci95: f64,
    /// Number of seeds.
    pub n: u64,
}

/// Aggregate per-seed values into a [`SeedStat`]. Summation runs in
/// input (seed) order, so the result is bitwise deterministic.
pub fn seed_stat(values: &[f64]) -> SeedStat {
    let n = values.len();
    if n == 0 {
        return SeedStat { mean: 0.0, ci95: 0.0, n: 0 };
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let ci95 = if n < 2 {
        0.0
    } else {
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
        1.96 * (var / n as f64).sqrt()
    };
    SeedStat { mean, ci95, n: n as u64 }
}

/// Mean of per-seed values (seed-order summation, deterministic).
pub fn seed_mean(values: &[f64]) -> f64 {
    seed_stat(values).mean
}

/// Format `mean ± ci95` for tables; the `±` part only appears with
/// multiple seeds, so single-seed tables look exactly as before.
pub fn pm(stat: SeedStat, fmt: impl Fn(f64) -> String) -> String {
    if stat.n > 1 {
        format!("{}±{}", fmt(stat.mean), fmt(stat.ci95))
    } else {
        fmt(stat.mean)
    }
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

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
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

/// Save a serializable result set as JSON.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn seed_stat_mean_and_ci() {
        let empty = seed_stat(&[]);
        assert_eq!((empty.mean, empty.ci95, empty.n), (0.0, 0.0, 0));
        let one = seed_stat(&[4.0]);
        assert_eq!((one.mean, one.ci95, one.n), (4.0, 0.0, 1));
        let s = seed_stat(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // s² = 5/3, ci = 1.96·√(5/3/4) ≈ 1.2655
        assert!((s.ci95 - 1.2655).abs() < 1e-3, "ci {}", s.ci95);
        assert_eq!(pm(s, f1), "2.5±1.3");
        assert_eq!(pm(one, f1), "4.0");
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
