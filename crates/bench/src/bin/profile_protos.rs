//! profile_protos — the checked-in baseline handler profile.
//!
//! Runs every [`FuzzScheme`] replication protocol under its seed-42
//! medium-intensity nemesis schedule with the in-sim handler profiler
//! on, and writes `results/profile_protos.json` (a `profile` block per
//! scheme) plus `results/profile_protos.folded` (call-count-weighted
//! flamegraph stacks). Counts and allocation tallies are
//! jobs-invariant, so both files are reproducible artifacts; query
//! them with `tracequery prof` (see `docs/PROFILING.md`).
//!
//! ```text
//! cargo run --release --bin profile_protos                  # regenerate the baseline
//! cargo run --release --bin profile_protos -- --smoke --jobs 4
//! ```
//!
//! Flags: `--smoke` (a tenth of the ops per session), `--jobs <n>`.

use bench::table::HOT_HANDLERS;
use bench::{fail, parse_positive, reject_args, results_dir, save_json, take_value, write_or_exit};
use obs::{FoldWeight, Recorder};
use rec_core::fuzz::{fuzz_workload, generate_case, FuzzScheme, FUZZ_HORIZON_MS};
use rec_core::grid::Grid;
use rec_core::Experiment;
use serde::Serialize;
use simnet::nemesis::{self, IntensityProfile};
use simnet::{LatencyModel, SimTime};

/// Schema version of the output document.
const SCHEMA_VERSION: u64 = 1;

const USAGE: &str = "[--smoke] [--jobs N]";

/// One handler's line in the hot-handlers table.
#[derive(Serialize)]
struct Hot {
    frame: String,
    calls: u64,
    alloc_bytes: u64,
    alloc_count: u64,
}

fn main() {
    let mut smoke = false;
    let mut jobs = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--smoke" {
            smoke = true;
        } else if let Some(n) = take_value(&a, "--jobs", &mut args) {
            jobs = parse_positive("--jobs", &n, USAGE) as usize;
        } else {
            reject_args(&[a], USAGE);
        }
    }

    // The fuzz harness deployment for each scheme, with a denser
    // workload than the fuzzer's (more sessions/ops, shorter think
    // time) so steady-state traffic dominates the profile.
    let mut grid = Grid::new();
    for scheme in FuzzScheme::ALL {
        let case = generate_case(scheme, 42, &IntensityProfile::medium());
        let mut workload = fuzz_workload();
        workload.sessions = 8;
        workload.ops_per_session = if smoke { 40 } else { 400 };
        workload.arrival = workload::Arrival::Closed { think_us: 2_000 };
        grid.push(
            scheme.name(),
            Experiment::new(scheme.to_scheme())
                .workload(workload)
                .latency(LatencyModel::lan())
                .faults(nemesis::to_schedule(&case.events))
                .seed(42)
                .horizon(SimTime::from_millis(FUZZ_HORIZON_MS)),
        );
    }
    let cells = grid.profile(true).run(jobs, Recorder::enabled);
    let agg = Recorder::enabled();
    for cell in &cells {
        agg.absorb(&cell.recorder);
    }
    let report = agg.report();
    let profile = report.profile.as_ref().expect("profiled grid produces a profile");

    let mut hot: Vec<Hot> = profile
        .schemes
        .iter()
        .flat_map(|s| {
            s.handlers.iter().map(|h| Hot {
                frame: format!("{};{}", s.scheme, h.frame()),
                calls: h.invocations,
                alloc_bytes: h.alloc_bytes,
                alloc_count: h.alloc_count,
            })
        })
        .collect();
    hot.sort_by(|a, b| b.calls.cmp(&a.calls).then_with(|| a.frame.cmp(&b.frame)));
    hot.truncate(10);
    print!("{}", HOT_HANDLERS.text(&hot.to_value()).unwrap_or_else(|e| fail(&e)));

    let doc = serde::Value::Object(vec![
        ("schema_version".to_string(), serde::Value::U64(SCHEMA_VERSION)),
        ("tool".to_string(), serde::Value::String("profile_protos".to_string())),
        (
            "mode".to_string(),
            serde::Value::String(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("profile".to_string(), profile.to_value()),
    ]);
    save_json("profile_protos", &doc);
    let path = results_dir().join("profile_protos.folded");
    write_or_exit(&path, profile.to_folded(FoldWeight::Calls));
    println!("[saved {}]", path.display());
}
