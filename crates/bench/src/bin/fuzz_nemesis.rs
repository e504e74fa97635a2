//! Nemesis fuzzer: every scheme × `--seeds` generated fault schedules,
//! traces judged by the consistency checkers, violations shrunk to
//! minimal JSON reproducers (see `docs/NEMESIS.md`).
//!
//! ```text
//! cargo run --release -p bench --bin fuzz_nemesis -- \
//!     --seeds 200 --jobs 8 --intensity heavy
//! ```
//!
//! Flags: `--seeds N` schedules per scheme, `--jobs N` workers,
//! `--intensity light|medium|heavy`, `--base-seed N`, `--no-shrink`.
//!
//! `--replay <reproducer.json>` runs a single shrunk reproducer (the
//! `FuzzCase` JSON embedded in the campaign report) instead of a
//! campaign; with `--trace-out <path>` the replay emits its full JSONL
//! event log — span open/close pairs included — for `tracequery`.
//!
//! Output is byte-identical for any `--jobs` value: the summary table,
//! `results/fuzz_nemesis.json` (the full campaign report including every
//! shrunk reproducer), and the process exit code. Exits non-zero iff a
//! scheme violated a guarantee it was *expected* to keep — the
//! `quorum(N=3,R=1,W=1)` positive control is expected to fail and does
//! not affect the exit code.

use bench::{reject_args, save_json, take_value, usage_exit, Obs};
use obs::Recorder;
use rec_core::fuzz::{campaign, try_run_case_recorded, FuzzCase, FuzzScheme};
use simnet::nemesis::IntensityProfile;
use std::path::PathBuf;

const USAGE: &str = "[--seeds N] [--jobs N] [--intensity light|medium|heavy] [--base-seed N] \
                     [--no-shrink] [--replay FILE] [--trace-out PATH]";

fn main() {
    let (obs, rest) = Obs::from_args();
    let mut intensity = "heavy".to_string();
    let mut base_seed = 0u64;
    let mut shrink = true;
    let mut replay: Option<PathBuf> = None;
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        if let Some(name) = take_value(&a, "--intensity", &mut args) {
            intensity = name;
        } else if let Some(n) = take_value(&a, "--base-seed", &mut args) {
            base_seed =
                n.parse().unwrap_or_else(|_| usage_exit("--base-seed expects an integer", USAGE));
        } else if let Some(p) = take_value(&a, "--replay", &mut args) {
            replay = Some(PathBuf::from(p));
        } else if a == "--no-shrink" {
            shrink = false;
        } else {
            reject_args(&[a], USAGE);
        }
    }

    if IntensityProfile::by_name(&intensity).is_none() {
        usage_exit(&format!("--intensity expects light|medium|heavy, got `{intensity}`"), USAGE);
    }
    if base_seed.checked_add(obs.seeds.saturating_sub(1)).is_none() {
        usage_exit(
            &format!("--base-seed {base_seed} with --seeds {} runs past the last u64", obs.seeds),
            USAGE,
        );
    }

    if let Some(path) = replay {
        replay_case(&path, obs.trace_out.as_deref());
        return;
    }

    let report = campaign(&FuzzScheme::ALL, obs.seeds, base_seed, &intensity, obs.jobs, shrink);
    print!("{}", report.render());
    save_json("fuzz_nemesis", &report);

    let expected = report.expected_violations().len();
    let unexpected = report.unexpected_violations().len();
    println!(
        "{} runs, {} expected violation(s) (positive control), {} unexpected",
        report.total(),
        expected,
        unexpected
    );
    if unexpected > 0 {
        eprintln!("FAIL: guarantees broke where they were expected to hold; reproducers in results/fuzz_nemesis.json");
        std::process::exit(1);
    }
}

/// Replay one shrunk reproducer with full observability and optionally
/// export its span-level JSONL trace.
fn replay_case(path: &std::path::Path, trace_out: Option<&std::path::Path>) {
    // A file somebody else wrote: whatever is wrong with it is exit 1
    // and one line naming it, never a panic inside the run.
    let fail = |what: String| -> ! {
        eprintln!("fuzz_nemesis: {}: {what}", path.display());
        std::process::exit(1)
    };
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read reproducer: {e}")));
    let case: FuzzCase = serde_json::from_str(&json)
        .unwrap_or_else(|e| fail(format!("not a FuzzCase reproducer: {e}")));
    let recorder =
        if trace_out.is_some() { Recorder::with_event_log() } else { Recorder::enabled() };
    let verdict = try_run_case_recorded(&case, recorder.clone()).unwrap_or_else(|e| fail(e));
    let report = recorder.report();
    println!(
        "replay: scheme={} seed={} events={} verdict={verdict:?}",
        case.scheme.name(),
        case.seed,
        case.events.len()
    );
    println!(
        "spans: opened={} closed={} abandoned={}",
        report.counter(obs::Counter::SpansOpened),
        report.counter(obs::Counter::SpansClosed),
        report.counter(obs::Counter::SpansAbandoned),
    );
    if let Some(out) = trace_out {
        match recorder.write_jsonl(out) {
            Ok(()) => println!("[trace saved to {}]", out.display()),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", out.display());
                std::process::exit(1);
            }
        }
    }
}
