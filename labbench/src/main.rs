//! labbench — the lab's end-to-end and per-layer performance ledger.
//!
//! ```text
//! labbench [run] [--workload <name>|all] [--seed N] [--seconds S]
//!          [--trace 0|1 | --traced] [--scale F] [--out <json>]
//! labbench repeat-check [--sets N] [--seed N] [--seconds S]
//! ```
//!
//! See `README.md` beside the manifest for the workloads, the metrics and
//! how to read a traced run.

mod harness;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use harness::Outcome;
use serde::Value;
use std::process::{Command, ExitCode};

/// The profiler's allocation figures (`replication.alloc_bytes_per_op`)
/// need the counting allocator, which every experiment binary of the lab
/// installs too.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;

/// Default `--seconds`; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 12;

/// The end-to-end metrics: `(name, unit, higher is better, bound)`. The
/// bound is the share of the earlier value by which the later one may be
/// worse; `BENCHMARK.json` carries the same figures.
const END_TO_END: [(&str, &str, bool, f64); 3] = [
    ("work_per_s", "1/s", true, 0.25),
    ("peak_rss_mb", "MiB", false, 0.25),
    ("setup_s", "s", false, 0.25),
];

#[derive(Debug, Clone)]
struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
    sets: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".to_string(),
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        scale: 1.0,
        sets: 2,
        out: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|f| !f.starts_with("--")) {
        a.command = first.to_string();
        it.next();
    }
    if a.command != "run" && a.command != "repeat-check" {
        return Err(format!("unknown command {:?} (run, repeat-check)", a.command));
    }
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => a.scale = value.parse().map_err(|_| bad())?,
            "--sets" => a.sets = value.parse().map_err(|_| bad())?,
            "--trace" => a.traced = matches!(value.as_str(), "1" | "true"),
            "--out" => a.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let in_range = (0.0..=600.0).contains(&a.seconds) && a.scale > 0.0 && a.scale <= 16.0;
    if !in_range || a.sets < 2 {
        return Err("--seconds must be 0–600, --scale in (0, 16], --sets at least 2".to_string());
    }
    if a.workload != "all" && workloads::find(&a.workload).is_none() {
        let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        return Err(format!("unknown workload {:?} (all, {})", a.workload, names.join(", ")));
    }
    Ok(a)
}

/// The last line of a run: exactly the keys the benchmark contract names.
fn contract_line(o: &Outcome) -> String {
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), Value::U64(o.attempted.max(1))),
        ("failed".to_string(), Value::U64(o.failed)),
        ("metrics".to_string(), o.metrics.to_value()),
    ])
    .to_json()
}

/// Everything a run reports, for `--out` and for the parent of a
/// re-executed run.
fn outcome_value(o: &Outcome) -> Value {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
    Value::Object(vec![
        ("workload".to_string(), Value::String(o.workload.to_string())),
        ("work_unit".to_string(), Value::String(o.unit.to_string())),
        ("seed".to_string(), Value::U64(o.seed)),
        ("correct".to_string(), Value::Bool(o.correct)),
        ("errors".to_string(), Value::Array(o.errors.iter().cloned().map(Value::String).collect())),
        ("ops_attempted".to_string(), Value::U64(o.attempted)),
        ("ops_failed".to_string(), Value::U64(o.failed)),
        ("result_digest".to_string(), Value::String(format!("{:016x}", o.result_digest))),
        (
            "pass_timed_s".to_string(),
            Value::Array(o.pass_timed_s.iter().copied().map(Value::F64).collect()),
        ),
        ("wall_s".to_string(), Value::F64(o.wall_s)),
        ("cpu_s".to_string(), opt(o.cpu_s)),
        ("noisy".to_string(), Value::Bool(o.noisy)),
        ("threads".to_string(), o.threads.map_or(Value::Null, Value::U64)),
        ("metrics".to_string(), o.metrics.to_value()),
        (
            "notes".to_string(),
            Value::Object(
                o.metrics
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

fn print_outcome(o: &Value) {
    let s = |k: &str| o.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let f = |k: &str| o.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let flag = |k: &str| matches!(o.get(k), Some(Value::Bool(true)));
    println!(
        "{}  seed {}  digest {}  passes {:.3?} s  wall {:.2} s  cpu {:.2} s  threads {}{}{}",
        s("workload"),
        f("seed"),
        s("result_digest"),
        o.get("pass_timed_s")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_f64)
            .collect::<Vec<_>>(),
        f("wall_s"),
        f("cpu_s"),
        f("threads"),
        if flag("noisy") { "  NOISY (cpu/wall < 0.9)" } else { "" },
        if flag("correct") { "" } else { "  INCORRECT" },
    );
    println!(
        "  ops_attempted {}  ops_failed {}  failed_ratio {}",
        f("ops_attempted"),
        f("ops_failed"),
        f("ops_failed") / f("ops_attempted")
    );
    for (name, m) in o.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let unit =
            if name == "work_per_s" { format!("{}/s", s("work_unit")) } else { unit.to_string() };
        println!(
            "  {name:<44} {:>16.4} {unit}",
            m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN)
        );
    }
    for e in o.get("errors").and_then(Value::as_array).unwrap_or(&[]) {
        println!("  check failed: {}", e.as_str().unwrap_or("?"));
    }
}

/// Where a traced run leaves its spans: beside the executable, which is
/// always inside a build directory.
fn write_trace_file(o: &Outcome) {
    let Some(dir) =
        std::env::current_exe().ok().and_then(|p| Some(p.parent()?.join("labbench-traces")))
    else {
        return;
    };
    let doc = Value::Object(vec![
        ("run".to_string(), outcome_value(o)),
        ("spans".to_string(), trace::spans_to_value(&o.spans)),
    ]);
    let path = dir.join(format!("{}.trace.json", o.workload));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_json())) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_here(a: &Args) -> Outcome {
    let spec = workloads::find(&a.workload).expect("checked by parse_args");
    let o = harness::run(spec, a.seed, a.seconds, a.scale, a.traced);
    if a.traced {
        write_trace_file(&o);
    }
    o
}

/// One workload in a process of its own, so that `peak_rss_mb` is that
/// workload's; `None` when the process cannot be started or read.
fn run_in_child(a: &Args, workload: &str) -> Option<Value> {
    let out = Command::new(std::env::current_exe().ok()?)
        .args(["run", "--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--scale", &a.scale.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("outcome "))?;
    serde_json::parse_value(line).ok()
}

/// The named workloads, each in a child process; in this process, with
/// `peak_rss_mb` withdrawn, where that fails.
fn run_suite(a: &Args) -> Vec<Value> {
    workloads::ALL
        .iter()
        .map(|spec| {
            run_in_child(a, spec.name).unwrap_or_else(|| {
                eprintln!(
                    "warning: could not re-execute for {}; peak_rss_mb is unavailable",
                    spec.name
                );
                let mut o = run_here(&Args { workload: spec.name.to_string(), ..a.clone() });
                o.metrics.values.remove("peak_rss_mb");
                outcome_value(&o)
            })
        })
        .collect()
}

fn is_correct(o: &Value) -> bool {
    matches!(o.get("correct"), Some(Value::Bool(true)))
}

fn metric(o: &Value, name: &str) -> Option<f64> {
    o.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run the untraced suite `sets` times and hold every later set to the
/// first: each end-to-end metric within its bound, digests and failure
/// counts equal.
fn repeat_check(a: &Args) -> bool {
    let a = Args { traced: false, ..a.clone() };
    let sets: Vec<Vec<Value>> = (0..a.sets).map(|_| run_suite(&a)).collect();
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "later", "worse", "bound"
    );
    for (set_index, later) in sets.iter().enumerate().skip(1) {
        for (first, later) in sets[0].iter().zip(later) {
            let name = first.get("workload").and_then(Value::as_str).unwrap_or("?");
            for (metric_name, _, higher_is_better, bound) in END_TO_END {
                let (Some(x), Some(y)) = (metric(first, metric_name), metric(later, metric_name))
                else {
                    println!("{name:<14} {metric_name:<12} unavailable");
                    continue;
                };
                let worse = if higher_is_better { (x - y) / x } else { (y - x) / x };
                // A set-up of milliseconds may move by a tenth of a
                // second before it counts.
                let allowed = if metric_name == "setup_s" { bound.max(0.1 / x) } else { bound };
                let breach = worse > allowed;
                ok &= !breach;
                println!(
                    "{name:<14} {metric_name:<12} {x:>14.4} {y:>14.4} {:>7.1}% {:>6.0}%{}",
                    worse * 100.0,
                    allowed * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
            }
            for key in ["result_digest", "ops_failed"] {
                let same = first.get(key) == later.get(key);
                ok &= same;
                if !same {
                    println!(
                        "{name:<14} {key} differs between set 1 and set {}  BREACH",
                        set_index + 1
                    );
                }
            }
            ok &= is_correct(first) && is_correct(later);
        }
    }
    println!("repeat-check: {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("labbench measures optimised builds only: run it with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "labbench: nproc {nproc}, one measuring thread, seed {}, {} s a run, scale {}",
        a.seed, a.seconds, a.scale
    );

    if a.command == "repeat-check" {
        return if repeat_check(&a) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let (outcomes, last_line) = if a.workload == "all" {
        (run_suite(&a), None)
    } else {
        let o = run_here(&a);
        (vec![outcome_value(&o)], Some(contract_line(&o)))
    };
    for o in &outcomes {
        print_outcome(o);
    }
    if let Some(path) = &a.out {
        let doc = Value::Object(vec![("runs".to_string(), Value::Array(outcomes.clone()))]);
        if let Err(e) = std::fs::write(path, doc.to_json_pretty()) {
            eprintln!("labbench: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(line) = last_line {
        println!("outcome {}", outcomes[0].to_json());
        println!("{line}");
    }
    if outcomes.iter().all(is_correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
