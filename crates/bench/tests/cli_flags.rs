//! A misspelt, malformed or value-less flag must stop a harness bin
//! before it runs: silently ignoring it would run the *default*
//! experiment and save it over `results/<name>.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn bad_flags_exit_2_and_leave_results_untouched() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let e1 = env!("CARGO_BIN_EXE_e1_quorum_staleness");
    let fuzz = env!("CARGO_BIN_EXE_fuzz_nemesis");
    let checkerbench = env!("CARGO_BIN_EXE_checkerbench");
    for (exe, stem, bad, args) in [
        (e1, "e1_quorum_staleness", "--job", &["--job", "8"][..]),
        (e1, "e1_quorum_staleness", "--seed=5", &["--seed=5"]),
        (e1, "e1_quorum_staleness", "--jobs", &["--seeds", "2", "--jobs"]),
        (fuzz, "fuzz_nemesis", "--sream", &["--seeds=1", "--sream"]),
        // The retired batch-vs-stream campaign flag is an unknown flag now.
        (fuzz, "fuzz_nemesis", "--stream", &["--stream", "--seeds", "1"]),
        // A profile `IntensityProfile::by_name` does not know.
        (fuzz, "fuzz_nemesis", "`extreme`", &["--intensity", "extreme", "--seeds", "1"]),
        // Case seeds base..base + seeds would run past u64::MAX.
        (
            fuzz,
            "fuzz_nemesis",
            "18446744073709551615",
            &["--base-seed", "18446744073709551615", "--seeds", "2"],
        ),
        (env!("CARGO_BIN_EXE_profile_protos"), "profile_protos", "--job", &["--smoke", "--job=1"]),
        (checkerbench, "checkerbench", "--ops", &["--ops=abc"]),
        (checkerbench, "checkerbench", "--window-ms", &["--ops", "10", "--window-ms="]),
    ] {
        // `None` for a bin that writes no results file (checkerbench
        // prints its one JSON row to stdout).
        let file = results.join(format!("{stem}.json"));
        let state =
            || Some((std::fs::read(&file).ok()?, file.metadata().ok()?.modified().unwrap()));
        let before = state();
        assert_eq!(before.is_none(), exe == checkerbench, "{} exists?", file.display());
        let out = Command::new(exe).args(args).output().expect("spawn harness bin");
        assert_eq!(out.status.code(), Some(2), "{stem} {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stem} {args:?}: one-line usage, got:\n{stderr}");
        assert!(stderr.contains("usage:") && stderr.contains(bad), "{stderr}");
        assert!(before == state(), "{stem} {args:?} rewrote {}", file.display());
    }
}

/// A harness that cannot write its output exits 1 naming the path. The
/// per-cell trace is the first write of a traced run, so the failure
/// comes before `results/<name>.json` is touched.
#[test]
fn an_unwritable_trace_exits_1_and_leaves_results_untouched() {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/e1_quorum_staleness.json");
    let state = || (std::fs::read(&file).unwrap(), file.metadata().unwrap().modified().unwrap());
    let before = state();
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_no_such_dir");
    let _ = std::fs::remove_dir_all(&missing);
    let out = Command::new(env!("CARGO_BIN_EXE_e1_quorum_staleness"))
        .args(["--summary-only", "--jobs", "2", "--trace-out"])
        .arg(missing.join("x.jsonl"))
        .output()
        .expect("spawn harness bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&*missing.to_string_lossy()), "stderr must name the path: {stderr}");
    assert!(before == state(), "a failed run rewrote {}", file.display());
}
