//! A misspelt or value-less flag must stop a harness bin before it runs:
//! silently ignoring it would run the *default* experiment and save it
//! over `results/<name>.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_or_value_less_flags_exit_2_and_leave_results_untouched() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let e1 = env!("CARGO_BIN_EXE_e1_quorum_staleness");
    for (exe, stem, bad, args) in [
        (e1, "e1_quorum_staleness", "--job", &["--job", "8"][..]),
        (e1, "e1_quorum_staleness", "--seed=5", &["--seed=5"]),
        (e1, "e1_quorum_staleness", "--jobs", &["--seeds", "2", "--jobs"]),
        (env!("CARGO_BIN_EXE_fuzz_nemesis"), "fuzz_nemesis", "--sream", &["--seeds=1", "--sream"]),
        (env!("CARGO_BIN_EXE_profile_protos"), "profile_protos", "--job", &["--smoke", "--job=1"]),
    ] {
        let file = results.join(format!("{stem}.json"));
        let before = (std::fs::read(&file).unwrap(), file.metadata().unwrap().modified().unwrap());
        let out = Command::new(exe).args(args).output().expect("spawn harness bin");
        assert_eq!(out.status.code(), Some(2), "{stem} {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stem} {args:?}: one-line usage, got:\n{stderr}");
        assert!(stderr.contains("usage:") && stderr.contains(bad), "{stderr}");
        let after = (std::fs::read(&file).unwrap(), file.metadata().unwrap().modified().unwrap());
        assert!(before == after, "{stem} {args:?} rewrote {}", file.display());
    }
}
