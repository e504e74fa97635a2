//! Flat-memory regression gate for the streaming checkers.
//!
//! `checkerbench --grow-check` (crates/bench/src/bin/checkerbench.rs)
//! re-executes itself at N and 10·N synthetic ops — one subprocess
//! per size, so `VmHWM` from `/proc/self/status` is a
//! per-run high-water mark — and fails if peak RSS grows by 10% or
//! more. A windowed `StreamVerifier` whose state is genuinely bounded
//! passes trivially; any accumulation that scales with trace length
//! (an unevicted map, a growing sample vector) fails the gate.

use std::process::Command;

#[test]
fn streaming_checker_memory_stays_flat_across_10x_trace_growth() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let build = Command::new(&cargo)
        .args(["build", "-p", "bench", "--bin", "checkerbench"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("spawn cargo build");
    assert!(build.success(), "checkerbench failed to build");

    // The test binary lives in target/<profile>/deps/; checkerbench was
    // just built into target/<profile>/.
    let exe = std::env::current_exe().expect("test exe path");
    let profile_dir =
        exe.parent().and_then(|p| p.parent()).expect("target profile dir").to_path_buf();
    let bin = profile_dir.join("checkerbench");
    assert!(bin.exists(), "{} missing after build", bin.display());

    let out = Command::new(&bin).arg("--grow-check").output().expect("run checkerbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "flat-memory gate failed:\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(stdout.contains("grow-check:"), "unexpected checkerbench output:\n{stdout}");
}
