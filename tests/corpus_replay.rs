//! Integration: the regression corpus replays to stable verdicts.
//!
//! Each file in `tests/corpus/` is a shrunk [`FuzzCase`] emitted by the
//! `fuzz_nemesis` harness — a minimal fault schedule that once broke a
//! guarantee. Replaying them pins two things at once: the byte format of
//! reproducers (serde round trip) and the simulator's behaviour on the
//! schedule (exact verdict, including the violation count). If a
//! legitimate protocol change shifts a verdict, re-run the fuzzer and
//! refresh the corpus file alongside the change.

use rethinking_ec::core::fuzz::{run_case, FuzzCase, Verdict, ViolationKind};

fn load(name: &str) -> FuzzCase {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/");
    let raw = std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("corpus file {name}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("corpus file {name}: {e}"))
}

fn assert_replays(name: &str, expected: Verdict) {
    let case = load(name);
    // The corpus stores compact serde output: re-encoding must be
    // byte-stable or reproducer diffs become meaningless.
    let reencoded = serde_json::to_string(&case).unwrap();
    let raw =
        std::fs::read_to_string(format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR")))
            .unwrap();
    assert_eq!(reencoded, raw.trim_end(), "{name}: corpus JSON is not canonical");
    assert_eq!(run_case(&case), expected, "{name}: verdict drifted");
}

#[test]
fn partition_reproducer_still_violates() {
    // R+W<=N under a majority partition: the seeded known-violation from
    // ISSUE 3, shrunk to a single partition window.
    assert_replays(
        "partial_quorum_partition.json",
        Verdict::Violation { kind: ViolationKind::StaleReads, count: 3 },
    );
}

#[test]
fn amnesia_crash_reproducer_still_violates() {
    assert_replays(
        "partial_quorum_amnesia_crash.json",
        Verdict::Violation { kind: ViolationKind::StaleReads, count: 1 },
    );
}

#[test]
fn loss_burst_reproducer_still_violates() {
    assert_replays(
        "partial_quorum_loss_burst.json",
        Verdict::Violation { kind: ViolationKind::StaleReads, count: 2 },
    );
}
