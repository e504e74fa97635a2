//! Integration: the regression corpus replays to stable verdicts.
//!
//! Each file in `tests/corpus/` is a shrunk [`FuzzCase`] emitted by the
//! `fuzz_nemesis` harness — a minimal fault schedule that once broke a
//! guarantee. Replaying them pins two things at once: the byte format of
//! reproducers (serde round trip) and the simulator's behaviour on the
//! schedule (exact verdict, including the violation count). If a
//! legitimate protocol change shifts a verdict, re-run the fuzzer and
//! refresh the corpus file alongside the change.

use rethinking_ec::core::fuzz::{
    run_case, try_run_case_recorded, FuzzCase, Verdict, ViolationKind,
};
use rethinking_ec::obs::{parse_jsonl, EventKind, Recorder};
use serde_json::Value;

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

/// A must-pass case: the initial leader (node 0) crashes with amnesia
/// and, while it is down, follower 2 is cut off, so the group stalls
/// until one side heals. The survivors elect a new leader, the old one
/// rebuilds its state machine from its durable log, and every read is
/// still linearizable. The judged-vs-replayed and mutation tests below
/// take this file through the log's election and amnesia paths too.
#[test]
fn paxos_leader_amnesia_with_a_partitioned_follower_passes() {
    let name = "paxos_leader_amnesia_partition.json";
    assert_replays(name, Verdict::Pass);
    let recorder = Recorder::with_event_log();
    recorder.enable_profiling();
    assert_eq!(try_run_case_recorded(&load(name), recorder.clone()), Ok(Verdict::Pass));
    let replayed: Vec<(u64, u64)> = parse_jsonl(&recorder.export_jsonl())
        .unwrap()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::WalReplay { node, records } => Some((node, records)),
            _ => None,
        })
        .collect();
    assert!(
        replayed.iter().any(|&(node, records)| node == 0 && records > 0),
        "node 0 replays committed slots after its amnesia crash: {replayed:?}"
    );
    // A message's type is not in the event log; the handler profile
    // counts the `Prepare`s replicas handled.
    let prepares: u64 = recorder
        .report()
        .profile
        .expect("profiling is on")
        .schemes
        .iter()
        .flat_map(|s| &s.handlers)
        .filter(|h| h.role == "replica" && h.variant == "prepare")
        .map(|h| h.invocations)
        .sum();
    // Node 0's opening election accounts for two: nodes 1 and 2 each
    // handle one.
    assert!(prepares > 2, "{prepares} Prepares handled: no election after the crash");
}

/// `run_case` ends a run once every op has its row; a replay runs to the
/// horizon. Both must reach the same verdict on every corpus file.
#[test]
fn judged_and_replayed_runs_agree_on_every_corpus_file() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let case: FuzzCase =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            Ok(run_case(&case)),
            try_run_case_recorded(&case, Recorder::disabled()),
            "{}",
            path.display()
        );
    }
}

/// `raw` cut short at every byte, with every single byte deleted, and
/// with the values of every two members of an event (and the seed)
/// swapped: what a half-written, hand-edited or mis-merged reproducer
/// looks like.
fn mutants(raw: &str) -> Vec<String> {
    let raw = raw.trim_end();
    let cuts = (0..raw.len()).filter(|&i| raw.is_char_boundary(i));
    let mut out: Vec<String> = cuts.clone().map(|i| raw[..i].to_string()).collect();
    out.extend(cuts.filter(|&i| raw.is_char_boundary(i + 1)).map(|i| {
        let mut s = raw.to_string();
        s.remove(i);
        s
    }));
    // Every scalar of the document as a path of member names / indices.
    fn scalars(v: &Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match v {
            Value::Object(members) => {
                for (k, v) in members {
                    path.push(k.clone());
                    scalars(v, path, out);
                    path.pop();
                }
            }
            Value::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    path.push(i.to_string());
                    scalars(v, path, out);
                    path.pop();
                }
            }
            _ => out.push(path.clone()),
        }
    }
    fn at<'a>(v: &'a mut Value, path: &[String]) -> &'a mut Value {
        path.iter().fold(v, |v, step| match v {
            Value::Object(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => unreachable!("a scalar has no members"),
        })
    }
    let doc = serde_json::parse_value(raw).unwrap();
    let mut paths = Vec::new();
    scalars(&doc, &mut Vec::new(), &mut paths);
    for (i, a) in paths.iter().enumerate() {
        for b in &paths[i + 1..] {
            let mut swapped = doc.clone();
            let (x, y) = (at(&mut swapped, a).clone(), at(&mut swapped, b).clone());
            *at(&mut swapped, a) = y;
            *at(&mut swapped, b) = x;
            out.push(swapped.to_json());
        }
    }
    out
}

/// ROADMAP 6d for reproducer files: a damaged one is an `Err` naming
/// what is wrong, or still a schedule and then a run that ends — never
/// an index past the simulator's actor table, an assertion of a builder
/// it never went through, or a loss rate that is no probability.
#[test]
fn damaged_reproducers_are_errors_or_clean_runs_never_panics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let (mut refused, mut ran) = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let raw = std::fs::read_to_string(&path).unwrap();
        for mutant in mutants(&raw) {
            let outcome = std::panic::catch_unwind(|| {
                let case: FuzzCase = serde_json::from_str(&mutant).map_err(|e| e.to_string())?;
                try_run_case_recorded(&case, Recorder::disabled())
            });
            match outcome {
                Ok(Ok(_)) => ran += 1,
                Ok(Err(why)) => {
                    assert!(!why.is_empty(), "{mutant}");
                    refused += 1;
                }
                Err(_) => panic!("{}: this mutant panicked:\n{mutant}", path.display()),
            }
        }
    }
    // Both arms are exercised: most cuts are no JSON, most swaps of two
    // integers are still a schedule.
    assert!(refused > 300 && ran >= 20, "refused {refused}, ran {ran}");
}

#[test]
fn refusals_name_the_field_and_the_numbers() {
    let refusal = |json: &str| {
        let case: FuzzCase = serde_json::from_str(json).unwrap();
        try_run_case_recorded(&case, Recorder::disabled()).unwrap_err()
    };
    let case = |event: &str| format!(r#"{{"scheme":"PartialQuorum","seed":0,"events":[{event}]}}"#);
    assert_eq!(
        refusal(&case(r#"{"Crash":{"node":9,"from_ms":150,"to_ms":3289,"amnesia":true}}"#)),
        "crashes[0]: node 9 is not deployed: the run has 6 actors (ids 0..6)"
    );
    assert_eq!(
        refusal(&case(r#"{"Partition":{"side_a":[0,7],"from_ms":58,"to_ms":2365}}"#)),
        "partitions.side_a[0]: node 7 is not deployed: the run has 6 actors (ids 0..6)"
    );
    assert_eq!(
        refusal(&case(r#"{"Partition":{"side_a":[0,1],"from_ms":2365,"to_ms":58}}"#)),
        "events[0]: to_ms 58 is before from_ms 2365"
    );
    assert_eq!(
        refusal(&case(r#"{"LossBurst":{"pct":337,"from_ms":22,"to_ms":4254}}"#)),
        "events[0]: pct 337 is not a percentage (0..=100)"
    );
    assert_eq!(
        refusal(&case(r#"{"Crash":{"node":99999999999,"from_ms":1,"to_ms":2,"amnesia":false}}"#)),
        "events[0]: node 99999999999 is past the last addressable node (4294967295)"
    );
}
