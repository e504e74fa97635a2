//! Every workload at a hundredth of its size, held against
//! `BENCHMARK.json`: the names it lists are the names emitted, digests
//! repeat, and the span tree is well formed.

use crate::harness::{self, Outcome};
use crate::trace::self_times;
use crate::{parse_args, workloads, END_TO_END, RUN_SECONDS};
use serde::Value;
use std::collections::BTreeMap;

const TEST_SCALE: f64 = 0.01;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root of the repository");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

/// `name → unit` of the objects listed under `key`.
fn listed(doc: &Value, key: &str) -> BTreeMap<String, String> {
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();
    doc.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| (text(m, "name"), m.get("unit").map_or(String::new(), |_| text(m, "unit"))))
        .collect()
}

fn emitted(o: &Outcome) -> BTreeMap<String, String> {
    o.metrics.values.iter().map(|(name, &(_, unit))| (name.clone(), unit.to_string())).collect()
}

fn run(name: &str, traced: bool) -> Outcome {
    let spec = workloads::find(name).expect("a listed workload");
    let o = harness::run(spec, 12, 0.0, TEST_SCALE, traced);
    assert!(o.correct, "{name}: {:?}", o.errors);
    assert!(o.attempted >= 1 && o.failed == 0, "{name}: {} of {} failed", o.failed, o.attempted);
    o
}

#[test]
fn benchmark_json_lists_the_workloads_and_the_run_length() {
    let doc = benchmark_json();
    let names: Vec<String> = listed(&doc, "workloads").into_keys().collect();
    let mut ours: Vec<String> = workloads::ALL.iter().map(|s| s.name.to_string()).collect();
    ours.sort();
    assert_eq!(names, ours);
    assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS));
    for m in doc.get("end_to_end").and_then(Value::as_array).expect("end_to_end") {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        let ours =
            END_TO_END.iter().find(|e| e.0 == name).unwrap_or_else(|| panic!("{name} unknown"));
        assert_eq!(m.get("bound").and_then(Value::as_f64), Some(ours.3), "{name}: bound");
        let better = if ours.2 { "higher" } else { "lower" };
        assert_eq!(m.get("better").and_then(Value::as_str), Some(better), "{name}: better");
    }
}

#[test]
fn untraced_runs_emit_the_end_to_end_metrics_and_repeat_their_digest() {
    let listed = listed(&benchmark_json(), "end_to_end");
    for spec in &workloads::ALL {
        let (first, again) = (run(spec.name, false), run(spec.name, false));
        assert_eq!(emitted(&first), listed, "{}", spec.name);
        assert_eq!(first.result_digest, again.result_digest, "{}: digest must repeat", spec.name);
        assert!(
            first.metrics.values.values().all(|&(v, _)| v > 0.0),
            "{}: {:?}",
            spec.name,
            first.metrics
        );
    }
}

#[test]
fn traced_runs_emit_the_per_layer_metrics_and_a_well_formed_span_tree() {
    let listed = listed(&benchmark_json(), "per_layer");
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    for name in listed.keys() {
        assert!(name.len() <= 64 && name.chars().all(allowed), "{name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
    }
    for spec in &workloads::ALL {
        let o = run(spec.name, true);
        assert_eq!(emitted(&o), listed, "{}", spec.name);
        assert_eq!(o.result_digest, run(spec.name, false).result_digest, "{}", spec.name);

        assert!(!o.spans.is_empty(), "{}: a traced run records spans", spec.name);
        for (i, s) in o.spans.iter().enumerate() {
            assert_eq!(s.id as usize, i + 1);
            assert!(
                s.parent < s.id,
                "{}: span {} names a parent that does not precede it",
                spec.name,
                s.id
            );
            assert!(s.end_ns >= s.start_ns);
            if s.parent != 0 {
                let p = &o.spans[s.parent as usize - 1];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}: span {} outlives its parent",
                    spec.name,
                    s.id
                );
            }
        }
        // Self times are what is left of a span after its children, so
        // under every root they add up to the root's duration.
        let own = self_times(&o.spans);
        let roots: u64 = o.spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_ns()).sum();
        assert_eq!(own.iter().sum::<u64>(), roots, "{}", spec.name);
        let coverage = o.metrics.values["labbench.coverage_ratio"].0;
        assert!((0.9..=1.1).contains(&coverage), "{}: coverage {coverage}", spec.name);
    }
}

#[test]
fn arguments_the_driver_appends_are_understood() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let a = parse_args(&args("--workload ring_scale --seed 7 --seconds 3 --trace 1")).unwrap();
    assert_eq!(
        (a.command.as_str(), a.workload.as_str(), a.seed, a.seconds, a.traced),
        ("run", "ring_scale", 7, 3.0, true)
    );
    let a = parse_args(&args("run --workload all --trace 0 --scale 0.5")).unwrap();
    assert!(!a.traced && a.scale == 0.5);
    assert_eq!(parse_args(&args("repeat-check --sets 3")).unwrap().sets, 3);
    for bad in ["--workload nope", "--seed x", "--seconds", "--scale 0", "frobnicate", "--sets 1"] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
