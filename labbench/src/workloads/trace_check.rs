//! `trace_check`: "trace it, then check it offline". Four schemes are
//! simulated under a medium nemesis with the full event log — that is
//! set-up. Timed is everything a user does with the log afterwards:
//! export to JSONL, parse it back, check the spans, stream-check the
//! ops, run the four batch checkers on the op trace, and run the
//! streaming verifier unbounded and with a 2 s window. `consistency`,
//! `obs` export and `obs-tools` do all the timed work and the simulator
//! none: `proto_sweep` has the write side of `obs`, this has the read
//! side.

use super::{batch_reports, experiment_under_nemesis, ycsb_a};
use crate::harness::{ratio, scaled, timed, Metrics, Pass, Traced, Workload};
use consistency::{StreamConfig, StreamReports, StreamVerifier, StreamViolation};
use obs::{Recorder, TracedEvent};
use obs_tools::{check_spans, parse_jsonl, ParseError, StreamTraceChecker};
use rec_core::fuzz::FuzzScheme;
use rec_core::{ClientPlacement, Experiment, RunResult, Scheme};
use replication::common::Guarantees;
use replication::eventual::ConflictMode;
use simnet::{Duration, OpRecord};
use std::collections::BTreeSet;

const SESSIONS: u32 = 8;
const OPS_PER_SESSION: u64 = 1_500;
const KEYS: u64 = 4_096;
const THINK_US: u64 = 2_000;
const WINDOW: Duration = Duration::from_secs(2);
/// Ops handed to the in-process verifier per `feed_slice`, each followed
/// by a watermark advance, as a live monitor would.
const FEED_CHUNK: usize = 512;
/// Log lines parsed, and events stream-checked, per timed cell.
const LINES_PER_CELL: usize = 16_384;

struct Logged {
    label: &'static str,
    experiment: Experiment,
    result: RunResult,
    recorder: Recorder,
    /// Seconds the simulation took with the event log on.
    logged_s: f64,
}

pub struct TraceCheck {
    logs: Vec<Logged>,
}

pub fn build(seed: u64, scale: f64) -> Box<dyn Workload> {
    let ops = scaled(OPS_PER_SESSION, scale, 10);
    let workload = ycsb_a(KEYS, true, SESSIONS, ops, THINK_US);
    // Eventual with anycast clients and no session guarantees: the cell
    // on which the session checkers have violations to find.
    let eventual_random = Scheme::Eventual {
        replicas: 3,
        eager: true,
        gossip: Some((Duration::from_millis(50), 1)),
        mode: ConflictMode::Lww,
        guarantees: Guarantees::none(),
        placement: ClientPlacement::Random,
    };
    let under_nemesis = |s| experiment_under_nemesis(s, seed, workload.clone());
    let eventual = {
        // Same network, faults and horizon as the sticky fuzz scheme.
        let mut e = under_nemesis(FuzzScheme::EventualSticky);
        e.scheme = eventual_random;
        e
    };
    let cells = [
        ("quorum_r1w1", under_nemesis(FuzzScheme::PartialQuorum)),
        ("causal", under_nemesis(FuzzScheme::Causal)),
        ("eventual_random", eventual),
        ("quorum_r2w2", under_nemesis(FuzzScheme::MajorityQuorum)),
    ];
    let logs = cells
        .into_iter()
        .map(|(label, experiment)| {
            let recorder = Recorder::with_event_log();
            // The default cap (1 048 576 events) would silently cut a
            // long log short; the pass asserts nothing was dropped.
            recorder.set_event_cap(usize::MAX);
            let logged = experiment.clone().recorder(recorder.clone());
            let (result, logged_s) = timed(|| logged.run());
            Logged { label, experiment, result, recorder, logged_s }
        })
        .collect();
    Box::new(TraceCheck { logs })
}

/// The reports in the tuple form the lab's own differential tests
/// compare, as JSON.
fn stream_json(r: &StreamReports) -> String {
    serde_json::to_string(&(&r.session, &r.staleness, &r.monotonic, &r.convergence))
        .expect("reports serialise")
}

/// `parse_jsonl` over the log a stretch of whole lines at a time.
fn parse_in_chunks(jsonl: &str, mark: &mut dyn FnMut()) -> Result<Vec<TracedEvent>, ParseError> {
    let mut events = Vec::new();
    let mut rest = jsonl;
    while !rest.is_empty() {
        let end =
            rest.match_indices('\n').nth(LINES_PER_CELL - 1).map_or(rest.len(), |(i, _)| i + 1);
        let (chunk, tail) = rest.split_at(end);
        events.extend(parse_jsonl(chunk)?);
        rest = tail;
        mark();
    }
    Ok(events)
}

fn verify_in_process(records: &[OpRecord], window: Option<Duration>) -> StreamReports {
    let mut verifier = StreamVerifier::new(StreamConfig { window, ..StreamConfig::default() });
    for chunk in records.chunks(FEED_CHUNK) {
        verifier.feed_slice(chunk);
    }
    verifier.finish()
}

fn violation_keys(violations: &[StreamViolation]) -> BTreeSet<(&'static str, u64, u64, u64)> {
    violations.iter().map(|v| (v.kind.name(), v.session, v.op_id, v.key)).collect()
}

impl Workload for TraceCheck {
    fn pass(&mut self, p: &mut Pass) {
        let tr = p.tr;
        for log in &self.logs {
            let label = log.label;
            let records = log.result.trace.records();
            let jsonl = p.cell("obs.export_jsonl", label, || log.recorder.export_jsonl());
            let events =
                p.cells("obs-tools.parse_jsonl", label, |mark| parse_in_chunks(&jsonl, mark));
            let events = match events {
                Ok(events) => events,
                Err(e) => {
                    p.errors.push(format!("{label}: the exported log does not parse back: {e:?}"));
                    continue;
                }
            };
            let spans = p.cell("obs-tools.check_spans", label, || check_spans(&events));
            let (offline_ops, offline) = p.cells("obs-tools.stream_trace_checker", label, |mark| {
                let mut checker = StreamTraceChecker::new(StreamConfig::default());
                for chunk in events.chunks(LINES_PER_CELL) {
                    for ev in chunk {
                        checker.observe(ev);
                    }
                    mark();
                }
                checker.finish()
            });
            let batch = p
                .cell("consistency.batch_checkers", label, || batch_reports(tr, &log.result.trace));
            let unbounded =
                p.cell("consistency.stream_verifier", label, || verify_in_process(records, None));
            let windowed = p.cell("consistency.stream_verifier_windowed", label, || {
                verify_in_process(records, Some(WINDOW))
            });

            p.checking(|p| {
                let ops = records.len() as u64;
                let scripted = log.experiment.workload.total_ops();
                let batch_json = batch.tuple_json();
                // An op is judged wrongly when the three ways of
                // checking it do not tell the same story.
                let agree =
                    stream_json(&offline) == batch_json && stream_json(&unbounded) == batch_json;
                p.units += ops;
                p.attempted += scripted;
                p.failed += scripted - ops.min(scripted) + if agree { 0 } else { ops };
                p.check(agree, || {
                    format!("{label}: offline-stream, in-process-stream and batch reports differ")
                });
                p.check(offline_ops == ops, || {
                    format!("{label}: the log holds {offline_ops} ops, the trace {ops}")
                });
                p.check(log.result.metrics.events_dropped == 0, || {
                    format!(
                        "{label}: the recorder dropped {} events",
                        log.result.metrics.events_dropped
                    )
                });
                p.check(spans.ok(), || format!("{label}: span check failed on the exported log"));
                p.check(
                    violation_keys(&windowed.violations)
                        .is_subset(&violation_keys(&unbounded.violations)),
                    || {
                        format!(
                            "{label}: the windowed verifier flagged what the unbounded one did not"
                        )
                    },
                );
                p.digest.str(&jsonl);
                p.digest.str(&batch_json);
                p.digest.json(&(
                    &offline.violations,
                    &windowed.violations,
                    windowed.events_evicted,
                ));
                p.count("ops", ops as f64);
                p.count("events", events.len() as f64);
                p.count("bytes", jsonl.len() as f64);
                p.count("evicted", windowed.events_evicted as f64);
                p.count("violations", batch.violations() as f64);
            });
        }
    }

    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics) {
        let (ops, events) = (t.count("ops"), t.count("events"));
        m.put("obs.export_ns_per_event", "ns", ratio(t.ns("obs.export_jsonl"), events));
        m.put("obs.export_bytes_per_event", "B", ratio(t.count("bytes"), events));
        m.put("obs-tools.parse_ns_per_event", "ns", ratio(t.ns("obs-tools.parse_jsonl"), events));
        m.put(
            "obs-tools.check_spans_ns_per_event",
            "ns",
            ratio(t.ns("obs-tools.check_spans"), events),
        );
        m.put(
            "obs-tools.stream_check_ns_per_event",
            "ns",
            ratio(t.ns("obs-tools.stream_trace_checker"), events),
        );
        for (metric, span) in [
            ("consistency.session_ns_per_op", "consistency.check_session_guarantees"),
            ("consistency.staleness_ns_per_op", "consistency.measure_staleness"),
            ("consistency.monotonic_ns_per_op", "consistency.check_monotonic_values"),
            ("consistency.convergence_ns_per_op", "consistency.check_convergence"),
            ("consistency.stream_ns_per_op", "consistency.stream_verifier"),
            ("consistency.stream_windowed_ns_per_op", "consistency.stream_verifier_windowed"),
        ] {
            m.put(metric, "ns", ratio(t.ns(span), ops));
        }
        m.put("consistency.stream_evicted", "count", t.count("evicted") / t.passes);
        m.put("consistency.violations_found.trace", "count", t.count("violations") / t.passes);
        m.put("obs.events_per_op", "count", ratio(events, ops));

        // Ablation: what keeping the event log cost the set-up runs.
        let logged_s: f64 = self.logs.iter().map(|l| l.logged_s).sum();
        let disabled_s: f64 = self.logs.iter().map(|l| timed(|| l.experiment.run()).1).sum();
        m.put("obs.eventlog_overhead_ratio", "ratio", ratio(logged_s, disabled_s));
    }
}
