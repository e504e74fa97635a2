//! Property tests for the checkers on randomized synthetic op traces.
//!
//! For 100 LCG-derived traces (deliberately anomalous: reads may
//! observe arbitrarily old versions, so staleness, session, and
//! monotonicity violations all occur naturally, and a tail of reads
//! after quiescence disagrees often enough to exercise convergence):
//!
//! * **three-way exact**: the all-pairs oracle (`tests/oracle/`), the
//!   whole-trace checkers and a windowless `StreamVerifier` produce
//!   equal reports, and the oracle and the verifier equal violation
//!   lists;
//! * **bounded = subset**: a windowed run never *invents* a violation —
//!   every flagged violation also appears in the unbounded run
//!   (eviction only drops floors and evidence, it cannot fabricate
//!   them), and violations whose evidence sits inside the watermark
//!   window are still caught.
//!
//! The same three-way comparison on simulated runs and on the
//! `tests/corpus/` reproducers is `checker_stream_parity`.

mod oracle;

use rethinking_ec::consistency::{
    check_convergence, check_monotonic_values, check_session_guarantees, measure_staleness,
    StreamConfig, StreamVerifier, Watermark,
};
use rethinking_ec::simnet::{Duration, NodeId, OpKind, OpRecord, OpTrace, SimTime};

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// A randomized trace where reads observe a uniformly random *earlier*
/// write to their key — old versions included — and one write in eight
/// is stamped a few counters in the past (a replica with a slow clock),
/// so violations of every kind arise across the seed sweep. Sixty mixed
/// operations, then twelve reads starting exactly at the convergence
/// quiescence point, a quarter of which return two sibling values in
/// either order.
fn synth_trace(seed: u64) -> OpTrace {
    let grace_ms = StreamConfig::default().grace.as_micros() / 1_000;
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed | 1);
    let mut t = OpTrace::new();
    let mut history: Vec<Vec<(u64, (u64, u64))>> = vec![Vec::new(); 4];
    let mut now_ms = 0u64;
    let mut last_write_acked_ms = 0u64;
    for i in 0..72u64 {
        let settled = i >= 60;
        now_ms =
            if i == 60 { last_write_acked_ms + grace_ms } else { now_ms + 1 + lcg(&mut s) % 25 };
        let session = lcg(&mut s) % 4;
        let key = lcg(&mut s) % 4;
        let hist = &mut history[key as usize];
        let write = !settled && (lcg(&mut s).is_multiple_of(2) || hist.is_empty());
        let (value_read, stamp) = if write {
            let lag = if lcg(&mut s).is_multiple_of(8) { lcg(&mut s) % 10 } else { 0 };
            // The op index as the actor keeps lagging stamps unique.
            let stamp = ((i + 1).saturating_sub(lag), i);
            hist.push((i + 1, stamp));
            last_write_acked_ms = now_ms + 1;
            (vec![], Some(stamp))
        } else if hist.is_empty() {
            (vec![], None)
        } else {
            let (value, stamp) = hist[(lcg(&mut s) as usize) % hist.len()];
            if settled && lcg(&mut s).is_multiple_of(4) {
                let (sibling, sibling_stamp) = hist[(lcg(&mut s) as usize) % hist.len()];
                (vec![value, sibling], Some(stamp.max(sibling_stamp)))
            } else {
                (vec![value], Some(stamp))
            }
        };
        t.push(OpRecord {
            session,
            op_id: i,
            key,
            kind: if write { OpKind::Write } else { OpKind::Read },
            value_written: write.then_some(i + 1),
            value_read,
            invoked: SimTime::from_millis(now_ms),
            completed: SimTime::from_millis(now_ms + 1),
            replica: NodeId((lcg(&mut s) % 3) as u32),
            ok: true,
            version_ts: None,
            stamp,
        });
    }
    t.sort_by_completion();
    t
}

/// A violation as an identity tuple, for set comparison.
fn key_of(v: &rethinking_ec::consistency::StreamViolation) -> (u8, u64, u64, u64, u64) {
    (v.kind as u8, v.session, v.op_id, v.key, v.t_us)
}

#[test]
fn oracle_whole_trace_and_unbounded_stream_agree_on_100_random_traces() {
    let grace = StreamConfig::default().grace;
    let mut total_violations = 0usize;
    let mut diverged_keys = 0usize;
    for seed in 0..100u64 {
        let trace = synth_trace(seed);
        let (reference, flagged) = oracle::judge(&trace, grace);
        let whole_trace = (
            check_session_guarantees(&trace),
            measure_staleness(&trace),
            check_monotonic_values(&trace),
            check_convergence(&trace, grace),
        );
        assert_eq!(whole_trace, reference, "seed {seed}: whole-trace checkers vs oracle");

        let mut v = StreamVerifier::new(StreamConfig::default());
        for r in trace.records() {
            v.feed(r);
        }
        let online = v.finish();
        assert!(online.violations == flagged, "seed {seed}: unbounded stream violations vs oracle");
        total_violations += online.violations.len();
        diverged_keys += online.convergence.as_ref().map_or(0, |c| c.diverged.len());
        assert_eq!(
            (online.session, online.staleness, online.monotonic, online.convergence),
            reference,
            "seed {seed}: unbounded stream vs oracle"
        );
    }
    // The sweep must actually exercise the checkers, not vacuously pass
    // on 100 clean traces.
    assert!(total_violations > 100, "sweep too clean: {total_violations} violations in 100 traces");
    assert!(diverged_keys > 100, "settled reads too agreeable: {diverged_keys} diverged keys");
}

#[test]
fn bounded_window_never_invents_violations_on_100_random_traces() {
    let window = Duration::from_millis(120);
    let mut evicted_somewhere = false;
    for seed in 0..100u64 {
        let trace = synth_trace(seed);
        let mut exact = StreamVerifier::new(StreamConfig::default());
        for r in trace.records() {
            exact.feed(r);
        }
        let exact = exact.finish();
        let exact_set: std::collections::BTreeSet<_> =
            exact.violations.iter().map(key_of).collect();

        let mut bounded =
            StreamVerifier::new(StreamConfig { window: Some(window), ..StreamConfig::default() });
        for r in trace.records() {
            bounded.feed(r);
            bounded.advance(Watermark::at(r.completed));
        }
        let bounded = bounded.finish();
        evicted_somewhere |= bounded.events_evicted > 0;
        for v in &bounded.violations {
            assert!(
                exact_set.contains(&key_of(v)),
                "seed {seed}: bounded run invented {v:?} — eviction caused a false verdict"
            );
        }
        // Violations whose evidence sits inside the watermark window
        // are still caught: a stale read observes a version and the
        // fresher write it missed; if both fall within `window` of the
        // read, eviction cannot have dropped the evidence.
        let windowed_staleness: Vec<_> = exact
            .violations
            .iter()
            .filter(|v| {
                v.kind == rethinking_ec::consistency::ViolationKind::StaleRead
                    && v.t_us <= window.as_micros()
            })
            .collect();
        let bounded_set: std::collections::BTreeSet<_> =
            bounded.violations.iter().map(key_of).collect();
        for v in windowed_staleness {
            assert!(
                bounded_set.contains(&key_of(v)),
                "seed {seed}: in-window violation {v:?} was missed by the bounded run"
            );
        }
        assert!(
            bounded.session.ryw_violations <= exact.session.ryw_violations
                && bounded.staleness.stale_reads <= exact.staleness.stale_reads
                && bounded.monotonic.violations <= exact.monotonic.violations,
            "seed {seed}: bounded counts exceeded exact counts"
        );
    }
    assert!(evicted_somewhere, "window never evicted: the bounded property was not exercised");
}
