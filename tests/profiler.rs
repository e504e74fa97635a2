//! Integration: the deterministic in-sim handler profiler.
//!
//! Two contracts from `docs/PROFILING.md` are enforced here. First, the
//! jobs-invariant projection of a profiled grid — invocation counts and
//! gross allocation tallies per `(scheme, role, handler, variant)` —
//! must be byte-identical whether the grid runs on one worker or four.
//! Second, allocation attribution must not count itself: the recorder's
//! own profile bookkeeping runs under a [`PauseAlloc`] guard, so nested
//! probes and repeated `prof_record` calls see zero profiler-induced
//! allocations.
//!
//! This test binary installs [`CountingAlloc`] as its global allocator,
//! so unlike `obs`'s own unit tests the allocation deltas here are real.

use rethinking_ec::core::{CellResult, Experiment, Grid, Scheme};
use rethinking_ec::obs::{
    alloc_totals, Counter, CountingAlloc, FoldWeight, MetricsReport, PauseAlloc, Probe, ProfSample,
    Recorder,
};
use rethinking_ec::simnet::{Duration, LatencyModel, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn small_workload() -> WorkloadSpec {
    WorkloadSpec {
        keys: 8,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 2_000 },
        sessions: 4,
        ops_per_session: 40,
    }
}

/// A small profiled grid spanning three protocol families.
fn profiled_grid() -> Grid {
    let mk = |scheme: Scheme| {
        Experiment::new(scheme)
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(8),
            })
            .workload(small_workload())
            .seed(17)
            .horizon(SimTime::from_secs(30))
    };
    let mut grid = Grid::new();
    for scheme in [Scheme::eventual(3), Scheme::quorum(3, 2, 2), Scheme::Paxos { nodes: 3 }] {
        grid.push(scheme.label(), mk(scheme));
    }
    grid.profile(true)
}

/// Run the grid at `jobs` workers and fold every cell recorder, in grid
/// order, into one aggregate report — the same aggregation the harness
/// binaries perform.
fn merged_report(jobs: usize) -> MetricsReport {
    let cells: Vec<CellResult> = profiled_grid().seeds(2).run(jobs, Recorder::enabled);
    assert_eq!(cells.len(), 6, "3 schemes x 2 seeds");
    let agg = Recorder::enabled();
    for cell in &cells {
        agg.absorb(&cell.recorder);
    }
    agg.report()
}

#[test]
fn profile_counts_and_alloc_tallies_are_jobs_invariant() {
    let serial = merged_report(1);
    let parallel = merged_report(4);

    let sp = serial.profile.as_ref().expect("serial run carries a profile");
    let pp = parallel.profile.as_ref().expect("parallel run carries a profile");
    assert!(sp.total_invocations() > 0, "profiled grid recorded no handler invocations");
    assert_eq!(sp.schemes.len(), 3, "one profile entry per scheme label");

    // The jobs-invariant projection — counts and allocation tallies per
    // (scheme, role, handler, variant) — must match exactly. Timing is
    // host-dependent and deliberately excluded.
    assert_eq!(
        sp.determinism_key(),
        pp.determinism_key(),
        "profile counts/alloc tallies differ between jobs=1 and jobs=4"
    );

    // So must both jobs-invariant folded-stack exports, byte for byte.
    assert_eq!(sp.to_folded(FoldWeight::Calls), pp.to_folded(FoldWeight::Calls));
    assert_eq!(sp.to_folded(FoldWeight::AllocBytes), pp.to_folded(FoldWeight::AllocBytes));

    // And the rollup counters derived from the same samples.
    assert_eq!(
        serial.counter(Counter::HandlerInvocations),
        parallel.counter(Counter::HandlerInvocations)
    );
    assert_eq!(serial.counter(Counter::AllocBytes), parallel.counter(Counter::AllocBytes));
    assert_eq!(
        serial.counter(Counter::HandlerInvocations),
        sp.total_invocations(),
        "handler_invocations counter must equal the profile's invocation total"
    );
    // This binary installs CountingAlloc, so protocol handlers (which
    // clone buffers, grow maps, ...) must show real allocation traffic.
    assert!(serial.counter(Counter::AllocBytes) > 0, "expected nonzero gross alloc tallies");
}

#[test]
fn unprofiled_runs_carry_no_profile_block() {
    let cells = profiled_grid().profile(false).seeds(1).run(2, Recorder::enabled);
    for cell in &cells {
        assert!(
            cell.recorder.report().profile.is_none(),
            "cell {} grew a profile without --profile",
            cell.label
        );
    }
}

#[test]
fn counting_alloc_tallies_and_pause_guard_suppresses() {
    let before = alloc_totals();
    let buf: Vec<u8> = Vec::with_capacity(4096);
    let after = alloc_totals();
    drop(buf);
    assert!(after.0 >= before.0 + 4096, "allocation was not tallied");
    assert!(after.1 > before.1, "allocation count did not advance");

    // Under a pause guard the same allocation leaves no trace, and the
    // tallies are gross: the drop above subtracted nothing.
    let paused_before = alloc_totals();
    {
        let _guard = PauseAlloc::new();
        let hidden: Vec<u8> = Vec::with_capacity(4096);
        drop(hidden);
    }
    assert_eq!(alloc_totals(), paused_before, "PauseAlloc leaked a tally");
}

#[test]
fn probe_deltas_are_exact_and_repeatable() {
    // Identical work must produce identical deltas: the probe itself
    // and its bookkeeping contribute zero allocations.
    let mut deltas = Vec::new();
    for _ in 0..4 {
        let probe = Probe::start();
        let buf: Vec<u8> = Vec::with_capacity(1024);
        let sample = probe.finish();
        drop(buf);
        deltas.push((sample.alloc_bytes, sample.alloc_count));
    }
    assert!(deltas[0].0 >= 1024, "probe missed the allocation: {deltas:?}");
    assert!(deltas.iter().all(|d| *d == deltas[0]), "unequal deltas: {deltas:?}");
}

#[test]
fn recorder_bookkeeping_does_not_count_itself() {
    // The reentrancy contract: prof_record allocates (BTreeMap nodes,
    // scheme strings) but pauses tallying while it does, so a probe
    // around any number of prof_record calls reads zero.
    let rec = Recorder::enabled();
    rec.enable_profiling();
    rec.set_profile_scheme("reentrancy");
    let sample = ProfSample { wall_ns: 5, alloc_bytes: 64, alloc_count: 1 };

    let probe = Probe::start();
    for _ in 0..100 {
        rec.prof_record("replica", rethinking_ec::obs::HandlerKind::Message, "put", sample);
    }
    let outer = probe.finish();
    assert_eq!(
        (outer.alloc_bytes, outer.alloc_count),
        (0, 0),
        "profile bookkeeping tallied its own allocations"
    );

    // The samples themselves still landed.
    let profile = rec.report().profile.expect("profiling enabled");
    assert_eq!(profile.total_invocations(), 100);
    assert_eq!(profile.determinism_key()[0].1, "replica;on_message:put");
}

#[test]
fn nested_probes_attribute_without_double_counting() {
    // An inner probe sees only its own scope; the outer probe sees both
    // scopes — exactly once each, even though the scopes nest.
    let outer = Probe::start();
    let a: Vec<u8> = Vec::with_capacity(512);
    let inner = Probe::start();
    let b: Vec<u8> = Vec::with_capacity(2048);
    let inner_sample = inner.finish();
    let outer_sample = outer.finish();
    drop((a, b));

    assert_eq!(inner_sample.alloc_bytes, 2048, "inner probe scope is just `b`");
    assert_eq!(inner_sample.alloc_count, 1);
    assert_eq!(outer_sample.alloc_bytes, 512 + 2048, "outer probe covers both scopes once");
    assert_eq!(outer_sample.alloc_count, 2);
}
