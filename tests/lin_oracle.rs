//! Integration: the linearizability checker, held to the search it
//! replaced.
//!
//! `consistency::check_linearizable_register` decides a register history
//! by the zone check. The memoised Wing & Gong search it replaced lives on
//! as `tests/oracle/lin.rs`, and this suite holds the two against each
//! other:
//!
//! * **agreement** — seeded histories of at most eight ops from two
//!   generators, with times drawn from `[0, T]` for several small `T` so
//!   that ties and zero-width ops are common, reads of `None` and of
//!   values nobody wrote among them: both checkers give the same verdict
//!   on every one, and each generator yields each verdict often enough
//!   that a checker answering one way throughout fails;
//! * **a real positive control** — the history of one key of a Paxos
//!   fuzz case, frozen as literals, which both reject, and which both
//!   accept without its offending read.

use rethinking_ec::consistency::{check_linearizable_register, Interval, RegOp};
use rethinking_ec::simnet::SimRng;

#[path = "oracle/lin.rs"]
mod oracle;

/// Time horizons `T`: times are drawn from `[0, T]`.
const HORIZONS: [u64; 4] = [4, 6, 10, 30];

/// Histories drawn per generator and horizon.
const PER_HORIZON: usize = 3_000;

/// The most ops a drawn history has.
const MAX_OPS: u64 = 8;

/// A value no drawn write writes.
const UNWRITTEN: u64 = 1_000;

/// An interval within `[0, horizon]`; a quarter of them zero-width.
fn interval(rng: &mut SimRng, horizon: u64) -> (u64, u64) {
    let invoke = rng.below(horizon + 1);
    let ret = if rng.chance(0.25) { invoke } else { rng.range(invoke, horizon + 1) };
    (invoke, ret)
}

/// What a read that is not bound to a write returns: `None`, one of the
/// values `1..=writes`, or a value nobody wrote.
fn read_value(rng: &mut SimRng, writes: u64) -> Option<u64> {
    match rng.below(8) {
        0 | 1 => None,
        2 => Some(UNWRITTEN),
        _ if writes == 0 => None,
        _ => Some(rng.range(1, writes + 1)),
    }
}

/// Random ops: each op a write of the next fresh value or a read of any
/// value, over a random interval.
fn random_ops(rng: &mut SimRng, horizon: u64) -> Vec<Interval> {
    let n = rng.range(1, MAX_OPS + 1);
    let kinds: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let writes = kinds.iter().filter(|&&write| write).count() as u64;
    let mut written = 0;
    kinds
        .into_iter()
        .map(|write| {
            let (invoke, ret) = interval(rng, horizon);
            let op = if write {
                written += 1;
                RegOp::Write(written)
            } else {
                RegOp::Read(read_value(rng, writes))
            };
            Interval { invoke, ret, op }
        })
        .collect()
}

/// An execution: each op takes effect at a random point inside its
/// interval, and each read returns what the last write before its point
/// wrote — linearizable by construction. Then one read, if there is one,
/// returns something else.
fn perturbed_execution(rng: &mut SimRng, horizon: u64) -> Vec<Interval> {
    let n = rng.range(1, MAX_OPS + 1) as usize;
    let mut ops: Vec<(u64, Interval)> = (0..n)
        .map(|_| {
            let point = rng.below(horizon + 1);
            let invoke = point - rng.below(point + 1);
            let ret = point + rng.below(horizon - point + 1);
            let op = if rng.chance(0.5) { RegOp::Write(0) } else { RegOp::Read(None) };
            (point, Interval { invoke, ret, op })
        })
        .collect();
    // A stable sort keeps draw order among equal points; any order of
    // those is a legal linearization.
    ops.sort_by_key(|&(point, _)| point);
    let mut value = None;
    let mut written = 0;
    for (_, iv) in &mut ops {
        match &mut iv.op {
            RegOp::Write(v) => {
                written += 1;
                *v = written;
                value = Some(written);
            }
            RegOp::Read(v) => *v = value,
        }
    }
    let mut history: Vec<Interval> = ops.into_iter().map(|(_, iv)| iv).collect();
    let reads: Vec<usize> = (0..n).filter(|&i| matches!(history[i].op, RegOp::Read(_))).collect();
    if !reads.is_empty() {
        let i = reads[rng.index(reads.len())];
        let RegOp::Read(old) = history[i].op else { unreachable!("a read was picked") };
        let new = loop {
            let v = read_value(rng, written);
            if v != old {
                break v;
            }
        };
        history[i].op = RegOp::Read(new);
    }
    rng.shuffle(&mut history);
    history
}

/// Run one generator over every horizon; panic on the first disagreement,
/// and return how many histories were linearizable and how many were not.
fn agree(name: &str, seed: u64, generate: fn(&mut SimRng, u64) -> Vec<Interval>) -> (usize, usize) {
    let (mut yes, mut no) = (0, 0);
    for (h, horizon) in HORIZONS.into_iter().enumerate() {
        let mut rng = SimRng::new(seed + h as u64);
        for i in 0..PER_HORIZON {
            let history = generate(&mut rng, horizon);
            let want = oracle::linearizable(&history);
            assert_eq!(
                check_linearizable_register(&history),
                want,
                "{name}, T = {horizon}, history {i}: oracle says {want} for {history:?}"
            );
            if want {
                yes += 1;
            } else {
                no += 1;
            }
        }
    }
    (yes, no)
}

/// Each verdict must make up at least a fifth of a generator's histories.
fn assert_balanced(name: &str, (yes, no): (usize, usize)) {
    let total = yes + no;
    assert_eq!(total, HORIZONS.len() * PER_HORIZON);
    assert!(
        yes * 5 >= total && no * 5 >= total,
        "{name}: {yes} linearizable and {no} not, of {total}: too one-sided to test a checker"
    );
}

#[test]
fn zone_check_agrees_with_the_search_on_random_ops() {
    assert_balanced("random ops", agree("random ops", 0x11_0000, random_ops));
}

#[test]
fn zone_check_agrees_with_the_search_on_perturbed_executions() {
    assert_balanced("perturbed", agree("perturbed", 0x22_0000, perturbed_execution));
}

fn w(invoke: u64, ret: u64, v: u64) -> Interval {
    Interval { invoke, ret, op: RegOp::Write(v) }
}

fn r(invoke: u64, ret: u64, v: u64) -> Interval {
    Interval { invoke, ret, op: RegOp::Read(Some(v)) }
}

/// Key 2's successful ops in the Paxos fuzz case of heavy seed 412, as
/// `fuzz_nemesis` judged it when this fixture was frozen (times in µs).
/// The first read returns `4294967306`, the value of a write whose client
/// gave up after its 4 s budget, so no successful write wrote it.
fn paxos_412_key_2() -> Vec<Interval> {
    vec![
        r(8_057_900, 8_059_990, 4_294_967_306),
        w(8_101_888, 8_103_765, 4_294_967_311),
        w(8_167_295, 8_169_382, 8_589_934_612),
        r(8_190_439, 8_192_464, 8_589_934_612),
        w(8_223_045, 8_224_648, 12_884_901_906),
        r(8_255_727, 8_257_690, 12_884_901_906),
        r(8_277_690, 8_279_358, 12_884_901_906),
        w(8_364_746, 8_366_591, 8_589_934_621),
        r(8_431_186, 8_432_864, 8_589_934_621),
    ]
}

#[test]
fn paxos_412_history_is_rejected_by_both() {
    let history = paxos_412_key_2();
    assert!(!check_linearizable_register(&history));
    assert!(!oracle::linearizable(&history));
    let without_read = &history[1..];
    assert!(check_linearizable_register(without_read));
    assert!(oracle::linearizable(without_read));
}
