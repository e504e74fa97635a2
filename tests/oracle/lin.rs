//! The reference the linearizability checker is held to: the memoised
//! Wing & Gong search `consistency::linearizability` ran before the zone
//! check replaced it, kept as it was less its state budget and the
//! three-way `Option<bool>` the budget needed: on the histories of at
//! most ten ops this judges, the search always reaches a verdict.
//!
//! It tries every order of the pending ops that respects real time (an op
//! may go next iff no other pending op returned before it was invoked),
//! tracking the register's one value, and memoises `(done-set, value)`
//! pairs that led nowhere (Lowe's optimisation). That is its point: it
//! knows nothing of groups or zones, so `tests/lin_oracle.rs` can hold
//! the two against each other. It shares only `Interval` and `RegOp` with
//! the crate and never calls a `check_*` function.
//!
//! Never compiled into a crate. Exponential in the number of concurrent
//! ops: meant for the small histories the agreement suite draws.

use rethinking_ec::consistency::{Interval, RegOp};
use std::collections::HashSet;

/// Whether `history` has a legal linearization.
///
/// # Panics
/// If the history exceeds 126 ops (the done-set is a `u128` mask).
pub fn linearizable(history: &[Interval]) -> bool {
    let n = history.len();
    assert!(n <= 126, "history too large for the bitmask search");
    if n == 0 {
        return true;
    }
    let full: u128 = (1u128 << n) - 1;
    let mut visited: HashSet<(u128, Option<u64>)> = HashSet::new();
    search(history, 0, None, full, &mut visited)
}

fn search(
    hist: &[Interval],
    done: u128,
    state: Option<u64>,
    full: u128,
    visited: &mut HashSet<(u128, Option<u64>)>,
) -> bool {
    if done == full {
        return true;
    }
    if !visited.insert((done, state)) {
        return false;
    }
    // An op may linearize next iff no *other* pending op returned before
    // this op was invoked (real-time order would be violated otherwise).
    let min_ret = hist
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, iv)| iv.ret)
        .min()
        .expect("pending op exists");
    for (i, iv) in hist.iter().enumerate() {
        if done & (1 << i) != 0 || iv.invoke > min_ret {
            continue;
        }
        let next = match iv.op {
            RegOp::Write(v) => Some(v),
            RegOp::Read(v) if v == state => state,
            RegOp::Read(_) => continue,
        };
        if search(hist, done | (1 << i), next, full, visited) {
            return true;
        }
    }
    false
}
