#![deny(missing_docs)]
//! # crdt — convergent conflict resolution
//!
//! The tutorial's answer to "what happens when concurrent writes meet?" is
//! *convergent merge functions*: if replica states form a join-semilattice
//! and updates are inflations, replicas that have seen the same updates are
//! in the same state regardless of delivery order — eventual consistency by
//! construction rather than by timestamp arbitration.
//!
//! This crate provides the state-based CRDTs (CvRDTs) the lab runs —
//! ship your whole state; the receiver joins:
//! * [`GCounter`], [`PnCounter`] — grow-only / increment-decrement
//!   counters; [`PnCounter`] is the state behind the `CrdtMerge`
//!   resolution (E6, `mm+gossip+crdt`, the fuzzer)
//! * [`OrSet`] — add-wins observed-remove set
//!
//! Every type satisfies the semilattice laws (commutativity,
//! associativity, idempotence) and update inflation; `proptest` suites in
//! each module check them, and integration tests check *convergence*: any
//! permutation of pairwise merges reaches the same state.

pub mod counter;
pub mod set;

pub use counter::{GCounter, PnCounter};
pub use set::OrSet;

/// A state-based (convergent) replicated data type.
///
/// `merge` must be a join: commutative, associative, idempotent, and an
/// upper bound of both inputs. Local mutators must be inflations (the new
/// state merged with the old equals the new state).
pub trait CvRdt: Clone {
    /// Join `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Join, returning the result.
    fn merged(mut self, other: &Self) -> Self
    where
        Self: Sized,
    {
        self.merge(other);
        self
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::CvRdt;

    /// Merge a slice of replica states in the given order, starting from a
    /// seed state. Used by convergence tests to compare permutations.
    pub fn merge_all<T: CvRdt>(seed: T, states: &[T], order: &[usize]) -> T {
        let mut acc = seed;
        for &i in order {
            acc.merge(&states[i]);
        }
        acc
    }
}
