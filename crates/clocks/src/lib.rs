//! # clocks — logical time for replicated systems
//!
//! The consistency taxonomy in Bernstein & Das's tutorial rests on
//! *happens-before*: session guarantees, causal consistency, and convergent
//! conflict resolution are all phrased in terms of which events a replica
//! has seen. This crate provides the standard machinery:
//!
//! * [`LamportClock`] — scalar logical clocks (Lamport 1978); totally
//!   ordered, used for last-writer-wins timestamps.
//! * [`VectorClock`] — one counter per actor; captures happens-before
//!   exactly, at the price of `O(actors)` space.
//! * [`VersionVector`] — the same lattice as a vector clock but used to
//!   summarize *sets of writes seen by a replica*; the workhorse of session
//!   guarantees and anti-entropy.
//! * [`Dot`] / [`DottedVersionVector`] — a version vector plus one explicit
//!   "dot", resolving the classic sibling-explosion problem of plain
//!   version vectors in multi-value registers.
//!
//! All clock types are join-semilattices under their merge operation; the
//! property tests in each module check commutativity, associativity,
//! idempotence, and monotonicity.

pub mod lamport;
pub mod ordering;
pub mod vector;

pub use lamport::{LamportClock, LamportTimestamp};
pub use ordering::CausalOrd;
pub use vector::{Dot, DottedVersionVector, VectorClock, VersionVector};

/// Identifies an actor (replica or client session) in a logical clock.
///
/// Plain `u64` rather than a newtype so that callers can use whatever id
/// space they already have (simnet `NodeId.0 as u64`, session ids, ...).
pub type ActorId = u64;
