//! # consistency — what did the clients actually observe?
//!
//! The tutorial's taxonomy only means something if each guarantee can be
//! *checked*. This crate consumes the operation traces recorded by
//! `simnet`/`replication` — never protocol internals, so a buggy protocol
//! cannot hide from its checker — and answers:
//!
//! * [`session`] — how often were the four Bayou session guarantees
//!   (read-your-writes, monotonic reads, monotonic writes,
//!   writes-follow-reads) violated?
//! * [`staleness`] — how stale were reads, in time and in versions
//!   (k-staleness), PBS-style? Plus bounded-staleness accounting.
//! * [`linearizability`] — is the per-key register history linearizable
//!   (the exact O(n log n) zone check of Gibbons & Korach, as Golab et al.
//!   state it)?
//! * [`causal`] — did any client observe a write without its causal
//!   dependencies (the COPS photo-ACL anomaly)?
//! * [`convergence`] — once writes stopped, did replicas actually agree
//!   ("eventual" made falsifiable)?
//! * [`monotonic`] — did any session watch an inflationary CRDT counter
//!   go backwards (value-level monotonic reads, where stamps don't apply)?
//! * [`attribution`] — given the structured simulation event log
//!   (`obs`), *why* was a guarantee violated: partition, crash, message
//!   loss, or pure replication lag?
//! * [`stream`] — how the session, staleness, convergence and monotonic
//!   checkers are driven. Each states its guarantee once, as a `judge`
//!   of one completed operation against its own table; the whole-trace
//!   functions fold their judge over a finished trace, and
//!   [`StreamVerifier`] — the one owner of every guarantee's table, with
//!   one watermark-driven eviction — feeds all four online, so
//!   arbitrarily long runs verify in flat memory. The reference they are
//!   held to is the all-pairs oracle under `tests/oracle/` (see
//!   `docs/CHECKERS.md`).
//!
//! Conventions shared by all checkers: every write carries a globally
//! unique value, so a read unambiguously identifies the write it observed;
//! logical version order is the Lamport `(counter, actor)` stamp recorded
//! in the trace.

pub mod attribution;
pub mod causal;
pub mod convergence;
pub mod linearizability;
pub mod monotonic;
pub mod session;
pub mod staleness;
pub mod stream;

pub use attribution::{
    all_spans, attribute_violation, attribute_violation_in, causal_chain, spans_at, SpanAt,
    SpanTable, ViolationContext,
};
pub use causal::{check_causal, CausalReport};
pub use convergence::{
    check_convergence, check_owner_convergence, ConvergenceReport, Divergence,
    OwnerConvergenceReport, OwnerDivergence,
};
pub use linearizability::{
    check_linearizable_register, check_trace_linearizable, Interval, LinCheckError, RegOp,
};
pub use monotonic::{check_monotonic_values, MonotonicValueReport};
pub use session::{check_session_guarantees, SessionReport};
pub use staleness::{measure_staleness, StalenessReport};
pub use stream::{
    StreamConfig, StreamReports, StreamVerifier, StreamViolation, ViolationKind, Watermark,
};
