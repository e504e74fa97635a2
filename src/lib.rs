//! # rethinking-ec — an executable taxonomy of eventual consistency
//!
//! A reproduction, as a working system, of the design space surveyed in
//! Philip A. Bernstein and Sudipto Das, *"Rethinking Eventual
//! Consistency"* (SIGMOD 2013 tutorial). The tutorial has no artifact of
//! its own, so this workspace builds the laboratory it describes:
//!
//! * [`simnet`] — a deterministic discrete-event simulator (virtual time,
//!   seeded randomness, latency models, partitions, crashes),
//! * [`obs`] — the structured observability layer: typed simulation
//!   event log, causal operation spans, per-node protocol counters,
//!   latency histograms, windowed time series (the metrics contract is
//!   documented in `docs/METRICS.md`, the span model in
//!   `docs/TRACING.md`),
//! * [`obs_tools`] — offline analysis of a run's artifacts and the one
//!   CLI in front of it, `tracequery`: span-tree reconstruction,
//!   violation explanation, span conservation checking, Chrome
//!   `trace_event` export, top / diff / folded views of a handler
//!   profile,
//! * [`clocks`] — Lamport/vector/dotted-version-vector clocks,
//! * [`crdt`] — convergent replicated data types with lattice-law tests,
//! * [`kvstore`] — the per-replica storage substrate (MVCC + WAL +
//!   DVV sibling store),
//! * [`replication`] — the protocols: eventual (anti-entropy), quorums,
//!   primary-copy, Multi-Paxos, causal broadcast,
//! * [`consistency`] — trace checkers: session guarantees, staleness,
//!   linearizability, causal anomalies,
//! * [`sla`] — Pileus-style consistency SLAs,
//! * [`txn`] — entity-group transactions with 2PC / registrar commit,
//! * [`workload`] — YCSB-style workload generation,
//! * [`core`] (the `rec-core` crate) — the one-stop API:
//!   `Experiment::new(Scheme::…).run()`.
//!
//! Start with `examples/quickstart.rs`; the experiment suite lives in
//! `crates/bench/src/bin/` (one binary per table/figure in
//! EXPERIMENTS.md).

pub use clocks;
pub use consistency;
pub use crdt;
pub use kvstore;
pub use obs;
pub use obs_tools;
pub use rec_core as core;
pub use replication;
pub use simnet;
pub use sla;
pub use txn;
pub use workload;
