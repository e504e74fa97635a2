//! # rec-core — the executable taxonomy
//!
//! The paper's contribution is a map of the eventual-consistency design
//! space; this crate makes the map executable. Pick a point in the space
//! — a [`Scheme`] — attach a workload, a network, and a fault schedule —
//! an [`Experiment`] — and [`Experiment::run`] deterministically simulates
//! the deployment and returns the full client-visible history plus
//! summary [`metrics`]:
//!
//! ```
//! use rec_core::{Experiment, Scheme};
//! use workload::WorkloadSpec;
//!
//! let result = Experiment::new(Scheme::quorum(3, 2, 2))
//!     .workload(WorkloadSpec::small())
//!     .seed(42)
//!     .run();
//! assert!(result.trace.len() > 0);
//! let lat = rec_core::metrics::latency_summary(&result.trace);
//! assert!(lat.reads.count + lat.writes.count > 0);
//! ```
//!
//! Each scheme maps onto one protocol from the `replication` crate; the
//! consistency checkers from `consistency` run directly on
//! [`RunResult::trace`].
//!
//! For statistical depth, sweep variants × seeds through a [`Grid`]: the
//! cells run concurrently on a worker pool and merge back in
//! deterministic grid order (see [`grid`]).
//!
//! To go looking for guarantee violations instead of measuring healthy
//! runs, aim the [`fuzz`] harness at the schemes: seeded nemesis
//! schedules, consistency checking, and delta-debugged minimal
//! reproducers (see `docs/NEMESIS.md`).

#![warn(missing_docs)]

pub mod fuzz;
pub mod grid;
pub mod metrics;
pub mod probe;
pub mod runner;
pub mod scheme;

pub use fuzz::{CampaignReport, CaseReport, FuzzCase, FuzzScheme, Verdict, ViolationKind};
pub use grid::{default_jobs, par_map, CellResult, Grid};
pub use runner::{Experiment, RunResult};
pub use scheme::{ClientPlacement, Scheme};
