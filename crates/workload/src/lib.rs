//! # workload — synthetic workload generation
//!
//! Experiments drive the replicated store with synthetic workloads in the
//! YCSB tradition: a key-popularity distribution ([`KeyDistribution`],
//! including the standard Zipfian generator), an operation mix
//! ([`OpMix`] with the YCSB A and B presets), and an arrival process
//! ([`Arrival`]: closed loop with a think time). [`WorkloadSpec`]
//! bundles the three plus the key-space size.
//!
//! Every sampler draws from a `simnet::SimRng`, so a seeded generator
//! makes workloads fully deterministic.

pub mod arrival;
pub mod keys;
pub mod mix;
pub mod spec;

pub use arrival::Arrival;
pub use keys::{KeyDistribution, ZipfSampler};
pub use mix::{OpMix, WorkloadOp};
pub use spec::WorkloadSpec;
