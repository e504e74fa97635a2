//! # workload — synthetic workload generation
//!
//! Experiments drive the replicated store with synthetic workloads in the
//! YCSB tradition: a key-popularity distribution ([`KeyDistribution`],
//! including the standard Zipfian generator), an operation mix
//! ([`OpMix`] with the YCSB A and B presets), and an arrival process
//! ([`Arrival`]: open/Poisson or closed/think-time). [`WorkloadSpec`]
//! bundles the three plus the key-space size.
//!
//! Everything samples through `rand::Rng`, so feeding a seeded
//! `simnet::SimRng` makes workloads fully deterministic.

pub mod arrival;
pub mod keys;
pub mod mix;
pub mod spec;

pub use arrival::Arrival;
pub use keys::{KeyDistribution, ZipfSampler};
pub use mix::{OpMix, WorkloadOp};
pub use spec::WorkloadSpec;
