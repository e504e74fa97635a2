//! # simnet — deterministic discrete-event simulation for replication protocols
//!
//! This crate is the substrate every experiment in the workspace runs on. It
//! provides:
//!
//! * a virtual clock ([`SimTime`]) with microsecond resolution,
//! * a deterministic event queue driven by a seeded RNG ([`rng::SimRng`]),
//! * an actor runtime ([`Actor`], [`Sim`]) in which replicas **and** clients
//!   are state machines that exchange messages and set timers,
//! * pluggable message latency models ([`latency::LatencyModel`]),
//! * scripted fault injection ([`faults::FaultSchedule`]): network
//!   partitions, message loss, and node crashes/recoveries,
//! * an operation trace ([`optrace::OpTrace`]) that consistency checkers in
//!   the `consistency` crate consume, and
//! * small statistics helpers ([`stats`]) shared by the benchmark harnesses.
//!
//! ## Determinism
//!
//! A simulation run is a pure function of its configuration and seed: events
//! are ordered by `(virtual time, insertion sequence)`, and all randomness
//! flows from one [`rng::SimRng`]. Re-running with the same seed reproduces
//! every message ordering, latency sample, and fault — which is what makes
//! consistency-violation reports in the experiment suite reproducible.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Context, NodeId, Sim, SimConfig, SimTime};
//!
//! /// A node that forwards a counter around a ring until it reaches 10.
//! struct Ring { n: u32 }
//! impl Actor<u64> for Ring {
//!     fn on_start(&mut self, ctx: &mut Context<u64>) {
//!         if ctx.self_id().0 == 0 {
//!             ctx.send(NodeId(1 % self.n), 1);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
//!         if msg < 10 {
//!             let next = NodeId((ctx.self_id().0 + 1) % self.n);
//!             ctx.send(next, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default().seed(7));
//! for _ in 0..3 {
//!     sim.add_node(Box::new(Ring { n: 3 }));
//! }
//! sim.run_until(SimTime::from_millis(100));
//! assert!(sim.now() > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
// The one exception is the wheel's prefetch hint (`wheel::prefetch`).
#![deny(unsafe_code)]

pub mod event;
pub mod faults;
pub mod idhash;
pub mod latency;
pub mod nemesis;
pub mod optrace;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
mod wheel;

pub use event::{Event, EventPayload};
pub use faults::{FaultEvent, FaultSchedule, Partition};
pub use idhash::{IdHashMap, IdHashSet};
pub use latency::LatencyModel;
pub use nemesis::{IntensityProfile, NemesisEvent};
pub use optrace::{OpKind, OpRecord, OpTrace};
pub use rng::SimRng;
pub use sim::{Actor, Context, MsgMeta, NodeId, Sim, SimConfig};
pub use time::{Duration, SimTime};

// Trace/span vocabulary used by the `Context` tracing API, re-exported
// so actor implementations need not depend on `obs` directly.
pub use obs::{SpanId, SpanStatus};

/// Compile-time audit of the crate's Send/Sync surface, relied on by the
/// parallel grid runner in `rec-core`.
///
/// The *descriptions* of a simulation — config, RNG, fault schedule,
/// latency model, and the finished trace — must be `Send` so a grid cell
/// can be shipped to a worker thread and its results shipped back. The
/// running [`Sim`] itself is intentionally **not** `Send`: its actors
/// hold `Rc<RefCell<..>>` handles (a client's trace sink,
/// `replication::sink::SharedTrace`), so a simulation must start and
/// finish on one thread. Parallelism lives *between* cells, never inside
/// one — see DESIGN.md.
#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn simulation_descriptions_are_send() {
        assert_send::<SimConfig>();
        assert_send::<SimRng>();
        assert_send::<FaultSchedule>();
        assert_send::<LatencyModel>();
        assert_send::<OpTrace>();
        assert_send::<OpRecord>();
        assert_sync::<SimConfig>();
        assert_sync::<FaultSchedule>();
        assert_sync::<LatencyModel>();
    }
}
