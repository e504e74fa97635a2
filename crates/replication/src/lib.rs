//! # replication — the protocols the tutorial taxonomizes
//!
//! One module per protocol family, each a deterministic `simnet` replica
//! actor plus the protocol's side of the one client actor:
//!
//! | Module | Scheme | Where writes go | Propagation | Consistency |
//! |---|---|---|---|---|
//! | [`eventual`] | multi-master | any replica | async broadcast + anti-entropy gossip | eventual (LWW or siblings), optional session guarantees |
//! | [`quorum`] | multi-master | coordinator fans out to N | sync to W, async rest | tunable: R+W>N fresh, partial quorums stale (PBS) |
//! | [`primary`] | primary copy | the primary | sync (acks) or async (log shipping) | strong at primary, bounded-stale at backups |
//! | [`paxos`] | consensus log | elected leader | Multi-Paxos majority commit | linearizable ops |
//! | [`causal`] | multi-master | any replica | dependency-delayed broadcast | causal+ (COPS-style) |
//!
//! The protocols are built from the shared layers in [`kernel`]:
//! durability ([`kernel::durability`]), propagation mechanics
//! ([`kernel::propagation`]), and conflict resolution
//! ([`kernel::resolution`]). A [`kernel::Composition`] names one point
//! of the update site × propagation × resolution × durability space and
//! is the only configuration this crate takes: replicas and clients are
//! constructed from it, and what no deployment varies (timeouts,
//! heartbeats) is a constant of the module that uses it.
//!
//! The client is [`common::SessionClient`], one generic actor: a
//! scripted session that issues reads/writes, times out, and records
//! every operation into the run's [`sink::TraceSink`], whose
//! `simnet` op-trace the `consistency` crate's checkers consume. Each protocol module implements
//! [`common::ClientProtocol`] for it (target choice, request/reply
//! mapping, its private hooks). A new protocol is one replica actor, one
//! `ClientProtocol` impl and one arm in `rec-core`'s runner.
#![deny(missing_docs)]

pub mod causal;
pub mod common;
pub mod eventual;
pub mod kernel;
pub mod paxos;
pub mod primary;
pub mod quorum;
pub mod sharded;
pub mod sink;

pub use common::{Guarantees, OpOutcome, ScriptOp, SessionClient, TargetPolicy};
pub use kernel::Composition;
