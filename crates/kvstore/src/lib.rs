#![deny(missing_docs)]
//! # kvstore — the single-replica storage substrate
//!
//! Every replica in the `replication` crate is backed by one of these: a
//! multi-version in-memory key-value store with a write-ahead log. The
//! pieces:
//!
//! * [`Value`] — cheap, immutable byte values (one shared `Arc<[u8]>`)
//!   with `u64` encode/decode helpers (experiments store unique write ids
//!   as values).
//! * [`Version`] / [`MvStore`] — timestamp-ordered version chains per key;
//!   supports latest reads and range scans.
//!   This is the store for LWW-arbitrated and primary-copy protocols.
//! * [`SiblingStore`] — a dotted-version-vector store keeping concurrent
//!   siblings per key (the Dynamo/Riak model); used by the multi-master
//!   protocols when the conflict policy is "expose siblings".
//! * [`Wal`] — an append-only write-ahead log with sequence numbers,
//!   replay, and snapshot-truncation; recovery tests rebuild a store from
//!   the log and check equivalence.

pub mod siblings;
pub mod store;
pub mod value;
pub mod wal;

pub use siblings::SiblingStore;
pub use store::{MvStore, Version};
pub use value::{Key, Value};
pub use wal::{LogRecord, Wal};
