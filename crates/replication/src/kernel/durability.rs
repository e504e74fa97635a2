//! The durability layer: what a replica's state owes to stable storage.
//!
//! Every protocol used to carry its own private WAL discipline; the
//! kernel unifies them as a [`DurabilityPolicy`] naming what an amnesia
//! crash may erase, plus the two evented operations on a replica's
//! [`kvstore::Wal`]: [`log`] an adopted version and [`replay`] the log.
//! The simulator models durability, it does not perform real I/O: a
//! "durable" structure is simply one the actor keeps across
//! `on_recover(amnesia = true)`, and a volatile one is rebuilt — by WAL
//! replay here, or by anti-entropy from peers.

use clocks::LamportClock;
use kvstore::{Key, MvStore, Value, Wal};
use obs::EventKind;
use simnet::Context;

/// What survives an amnesia crash (the durability axis of a
/// [`super::Composition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Nothing survives; peers refill state via anti-entropy.
    Volatile,
    /// A WAL of adopted versions survives; replay rebuilds the store and
    /// the Lamport clock. State the WAL does not capture (sibling sets,
    /// CRDT state in the eventual protocol) is volatile.
    WalReplay,
    /// WAL plus a periodic checkpoint snapshot survive (the primary-copy
    /// log-shipping discipline: the log is truncated at each checkpoint
    /// and recovery replays the tail over the snapshot).
    CheckpointedWal,
    /// Every applied state change is fsynced before acknowledgement: the
    /// full store survives (the model Paxos acceptors already use for
    /// their promised/accepted/committed state).
    FsyncedState,
}

/// Append one adopted version to `wal`, recording the
/// [`EventKind::WalAppend`]. Returns the record's sequence number.
/// Protocols with richer log needs (shipping tails, truncation,
/// sequence math) use the [`Wal`] directly and route only the evented
/// operations through here.
pub fn log<M>(
    wal: &mut Wal,
    ctx: &mut Context<M>,
    key: Key,
    value: Value,
    ts: clocks::LamportTimestamp,
    written_at: u64,
) -> u64 {
    ctx.record(EventKind::WalAppend {
        node: ctx.self_id().0 as u64,
        key,
        bytes: value.len() as u64,
    });
    wal.append(key, value, ts, written_at)
}

/// Amnesia recovery: rebuild a store from `wal` (over `snapshot` when
/// checkpointing), advance `clock` past every logged stamp so fresh
/// writes sort after replayed ones, and record the
/// [`EventKind::WalReplay`].
pub fn replay<M>(
    wal: &Wal,
    ctx: &mut Context<M>,
    snapshot: Option<&MvStore>,
    clock: Option<&mut LamportClock>,
) -> MvStore {
    let store = wal.recover(snapshot);
    if let Some(clock) = clock {
        for rec in wal.tail(0) {
            clock.observe(rec.ts, 0);
        }
    }
    ctx.record(EventKind::WalReplay { node: ctx.self_id().0 as u64, records: wal.len() as u64 });
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_state_starts_empty() {
        let wal = Wal::new();
        assert_eq!(wal.len(), 0);
        assert_eq!(wal.next_seq(), 1);
        assert_eq!(wal.recover(None), MvStore::new());
    }
}
