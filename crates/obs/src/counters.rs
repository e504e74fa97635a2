//! Typed protocol counters.
//!
//! Counters are a closed enum rather than free-form strings so that a
//! typo is a compile error, the metrics contract in `docs/METRICS.md`
//! can enumerate every counter exhaustively, and storage is a flat
//! array (no hashing on the hot path). The `names!` table below declares
//! each counter once, with its export name; `ALL`, `COUNT`, `name` and
//! `from_name` are generated from it, so a new counter is one line there
//! (plus its row in `docs/METRICS.md`) and reaches every export and
//! merge that walks `ALL`.

names! {
    /// Every counter the observability layer tracks.
    ///
    /// Units and semantics for each are documented in `docs/METRICS.md`;
    /// [`Counter::name`] gives the stable snake_case export name.
    #[derive(PartialOrd, Ord, Hash)]
    #[repr(usize)]
    Counter, "counter" {
        /// Messages handed to the network by senders.
        MessagesSent = "messages_sent",
        /// Messages delivered to a live destination actor.
        MessagesDelivered = "messages_delivered",
        /// Messages dropped (partition, loss, or crashed destination).
        MessagesDropped = "messages_dropped",
        /// Approximate payload bytes handed to the network.
        BytesSent = "bytes_sent",
        /// Approximate payload bytes delivered.
        BytesDelivered = "bytes_delivered",
        /// Anti-entropy (gossip) rounds initiated.
        AntiEntropyRounds = "anti_entropy_rounds",
        /// Read quorums assembled by coordinators.
        QuorumReads = "quorum_reads",
        /// Write quorums assembled by coordinators.
        QuorumWrites = "quorum_writes",
        /// Read-repair writes pushed to stale replicas.
        ReadRepairs = "read_repairs",
        /// Concurrent-sibling conflicts detected.
        ConflictsDetected = "conflicts_detected",
        /// Conflicts collapsed by LWW, merge, or repair.
        ConflictsResolved = "conflicts_resolved",
        /// Records appended to write-ahead logs.
        WalAppends = "wal_appends",
        /// Bytes appended to write-ahead logs.
        WalBytes = "wal_bytes",
        /// Transactions committed.
        TxnCommits = "txn_commits",
        /// Transactions aborted.
        TxnAborts = "txn_aborts",
        /// Timer events fired by the simulator.
        TimersFired = "timers_fired",
        /// Network partitions begun.
        PartitionsStarted = "partitions_started",
        /// Network partitions healed.
        PartitionsHealed = "partitions_healed",
        /// Node crash faults applied.
        Crashes = "crashes",
        /// Node recovery faults applied.
        Recoveries = "recoveries",
        /// Recoveries that wiped volatile state (amnesia restarts).
        AmnesiaRecoveries = "amnesia_recoveries",
        /// WAL records replayed into stores during amnesia recovery.
        WalReplayedRecords = "wal_replayed_records",
        /// Trace spans opened.
        SpansOpened = "spans_opened",
        /// Trace spans closed (any status, including abandoned).
        SpansClosed = "spans_closed",
        /// Trace spans closed as abandoned at shutdown (subset of
        /// `spans_closed`).
        SpansAbandoned = "spans_abandoned",
        /// Hinted-handoff hints parked on spare nodes.
        HintsStored = "hints_stored",
        /// Hints successfully delivered to their home replica and dropped
        /// from the spare.
        HintsDrained = "hints_drained",
        /// Hints lost before delivery (amnesia crash of the holder, or still
        /// undelivered at the run horizon).
        HintsDropped = "hints_dropped",
        /// Keys pushed to new owners during ring membership rebalancing.
        RebalancedKeys = "rebalanced_keys",
        /// Meant for violations flagged by the online streaming consistency
        /// checkers. Nothing bumps it: `consistency::StreamVerifier`
        /// reports its own violations. Kept because labbench's
        /// `result_digest` hashes every counter name through
        /// `MetricsReport`; it goes with the next labbench re-pin.
        StreamViolations = "stream_violations",
        /// Meant for state entries the streaming checkers evict at
        /// watermark advances. Nothing bumps it: the verifier reports
        /// its own count (`StreamReports::events_evicted`). Kept, and
        /// to go, as `stream_violations` above.
        CheckerEventsEvicted = "checker_events_evicted",
        /// Actor handler invocations measured by the profiler (0 unless
        /// profiling is enabled; see `docs/PROFILING.md`).
        HandlerInvocations = "handler_invocations",
        /// Gross bytes allocated inside profiled handlers (0 unless
        /// profiling is enabled and the binary installs
        /// [`crate::CountingAlloc`]).
        AllocBytes = "alloc_bytes",
    }
}

/// A flat, fixed-size set of counter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CounterSet {
    values: [u64; Counter::COUNT],
}

// Derived `Default` stops at 32-element arrays; spell it out.
impl Default for CounterSet {
    fn default() -> Self {
        CounterSet { values: [0; Counter::COUNT] }
    }
}

impl CounterSet {
    pub(crate) fn add(&mut self, counter: Counter, delta: u64) {
        self.values[counter as usize] += delta;
    }

    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Non-zero counters as `(name, value)` pairs, in export order.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c))).filter(|&(_, v)| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            let name = c.name();
            assert!(seen.insert(name), "duplicate counter name {name}");
            assert!(
                name.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "{name} is not snake_case"
            );
        }
        assert_eq!(seen.len(), Counter::COUNT);
    }

    #[test]
    fn counter_set_accumulates() {
        let mut set = CounterSet::default();
        assert!(set.is_empty());
        set.add(Counter::MessagesSent, 2);
        set.add(Counter::MessagesSent, 3);
        assert_eq!(set.get(Counter::MessagesSent), 5);
        assert_eq!(set.nonzero().collect::<Vec<_>>(), vec![("messages_sent", 5)]);
    }
}
