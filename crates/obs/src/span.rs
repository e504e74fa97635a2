//! Trace and span identifiers for causal operation tracing.
//!
//! A **trace** groups every event caused by one client operation (a
//! read, a write, or a transaction): the client issue, the coordinator
//! hop, each per-replica send/ack, read-repair pushes, and the final
//! completion. A **span** is one node-scoped step inside a trace; spans
//! nest (each span knows its parent) so the log reconstructs into a
//! span *tree* per operation.
//!
//! Both ids are `u64`s (a span id travels as the [`SpanId`] newtype)
//! allocated by the simulator from a serial per-run counter, which
//! makes traces a pure function of the run: the same seed yields
//! byte-identical trace ids regardless of `--jobs` (see
//! `docs/TRACING.md` for the allocation rules). The value
//! `0` is reserved to mean "no trace/span" so untraced events (gossip
//! background traffic, timers outside any operation) can carry an
//! explicit absent marker in the JSONL output.

/// Identifier of one span within a trace. `0` means "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no span" id.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the reserved "no span" id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanStatus;

    #[test]
    fn zero_is_none() {
        assert!(SpanId::NONE.is_none());
        assert!(!SpanId(7).is_none());
        assert_eq!(SpanId::default(), SpanId::NONE);
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(SpanStatus::Ok.name(), "ok");
        assert_eq!(SpanStatus::Failed.name(), "failed");
        assert_eq!(SpanStatus::Abandoned.name(), "abandoned");
    }
}
