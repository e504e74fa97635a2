//! The layered replica kernel: durability × propagation × resolution.
//!
//! The tutorial's central claim is that every replication scheme is a
//! *composition* of three nearly-orthogonal choices:
//!
//! | layer | question | implementations |
//! |---|---|---|
//! | [`durability`] | what survives a crash? | [`DurabilityPolicy`] over [`kvstore::Wal`] |
//! | [`propagation`] | how do updates travel? | [`PropagationPolicy`]: eager broadcast, quorum fan-out, anti-entropy gossip, primary log shipping, consensus log |
//! | [`resolution`] | how do conflicts resolve? | [`ResolutionPolicy`]: LWW register, version-vector siblings, CRDT merge |
//!
//! Beside them, [`telemetry`] wraps whichever store a replica keeps so
//! the divergence probe hears which keys changed ([`Probed`]).
//!
//! The protocol modules (`eventual`, `quorum`, `primary`, `causal`,
//! `paxos`) are built from these shared layers, and a [`Composition`]
//! names one point of the product space. It is the configuration:
//! replicas and clients are constructed from it directly, and
//! `rec-core`'s named scheme presets are shorthands for the canonical
//! constructors below ([`Composition::eventual_lww`],
//! [`Composition::quorum`], …) — `tests/scheme_parity.rs` proves a
//! preset and its composition run byte-identically at the same seed.
//! Points no preset names (e.g. [`Composition::mm_gossip_crdt`],
//! [`Composition::mm_eager_acked`]) are reachable without writing a new
//! protocol.

pub mod durability;
pub mod propagation;
pub mod resolution;
pub mod ring;
pub mod telemetry;

pub use durability::{DurabilityPolicy, WalState};
pub use propagation::{peers, AckTracker, Gossip, GossipConfig, PropagationPolicy, ShipMode};
pub use resolution::{ConflictMode, Item, ReadView, ResolutionPolicy, ResolvingStore, WriteEffect};
pub use ring::Ring;
pub use telemetry::{ProbeVersions, Probed};

use simnet::Duration;

/// Who may accept an update in the first place (the taxonomy's first
/// axis: primary-copy vs. update-anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateSite {
    /// A single primary accepts writes; backups are read-only.
    PrimaryCopy,
    /// Every replica accepts writes locally (multi-master).
    MultiMaster,
    /// A per-operation coordinator runs the write on behalf of the
    /// client (Dynamo-style quorum coordination).
    Coordinator,
    /// Updates go through a replicated consensus log; any node may
    /// propose, one leader sequences.
    ConsensusGroup,
}

/// One point in the design space: a replica kernel configuration.
///
/// `Composition` is a *description*, and the only one the replication
/// layer takes: each protocol's replica and client constructors read
/// their parameters from it, and `rec-core`'s runner picks those
/// constructors by `propagation`, which also implies who accepts
/// updates ([`Composition::update`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    /// Replica count (node ids `0..replicas`; spares follow).
    pub replicas: usize,
    /// How updates propagate between replicas.
    pub propagation: PropagationPolicy,
    /// How concurrent updates reconcile.
    pub resolution: ResolutionPolicy,
    /// What survives an amnesia crash.
    pub durability: DurabilityPolicy,
}

impl Composition {
    /// Eventual consistency proper: multi-master, eager broadcast
    /// and/or gossip, pluggable resolution, WAL-replay durability.
    pub fn eventual(
        replicas: usize,
        eager: bool,
        gossip: Option<GossipConfig>,
        resolution: ResolutionPolicy,
    ) -> Self {
        let propagation = if eager {
            PropagationPolicy::EagerBroadcast { acks: 0, gossip }
        } else {
            PropagationPolicy::AntiEntropyGossip(
                gossip.unwrap_or(GossipConfig { interval: Duration::from_millis(50), fanout: 1 }),
            )
        };
        Composition { replicas, propagation, resolution, durability: DurabilityPolicy::WalReplay }
    }

    /// Eventual with LWW resolution and the default eager + 50 ms gossip
    /// propagation.
    pub fn eventual_lww(replicas: usize) -> Self {
        Composition::eventual(
            replicas,
            true,
            Some(GossipConfig { interval: Duration::from_millis(50), fanout: 1 }),
            ResolutionPolicy::LwwRegister,
        )
    }

    /// Dynamo-style N/R/W quorums: strict (`spares == 0`) or sloppy with
    /// hinted handoff (`spares > 0`).
    pub fn quorum(n: usize, r: usize, w: usize, read_repair: bool, spares: usize) -> Self {
        Composition {
            replicas: n,
            propagation: PropagationPolicy::QuorumFanout { r, w, read_repair, spares },
            resolution: ResolutionPolicy::LwwRegister,
            durability: DurabilityPolicy::WalReplay,
        }
    }

    /// Primary copy with sync or async log shipping, optionally with
    /// view-change failover.
    pub fn primary(replicas: usize, ship: ShipMode, failover: bool) -> Self {
        Composition {
            replicas,
            propagation: PropagationPolicy::PrimaryShip { ship, failover },
            resolution: ResolutionPolicy::LwwRegister,
            durability: DurabilityPolicy::CheckpointedWal,
        }
    }

    /// A Multi-Paxos replicated log.
    pub fn paxos(nodes: usize) -> Self {
        Composition {
            replicas: nodes,
            propagation: PropagationPolicy::ConsensusLog,
            resolution: ResolutionPolicy::LwwRegister,
            durability: DurabilityPolicy::FsyncedState,
        }
    }

    /// COPS-style causal+ multi-master.
    pub fn causal(replicas: usize) -> Self {
        Composition {
            replicas,
            propagation: PropagationPolicy::CausalBroadcast,
            resolution: ResolutionPolicy::LwwRegister,
            durability: DurabilityPolicy::WalReplay,
        }
    }

    /// Multi-master, anti-entropy gossip only, CRDT counter merge,
    /// fsynced state. No scheme preset names this point: counter state
    /// survives amnesia crashes (under `WalReplay` non-LWW state is
    /// modeled volatile), so sticky sessions read monotonically
    /// inflating values even under crash storms.
    pub fn mm_gossip_crdt(replicas: usize) -> Self {
        Composition {
            replicas,
            propagation: PropagationPolicy::AntiEntropyGossip(GossipConfig {
                interval: Duration::from_millis(25),
                fanout: 2,
            }),
            resolution: ResolutionPolicy::CrdtMerge,
            durability: DurabilityPolicy::FsyncedState,
        }
    }

    /// Multi-master eager broadcast that withholds the client ack until
    /// **all** peers have durably applied the write (`acks = replicas -
    /// 1`), LWW resolution, WAL durability. No scheme preset names it. A
    /// synchronous flavour of update-anywhere: every acknowledged write
    /// is on every replica, so local reads are never stale — at the cost
    /// of writes failing when any peer is unreachable.
    pub fn mm_eager_acked(replicas: usize) -> Self {
        Composition {
            replicas,
            propagation: PropagationPolicy::EagerBroadcast {
                acks: replicas.saturating_sub(1),
                gossip: Some(GossipConfig { interval: Duration::from_millis(50), fanout: 1 }),
            },
            resolution: ResolutionPolicy::LwwRegister,
            durability: DurabilityPolicy::WalReplay,
        }
    }

    /// Who accepts updates: the one site each propagation policy
    /// works with.
    pub fn update(&self) -> UpdateSite {
        match self.propagation {
            PropagationPolicy::EagerBroadcast { .. }
            | PropagationPolicy::AntiEntropyGossip(_)
            | PropagationPolicy::CausalBroadcast => UpdateSite::MultiMaster,
            PropagationPolicy::QuorumFanout { .. } => UpdateSite::Coordinator,
            PropagationPolicy::PrimaryShip { .. } => UpdateSite::PrimaryCopy,
            PropagationPolicy::ConsensusLog => UpdateSite::ConsensusGroup,
        }
    }

    /// Total server nodes the composition deploys (replicas + spares).
    pub fn server_node_count(&self) -> usize {
        match self.propagation {
            PropagationPolicy::QuorumFanout { spares, .. } => self.replicas + spares,
            _ => self.replicas,
        }
    }

    /// A short stable label (`update+propagation+resolution`).
    pub fn label(&self) -> String {
        let update = match self.update() {
            UpdateSite::PrimaryCopy => "primary",
            UpdateSite::MultiMaster => "mm",
            UpdateSite::Coordinator => "coord",
            UpdateSite::ConsensusGroup => "consensus",
        };
        let prop = match &self.propagation {
            PropagationPolicy::EagerBroadcast { acks: 0, gossip: Some(_) } => {
                "eager+gossip".to_string()
            }
            PropagationPolicy::EagerBroadcast { acks: 0, gossip: None } => "eager".to_string(),
            PropagationPolicy::EagerBroadcast { acks, .. } => format!("eager-acked({acks})"),
            PropagationPolicy::AntiEntropyGossip(_) => "gossip".to_string(),
            PropagationPolicy::CausalBroadcast => "causal-bcast".to_string(),
            PropagationPolicy::QuorumFanout { r, w, spares: 0, .. } => format!("quorum(R{r}W{w})"),
            PropagationPolicy::QuorumFanout { r, w, spares, .. } => {
                format!("sloppy(R{r}W{w}+{spares})")
            }
            PropagationPolicy::PrimaryShip { ship: ShipMode::Sync, .. } => "sync-ship".to_string(),
            PropagationPolicy::PrimaryShip { ship: ShipMode::Async { interval }, failover } => {
                format!(
                    "async-ship({}ms{})",
                    interval.as_millis_f64(),
                    if *failover { ",failover" } else { "" }
                )
            }
            PropagationPolicy::ConsensusLog => "log".to_string(),
        };
        let res = match self.resolution {
            ResolutionPolicy::LwwRegister => "lww",
            ResolutionPolicy::VersionVectorSiblings => "siblings",
            ResolutionPolicy::CrdtMerge => "crdt",
        };
        format!("{update}+{prop}+{res}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_labels() {
        assert_eq!(Composition::eventual_lww(3).label(), "mm+eager+gossip+lww");
        assert_eq!(Composition::quorum(3, 2, 2, true, 0).label(), "coord+quorum(R2W2)+lww");
        assert_eq!(Composition::paxos(3).label(), "consensus+log+lww");
        assert_eq!(Composition::mm_gossip_crdt(3).label(), "mm+gossip+crdt");
        assert_eq!(Composition::mm_eager_acked(3).label(), "mm+eager-acked(2)+lww");
        assert_eq!(Composition::causal(3).label(), "mm+causal-bcast+lww");
    }

    #[test]
    fn server_counts_include_spares() {
        assert_eq!(Composition::quorum(3, 2, 2, true, 2).server_node_count(), 5);
        assert_eq!(Composition::mm_gossip_crdt(3).server_node_count(), 3);
    }
}
