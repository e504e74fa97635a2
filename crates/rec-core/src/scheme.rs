//! Points in the replication design space.
//!
//! A [`Scheme`] is what experiments name: either one of the named
//! protocol presets or an explicit kernel [`Composition`]. Every preset
//! maps to a canonical composition via [`Scheme::normalize`], and the
//! runner deploys *only* compositions — replicas and clients are
//! constructed from the composition itself — so a preset and its
//! composition are byte-identical at the same seed by construction (and
//! `tests/scheme_parity.rs` proves it).

use replication::common::Guarantees;
use replication::eventual::ConflictMode;
use replication::kernel::{Composition, GossipConfig, ShipMode};
use simnet::{Duration, NodeId, SimTime};

/// How client sessions attach to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPlacement {
    /// Session `i` sticks to replica `i % n` (geo-local client).
    Sticky,
    /// Every operation goes to a uniformly random replica (load-balanced
    /// anycast; the setting where session anomalies surface).
    Random,
}

/// A deterministic membership-churn schedule for ring-sharded schemes.
///
/// Each entry is `(time, node, join)` and is merged into the run's
/// [`simnet::FaultSchedule`] as a membership fault event, so churn flows
/// through the same compiled fault pipeline as partitions and crashes
/// (and is byte-deterministic across `--jobs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `(time, node, join)` membership transitions, in schedule order.
    pub events: Vec<(SimTime, NodeId, bool)>,
}

impl ChurnPlan {
    /// No churn: the ring membership is static for the whole run.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// A rolling restart: event `k` (for `k < count`) removes node
    /// `k % nodes` at `start + k * period` and rejoins it half a period
    /// later. Models steady operational churn (deploys, reboots).
    pub fn rolling(nodes: usize, period: Duration, count: usize, start: SimTime) -> Self {
        let mut events = Vec::with_capacity(count * 2);
        let period_us = period.as_micros();
        for k in 0..count {
            let node = NodeId((k % nodes) as u32);
            let leave = SimTime::from_micros(start.as_micros() + k as u64 * period_us);
            let rejoin = SimTime::from_micros(leave.as_micros() + period_us / 2);
            events.push((leave, node, false));
            events.push((rejoin, node, true));
        }
        events.sort_by_key(|&(at, node, join)| (at, node, join));
        ChurnPlan { events }
    }

    /// Whether the plan has any events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A replication scheme — one point in the tutorial's taxonomy.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Asynchronous multi-master (anti-entropy + optional eager push).
    Eventual {
        /// Replica count.
        replicas: usize,
        /// Eagerly broadcast each write.
        eager: bool,
        /// Gossip `(interval, fanout)`; `None` disables anti-entropy.
        gossip: Option<(Duration, usize)>,
        /// Conflict policy.
        mode: ConflictMode,
        /// Session guarantees enforced client-side.
        guarantees: Guarantees,
        /// Client attachment.
        placement: ClientPlacement,
    },
    /// Dynamo-style N/R/W quorums with sloppy writes: unreachable home
    /// replicas are covered by hint-holding spares (hinted handoff).
    SloppyQuorum {
        /// Home replica count.
        n: usize,
        /// Read quorum.
        r: usize,
        /// Write quorum.
        w: usize,
        /// Spare (hint-holding) node count.
        spares: usize,
    },
    /// Dynamo-style N/R/W quorums.
    Quorum {
        /// Replica count.
        n: usize,
        /// Read quorum.
        r: usize,
        /// Write quorum.
        w: usize,
        /// Read repair on stale replicas.
        read_repair: bool,
        /// Client attachment (coordinator choice).
        placement: ClientPlacement,
    },
    /// Primary copy with async shipping *and* view-change failover.
    PrimaryAsyncFailover {
        /// Replica count (node 0 leads view 0).
        replicas: usize,
        /// Shipping interval.
        ship_interval: Duration,
    },
    /// Primary copy with synchronous backup acks.
    PrimarySync {
        /// Replica count (node 0 is primary).
        replicas: usize,
    },
    /// Primary copy with asynchronous log shipping.
    PrimaryAsync {
        /// Replica count (node 0 is primary).
        replicas: usize,
        /// Shipping interval (replication lag knob).
        ship_interval: Duration,
    },
    /// Multi-Paxos replicated log (linearizable).
    Paxos {
        /// Node count.
        nodes: usize,
    },
    /// COPS-style causal+ multi-master.
    Causal {
        /// Replica count.
        replicas: usize,
    },
    /// A ring-sharded cluster: `nodes` physical nodes on a consistent-
    /// hashing ring with `vnodes` virtual nodes each, running the inner
    /// quorum composition per key (preference lists of size `inner.n`,
    /// sloppy fall-through to ring spares, hinted handoff, and
    /// deterministic key rebalancing under `churn`).
    Sharded {
        /// The per-key quorum composition (must be a coordinator/quorum
        /// composition; other kernels have no ring materialization).
        inner: Composition,
        /// Physical node count.
        nodes: usize,
        /// Virtual nodes per physical node.
        vnodes: usize,
        /// Membership-churn schedule.
        churn: ChurnPlan,
    },
    /// An explicit kernel composition (durability × propagation ×
    /// resolution) — the general form every other variant normalizes to.
    Composed {
        /// The kernel composition to deploy.
        comp: Composition,
        /// Session guarantees enforced client-side (multi-master only).
        guarantees: Guarantees,
        /// Client attachment.
        placement: ClientPlacement,
    },
}

impl Scheme {
    /// Default eventual configuration: eager + 50 ms gossip, LWW, no
    /// session guarantees, sticky clients.
    pub fn eventual(replicas: usize) -> Self {
        Scheme::Eventual {
            replicas,
            eager: true,
            gossip: Some((Duration::from_millis(50), 1)),
            mode: ConflictMode::Lww,
            guarantees: Guarantees::none(),
            placement: ClientPlacement::Sticky,
        }
    }

    /// Quorum with explicit R/W, read repair on, random coordinators.
    pub fn quorum(n: usize, r: usize, w: usize) -> Self {
        Scheme::Quorum { n, r, w, read_repair: true, placement: ClientPlacement::Random }
    }

    /// An explicit composition with sticky clients and no client-side
    /// guarantees.
    pub fn composed(comp: Composition) -> Self {
        Scheme::Composed {
            comp,
            guarantees: Guarantees::none(),
            placement: ClientPlacement::Sticky,
        }
    }

    /// The scheme's canonical kernel [`Composition`] plus the client-side
    /// knobs the composition does not cover. The runner materializes this
    /// normal form and nothing else, so two schemes that normalize equal
    /// run identically.
    pub fn normalize(&self) -> (Composition, Guarantees, ClientPlacement) {
        match self {
            Scheme::Eventual { replicas, eager, gossip, mode, guarantees, placement } => {
                let gossip = gossip.map(|(interval, fanout)| GossipConfig { interval, fanout });
                let comp = Composition::eventual(*replicas, *eager, gossip, mode.policy());
                (comp, *guarantees, *placement)
            }
            Scheme::SloppyQuorum { n, r, w, spares } => (
                Composition::quorum(*n, *r, *w, true, *spares),
                Guarantees::none(),
                ClientPlacement::Sticky,
            ),
            Scheme::Quorum { n, r, w, read_repair, placement } => {
                (Composition::quorum(*n, *r, *w, *read_repair, 0), Guarantees::none(), *placement)
            }
            Scheme::PrimarySync { replicas } => (
                Composition::primary(*replicas, ShipMode::Sync, false),
                Guarantees::none(),
                ClientPlacement::Sticky,
            ),
            Scheme::PrimaryAsync { replicas, ship_interval } => (
                Composition::primary(
                    *replicas,
                    ShipMode::Async { interval: *ship_interval },
                    false,
                ),
                Guarantees::none(),
                ClientPlacement::Sticky,
            ),
            Scheme::PrimaryAsyncFailover { replicas, ship_interval } => (
                Composition::primary(*replicas, ShipMode::Async { interval: *ship_interval }, true),
                Guarantees::none(),
                ClientPlacement::Sticky,
            ),
            Scheme::Paxos { nodes } => {
                (Composition::paxos(*nodes), Guarantees::none(), ClientPlacement::Sticky)
            }
            Scheme::Causal { replicas } => {
                (Composition::causal(*replicas), Guarantees::none(), ClientPlacement::Sticky)
            }
            Scheme::Composed { comp, guarantees, placement } => {
                (comp.clone(), *guarantees, *placement)
            }
            Scheme::Sharded { .. } => panic!(
                "sharded schemes deploy a ring topology on top of the inner composition; \
                 the runner materializes them directly rather than through a flat composition"
            ),
        }
    }

    /// Number of replica (server) nodes the scheme deploys.
    pub fn replica_count(&self) -> usize {
        match self {
            Scheme::Eventual { replicas, .. } => *replicas,
            Scheme::Quorum { n, .. } => *n,
            Scheme::SloppyQuorum { n, .. } => *n,
            Scheme::PrimarySync { replicas } => *replicas,
            Scheme::PrimaryAsync { replicas, .. } => *replicas,
            Scheme::PrimaryAsyncFailover { replicas, .. } => *replicas,
            Scheme::Paxos { nodes } => *nodes,
            Scheme::Causal { replicas } => *replicas,
            Scheme::Composed { comp, .. } => comp.replicas,
            Scheme::Sharded { inner, .. } => inner.replicas,
        }
    }

    /// Total server nodes deployed (replicas + any spares); client actors
    /// get node ids starting at this offset.
    pub fn server_node_count(&self) -> usize {
        match self {
            Scheme::SloppyQuorum { n, spares, .. } => n + spares,
            Scheme::Composed { comp, .. } => comp.server_node_count(),
            Scheme::Sharded { nodes, .. } => *nodes,
            _ => self.replica_count(),
        }
    }

    /// A short label for table rows.
    pub fn label(&self) -> String {
        match self {
            Scheme::Eventual { eager, gossip, mode, .. } => format!(
                "eventual({}{}{:?})",
                if *eager { "eager+" } else { "" },
                if gossip.is_some() { "gossip," } else { "no-gossip," },
                mode
            ),
            Scheme::Quorum { n, r, w, .. } => format!("quorum(N={n},R={r},W={w})"),
            Scheme::SloppyQuorum { n, r, w, spares } => {
                format!("sloppy-quorum(N={n},R={r},W={w},+{spares})")
            }
            Scheme::PrimarySync { .. } => "primary-sync".to_string(),
            Scheme::PrimaryAsync { ship_interval, .. } => {
                format!("primary-async({}ms)", ship_interval.as_millis_f64())
            }
            Scheme::PrimaryAsyncFailover { ship_interval, .. } => {
                format!("primary-async-failover({}ms)", ship_interval.as_millis_f64())
            }
            Scheme::Paxos { .. } => "paxos".to_string(),
            Scheme::Causal { .. } => "causal".to_string(),
            Scheme::Composed { comp, .. } => comp.label(),
            Scheme::Sharded { inner, nodes, vnodes, churn } => format!(
                "ring({nodes}x{vnodes},{}{})",
                inner.label(),
                if churn.is_empty() { "" } else { ",churn" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replication::kernel::{DurabilityPolicy, ResolutionPolicy, UpdateSite};

    #[test]
    fn replica_counts() {
        assert_eq!(Scheme::eventual(3).replica_count(), 3);
        assert_eq!(Scheme::quorum(5, 2, 3).replica_count(), 5);
        assert_eq!(Scheme::Paxos { nodes: 7 }.replica_count(), 7);
        assert_eq!(Scheme::composed(Composition::mm_gossip_crdt(4)).replica_count(), 4);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Scheme::quorum(3, 1, 1).label(), "quorum(N=3,R=1,W=1)");
        assert!(Scheme::eventual(3).label().starts_with("eventual("));
        assert_eq!(
            Scheme::PrimaryAsync { replicas: 2, ship_interval: Duration::from_millis(100) }.label(),
            "primary-async(100ms)"
        );
        assert_eq!(Scheme::composed(Composition::mm_gossip_crdt(3)).label(), "mm+gossip+crdt");
    }

    #[test]
    fn presets_normalize_to_their_canonical_compositions() {
        let (comp, _, _) = Scheme::eventual(3).normalize();
        assert_eq!(comp, Composition::eventual_lww(3));
        let (comp, _, _) = Scheme::quorum(3, 2, 2).normalize();
        assert_eq!(comp, Composition::quorum(3, 2, 2, true, 0));
        let (comp, _, _) = Scheme::Paxos { nodes: 5 }.normalize();
        assert_eq!(comp, Composition::paxos(5));
        let (comp, _, _) = Scheme::Causal { replicas: 3 }.normalize();
        assert_eq!(comp, Composition::causal(3));
        let (comp, _, _) = Scheme::PrimarySync { replicas: 3 }.normalize();
        assert_eq!(comp.update, UpdateSite::PrimaryCopy);
        assert_eq!(comp.durability, DurabilityPolicy::CheckpointedWal);
        assert_eq!(comp.resolution, ResolutionPolicy::LwwRegister);
    }

    #[test]
    fn composed_roundtrips_through_normalize() {
        let comp = Composition::mm_eager_acked(3);
        let (back, g, p) = Scheme::composed(comp.clone()).normalize();
        assert_eq!(back, comp);
        assert_eq!(g, Guarantees::none());
        assert_eq!(p, ClientPlacement::Sticky);
    }
}
