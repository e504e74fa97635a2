//! The propagation layer: how updates travel between replicas.
//!
//! Policies are named by [`PropagationPolicy`]; the mechanism pieces the
//! protocols share live here: peer enumeration ([`peers`]), gossip
//! round timing with jittered desynchronization ([`Gossip`]), and
//! threshold ack counting ([`AckTracker`] — write quorums, sync-backup
//! acks, Paxos promise/accept tallies, and eager-broadcast acks are all
//! the same "count distinct responders up to a need" loop).

use simnet::{Context, Duration, NodeId};

/// How updates propagate (the propagation axis of a
/// [`super::Composition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationPolicy {
    /// Writes are pushed to every peer as they happen; `acks` peers must
    /// confirm durable application before the client is acknowledged
    /// (`acks == 0` is fire-and-forget broadcast). Optional
    /// background gossip heals whatever the broadcast missed.
    EagerBroadcast {
        /// Peer acks required before the client ack (0 = none).
        acks: usize,
        /// Background anti-entropy, if any.
        gossip: Option<GossipConfig>,
    },
    /// Periodic push-pull anti-entropy only: digests exchange, missing
    /// items flow both ways.
    AntiEntropyGossip(GossipConfig),
    /// Eager broadcast with causal dependency metadata; receivers buffer
    /// out-of-order writes until their dependencies are applied.
    CausalBroadcast,
    /// Per-operation coordinator fans out to N home replicas and waits
    /// for R (reads) / W (writes) acks; optional sloppy spares take
    /// hinted handoffs.
    QuorumFanout {
        /// Read quorum.
        r: usize,
        /// Write quorum.
        w: usize,
        /// Repair stale replicas on read.
        read_repair: bool,
        /// Hint-holding spare nodes (0 = strict quorum).
        spares: usize,
    },
    /// Primary ships its log to backups.
    PrimaryShip {
        /// Synchronous acks or asynchronous interval shipping.
        ship: ShipMode,
        /// Heartbeat-driven view-change failover.
        failover: bool,
    },
    /// A consensus-sequenced replicated log (Multi-Paxos).
    ConsensusLog,
}

/// How a primary ships updates to its backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipMode {
    /// Every backup must ack before the client is acknowledged.
    Sync,
    /// Log records ship on a timer; the client is acknowledged
    /// immediately (the replication-lag knob).
    Async {
        /// Shipping interval.
        interval: Duration,
    },
}

/// Gossip (anti-entropy) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Interval between gossip rounds.
    pub interval: Duration,
    /// Number of peers contacted per round.
    pub fanout: usize,
}

/// All peers of `me` among server nodes `0..n`, in id order.
pub fn peers(n: usize, me: NodeId) -> impl Iterator<Item = NodeId> {
    (0..n as u32).map(NodeId).filter(move |&p| p != me)
}

/// A reusable peer list for broadcast fan-out.
///
/// Server membership is fixed for a run, but the hot write path used to
/// rebuild `peers(n, me).collect()` on every operation — one `Vec`
/// allocation per put in every eager protocol. The cache builds the
/// list once and hands the same buffer back on every later call.
///
/// The take/restore protocol (rather than a borrowing getter) exists
/// because most fan-out loops call `&mut self` methods per peer
/// (`ship_to`, quorum bookkeeping), which a borrow held across the loop
/// would forbid. Callers must pass the buffer back via
/// [`PeerCache::restore`]; forgetting to merely costs a rebuild on the
/// next call.
#[derive(Debug, Clone, Default)]
pub struct PeerCache {
    peers: Vec<NodeId>,
    built_for: Option<(usize, NodeId)>,
}

impl PeerCache {
    /// Take the peer list for `me` among servers `0..n`, building it if
    /// the cache is cold or was built for different parameters.
    pub fn take(&mut self, n: usize, me: NodeId) -> Vec<NodeId> {
        if self.built_for != Some((n, me)) {
            self.peers.clear();
            self.peers.extend(peers(n, me));
            self.built_for = Some((n, me));
        }
        std::mem::take(&mut self.peers)
    }

    /// Return a buffer obtained from [`PeerCache::take`]. The contents
    /// must be unmodified (debug-asserted via the cache key).
    pub fn restore(&mut self, peers: Vec<NodeId>) {
        debug_assert!(
            self.built_for.is_none_or(|(n, me)| {
                peers.iter().copied().eq(super::propagation::peers(n, me))
            }),
            "restored peer buffer was modified"
        );
        self.peers = peers;
    }
}

/// Gossip round scheduling: a repeating timer with a jittered first
/// firing so replicas desynchronize, plus seeded peer sampling.
#[derive(Debug, Clone, Copy)]
pub struct Gossip {
    /// Interval and fanout.
    pub cfg: GossipConfig,
    /// The timer tag gossip rounds fire under.
    pub tag: u64,
}

impl Gossip {
    /// A gossip schedule firing under `tag`.
    pub fn new(cfg: GossipConfig, tag: u64) -> Self {
        Gossip { cfg, tag }
    }

    /// Arm the first round at a random offset within one interval
    /// (desynchronizes replicas). Also what `on_recover` calls: a crash
    /// ends the chain only if its timer came due during the outage, so
    /// after a short one this starts a second chain beside the first
    /// (see `simnet::Actor::on_recover`).
    pub fn arm_jittered<M>(&self, ctx: &mut Context<M>) {
        let jitter = ctx.rng().below(self.cfg.interval.as_micros().max(1));
        ctx.set_timer(Duration::from_micros(jitter), self.tag);
    }

    /// Arm the next round one full interval out.
    pub fn rearm<M>(&self, ctx: &mut Context<M>) {
        ctx.set_timer(self.cfg.interval, self.tag);
    }

    /// Choose this round's targets: `fanout` distinct peers, sampled by
    /// shuffling indices with the actor's deterministic RNG.
    pub fn choose_targets<M>(&self, ctx: &mut Context<M>, peers: &[NodeId]) -> Vec<NodeId> {
        let fanout = self.cfg.fanout.min(peers.len());
        let mut idxs: Vec<usize> = (0..peers.len()).collect();
        ctx.rng().shuffle(&mut idxs);
        idxs.iter().take(fanout).map(|&i| peers[i]).collect()
    }
}

/// Distinct ackers an [`AckTracker`] holds without allocating: every
/// acker of a 3- or 5-node group and six peers of an eager broadcast.
const INLINE_ACKERS: usize = 6;

/// Count distinct acking nodes toward a threshold.
///
/// The first six distinct ackers sit in the tracker itself; only a
/// tracker that hears from more spills the rest into a `Vec`.
#[derive(Debug, Clone)]
pub struct AckTracker {
    need: usize,
    /// Distinct ackers so far.
    count: usize,
    /// The first `INLINE_ACKERS` of them, in arrival order.
    inline: [NodeId; INLINE_ACKERS],
    /// The rest, sorted.
    spill: Vec<NodeId>,
}

impl AckTracker {
    /// A tracker needing `need` distinct acks.
    pub fn new(need: usize) -> Self {
        AckTracker { need, count: 0, inline: [NodeId(0); INLINE_ACKERS], spill: Vec::new() }
    }

    /// Record an ack. Returns `true` exactly once: when this ack first
    /// reaches the threshold (duplicates and over-acks return `false`).
    pub fn ack(&mut self, from: NodeId) -> bool {
        if self.inline[..self.count.min(INLINE_ACKERS)].contains(&from) {
            return false;
        }
        if self.count < INLINE_ACKERS {
            self.inline[self.count] = from;
        } else {
            match self.spill.binary_search(&from) {
                Ok(_) => return false,
                Err(at) => self.spill.insert(at, from),
            }
        }
        self.count += 1;
        self.count == self.need
    }

    /// Whether the threshold has been met.
    pub fn reached(&self) -> bool {
        self.count >= self.need
    }

    /// Distinct acks so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_excludes_self() {
        let p: Vec<NodeId> = peers(4, NodeId(2)).collect();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn ack_tracker_fires_once_at_threshold() {
        let mut t = AckTracker::new(2);
        assert!(!t.ack(NodeId(1)));
        assert!(!t.ack(NodeId(1)), "duplicate acks don't count");
        assert!(t.ack(NodeId(2)), "threshold crossing fires");
        assert!(!t.ack(NodeId(3)), "over-ack does not re-fire");
        assert_eq!(t.count(), 3);
        assert!(t.reached());
    }

    #[test]
    fn zero_need_is_immediately_reached() {
        let mut t = AckTracker::new(0);
        assert!(t.reached());
        assert!(!t.ack(NodeId(4)), "a tracker already reached never fires");
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn ackers_past_the_inline_capacity_spill_and_still_count_once() {
        let n = INLINE_ACKERS as u32 + 5;
        let mut t = AckTracker::new(n as usize);
        // Descending, so the spilled ackers arrive out of order.
        for i in (0..n - 1).rev() {
            assert!(!t.ack(NodeId(i * 3)));
            assert!(!t.ack(NodeId(i * 3)), "duplicate of acker {i} counted");
        }
        for i in 0..n - 1 {
            assert!(!t.ack(NodeId(i * 3)), "repeat of acker {i} counted");
        }
        assert_eq!(t.count(), n as usize - 1);
        assert!(!t.reached());
        assert!(t.ack(NodeId(1)), "the last distinct acker fires");
        assert!(!t.ack(NodeId(2)), "over-ack past the spill does not re-fire");
        assert!(!t.ack(NodeId(1)));
        assert_eq!(t.count(), n as usize + 1);
        assert!(t.reached());
    }

    proptest::proptest! {
        /// Any sequence of acks counts what a set of ackers counts, and
        /// fires exactly at the ack that brings the set to `need`.
        #[test]
        fn ack_tracker_counts_as_a_set_does(
            need in 0usize..12,
            acks in proptest::collection::vec(0u32..16, 0..40),
        ) {
            let mut t = AckTracker::new(need);
            let mut model = std::collections::BTreeSet::new();
            for from in acks {
                let fired = t.ack(NodeId(from));
                let was = model.len() >= need;
                model.insert(NodeId(from));
                proptest::prop_assert_eq!(fired, !was && model.len() >= need);
                proptest::prop_assert_eq!(t.count(), model.len());
                proptest::prop_assert_eq!(t.reached(), model.len() >= need);
            }
        }
    }
}
