//! Replica monitoring: RTT windows and high-timestamp tracking.

use serde::{Deserialize, Serialize};
use simnet::{Duration, NodeId, SimTime};
use std::collections::BTreeMap;

/// What the monitor knows about one replica.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplicaView {
    /// Recent round-trip samples (sliding window).
    rtts: Vec<Duration>,
    /// The replica's last known apply timestamp ("high time"): every write
    /// with commit time `<= high_ts` is visible there.
    pub high_ts: SimTime,
    /// Whether this replica is the primary (serves strong reads).
    pub is_primary: bool,
}

/// Size of the RTT sliding window.
const WINDOW: usize = 64;

impl ReplicaView {
    /// Record an observed round trip.
    pub fn record_rtt(&mut self, rtt: Duration) {
        if self.rtts.len() == WINDOW {
            self.rtts.remove(0);
        }
        self.rtts.push(rtt);
    }

    /// Empirical probability that a read here answers within `target`.
    /// With no samples, an optimistic-but-hedged prior of 0.5.
    pub fn p_latency(&self, target: Duration) -> f64 {
        if self.rtts.is_empty() {
            return 0.5;
        }
        let hits = self.rtts.iter().filter(|&&r| r <= target).count();
        hits as f64 / self.rtts.len() as f64
    }

    /// The raw RTT sample window (used by the cascade scorer).
    pub fn rtt_samples(&self) -> &[Duration] {
        &self.rtts
    }

    /// Median observed RTT (None with no samples).
    pub fn median_rtt(&self) -> Option<Duration> {
        if self.rtts.is_empty() {
            return None;
        }
        let mut s = self.rtts.clone();
        s.sort_unstable();
        Some(s[s.len() / 2])
    }
}

/// The client-side monitor over all replicas.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Monitor {
    views: BTreeMap<u32, ReplicaView>,
}

impl Monitor {
    /// Create a monitor for `n` replicas, with `primary` marked.
    pub fn new(n: usize, primary: NodeId) -> Self {
        let mut views = BTreeMap::new();
        for i in 0..n as u32 {
            views.insert(
                i,
                ReplicaView { is_primary: NodeId(i) == primary, ..ReplicaView::default() },
            );
        }
        Monitor { views }
    }

    /// The view of one replica.
    pub fn view(&self, replica: NodeId) -> &ReplicaView {
        &self.views[&replica.0]
    }

    /// Mutable view (record RTTs / high timestamps).
    pub fn view_mut(&mut self, replica: NodeId) -> &mut ReplicaView {
        self.views.get_mut(&replica.0).expect("unknown replica")
    }

    /// Record a completed request's round trip and the high timestamp the
    /// replica reported in its response.
    pub fn observe(&mut self, replica: NodeId, rtt: Duration, high_ts: SimTime) {
        let v = self.view_mut(replica);
        v.record_rtt(rtt);
        v.high_ts = v.high_ts.max(high_ts);
    }

    /// Iterate `(replica, view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &ReplicaView)> {
        self.views.iter().map(|(&i, v)| (NodeId(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_latency_is_empirical_fraction() {
        let mut v = ReplicaView::default();
        for ms in [10u64, 20, 30, 40] {
            v.record_rtt(Duration::from_millis(ms));
        }
        assert_eq!(v.p_latency(Duration::from_millis(25)), 0.5);
        assert_eq!(v.p_latency(Duration::from_millis(40)), 1.0);
        assert_eq!(v.p_latency(Duration::from_millis(5)), 0.0);
    }

    #[test]
    fn no_samples_gives_hedged_prior() {
        let v = ReplicaView::default();
        assert_eq!(v.p_latency(Duration::from_millis(1)), 0.5);
        assert_eq!(v.median_rtt(), None);
    }

    #[test]
    fn window_slides() {
        let mut v = ReplicaView::default();
        for _ in 0..WINDOW {
            v.record_rtt(Duration::from_millis(100));
        }
        for _ in 0..WINDOW {
            v.record_rtt(Duration::from_millis(1));
        }
        assert_eq!(v.p_latency(Duration::from_millis(10)), 1.0, "old samples aged out");
        assert_eq!(v.median_rtt(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn observe_advances_high_ts_monotonically() {
        let mut m = Monitor::new(3, NodeId(0));
        m.observe(NodeId(1), Duration::from_millis(5), SimTime::from_millis(100));
        m.observe(NodeId(1), Duration::from_millis(5), SimTime::from_millis(50));
        assert_eq!(m.view(NodeId(1)).high_ts, SimTime::from_millis(100));
        assert!(m.view(NodeId(0)).is_primary);
        assert!(!m.view(NodeId(1)).is_primary);
        assert_eq!(m.iter().count(), 3);
    }
}
