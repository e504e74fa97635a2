//! Scripted fault injection.
//!
//! CAP-style availability results (experiment E4) hinge on *exactly when*
//! which nodes can talk; a [`FaultSchedule`] scripts that: timed network
//! partitions, per-window message-loss probability, and node
//! crashes/recoveries. The schedule is compiled into plain events on the
//! simulation queue, so faults interleave deterministically with protocol
//! messages.

use crate::sim::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A network partition: nodes in `side_a` cannot exchange messages with any
/// node *not* in `side_a` while the partition is active. (Messages within a
/// side flow normally.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// One side of the cut.
    pub side_a: Vec<NodeId>,
    /// When the cut happens.
    pub start: SimTime,
    /// When the cut heals.
    pub end: SimTime,
}

/// A single scripted fault transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Begin a partition with the given side-A membership.
    PartitionStart {
        /// Identifier used to heal this partition later.
        id: usize,
        /// Nodes on side A; everyone else is side B.
        side_a: Vec<NodeId>,
    },
    /// Heal the partition with the given id.
    PartitionEnd {
        /// The id given at `PartitionStart`.
        id: usize,
    },
    /// Crash a node: until recovery it drops incoming messages and the
    /// timers that come due (a timer due after the recovery still fires).
    Crash {
        /// The node to crash.
        node: NodeId,
    },
    /// Recover a crashed node.
    Recover {
        /// The node to recover.
        node: NodeId,
        /// With `amnesia: false` (the default every existing builder
        /// uses, preserving historical behavior) volatile state survives
        /// the crash untouched. With `amnesia: true` the node restarts
        /// *empty*: the actor's `on_recover` hook must rebuild state from
        /// durable storage (WAL replay) — the semantics a real process
        /// restart has.
        amnesia: bool,
    },
    /// Set the global message-loss probability.
    SetLossRate {
        /// Probability in `[0, 1]` that any message is dropped.
        p: f64,
    },
    /// Scale all sampled network latencies by `factor_pct / 100` from now
    /// on (100 = nominal; 400 = 4× skew). Integer percent keeps fault
    /// schedules byte-stable under JSON round-trips.
    SetLatencyFactor {
        /// Latency multiplier in percent (clamped to at least 1).
        factor_pct: u64,
    },
    /// Cluster membership change: `node` joins (or leaves) the logical
    /// cluster. The node's actor stays deployed either way — membership
    /// is a routing-layer notion. Every actor's `on_membership` hook is
    /// invoked so ring-aware protocols rebalance ownership
    /// deterministically. (Appended last so existing corpus JSON
    /// round-trips unchanged.)
    MembershipChange {
        /// The node joining or leaving.
        node: NodeId,
        /// `true` = join, `false` = leave.
        join: bool,
    },
}

/// A declarative schedule of faults for one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FaultSchedule {
    partitions: Vec<Partition>,
    crashes: Vec<(SimTime, NodeId)>,
    recoveries: Vec<(SimTime, NodeId, bool)>,
    loss_changes: Vec<(SimTime, f64)>,
    latency_changes: Vec<(SimTime, u64)>,
    /// `(time, node, join)` membership transitions. Defaults to empty
    /// when absent from JSON (hand-written `Deserialize` below) so
    /// pre-ring corpus reproducers keep loading.
    membership: Vec<(SimTime, NodeId, bool)>,
}

// Hand-written so the `membership` field — added after the reproducer
// corpus was pinned — defaults to empty instead of failing on corpus
// JSON that predates it. Every other field stays required, preserving
// the derive's strictness.
impl serde::Deserialize for FaultSchedule {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| serde::Error::custom("expected object"))?;
        fn req<T: serde::Deserialize>(
            obj: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::Error> {
            match obj.iter().find(|(k, _)| k == name) {
                Some((_, v)) => T::from_value(v),
                None => Err(serde::Error::custom(format!("missing field `{name}`"))),
            }
        }
        let membership = match obj.iter().find(|(k, _)| k == "membership") {
            Some((_, v)) => Vec::from_value(v)?,
            None => Vec::new(),
        };
        Ok(FaultSchedule {
            partitions: req(obj, "partitions")?,
            crashes: req(obj, "crashes")?,
            recoveries: req(obj, "recoveries")?,
            loss_changes: req(obj, "loss_changes")?,
            latency_changes: req(obj, "latency_changes")?,
            membership,
        })
    }
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a partition window.
    pub fn partition(mut self, side_a: Vec<NodeId>, start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "partition must end after it starts");
        self.partitions.push(Partition { side_a, start, end });
        self
    }

    /// Crash `node` at `at`, recovering at `until` with volatile state
    /// intact (fail-pause semantics).
    pub fn crash(mut self, node: NodeId, at: SimTime, until: SimTime) -> Self {
        assert!(at <= until, "crash must recover after it happens");
        self.crashes.push((at, node));
        self.recoveries.push((until, node, false));
        self
    }

    /// Crash `node` at `at`, recovering at `until` with **amnesia**: the
    /// node restarts empty and must rebuild from durable state (WAL
    /// replay) in its `on_recover` hook — fail-recover semantics.
    pub fn crash_amnesia(mut self, node: NodeId, at: SimTime, until: SimTime) -> Self {
        assert!(at <= until, "crash must recover after it happens");
        self.crashes.push((at, node));
        self.recoveries.push((until, node, true));
        self
    }

    /// Set the message-loss probability to `p` from `at` onward.
    pub fn loss_rate(mut self, at: SimTime, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate must be a probability");
        self.loss_changes.push((at, p));
        self
    }

    /// Scale all sampled latencies by `factor_pct / 100` from `at` onward
    /// (100 restores nominal latency).
    pub fn latency_factor(mut self, at: SimTime, factor_pct: u64) -> Self {
        self.latency_changes.push((at, factor_pct.max(1)));
        self
    }

    /// At `at`, have `node` join (`join = true`) or leave (`join =
    /// false`) the logical cluster. Ring-aware actors rebalance key
    /// ownership in their `on_membership` hook.
    pub fn membership(mut self, at: SimTime, node: NodeId, join: bool) -> Self {
        self.membership.push((at, node, join));
        self
    }

    /// The `(time, node, join)` membership transitions, in the order
    /// they were added.
    pub fn membership_events(&self) -> &[(SimTime, NodeId, bool)] {
        &self.membership
    }

    /// Why this schedule cannot run on `actors` deployed nodes (ids
    /// `0..actors`), if it cannot: an entry names a node nobody
    /// deployed, a partition ends before it starts, or a loss rate is
    /// no probability. The builder methods assert the last two, but a
    /// deserialised schedule never went through them, and none of them
    /// knows the node count: the harness checks once, where it does.
    pub fn validate(&self, actors: usize) -> Result<(), String> {
        let deployed = |field: &str, i: usize, node: NodeId| {
            if node.index() < actors {
                return Ok(());
            }
            Err(format!(
                "{field}[{i}]: node {} is not deployed: the run has {actors} actors \
                 (ids 0..{actors})",
                node.0
            ))
        };
        for (i, p) in self.partitions.iter().enumerate() {
            if p.end < p.start {
                return Err(format!(
                    "partitions[{i}]: ends at {} before it starts at {}",
                    p.end, p.start
                ));
            }
            p.side_a.iter().try_for_each(|&node| deployed("partitions.side_a", i, node))?;
        }
        for (i, &(_, node)) in self.crashes.iter().enumerate() {
            deployed("crashes", i, node)?;
        }
        for (i, &(_, node, _)) in self.recoveries.iter().enumerate() {
            deployed("recoveries", i, node)?;
        }
        for (i, &(_, node, _)) in self.membership.iter().enumerate() {
            deployed("membership", i, node)?;
        }
        for (i, &(_, p)) in self.loss_changes.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("loss_changes[{i}]: loss rate {p} is outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// Flatten the schedule into `(time, event)` pairs for the event queue.
    pub fn compile(&self) -> Vec<(SimTime, FaultEvent)> {
        let mut out = Vec::new();
        for (id, p) in self.partitions.iter().enumerate() {
            out.push((p.start, FaultEvent::PartitionStart { id, side_a: p.side_a.clone() }));
            out.push((p.end, FaultEvent::PartitionEnd { id }));
        }
        for &(t, n) in &self.crashes {
            out.push((t, FaultEvent::Crash { node: n }));
        }
        for &(t, n, amnesia) in &self.recoveries {
            out.push((t, FaultEvent::Recover { node: n, amnesia }));
        }
        for &(t, p) in &self.loss_changes {
            out.push((t, FaultEvent::SetLossRate { p }));
        }
        for &(t, factor_pct) in &self.latency_changes {
            out.push((t, FaultEvent::SetLatencyFactor { factor_pct }));
        }
        for &(t, node, join) in &self.membership {
            out.push((t, FaultEvent::MembershipChange { node, join }));
        }
        // Stable order: by time, then by construction order (Vec is stable).
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

/// A set of nodes as one bit per node id: ids are dense and start at 0
/// (see [`NodeId`]), so membership is a shift and a mask. The network
/// asks on every send and every delivery.
#[derive(Debug, Default)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn insert(&mut self, node: NodeId) {
        let word = node.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (node.index() % 64);
    }

    fn remove(&mut self, node: NodeId) {
        if let Some(word) = self.words.get_mut(node.index() / 64) {
            *word &= !(1 << (node.index() % 64));
        }
    }

    #[inline]
    fn contains(&self, node: NodeId) -> bool {
        self.words.get(node.index() / 64).is_some_and(|word| word & (1 << (node.index() % 64)) != 0)
    }
}

/// Live fault state maintained by the simulator while running.
#[derive(Debug)]
pub struct FaultState {
    /// Active partitions, by id, as the side-A membership set.
    active_partitions: Vec<(usize, NodeSet)>,
    /// Currently crashed nodes.
    crashed: NodeSet,
    /// Current message-loss probability.
    pub loss_rate: f64,
    /// Current latency multiplier in percent (100 = nominal).
    pub latency_factor_pct: u64,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState {
            active_partitions: Vec::new(),
            crashed: NodeSet::default(),
            loss_rate: 0.0,
            latency_factor_pct: 100,
        }
    }
}

impl FaultState {
    /// Apply a fault transition.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match ev {
            FaultEvent::PartitionStart { id, side_a } => {
                let mut side = NodeSet::default();
                for node in side_a {
                    side.insert(*node);
                }
                self.active_partitions.push((*id, side));
            }
            FaultEvent::PartitionEnd { id } => {
                self.active_partitions.retain(|(pid, _)| pid != id);
            }
            FaultEvent::Crash { node } => {
                self.crashed.insert(*node);
            }
            FaultEvent::Recover { node, .. } => {
                self.crashed.remove(*node);
            }
            FaultEvent::SetLossRate { p } => {
                self.loss_rate = *p;
            }
            FaultEvent::SetLatencyFactor { factor_pct } => {
                self.latency_factor_pct = (*factor_pct).max(1);
            }
            // Membership is a routing-layer notion consumed by actors'
            // `on_membership` hooks; the network itself is unaffected.
            FaultEvent::MembershipChange { .. } => {}
        }
    }

    /// Whether a message from `a` to `b` is cut by any active partition.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.active_partitions.iter().any(|(_, side)| side.contains(a) != side.contains(b))
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn compile_orders_by_time() {
        let s = FaultSchedule::none()
            .crash(NodeId(2), t(50), t(90))
            .partition(vec![NodeId(0)], t(10), t(60))
            .loss_rate(t(5), 0.1);
        let evs = s.compile();
        let times: Vec<u64> = evs.iter().map(|(t, _)| t.as_micros() / 1000).collect();
        assert_eq!(times, vec![5, 10, 50, 60, 90]);
    }

    #[test]
    fn partition_cuts_across_but_not_within() {
        let mut st = FaultState::default();
        st.apply(&FaultEvent::PartitionStart { id: 0, side_a: vec![NodeId(0), NodeId(1)] });
        assert!(st.is_partitioned(NodeId(0), NodeId(2)));
        assert!(st.is_partitioned(NodeId(2), NodeId(1)));
        assert!(!st.is_partitioned(NodeId(0), NodeId(1)));
        assert!(!st.is_partitioned(NodeId(2), NodeId(3)));
        st.apply(&FaultEvent::PartitionEnd { id: 0 });
        assert!(!st.is_partitioned(NodeId(0), NodeId(2)));
    }

    #[test]
    fn overlapping_partitions() {
        let mut st = FaultState::default();
        st.apply(&FaultEvent::PartitionStart { id: 0, side_a: vec![NodeId(0)] });
        st.apply(&FaultEvent::PartitionStart { id: 1, side_a: vec![NodeId(1)] });
        assert!(st.is_partitioned(NodeId(0), NodeId(1)));
        st.apply(&FaultEvent::PartitionEnd { id: 0 });
        // Partition 1 still isolates node 1.
        assert!(st.is_partitioned(NodeId(0), NodeId(1)));
        st.apply(&FaultEvent::PartitionEnd { id: 1 });
        assert!(!st.is_partitioned(NodeId(0), NodeId(1)));
    }

    #[test]
    fn crash_and_recover() {
        let mut st = FaultState::default();
        assert!(!st.is_crashed(NodeId(3)));
        st.apply(&FaultEvent::Crash { node: NodeId(3) });
        assert!(st.is_crashed(NodeId(3)));
        st.apply(&FaultEvent::Recover { node: NodeId(3), amnesia: false });
        assert!(!st.is_crashed(NodeId(3)));
    }

    #[test]
    fn crash_and_partition_sets_reach_past_one_word_of_node_ids() {
        let mut st = FaultState::default();
        assert!(!st.is_crashed(NodeId(199)), "a node the set never grew to is up");
        st.apply(&FaultEvent::Recover { node: NodeId(199), amnesia: false });
        for node in [63, 64, 199] {
            st.apply(&FaultEvent::Crash { node: NodeId(node) });
        }
        st.apply(&FaultEvent::Recover { node: NodeId(64), amnesia: false });
        let crashed: Vec<u32> = (0..256).filter(|&n| st.is_crashed(NodeId(n))).collect();
        assert_eq!(crashed, vec![63, 199]);
        st.apply(&FaultEvent::PartitionStart { id: 0, side_a: vec![NodeId(1), NodeId(130)] });
        assert!(st.is_partitioned(NodeId(130), NodeId(131)));
        assert!(st.is_partitioned(NodeId(2), NodeId(1)));
        assert!(!st.is_partitioned(NodeId(1), NodeId(130)));
        assert!(!st.is_partitioned(NodeId(131), NodeId(4_000)));
    }

    #[test]
    fn loss_rate_applies() {
        let mut st = FaultState::default();
        assert_eq!(st.loss_rate, 0.0);
        st.apply(&FaultEvent::SetLossRate { p: 0.25 });
        assert_eq!(st.loss_rate, 0.25);
    }

    #[test]
    fn latency_factor_applies_and_clamps() {
        let mut st = FaultState::default();
        assert_eq!(st.latency_factor_pct, 100);
        st.apply(&FaultEvent::SetLatencyFactor { factor_pct: 400 });
        assert_eq!(st.latency_factor_pct, 400);
        st.apply(&FaultEvent::SetLatencyFactor { factor_pct: 0 });
        assert_eq!(st.latency_factor_pct, 1, "factor clamps to at least 1%");
    }

    #[test]
    fn crash_amnesia_compiles_to_amnesiac_recover() {
        let s = FaultSchedule::none().crash(NodeId(1), t(10), t(20)).crash_amnesia(
            NodeId(2),
            t(30),
            t(40),
        );
        let evs = s.compile();
        assert!(evs
            .iter()
            .any(|(_, e)| *e == FaultEvent::Recover { node: NodeId(1), amnesia: false }));
        assert!(evs
            .iter()
            .any(|(_, e)| *e == FaultEvent::Recover { node: NodeId(2), amnesia: true }));
    }

    #[test]
    fn fault_events_roundtrip_through_json() {
        // Reproducer corpus files serialize fault events; the round trip
        // must preserve the amnesia knob and the latency factor exactly.
        for ev in [
            FaultEvent::Recover { node: NodeId(3), amnesia: true },
            FaultEvent::Recover { node: NodeId(1), amnesia: false },
            FaultEvent::SetLatencyFactor { factor_pct: 400 },
            FaultEvent::Crash { node: NodeId(2) },
            FaultEvent::MembershipChange { node: NodeId(7), join: false },
            FaultEvent::MembershipChange { node: NodeId(7), join: true },
        ] {
            let json = serde_json::to_string(&ev).unwrap();
            let back: FaultEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev, "{json}");
        }
    }

    #[test]
    #[should_panic(expected = "must end after")]
    fn bad_partition_window_panics() {
        let _ = FaultSchedule::none().partition(vec![NodeId(0)], t(10), t(5));
    }

    #[test]
    fn membership_compiles_in_time_order() {
        let s = FaultSchedule::none()
            .membership(t(20), NodeId(4), false)
            .membership(t(40), NodeId(4), true)
            .crash(NodeId(1), t(30), t(35));
        let evs = s.compile();
        let times: Vec<u64> = evs.iter().map(|(t, _)| t.as_micros() / 1000).collect();
        assert_eq!(times, vec![20, 30, 35, 40]);
        assert_eq!(evs[0].1, FaultEvent::MembershipChange { node: NodeId(4), join: false });
        assert_eq!(evs[3].1, FaultEvent::MembershipChange { node: NodeId(4), join: true });
    }

    #[test]
    fn pre_ring_schedule_json_still_deserializes() {
        // Corpus files written before the membership field existed must
        // keep loading (serde default).
        let json = r#"{"partitions":[],"crashes":[],"recoveries":[],"loss_changes":[],"latency_changes":[]}"#;
        let s: FaultSchedule = serde_json::from_str(json).unwrap();
        assert!(s.compile().is_empty());
    }

    /// A deserialised schedule went through no builder: what the
    /// builders assert, and what none of them can know (the node
    /// count), is checked by `validate`, naming field and numbers.
    #[test]
    fn a_deserialised_schedule_is_validated_against_the_deployment() {
        let schedule = |edits: &[(&str, &str)]| -> FaultSchedule {
            let mut json = String::from(
                r#"{"partitions":[],"crashes":[],"recoveries":[],"loss_changes":[],"latency_changes":[],"membership":[]}"#,
            );
            for (field, value) in edits {
                json = json.replace(&format!("\"{field}\":[]"), &format!("\"{field}\":{value}"));
            }
            serde_json::from_str(&json).unwrap()
        };
        let ok = schedule(&[
            ("crashes", "[[1000,4]]"),
            ("recoveries", "[[2000,4,true]]"),
            ("loss_changes", "[[5,1.0]]"),
        ]);
        assert_eq!(ok.validate(5), Ok(()));
        assert_eq!(
            ok.validate(4).unwrap_err(),
            "crashes[0]: node 4 is not deployed: the run has 4 actors (ids 0..4)"
        );
        for (field, value, why) in [
            ("recoveries", "[[1,2,false],[2000,7,true]]", "recoveries[1]: node 7 is not deployed"),
            ("membership", "[[1,5,true]]", "membership[0]: node 5 is not deployed"),
            (
                "partitions",
                r#"[{"side_a":[0,9],"start":1,"end":2}]"#,
                "partitions.side_a[0]: node 9 is not deployed",
            ),
            (
                "partitions",
                r#"[{"side_a":[0],"start":10000,"end":5000}]"#,
                "partitions[0]: ends at 5.000ms before it starts at 10.000ms",
            ),
            (
                "loss_changes",
                "[[0,0.5],[9,1.5]]",
                "loss_changes[1]: loss rate 1.5 is outside [0, 1]",
            ),
            ("loss_changes", "[[0,-0.1]]", "loss_changes[0]: loss rate -0.1 is outside [0, 1]"),
        ] {
            let err = schedule(&[(field, value)]).validate(5).unwrap_err();
            assert!(err.starts_with(why), "{field}: {err}");
        }
    }
}
