//! Seeded adversarial fault-schedule generation — the *nemesis*.
//!
//! Hand-scripted [`FaultSchedule`]s only exercise the failures someone
//! thought to write down. The nemesis instead *generates* schedules from
//! a seed: partition flaps with overlapping sides, crash/restart storms
//! (optionally with amnesia), message-loss bursts, and latency-skew
//! windows, all parameterized by an [`IntensityProfile`]. A generated
//! schedule is a pure function of `(seed, nodes, horizon, profile)`, so
//! any schedule the fuzz harness finds interesting can be regenerated —
//! or checked into a regression corpus as plain JSON — and replayed
//! byte-identically.
//!
//! Two structural guarantees keep generated schedules well-formed:
//!
//! * every fault window closes by two thirds of the horizon (the *quiet
//!   tail*), so convergence-style checkers get a fault-free suffix to
//!   judge;
//! * per-node crash windows never overlap, so a `Recover` always matches
//!   the most recent `Crash` of that node.
//!
//! The shrinking step in the fuzz harness (`rec-core`) deletes whole
//! [`NemesisEvent`] windows, never individual transitions — any subset of
//! a generated event list is itself a well-formed schedule.

use crate::faults::FaultSchedule;
use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One generated fault window.
///
/// All fields are integers (milliseconds, percent) so the JSON encoding
/// of a schedule is byte-stable across platforms — reproducer files in
/// `tests/corpus/` depend on this.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NemesisEvent {
    /// Cut `side_a` off from everyone else during `[from_ms, to_ms)`.
    Partition {
        /// Node indices on side A (sorted).
        side_a: Vec<usize>,
        /// Window start, in ms of virtual time.
        from_ms: u64,
        /// Window end (heal), in ms of virtual time.
        to_ms: u64,
    },
    /// Crash one node during `[from_ms, to_ms)`.
    Crash {
        /// The node to crash.
        node: usize,
        /// Crash time, in ms.
        from_ms: u64,
        /// Recovery time, in ms.
        to_ms: u64,
        /// Whether recovery wipes volatile state (WAL replay required).
        amnesia: bool,
    },
    /// Set global message loss to `pct`% during `[from_ms, to_ms)`.
    LossBurst {
        /// Loss probability in percent.
        pct: u64,
        /// Burst start, in ms.
        from_ms: u64,
        /// Burst end (loss back to 0), in ms.
        to_ms: u64,
    },
    /// Scale all latencies by `factor_pct`% during `[from_ms, to_ms)`.
    LatencySkew {
        /// Latency multiplier in percent (e.g. 400 = 4× slower).
        factor_pct: u64,
        /// Skew start, in ms.
        from_ms: u64,
        /// Skew end (back to nominal), in ms.
        to_ms: u64,
    },
}

impl NemesisEvent {
    /// The window start in milliseconds.
    pub fn from_ms(&self) -> u64 {
        match self {
            NemesisEvent::Partition { from_ms, .. }
            | NemesisEvent::Crash { from_ms, .. }
            | NemesisEvent::LossBurst { from_ms, .. }
            | NemesisEvent::LatencySkew { from_ms, .. } => *from_ms,
        }
    }

    /// The window end in milliseconds.
    pub fn to_ms(&self) -> u64 {
        match self {
            NemesisEvent::Partition { to_ms, .. }
            | NemesisEvent::Crash { to_ms, .. }
            | NemesisEvent::LossBurst { to_ms, .. }
            | NemesisEvent::LatencySkew { to_ms, .. } => *to_ms,
        }
    }
}

/// How hard the nemesis leans on the system.
///
/// Each `max_*` field caps a per-category draw of `0..=max` windows;
/// window lengths are drawn from `[min_window_ms, max_window_ms)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntensityProfile {
    /// Maximum number of partition windows.
    pub max_partitions: u64,
    /// Maximum number of crash windows.
    pub max_crashes: u64,
    /// Maximum number of loss bursts.
    pub max_loss_bursts: u64,
    /// Maximum number of latency-skew windows.
    pub max_latency_skews: u64,
    /// Chance (percent) that a crash recovers with amnesia.
    pub amnesia_pct: u64,
    /// Cap on burst loss probability, in percent.
    pub max_loss_pct: u64,
    /// Cap on the latency multiplier, in percent (minimum draw is 150).
    pub max_latency_factor_pct: u64,
    /// Shortest fault window, in ms.
    pub min_window_ms: u64,
    /// Longest fault window, in ms.
    pub max_window_ms: u64,
}

impl IntensityProfile {
    /// Gentle: at most one fault per category, no amnesia.
    pub fn light() -> Self {
        IntensityProfile {
            max_partitions: 1,
            max_crashes: 1,
            max_loss_bursts: 1,
            max_latency_skews: 1,
            amnesia_pct: 0,
            max_loss_pct: 15,
            max_latency_factor_pct: 300,
            min_window_ms: 300,
            max_window_ms: 2_000,
        }
    }

    /// The default fuzzing diet: a few overlapping faults, amnesia on
    /// half the crashes.
    pub fn medium() -> Self {
        IntensityProfile {
            max_partitions: 2,
            max_crashes: 2,
            max_loss_bursts: 2,
            max_latency_skews: 1,
            amnesia_pct: 50,
            max_loss_pct: 30,
            max_latency_factor_pct: 500,
            min_window_ms: 300,
            max_window_ms: 4_000,
        }
    }

    /// Storms: many overlapping partitions and crash/restart cycles,
    /// every recovery amnesiac.
    pub fn heavy() -> Self {
        IntensityProfile {
            max_partitions: 4,
            max_crashes: 5,
            max_loss_bursts: 3,
            max_latency_skews: 2,
            amnesia_pct: 100,
            max_loss_pct: 40,
            max_latency_factor_pct: 800,
            min_window_ms: 200,
            max_window_ms: 5_000,
        }
    }

    /// Parse a profile name as used by the `fuzz_nemesis` CLI.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "light" => Some(Self::light()),
            "medium" => Some(Self::medium()),
            "heavy" => Some(Self::heavy()),
            _ => None,
        }
    }
}

/// Fraction of the horizon after which all faults have healed: windows
/// close by `horizon_ms * QUIET_NUM / QUIET_DEN`, leaving a quiet tail.
const QUIET_NUM: u64 = 2;
const QUIET_DEN: u64 = 3;

/// Generate an adversarial fault-event list.
///
/// Pure function of its arguments: the same `(seed, nodes, horizon_ms,
/// profile)` always yields the same events (a property the determinism
/// tests pin down). Only nodes `0..nodes` (the servers) are targeted;
/// clients live at higher indices and fail only by implication.
pub fn generate(
    seed: u64,
    nodes: usize,
    horizon_ms: u64,
    profile: &IntensityProfile,
) -> Vec<NemesisEvent> {
    assert!(nodes >= 2, "nemesis needs at least two nodes to disrupt");
    let mut rng = SimRng::new(seed ^ 0x6e65_6d65_7369_7321); // "nemesis!"
    let fault_end = (horizon_ms * QUIET_NUM / QUIET_DEN).max(profile.min_window_ms + 2);
    let mut events = Vec::new();

    let window = |rng: &mut SimRng, profile: &IntensityProfile| -> (u64, u64) {
        let latest_start = fault_end.saturating_sub(profile.min_window_ms).max(2);
        let from = rng.range(1, latest_start);
        let len =
            rng.range(profile.min_window_ms, profile.max_window_ms.max(profile.min_window_ms + 1));
        (from, (from + len).min(fault_end))
    };

    // Partition flaps: sides may overlap across windows, which is the
    // interesting case (a node can be in the minority of one cut and the
    // majority of another).
    for _ in 0..rng.below(profile.max_partitions + 1) {
        let side_len = 1 + rng.below(nodes as u64 - 1) as usize;
        let mut ids: Vec<usize> = (0..nodes).collect();
        rng.shuffle(&mut ids);
        let mut side_a: Vec<usize> = ids.into_iter().take(side_len).collect();
        side_a.sort_unstable();
        let (from_ms, to_ms) = window(&mut rng, profile);
        events.push(NemesisEvent::Partition { side_a, from_ms, to_ms });
    }

    // Crash storms: per-node windows are kept disjoint so every Recover
    // pairs with the latest Crash of that node.
    let mut node_free_at = vec![0u64; nodes];
    for _ in 0..rng.below(profile.max_crashes + 1) {
        let node = rng.index(nodes);
        let (from_ms, to_ms) = window(&mut rng, profile);
        let from_ms = from_ms.max(node_free_at[node]);
        let to_ms = to_ms.max(from_ms);
        if from_ms >= fault_end || from_ms == to_ms {
            continue; // no room left for this node; drop the crash
        }
        node_free_at[node] = to_ms + 1;
        let amnesia = rng.below(100) < profile.amnesia_pct;
        events.push(NemesisEvent::Crash { node, from_ms, to_ms, amnesia });
    }

    // Loss bursts and latency skews set *global* knobs, so their windows
    // are laid out sequentially (an overlap would heal its predecessor
    // early and make shrinking semantics murky).
    let mut cursor = 1u64;
    for _ in 0..rng.below(profile.max_loss_bursts + 1) {
        if cursor + profile.min_window_ms >= fault_end {
            break;
        }
        let from_ms = rng.range(cursor, fault_end - profile.min_window_ms);
        let len =
            rng.range(profile.min_window_ms, profile.max_window_ms.max(profile.min_window_ms + 1));
        let to_ms = (from_ms + len).min(fault_end);
        let pct = rng.range(1, profile.max_loss_pct.max(2));
        events.push(NemesisEvent::LossBurst { pct, from_ms, to_ms });
        cursor = to_ms + 1;
    }
    let mut cursor = 1u64;
    for _ in 0..rng.below(profile.max_latency_skews + 1) {
        if cursor + profile.min_window_ms >= fault_end {
            break;
        }
        let from_ms = rng.range(cursor, fault_end - profile.min_window_ms);
        let len =
            rng.range(profile.min_window_ms, profile.max_window_ms.max(profile.min_window_ms + 1));
        let to_ms = (from_ms + len).min(fault_end);
        let factor_pct = rng.range(150, profile.max_latency_factor_pct.max(151));
        events.push(NemesisEvent::LatencySkew { factor_pct, from_ms, to_ms });
        cursor = to_ms + 1;
    }

    events
}

/// [`to_schedule`] for an event list somebody else wrote (a reproducer
/// file): `Err` naming the event and the field where `to_schedule`
/// would panic — a window that ends before it starts, a loss
/// percentage over 100, a node index or an instant past what the
/// simulator can address. Whether the nodes it names exist is the
/// schedule's to answer ([`FaultSchedule::validate`]), once the harness
/// knows how many were deployed.
pub fn try_to_schedule(events: &[NemesisEvent]) -> Result<FaultSchedule, String> {
    const MAX_MS: u64 = u64::MAX / 1_000;
    for (i, ev) in events.iter().enumerate() {
        let (from_ms, to_ms) = (ev.from_ms(), ev.to_ms());
        let nodes: &[usize] = match ev {
            NemesisEvent::Partition { side_a, .. } => side_a,
            NemesisEvent::Crash { node, .. } => std::slice::from_ref(node),
            _ => &[],
        };
        let problem = if to_ms < from_ms {
            format!("to_ms {to_ms} is before from_ms {from_ms}")
        } else if to_ms > MAX_MS {
            format!("to_ms {to_ms} is past the last instant the clock holds ({MAX_MS} ms)")
        } else if let Some(node) = nodes.iter().find(|&&n| n > u32::MAX as usize) {
            format!("node {node} is past the last addressable node ({})", u32::MAX)
        } else if let NemesisEvent::LossBurst { pct: pct @ 101.., .. } = ev {
            format!("pct {pct} is not a percentage (0..=100)")
        } else {
            continue;
        };
        return Err(format!("events[{i}]: {problem}"));
    }
    Ok(to_schedule(events))
}

/// Compile a nemesis event list (or any subset of one — shrinking relies
/// on this) into a runnable [`FaultSchedule`].
pub fn to_schedule(events: &[NemesisEvent]) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    for ev in events {
        schedule = match ev {
            NemesisEvent::Partition { side_a, from_ms, to_ms } => schedule.partition(
                side_a.iter().map(|&n| NodeId::from_index(n)).collect(),
                SimTime::from_millis(*from_ms),
                SimTime::from_millis(*to_ms),
            ),
            NemesisEvent::Crash { node, from_ms, to_ms, amnesia } => {
                let (at, until) = (SimTime::from_millis(*from_ms), SimTime::from_millis(*to_ms));
                if *amnesia {
                    schedule.crash_amnesia(NodeId::from_index(*node), at, until)
                } else {
                    schedule.crash(NodeId::from_index(*node), at, until)
                }
            }
            NemesisEvent::LossBurst { pct, from_ms, to_ms } => schedule
                .loss_rate(SimTime::from_millis(*from_ms), *pct as f64 / 100.0)
                .loss_rate(SimTime::from_millis(*to_ms), 0.0),
            NemesisEvent::LatencySkew { factor_pct, from_ms, to_ms } => schedule
                .latency_factor(SimTime::from_millis(*from_ms), *factor_pct)
                .latency_factor(SimTime::from_millis(*to_ms), 100),
        };
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 7, 0xdead_beef] {
            let a = generate(seed, 5, 30_000, &IntensityProfile::medium());
            let b = generate(seed, 5, 30_000, &IntensityProfile::medium());
            assert_eq!(a, b);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "JSON encoding must be byte-identical"
            );
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let schedules: Vec<_> =
            (0..20u64).map(|s| generate(s, 5, 30_000, &IntensityProfile::heavy())).collect();
        let first = &schedules[0];
        assert!(schedules.iter().any(|s| s != first), "20 seeds produced identical schedules");
    }

    #[test]
    fn all_windows_close_before_the_quiet_tail() {
        for seed in 0..50u64 {
            for profile in
                [IntensityProfile::light(), IntensityProfile::medium(), IntensityProfile::heavy()]
            {
                let horizon = 30_000;
                let fault_end = horizon * QUIET_NUM / QUIET_DEN;
                for ev in generate(seed, 4, horizon, &profile) {
                    assert!(ev.from_ms() <= ev.to_ms(), "inverted window {ev:?}");
                    assert!(ev.to_ms() <= fault_end, "window leaks past quiet tail: {ev:?}");
                }
            }
        }
    }

    #[test]
    fn per_node_crash_windows_never_overlap() {
        for seed in 0..100u64 {
            let events = generate(seed, 3, 30_000, &IntensityProfile::heavy());
            let mut windows: Vec<(usize, u64, u64)> = events
                .iter()
                .filter_map(|e| match e {
                    NemesisEvent::Crash { node, from_ms, to_ms, .. } => {
                        Some((*node, *from_ms, *to_ms))
                    }
                    _ => None,
                })
                .collect();
            windows.sort_unstable();
            for pair in windows.windows(2) {
                if pair[0].0 == pair[1].0 {
                    assert!(
                        pair[0].2 < pair[1].1,
                        "seed {seed}: overlapping crash windows {pair:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn heavy_profile_produces_amnesia_crashes() {
        let found = (0..50u64).any(|seed| {
            generate(seed, 3, 30_000, &IntensityProfile::heavy())
                .iter()
                .any(|e| matches!(e, NemesisEvent::Crash { amnesia: true, .. }))
        });
        assert!(found, "heavy profile never produced an amnesia crash in 50 seeds");
    }

    #[test]
    fn subsets_compile_to_runnable_schedules() {
        let events = generate(11, 4, 30_000, &IntensityProfile::heavy());
        // Every prefix/suffix/single-element subset must compile (this is
        // what delta-debugging leans on).
        for i in 0..=events.len() {
            let _ = to_schedule(&events[..i]).compile();
            let _ = to_schedule(&events[i..]).compile();
        }
        for ev in &events {
            let _ = to_schedule(std::slice::from_ref(ev)).compile();
        }
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = generate(23, 5, 30_000, &IntensityProfile::heavy());
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<NemesisEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
