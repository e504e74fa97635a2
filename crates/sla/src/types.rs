//! SLA vocabulary: consistency levels, sub-SLAs, portfolios.

use serde::{Deserialize, Serialize};
use simnet::{Duration, SimTime};

/// The consistency a read may request (Pileus's ladder).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Consistency {
    /// Read the newest committed data (primary only).
    Strong,
    /// Reads reflect this session's writes.
    ReadMyWrites,
    /// Reads never go backwards for this session.
    MonotonicReads,
    /// Data no staler than this bound.
    Bounded(Duration),
    /// Any replica, any staleness.
    Eventual,
}

/// One `(consistency, latency, utility)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubSla {
    /// Required consistency.
    pub consistency: Consistency,
    /// Latency target for the read.
    pub latency: Duration,
    /// Utility delivered if both are met.
    pub utility: f64,
}

/// An ordered portfolio of sub-SLAs (first = most preferred).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sla {
    subs: Vec<SubSla>,
}

impl Sla {
    /// Build a portfolio.
    ///
    /// # Panics
    /// If empty, if utilities are not strictly decreasing (Pileus requires
    /// earlier sub-SLAs to be worth more), or if any utility is negative.
    pub fn new(subs: Vec<SubSla>) -> Self {
        assert!(!subs.is_empty(), "an SLA needs at least one sub-SLA");
        assert!(subs.iter().all(|s| s.utility >= 0.0), "utilities must be non-negative");
        assert!(
            subs.windows(2).all(|w| w[0].utility > w[1].utility),
            "utilities must be strictly decreasing"
        );
        Sla { subs }
    }

    /// The sub-SLAs in preference order.
    pub fn subs(&self) -> &[SubSla] {
        &self.subs
    }

    /// The paper's *password-checking* SLA: strong or nothing.
    pub fn password() -> Self {
        Sla::new(vec![
            SubSla {
                consistency: Consistency::Strong,
                latency: Duration::from_millis(1_000),
                utility: 1.0,
            },
            SubSla {
                consistency: Consistency::Eventual,
                latency: Duration::from_millis(1_000),
                utility: 0.0,
            },
        ])
    }

    /// The paper's *shopping-cart* SLA: read-my-writes fast, else eventual.
    pub fn shopping_cart() -> Self {
        Sla::new(vec![
            SubSla {
                consistency: Consistency::ReadMyWrites,
                latency: Duration::from_millis(300),
                utility: 1.0,
            },
            SubSla {
                consistency: Consistency::Eventual,
                latency: Duration::from_millis(300),
                utility: 0.5,
            },
        ])
    }

    /// The paper's *web-application* SLA: a graded ladder.
    pub fn web_app() -> Self {
        Sla::new(vec![
            SubSla {
                consistency: Consistency::Strong,
                latency: Duration::from_millis(50),
                utility: 1.0,
            },
            SubSla {
                consistency: Consistency::Bounded(Duration::from_millis(200)),
                latency: Duration::from_millis(100),
                utility: 0.7,
            },
            SubSla {
                consistency: Consistency::Eventual,
                latency: Duration::from_millis(250),
                utility: 0.3,
            },
        ])
    }
}

/// What a session remembers for RMW / monotonic checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionState {
    /// Commit timestamp of the session's last write (µs of sim time), if
    /// any.
    pub last_write_ts: Option<SimTime>,
    /// Timestamp of the newest version the session has read.
    pub last_read_ts: Option<SimTime>,
}

impl SessionState {
    /// The minimum replica high-timestamp this session needs for `c`.
    /// `None` = no requirement beyond reachability. `now` is used for
    /// bounded staleness.
    pub fn required_ts(&self, c: Consistency, now: SimTime) -> Option<SimTime> {
        match c {
            Consistency::Strong => None, // handled via "primary only"
            Consistency::ReadMyWrites => self.last_write_ts,
            Consistency::MonotonicReads => self.last_read_ts,
            Consistency::Bounded(b) => {
                Some(SimTime::from_micros(now.as_micros().saturating_sub(b.as_micros())))
            }
            Consistency::Eventual => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert_eq!(Sla::password().subs().len(), 2);
        assert_eq!(Sla::shopping_cart().subs().len(), 2);
        assert_eq!(Sla::web_app().subs().len(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn non_decreasing_utilities_rejected() {
        Sla::new(vec![
            SubSla {
                consistency: Consistency::Eventual,
                latency: Duration::from_millis(1),
                utility: 0.5,
            },
            SubSla {
                consistency: Consistency::Strong,
                latency: Duration::from_millis(1),
                utility: 0.5,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_sla_rejected() {
        Sla::new(vec![]);
    }

    #[test]
    fn required_ts_per_level() {
        let s = SessionState {
            last_write_ts: Some(SimTime::from_millis(100)),
            last_read_ts: Some(SimTime::from_millis(80)),
        };
        let now = SimTime::from_millis(500);
        assert_eq!(s.required_ts(Consistency::Eventual, now), None);
        assert_eq!(s.required_ts(Consistency::ReadMyWrites, now), Some(SimTime::from_millis(100)));
        assert_eq!(s.required_ts(Consistency::MonotonicReads, now), Some(SimTime::from_millis(80)));
        assert_eq!(
            s.required_ts(Consistency::Bounded(Duration::from_millis(200)), now),
            Some(SimTime::from_millis(300))
        );
        // Fresh session: no requirements.
        let fresh = SessionState::default();
        assert_eq!(fresh.required_ts(Consistency::ReadMyWrites, now), None);
    }
}
