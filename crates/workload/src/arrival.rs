//! Arrival processes: when does the next operation start?

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The arrival process for a client session, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Closed loop: issue the next op a fixed think time after the
    /// previous response.
    Closed {
        /// Think time between response and next request (µs).
        think_us: u64,
    },
    /// Open loop with Poisson arrivals at the given mean rate.
    Open {
        /// Mean operations per second.
        ops_per_sec: f64,
    },
    /// Open loop with fixed spacing.
    Periodic {
        /// Gap between consecutive ops (µs).
        period_us: u64,
    },
}

impl Arrival {
    /// Sample the gap (µs) before the next operation.
    pub fn next_gap_us<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            Arrival::Closed { think_us } => think_us,
            Arrival::Open { ops_per_sec } => {
                assert!(ops_per_sec > 0.0, "rate must be positive");
                let mean_us = 1_000_000.0 / ops_per_sec;
                let u: f64 = 1.0 - rng.random::<f64>();
                (-mean_us * u.ln()).round().max(1.0) as u64
            }
            Arrival::Periodic { period_us } => period_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn closed_gap_is_constant() {
        let a = Arrival::Closed { think_us: 500 };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(a.next_gap_us(&mut rng), 500);
        }
    }

    #[test]
    fn periodic_gap_is_constant() {
        let a = Arrival::Periodic { period_us: 250 };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(a.next_gap_us(&mut rng), 250);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let a = Arrival::Open { ops_per_sec: 1000.0 }; // mean gap 1000us
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| a.next_gap_us(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 30.0, "mean gap {mean}");
    }

    #[test]
    fn gaps_are_positive() {
        let a = Arrival::Open { ops_per_sec: 1_000_000.0 };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(a.next_gap_us(&mut rng) >= 1);
        }
    }
}
