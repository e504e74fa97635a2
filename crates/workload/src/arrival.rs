//! Arrival processes: when does the next operation start?

use serde::{Deserialize, Serialize};

/// The arrival process for a client session, in microseconds.
///
/// Sessions are closed-loop: a client issues its next operation only
/// after the previous one completed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Closed loop: issue the next op a fixed think time after the
    /// previous response.
    Closed {
        /// Think time between response and next request (µs).
        think_us: u64,
    },
}

impl Arrival {
    /// The gap (µs) before the next operation.
    pub fn next_gap_us(&self) -> u64 {
        match *self {
            Arrival::Closed { think_us } => think_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_gap_is_constant() {
        let a = Arrival::Closed { think_us: 500 };
        for _ in 0..10 {
            assert_eq!(a.next_gap_us(), 500);
        }
    }
}
