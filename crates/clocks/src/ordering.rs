//! Causal (partial) ordering between clock values.

/// The outcome of comparing two events under happens-before.
///
/// Unlike [`std::cmp::Ordering`], a fourth case — [`CausalOrd::Concurrent`]
/// — captures events neither of which happened before the other. This case
/// is exactly where eventual consistency earns its keep: concurrent writes
/// are the ones that need convergent conflict resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CausalOrd {
    /// The two clock values are identical.
    Equal,
    /// Left happened before right.
    Before,
    /// Right happened before left.
    After,
    /// Neither happened before the other.
    Concurrent,
}

impl CausalOrd {
    /// Build from element-wise dominance flags: does the left have any
    /// component greater than the right (`l_gt`), and vice versa (`r_gt`)?
    pub fn from_dominance(l_gt: bool, r_gt: bool) -> CausalOrd {
        match (l_gt, r_gt) {
            (false, false) => CausalOrd::Equal,
            (false, true) => CausalOrd::Before,
            (true, false) => CausalOrd::After,
            (true, true) => CausalOrd::Concurrent,
        }
    }

    /// True if the two events are concurrent.
    pub fn is_concurrent(self) -> bool {
        matches!(self, CausalOrd::Concurrent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dominance_covers_all_cases() {
        assert_eq!(CausalOrd::from_dominance(false, false), CausalOrd::Equal);
        assert_eq!(CausalOrd::from_dominance(false, true), CausalOrd::Before);
        assert_eq!(CausalOrd::from_dominance(true, false), CausalOrd::After);
        assert_eq!(CausalOrd::from_dominance(true, true), CausalOrd::Concurrent);
    }

    #[test]
    fn predicates() {
        assert!(CausalOrd::Concurrent.is_concurrent());
        assert!(!CausalOrd::Before.is_concurrent());
    }
}
