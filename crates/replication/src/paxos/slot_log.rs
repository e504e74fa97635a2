//! The Paxos log's container: a map from slot to entry kept as a `Vec`
//! indexed by slot.
//!
//! A leader hands slots out from a dense counter starting at 1, so the
//! log has few holes: a slot this node never heard of costs one empty
//! entry. Every walk is slot-ascending, as it would be over a `BTreeMap`,
//! and nothing is ever removed from a node's log (no truncation, no
//! snapshot), so the last entry of the `Vec` is always occupied.

/// A slot-indexed map: `entries[s]` holds slot `s`.
#[derive(Debug, Clone)]
pub(crate) struct SlotLog<T> {
    /// Slot `s` at index `s`; empty, or ending in an occupied entry.
    entries: Vec<Option<T>>,
}

impl<T> Default for SlotLog<T> {
    fn default() -> Self {
        SlotLog { entries: Vec::new() }
    }
}

/// A slot as an index into the `Vec`.
fn index(slot: u64) -> usize {
    usize::try_from(slot).expect("slot fits the address space")
}

impl<T> SlotLog<T> {
    /// The entry at `slot`, if any.
    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        self.entries.get(index(slot)).and_then(Option::as_ref)
    }

    /// The entry at `slot`, made by `make` if the slot is empty.
    pub(crate) fn get_or_insert_with(&mut self, slot: u64, make: impl FnOnce() -> T) -> &mut T {
        self.place(slot).get_or_insert_with(make)
    }

    /// Put `value` at `slot`, returning what was there.
    pub(crate) fn insert(&mut self, slot: u64, value: T) -> Option<T> {
        self.place(slot).replace(value)
    }

    /// The place of `slot`, the `Vec` grown to hold it. Every caller
    /// fills it, which keeps the last entry occupied.
    fn place(&mut self, slot: u64) -> &mut Option<T> {
        let i = index(slot);
        if i >= self.entries.len() {
            self.entries.resize_with(i + 1, || None);
        }
        &mut self.entries[i]
    }

    /// Occupied slots at or above `from`, ascending.
    pub(crate) fn range_from(&self, from: u64) -> impl Iterator<Item = (u64, &T)> {
        let start = index(from).min(self.entries.len());
        self.entries[start..]
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| e.as_ref().map(|e| ((start + i) as u64, e)))
    }

    /// Every occupied slot, ascending.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.range_from(0)
    }

    /// The highest occupied slot.
    pub(crate) fn max_slot(&self) -> Option<u64> {
        self.entries.len().checked_sub(1).map(|i| i as u64)
    }

    /// Empty the log, keeping its buffer.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn holes_are_empty_and_skipped() {
        let mut log = SlotLog::default();
        assert_eq!(log.max_slot(), None);
        assert_eq!(log.insert(3, 'c'), None);
        assert_eq!(log.insert(1, 'a'), None);
        assert_eq!(log.insert(3, 'C'), Some('c'));
        assert_eq!(log.get(2), None);
        assert_eq!(log.get(9), None);
        assert_eq!(log.iter().collect::<Vec<_>>(), vec![(1, &'a'), (3, &'C')]);
        assert_eq!(log.range_from(2).collect::<Vec<_>>(), vec![(3, &'C')]);
        assert_eq!(log.range_from(4).count(), 0);
        assert_eq!(log.max_slot(), Some(3));
        *log.get_or_insert_with(2, || 'x') = 'b';
        assert_eq!(log.get_or_insert_with(2, || 'y'), &mut 'b');
        log.clear();
        assert_eq!((log.max_slot(), log.iter().count()), (None, 0));
    }

    /// One step of a random workload, applied to the log and its model.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        GetOrInsert(u64, u32),
        Get(u64),
        RangeFrom(u64),
        Iterate,
        MaxSlot,
        Clear,
        Clone,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Slots cluster low, as a leader's dense counter makes them, with
        // a tail far out: the holes a follower that missed Accepts, or an
        // adopted slot that is never re-proposed, leaves behind.
        let slot = prop_oneof![0u64..8, 0u64..64];
        (0u8..8, slot, any::<u32>()).prop_map(|(kind, slot, value)| match kind {
            0 => Op::Insert(slot, value),
            1 => Op::GetOrInsert(slot, value),
            2 => Op::Get(slot),
            3 => Op::RangeFrom(slot),
            4 => Op::Iterate,
            5 => Op::MaxSlot,
            6 => Op::Clear,
            _ => Op::Clone,
        })
    }

    proptest! {
        /// The slot log answers every query as a `BTreeMap` keyed by
        /// slot does, over any sequence of updates.
        #[test]
        fn slot_log_is_a_btree_map_by_slot(ops in proptest::collection::vec(op(), 1..80)) {
            let mut log = SlotLog::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(slot, v) => prop_assert_eq!(log.insert(slot, v), model.insert(slot, v)),
                    Op::GetOrInsert(slot, v) => {
                        let got = *log.get_or_insert_with(slot, || v);
                        prop_assert_eq!(got, *model.entry(slot).or_insert(v));
                    }
                    Op::Get(slot) => prop_assert_eq!(log.get(slot), model.get(&slot)),
                    Op::RangeFrom(slot) => prop_assert_eq!(
                        log.range_from(slot).collect::<Vec<_>>(),
                        model.range(slot..).map(|(&s, v)| (s, v)).collect::<Vec<_>>()
                    ),
                    Op::Iterate => prop_assert_eq!(
                        log.iter().collect::<Vec<_>>(),
                        model.iter().map(|(&s, v)| (s, v)).collect::<Vec<_>>()
                    ),
                    Op::MaxSlot => prop_assert_eq!(log.max_slot(), model.keys().next_back().copied()),
                    Op::Clear => {
                        log.clear();
                        model.clear();
                    }
                    Op::Clone => {
                        let copy = log.clone();
                        prop_assert_eq!(
                            copy.iter().collect::<Vec<_>>(),
                            log.iter().collect::<Vec<_>>()
                        );
                        log = copy;
                    }
                }
            }
        }
    }
}
