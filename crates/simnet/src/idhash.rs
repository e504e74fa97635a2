//! The lab's id hasher: the hash tables keyed by integer ids use it in
//! place of std's SipHash.
//!
//! Every key these tables hold is an id the lab minted or read back from
//! its own logs: span and timer ids in the simulator, session ids and
//! keys in the consistency checkers, span and trace ids in the span
//! checker. Such ids are small or serial, and hashing them is the hot
//! part of every lookup, so [`IdHasher`] spends one multiply per word
//! and a fold at the end.
//!
//! **Not built to resist hash flooding.** Its output is a fixed function
//! of the key, so a crafted log can make its ids collide and a table
//! slow. It cannot change an answer: no table built on this hasher is
//! iterated where the order reaches output, so a hostile log can slow
//! `tracequery check` down but not change what it prints.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit golden-ratio constant: odd, so multiplying by it is a
/// bijection, with its bits spread evenly over the word.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes integer ids (and anything else, correctly if slowly) with one
/// multiply per 64-bit word and a fold at [`Hasher::finish`].
///
/// Each word is xored into the state rotated by half a word and the sum
/// multiplied, so a composite key such as `(session, key)` depends on
/// every field and on their order. The fold brings the product's
/// well-mixed high bits down to the low bits a table indexes by, for ids
/// that differ only in their high bits. A single `u64` hashes as
/// `m ^ (m >> 32)` with `m = id · MULTIPLIER`.
///
/// Not built to resist hash flooding: see the [module docs](self).
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Bytes hash as little-endian words, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(32) ^ word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds an [`IdHasher`] per hash; stateless, so every table hashes a
/// key alike in every process.
pub type IdState = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by ids, hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` of ids, hashed by [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, IdState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        IdState::default().hash_one(value)
    }

    #[test]
    fn one_id_hashes_as_a_multiply_and_a_fold() {
        for id in [0u64, 1, 2, 1 << 40, u64::MAX] {
            let m = id.wrapping_mul(MULTIPLIER);
            assert_eq!(hash(&id), m ^ (m >> 32), "id {id}");
        }
    }

    #[test]
    fn a_pair_hashes_every_field_in_order() {
        for (a, b) in [(1u64, 2u64), (0, 7), (3, 4_095), (1 << 33, 5)] {
            assert_ne!(hash(&(a, b)), hash(&(b, a)), "({a}, {b}) and ({b}, {a})");
            assert_ne!(
                hash(&(a, b)),
                hash(&(a + 1, b)),
                "({a}, {b}) hashes as its last field alone"
            );
        }
    }

    #[test]
    fn byte_keys_hash_without_a_panic() {
        let keys = ["", "a", "span", "a name longer than one word", "a name longer than one wore"];
        let hashes: IdHashSet<u64> = keys.iter().map(hash).collect();
        assert_eq!(hashes.len(), keys.len(), "distinct byte keys collided");
        assert_eq!(hash(&b"bytes"[..]), hash(&b"bytes"[..]));
        let table: IdHashMap<String, usize> =
            keys.iter().enumerate().map(|(i, k)| (k.to_string(), i)).collect();
        assert_eq!(table["span"], 2);
    }
}
