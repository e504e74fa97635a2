//! Keys and values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A key. Experiments use dense `u64` key spaces; applications that want
/// string keys hash them into this space.
pub type Key = u64;

/// An immutable value: a cheaply clonable byte string.
///
/// The experiment suite encodes a globally unique `u64` write id in every
/// value so that consistency checkers can identify which write a read
/// observed; [`Value::from_u64`] / [`Value::as_u64`] implement that
/// convention (little-endian, exactly 8 bytes). Such an id is kept
/// inline, without a heap allocation, and cloned as a 16-byte copy; any
/// other byte string is shared behind an `Arc`. The two forms are one
/// value: equality, hashing, serialisation and both printed forms go
/// through [`Value::as_bytes`], so an id and the same 8 bytes read back
/// by `from_value` are equal and hash alike.
///
/// Serialises as an array of byte numbers and prints as `Value(b"…")`.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    /// A write id's little-endian bytes.
    Id([u8; 8]),
    /// Any other byte string, shared.
    Shared(Arc<[u8]>),
}

impl Value {
    /// Encode a `u64` write id.
    pub fn from_u64(x: u64) -> Self {
        Value(Repr::Id(x.to_le_bytes()))
    }

    /// Decode a `u64` write id; `None` if the value is not 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.as_bytes().try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Id(bytes) => bytes,
            Repr::Shared(bytes) => bytes,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl Default for Value {
    fn default() -> Self {
        Value(Repr::Shared(Arc::default()))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl Serialize for Value {
    fn to_value(&self) -> serde::Value {
        self.as_bytes().to_value()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Value")
            .field(&format_args!("b\"{}\"", self.as_bytes().escape_ascii()))
            .finish()
    }
}

impl Deserialize for Value {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<u8>::from_value(v).map(|bytes| Value(Repr::Shared(bytes.into())))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(x) => write!(f, "#{x}"),
            None => write!(f, "{}b", self.len()),
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::from_u64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value(Repr::Shared(Arc::from(s.as_bytes())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Value::from_u64(x).as_u64(), Some(x));
        }
    }

    #[test]
    fn non_u64_values_decode_to_none() {
        assert_eq!(Value::from("hi").as_u64(), None);
        assert_eq!(Value::default().as_u64(), None);
        assert_eq!(Value::from("exactly8!").as_u64(), None); // 9 bytes
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Value::from_u64(7)), "#7");
        assert_eq!(format!("{}", Value::from("abc")), "3b");
    }

    #[test]
    fn emptiness_and_len() {
        assert!(Value::default().is_empty());
        assert_eq!(Value::from("xyz").len(), 3);
        assert_eq!(Value::from("xyz").as_bytes(), b"xyz");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        // A shared byte string's clone shares its bytes.
        let v = Value::from("hello");
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.as_bytes(), w.as_bytes()), "a clone shares the bytes");
        // A write id is held inline: its clone is a copy of the 16 bytes.
        let v = Value::from_u64(9);
        let w = v.clone();
        assert_eq!(v, w);
        assert!(matches!(w.0, Repr::Id(_)), "an id clones to an inline id");
        assert!(!std::ptr::eq(v.as_bytes(), w.as_bytes()), "an id's clone is a copy");
    }

    #[test]
    fn an_inline_id_and_its_decoded_bytes_are_one_value() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        for x in [0u64, 1, 255, 1 << 40, u64::MAX] {
            let inline = Value::from_u64(x);
            let decoded = Value::from_value(&inline.to_value()).unwrap();
            assert!(matches!(decoded.0, Repr::Shared(_)), "from_value shares its bytes");
            assert_eq!(inline, decoded);
            assert_eq!(hasher.hash_one(&inline), hasher.hash_one(&decoded));
            assert_eq!(inline.to_value(), decoded.to_value());
            assert_eq!(format!("{inline:?}"), format!("{decoded:?}"));
            assert_eq!(inline.to_string(), decoded.to_string());
            assert_eq!(decoded.as_u64(), Some(x));
        }
        assert_ne!(Value::from_u64(1), Value::from("\u{1}"));
    }

    #[test]
    fn round_trips() {
        let v = Value::from("hello");
        assert_eq!(v.as_bytes(), b"hello");
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(v.clone(), v);
    }

    #[test]
    fn serde_round_trip() {
        let bytes = serde::Value::Array(vec![
            serde::Value::U64(1),
            serde::Value::U64(2),
            serde::Value::U64(255),
        ]);
        let v = Value::from_value(&bytes).unwrap();
        assert_eq!(v.as_bytes(), [1, 2, 255]);
        assert_eq!(v.to_value(), bytes);
        assert_eq!(
            Value::from("hi").to_value(),
            serde::Value::Array(vec![serde::Value::U64(104), serde::Value::U64(105)])
        );
        assert!(Value::from_value(&serde::Value::Array(vec![serde::Value::U64(256)])).is_err());
        assert!(Value::from_value(&serde::Value::U64(1)).is_err());
    }

    #[test]
    fn slice_conversion() {
        let v = Value::from_u64(7);
        assert_eq!(v.as_bytes(), 7u64.to_le_bytes());
        let back: [u8; 8] = v.as_bytes().try_into().unwrap();
        assert_eq!(u64::from_le_bytes(back), 7);
    }

    #[test]
    fn debug_prints_the_escaped_byte_string() {
        assert_eq!(format!("{:?}", Value::from("hi")), r#"Value(b"hi")"#);
        assert_eq!(format!("{:?}", Value::from("a\"\n\u{1}")), r#"Value(b"a\"\n\x01")"#);
        assert_eq!(
            format!("{:?}", Value::from_u64(255)),
            r#"Value(b"\xff\x00\x00\x00\x00\x00\x00\x00")"#
        );
        assert_eq!(format!("{:#?}", Value::from("hi")), "Value(\n    b\"hi\",\n)");
    }

    #[test]
    fn layout_is_one_shared_pointer() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Value>();
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }
}
