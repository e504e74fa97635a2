//! Keys and values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A key. Experiments use dense `u64` key spaces; applications that want
/// string keys hash them into this space.
pub type Key = u64;

/// An immutable value: a cheaply clonable byte string.
///
/// The experiment suite encodes a globally unique `u64` write id in every
/// value so that consistency checkers can identify which write a read
/// observed; [`Value::from_u64`] / [`Value::as_u64`] implement that
/// convention (little-endian, exactly 8 bytes).
///
/// Serialises as an array of byte numbers and prints as `Value(b"…")`.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// Encode a `u64` write id.
    pub fn from_u64(x: u64) -> Self {
        Value(Arc::from(x.to_le_bytes().as_slice()))
    }

    /// Decode a `u64` write id; `None` if the value is not 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.0.as_ref().try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Value").field(&format_args!("b\"{}\"", self.0.escape_ascii())).finish()
    }
}

impl Deserialize for Value {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<u8>::from_value(v).map(|bytes| Value(bytes.into()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(x) => write!(f, "#{x}"),
            None => write!(f, "{}b", self.0.len()),
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
        Value(Arc::from(s.as_bytes()))
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
        let v = Value::from_u64(9);
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.as_bytes(), w.as_bytes()), "a clone shares the bytes");
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
