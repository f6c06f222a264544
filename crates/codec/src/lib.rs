//! `ray-codec`: the serialization layer of the rustray object store.
//!
//! The original Ray uses Apache Arrow as its data format (paper §4.2.3) so
//! that objects move between workers as flat buffers: small objects pay a
//! serialization/IPC cost, large objects are memcpy-bound (paper Fig. 9).
//! This crate reproduces those two regimes with a compact, non-self-
//! describing binary format:
//!
//! - [`encode`]/[`decode`] run any `serde` type through the format
//!   ([`ser::Serializer`] / [`de::Deserializer`]), used for task arguments,
//!   GCS table entries, and small values.
//! - [`tensor`] provides flat numeric arrays ([`tensor::TensorF64`],
//!   [`tensor::TensorF32`]) whose payloads encode/decode by bulk copy — the
//!   memcpy-bound path that dominates for large objects.
//!
//! The format is little-endian, length-prefixed (`u64` lengths, `u32` enum
//! variant indices), and not self-describing: both sides must agree on the
//! type, exactly as with bincode or Arrow IPC schemas.
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Rollout {
//!     steps: u32,
//!     rewards: Vec<f64>,
//! }
//!
//! let r = Rollout { steps: 3, rewards: vec![1.0, -0.5, 2.5] };
//! let bytes = ray_codec::encode(&r).unwrap();
//! let back: Rollout = ray_codec::decode(&bytes).unwrap();
//! assert_eq!(r, back);
//! ```

pub mod de;
pub mod error;
pub mod ser;
pub mod tensor;

use bytes::Bytes;
pub use error::CodecError;

/// A byte payload that (de)serializes through the format's bulk `bytes`
/// path instead of element-wise `Vec<u8>` encoding — the fast lane for
/// tensors, gradients, and batched observations riding inside serde types.
///
/// # Examples
///
/// ```
/// use ray_codec::Blob;
/// let blob = Blob(vec![0u8; 1024]);
/// let bytes = ray_codec::encode(&blob).unwrap();
/// // 8-byte length prefix + payload, no per-element overhead.
/// assert_eq!(bytes.len(), 8 + 1024);
/// let back: Blob = ray_codec::decode(&bytes).unwrap();
/// assert_eq!(back, blob);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Blob(pub Vec<u8>);

impl Blob {
    /// A rank-1 `f64` tensor over `data` (the bytes of
    /// [`tensor::TensorF64::to_bytes`]), copied out of the slice once.
    pub fn from_f64s(data: &[f64]) -> Blob {
        Blob(tensor::TensorF64::encode_slice(data))
    }

    /// The `f64` tensor this blob holds, viewed in place.
    pub fn f64s(&self) -> Result<tensor::F64View<'_>, CodecError> {
        tensor::F64View::of_tensor(&self.0)
    }
}

impl serde::Serialize for Blob {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Blob {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl serde::de::Visitor<'_> for V {
            type Value = Blob;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a byte buffer")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Blob, E> {
                Ok(Blob(v.to_vec()))
            }
            fn visit_byte_buf<E: serde::de::Error>(self, v: Vec<u8>) -> Result<Blob, E> {
                Ok(Blob(v))
            }
        }
        deserializer.deserialize_byte_buf(V)
    }
}

/// Serializes `value` into a freshly allocated byte buffer.
pub fn encode<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut s = ser::Serializer::new(&mut out);
    value.serialize(&mut s)?;
    Ok(out)
}

/// Serializes `value` into [`Bytes`], the zero-copy buffer type the object
/// store shares between co-located tasks.
pub fn encode_bytes<T: serde::Serialize + ?Sized>(value: &T) -> Result<Bytes, CodecError> {
    encode_exact(value).map(Bytes::from)
}

/// [`encode`] with the buffer's growth slack handed back (a shrinking
/// `realloc`, which under glibc moves no bytes): a `put` seals the buffer
/// as it is and the store charges only its length.
fn encode_exact<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = encode(value)?;
    out.shrink_to_fit();
    Ok(out)
}

/// Deserializes a `T` from `bytes`, requiring the buffer to be fully
/// consumed.
pub fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = de::Deserializer::new(bytes);
    let value = T::deserialize(&mut d)?;
    d.end()?;
    Ok(value)
}

/// Deserializes a `T` from the front of `bytes`, returning the value and the
/// number of bytes consumed (for framed streams).
pub fn decode_prefix<T: serde::de::DeserializeOwned>(
    bytes: &[u8],
) -> Result<(T, usize), CodecError> {
    let mut d = de::Deserializer::new(bytes);
    let value = T::deserialize(&mut d)?;
    let used = d.consumed();
    Ok((value, used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    fn round_trip<T>(v: &T)
    where
        T: Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        let bytes = encode(v).unwrap();
        let back: T = decode(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&0u8);
        round_trip(&u64::MAX);
        round_trip(&i64::MIN);
        round_trip(&-1i8);
        round_trip(&3.25f32);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&'λ');
        round_trip(&String::from("hello, 世界"));
        round_trip(&123u128);
        round_trip(&(-5i128));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<String>::new());
        round_trip(&Some(7u8));
        round_trip(&Option::<u8>::None);
        round_trip(&(1u8, "two".to_string(), 3.0f64));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), vec![1u64]);
        m.insert("b".to_string(), vec![2, 3]);
        round_trip(&m);
        let mut h = HashMap::new();
        h.insert(1u32, "x".to_string());
        round_trip(&h);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u8, u8),
        Struct { w: f32, h: f32 },
    }

    #[test]
    fn enums_round_trip() {
        round_trip(&Shape::Unit);
        round_trip(&Shape::Newtype(9));
        round_trip(&Shape::Tuple(1, 2));
        round_trip(&Shape::Struct { w: 1.5, h: 2.5 });
        round_trip(&vec![Shape::Unit, Shape::Newtype(3)]);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        name: String,
        inner: Option<Box<Nested>>,
        data: Vec<(u64, f64)>,
    }

    #[test]
    fn nested_structs_round_trip() {
        round_trip(&Nested {
            name: "outer".into(),
            inner: Some(Box::new(Nested { name: "inner".into(), inner: None, data: vec![] })),
            data: vec![(1, 0.5), (2, -0.5)],
        });
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode(&42u32).unwrap();
        bytes.push(0);
        assert!(decode::<u32>(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode(&String::from("hello")).unwrap();
        assert!(decode::<String>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_prefix_reports_consumption() {
        let mut buf = encode(&7u16).unwrap();
        buf.extend(encode(&String::from("tail")).unwrap());
        let (v, used) = decode_prefix::<u16>(&buf).unwrap();
        assert_eq!(v, 7);
        let (s, _) = decode_prefix::<String>(&buf[used..]).unwrap();
        assert_eq!(s, "tail");
    }

    #[test]
    fn unit_and_unit_struct() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Marker;
        round_trip(&());
        round_trip(&Marker);
        assert!(encode(&Marker).unwrap().is_empty());
    }

    #[test]
    fn option_encoding_is_one_byte_tagged() {
        assert_eq!(encode(&Option::<u32>::None).unwrap().len(), 1);
        assert_eq!(encode(&Some(1u32)).unwrap().len(), 5);
    }

    #[test]
    fn malformed_bool_rejected() {
        assert!(decode::<bool>(&[2]).is_err());
    }

    #[test]
    fn malformed_utf8_rejected() {
        // Length 1, invalid UTF-8 byte.
        let mut buf = 1u64.to_le_bytes().to_vec();
        buf.push(0xff);
        assert!(decode::<String>(&buf).is_err());
    }

    #[test]
    fn absurd_length_prefix_rejected_without_allocation() {
        // A sequence claiming u64::MAX elements must not OOM the decoder.
        let buf = u64::MAX.to_le_bytes().to_vec();
        assert!(decode::<Vec<u8>>(&buf).is_err());
    }

    #[test]
    fn a_buffer_for_the_store_has_no_growth_slack() {
        let v: Vec<f64> = (0..100_001).map(f64::from).collect();
        let grown = encode(&v).unwrap();
        assert!(grown.capacity() > grown.len(), "the case must leave slack to hand back");
        let exact = encode_exact(&v).unwrap();
        assert_eq!(exact.capacity(), exact.len());
        assert_eq!(exact, grown);
        assert_eq!(encode_bytes(&v).unwrap(), grown);
    }
}
