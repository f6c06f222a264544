//! The decoding half of the format.
//!
//! The deserializer is strict: it rejects truncated buffers, invalid UTF-8,
//! out-of-range booleans/chars, and — because length prefixes come off the
//! wire — it never trusts a length to allocate more than the remaining
//! input could possibly hold.

use serde::de::{
    self, DeserializeSeed, EnumAccess, IntoDeserializer, MapAccess, SeqAccess, VariantAccess,
    Visitor,
};

use crate::error::CodecError;

/// Deserializer reading the rustray binary format from a byte slice.
pub struct Deserializer<'de> {
    input: &'de [u8],
}

impl<'de> Deserializer<'de> {
    /// Wraps an input buffer.
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input }
    }

    /// Fails unless the entire input was consumed.
    pub fn end(&self) -> Result<(), CodecError> {
        if self.input.is_empty() {
            Ok(())
        } else {
            Err(CodecError::msg(format!("{} trailing bytes after value", self.input.len())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::msg(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.input.len()
            )));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned exactly N bytes"))
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let len = u64::from_le_bytes(self.take_array::<8>()?);
        // A sequence of `len` elements needs at least one byte each (bools,
        // u8s); a hostile prefix longer than the remaining input is invalid.
        // Zero-sized element types (units) are bounded separately by serde's
        // recursion, and `len == 0` is always fine.
        if len as usize > self.input.len() && len > 0 {
            // Permit unit-like sequences of zero-size elements only when the
            // claimed length is small; anything else is a malformed buffer.
            if len > 1_000_000 {
                return Err(CodecError::msg(format!(
                    "length prefix {len} exceeds remaining input {}",
                    self.input.len()
                )));
            }
        }
        Ok(len as usize)
    }
}

macro_rules! de_fixed {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let v = <$ty>::from_le_bytes(self.take_array()?);
            visitor.$visit(v)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::msg("format is not self-describing; deserialize_any unsupported"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(CodecError::msg(format!("invalid bool byte {b}"))),
        }
    }

    de_fixed!(deserialize_i8, visit_i8, i8);
    de_fixed!(deserialize_i16, visit_i16, i16);
    de_fixed!(deserialize_i32, visit_i32, i32);
    de_fixed!(deserialize_i64, visit_i64, i64);
    de_fixed!(deserialize_i128, visit_i128, i128);
    de_fixed!(deserialize_u16, visit_u16, u16);
    de_fixed!(deserialize_u32, visit_u32, u32);
    de_fixed!(deserialize_u64, visit_u64, u64);
    de_fixed!(deserialize_u128, visit_u128, u128);
    de_fixed!(deserialize_f32, visit_f32, f32);
    de_fixed!(deserialize_f64, visit_f64, f64);

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let raw = u32::from_le_bytes(self.take_array()?);
        let c = char::from_u32(raw)
            .ok_or_else(|| CodecError::msg(format!("invalid char code point {raw:#x}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|e| CodecError::msg(e.to_string()))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError::msg(format!("invalid option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_map(Counted { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(Enum { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::msg("identifiers are positional in this format"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, CodecError> {
        Err(CodecError::msg("cannot skip values in a non-self-describing format"))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Sequence/map access that yields exactly `remaining` elements.
struct Counted<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de> SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct Enum<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> EnumAccess<'de> for Enum<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), CodecError> {
        let idx = u32::from_le_bytes(self.de.take_array()?);
        let val = seed.deserialize(idx.into_deserializer())?;
        Ok((val, self))
    }
}

impl<'de> VariantAccess<'de> for Enum<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted { de: self.de, remaining: len })
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted { de: self.de, remaining: fields.len() })
    }
}

#[cfg(test)]
mod tests {
    use crate::{decode, encode};

    #[test]
    fn invalid_char_rejected() {
        // 0xD800 is a surrogate, not a valid scalar value.
        let buf = 0xD800u32.to_le_bytes().to_vec();
        assert!(decode::<char>(&buf).is_err());
    }

    #[test]
    fn borrowed_str_decode() {
        let buf = encode("zero-copy").unwrap();
        let mut de = super::Deserializer::new(&buf);
        let s: &str = serde::Deserialize::deserialize(&mut de).unwrap();
        assert_eq!(s, "zero-copy");
    }

    #[test]
    fn invalid_option_tag_rejected() {
        assert!(decode::<Option<u8>>(&[7, 0]).is_err());
    }

    #[test]
    fn enum_with_unknown_variant_index_rejected() {
        #[derive(serde::Deserialize, Debug)]
        enum E {
            #[allow(dead_code)]
            A,
        }
        let buf = 42u32.to_le_bytes().to_vec();
        assert!(decode::<E>(&buf).is_err());
    }
}
