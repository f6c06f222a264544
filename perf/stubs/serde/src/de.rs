//! Deserialization half of the data model.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::time::Duration;

/// Error raised by a `Deserializer`.
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn invalid_type(unexp: &str, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid type: {unexp}, expected {exp}"))
    }
    fn invalid_value(unexp: &str, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid value: {unexp}, expected {exp}"))
    }
    fn invalid_length(len: usize, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid length {len}, expected {exp}"))
    }
}

/// What a `Visitor` expected, for error messages.
pub trait Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, V: Visitor<'de>> Expected for V {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(f)
    }
}

impl Expected for &str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, f)
    }
}

/// A value that can be read from any `Deserializer`.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// Stateful form of `Deserialize`.
pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    #[inline]
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data format that can read the serde data model.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("i128 is not supported"))
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("u128 is not supported"))
    }
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_default {
    ($($method:ident($ty:ty) $what:expr;)*) => {$(
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            let _ = v;
            Err(Error::invalid_type($what, &self))
        }
    )*};
}

macro_rules! visit_forward {
    ($($method:ident($ty:ty) => $to:ident as $wide:ty;)*) => {$(
        #[inline]
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            self.$to(v as $wide)
        }
    )*};
}

/// Receives whatever value the `Deserializer` found.
pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_default! {
        visit_bool(bool) "boolean";
        visit_i64(i64) "integer";
        visit_i128(i128) "integer";
        visit_u64(u64) "integer";
        visit_u128(u128) "integer";
        visit_f64(f64) "floating point";
        visit_str(&str) "string";
        visit_bytes(&[u8]) "byte array";
    }

    visit_forward! {
        visit_i8(i8) => visit_i64 as i64;
        visit_i16(i16) => visit_i64 as i64;
        visit_i32(i32) => visit_i64 as i64;
        visit_u8(u8) => visit_u64 as u64;
        visit_u16(u16) => visit_u64 as u64;
        visit_u32(u32) => visit_u64 as u64;
        visit_f32(f32) => visit_f64 as f64;
    }

    #[inline]
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }
    #[inline]
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }
    #[inline]
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    #[inline]
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    #[inline]
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type("Option value", &self))
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type("Option value", &self))
    }
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type("unit value", &self))
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type("newtype struct", &self))
    }
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type("sequence", &self))
    }
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type("map", &self))
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::invalid_type("enum", &self))
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    #[inline]
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: SeqAccess<'de> + ?Sized> SeqAccess<'de> for &mut A {
    type Error = A::Error;
    #[inline]
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error> {
        (**self).next_element_seed(seed)
    }
    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

pub trait MapAccess<'de> {
    type Error: Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    #[inline]
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }
    #[inline]
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }
    #[inline]
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(k) => Ok(Some((k, self.next_value()?))),
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    #[inline]
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

pub trait VariantAccess<'de>: Sized {
    type Error: Error;

    fn unit_variant(self) -> Result<(), Self::Error>;
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;
    #[inline]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Conversion of a plain value into a `Deserializer` that yields it.
pub trait IntoDeserializer<'de, E: Error = value::Error> {
    type Deserializer: Deserializer<'de, Error = E>;
    fn into_deserializer(self) -> Self::Deserializer;
}

pub mod value {
    //! Deserializers over plain values.

    use super::{Deserializer, IntoDeserializer, Visitor};
    use std::fmt;
    use std::marker::PhantomData;

    /// Minimal error for value deserializers used without a format.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl super::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// Yields one `u32` — how formats hand an enum's variant index to the
    /// derived identifier visitor.
    pub struct U32Deserializer<E> {
        value: u32,
        marker: PhantomData<E>,
    }

    impl<'de, E: super::Error> IntoDeserializer<'de, E> for u32 {
        type Deserializer = U32Deserializer<E>;
        #[inline]
        fn into_deserializer(self) -> U32Deserializer<E> {
            U32Deserializer {
                value: self,
                marker: PhantomData,
            }
        }
    }

    macro_rules! forward_to_any {
        ($($method:ident)*) => {$(
            #[inline]
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                self.deserialize_any(visitor)
            }
        )*};
    }

    impl<'de, E: super::Error> Deserializer<'de> for U32Deserializer<E> {
        type Error = E;

        #[inline]
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }

        forward_to_any! {
            deserialize_bool deserialize_i8 deserialize_i16 deserialize_i32
            deserialize_i64 deserialize_i128 deserialize_u8 deserialize_u16
            deserialize_u32 deserialize_u64 deserialize_u128 deserialize_f32
            deserialize_f64 deserialize_char deserialize_str deserialize_string
            deserialize_bytes deserialize_byte_buf deserialize_option
            deserialize_unit deserialize_seq deserialize_map
            deserialize_identifier deserialize_ignored_any
        }

        fn deserialize_unit_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_tuple<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_tuple_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
    }
}

// ---------------------------------------------------------------------------
// Impls for std types
// ---------------------------------------------------------------------------

/// Largest element count pre-allocated from an untrusted size hint.
const MAX_PREALLOC: usize = 4096;

fn cautious(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(MAX_PREALLOC)
}

macro_rules! int_impl {
    ($($ty:ident $de:ident [$($visit:ident $src:ident)*],)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    $(
                        #[inline]
                        fn $visit<E: Error>(self, v: $src) -> Result<$ty, E> {
                            $ty::try_from(v).map_err(|_| {
                                Error::invalid_value("out-of-range integer", &self)
                            })
                        }
                    )*
                }
                d.$de(V)
            }
        }
    )*};
}

int_impl! {
    i8 deserialize_i8 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    i16 deserialize_i16 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    i32 deserialize_i32 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    i64 deserialize_i64 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    i128 deserialize_i128 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_i128 i128 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64 visit_u128 u128],
    isize deserialize_i64 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    u8 deserialize_u8 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    u16 deserialize_u16 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    u32 deserialize_u32 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    u64 deserialize_u64 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
    u128 deserialize_u128 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_i128 i128 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64 visit_u128 u128],
    usize deserialize_u64 [visit_i8 i8 visit_i16 i16 visit_i32 i32 visit_i64 i64 visit_u8 u8 visit_u16 u16 visit_u32 u32 visit_u64 u64],
}

macro_rules! float_impl {
    ($($ty:ident $de:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    #[inline]
                    fn visit_f32<E: Error>(self, v: f32) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    #[inline]
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    #[inline]
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    #[inline]
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                }
                d.$de(V)
            }
        }
    )*};
}

float_impl! {
    f32 deserialize_f32,
    f64 deserialize_f64,
}

impl<'de> Deserialize<'de> for bool {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            #[inline]
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        d.deserialize_bool(V)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut it = v.chars();
                match (it.next(), it.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(Error::invalid_value("string", &self)),
                }
            }
        }
        d.deserialize_char(V)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
            fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<String, E> {
                std::str::from_utf8(v)
                    .map(str::to_owned)
                    .map_err(|_| Error::invalid_value("non-UTF-8 bytes", &self))
            }
        }
        d.deserialize_string(V)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = &'de str;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed string")
            }
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<&'de str, E> {
                Ok(v)
            }
        }
        d.deserialize_str(V)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a [u8] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = &'de [u8];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed byte array")
            }
            fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<&'de [u8], E> {
                Ok(v)
            }
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<&'de [u8], E> {
                Ok(v.as_bytes())
            }
        }
        d.deserialize_bytes(V)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        d.deserialize_unit(V)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T: ?Sized>(PhantomData<T>);
        impl<'de, T: ?Sized> Visitor<'de> for V<T> {
            type Value = PhantomData<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<PhantomData<T>, E> {
                Ok(PhantomData)
            }
        }
        d.deserialize_unit_struct("PhantomData", V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for V<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        d.deserialize_option(V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(std::sync::Arc::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<[T]> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(Vec::into_boxed_slice)
    }
}

macro_rules! seq_impl {
    ($($ty:ident <T $(: $b0:ident $(+ $b:ident)*)? $(, $h:ident : $hb0:ident $(+ $hb:ident)*)?>
        $cap:ident => $with_cap:expr, $push:ident;)*) => {$(
        impl<'de, T: Deserialize<'de> $(+ $b0 $(+ $b)*)? $(, $h: $hb0 $(+ $hb)*)?> Deserialize<'de>
            for $ty<T $(, $h)?>
        {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V<T $(, $h)?>(PhantomData<(T, $($h)?)>);
                impl<'de, T: Deserialize<'de> $(+ $b0 $(+ $b)*)? $(, $h: $hb0 $(+ $hb)*)?>
                    Visitor<'de> for V<T $(, $h)?>
                {
                    type Value = $ty<T $(, $h)?>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let $cap = cautious(seq.size_hint());
                        let mut out = $with_cap;
                        while let Some(v) = seq.next_element()? {
                            out.$push(v);
                        }
                        Ok(out)
                    }
                }
                d.deserialize_seq(V(PhantomData))
            }
        }
    )*};
}

seq_impl! {
    Vec<T> cap => Vec::with_capacity(cap), push;
    VecDeque<T> cap => VecDeque::with_capacity(cap), push_back;
    BTreeSet<T: Ord> _cap => BTreeSet::new(), insert;
    HashSet<T: Eq + Hash, H: BuildHasher + Default> cap => HashSet::with_capacity_and_hasher(cap, H::default()), insert;
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for V<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            #[inline]
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut out = Vec::with_capacity(N);
                for i in 0..N {
                    match seq.next_element()? {
                        Some(v) => out.push(v),
                        None => return Err(Error::invalid_length(i, &self)),
                    }
                }
                match out.try_into() {
                    Ok(arr) => Ok(arr),
                    Err(_) => Err(Error::custom("array length mismatch")),
                }
            }
        }
        d.deserialize_tuple(N, V::<T, N>(PhantomData))
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct Vis<K, V>(PhantomData<(K, V)>);
        impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for Vis<K, V> {
            type Value = BTreeMap<K, V>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = BTreeMap::new();
                while let Some((k, v)) = map.next_entry()? {
                    out.insert(k, v);
                }
                Ok(out)
            }
        }
        d.deserialize_map(Vis(PhantomData))
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct Vis<K, V, H>(PhantomData<(K, V, H)>);
        impl<'de, K, V, H> Visitor<'de> for Vis<K, V, H>
        where
            K: Deserialize<'de> + Eq + Hash,
            V: Deserialize<'de>,
            H: BuildHasher + Default,
        {
            type Value = HashMap<K, V, H>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out =
                    HashMap::with_capacity_and_hasher(cautious(map.size_hint()), H::default());
                while let Some((k, v)) = map.next_entry()? {
                    out.insert(k, v);
                }
                Ok(out)
            }
        }
        d.deserialize_map(Vis(PhantomData))
    }
}

macro_rules! tuple_impl {
    ($($len:expr => ($($name:ident)+))+) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V<$($name,)+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for V<$($name,)+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of size {}", $len)
                    }
                    #[inline]
                    #[allow(non_snake_case)]
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let mut n = 0usize;
                        $(
                            let $name = match seq.next_element()? {
                                Some(v) => v,
                                None => return Err(Error::invalid_length(n, &self)),
                            };
                            n += 1;
                        )+
                        let _ = n;
                        Ok(($($name,)+))
                    }
                }
                d.deserialize_tuple($len, V(PhantomData))
            }
        }
    )+};
}

tuple_impl! {
    1 => (T0)
    2 => (T0 T1)
    3 => (T0 T1 T2)
    4 => (T0 T1 T2 T3)
    5 => (T0 T1 T2 T3 T4)
    6 => (T0 T1 T2 T3 T4 T5)
    7 => (T0 T1 T2 T3 T4 T5 T6)
    8 => (T0 T1 T2 T3 T4 T5 T6 T7)
}

impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Deserialize<'de> for Result<T, E> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct Vis<T, E>(PhantomData<(T, E)>);
        impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Visitor<'de> for Vis<T, E> {
            type Value = Result<T, E>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("enum Result")
            }
            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
                match data.variant::<VariantIndex>()? {
                    (VariantIndex(0), v) => v.newtype_variant().map(Ok),
                    (VariantIndex(1), v) => v.newtype_variant().map(Err),
                    (VariantIndex(_), _) => Err(Error::invalid_value("variant index", &self)),
                }
            }
        }
        d.deserialize_enum("Result", &["Ok", "Err"], Vis(PhantomData))
    }
}

/// A variant identifier read positionally: formats hand the derived code
/// an index (`visit_u64`), which is all a non-self-describing format has.
/// Used by the derive macro's generated code.
#[doc(hidden)]
pub struct VariantIndex(pub u64);

impl<'de> Deserialize<'de> for VariantIndex {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = VariantIndex;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("variant index")
            }
            #[inline]
            fn visit_u64<E: Error>(self, v: u64) -> Result<VariantIndex, E> {
                Ok(VariantIndex(v))
            }
        }
        d.deserialize_identifier(V)
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = Duration;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Duration")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Duration, A::Error> {
                let secs: u64 = match seq.next_element()? {
                    Some(v) => v,
                    None => return Err(Error::invalid_length(0, &self)),
                };
                let nanos: u32 = match seq.next_element()? {
                    Some(v) => v,
                    None => return Err(Error::invalid_length(1, &self)),
                };
                if nanos >= 1_000_000_000 {
                    return Err(Error::custom("overflow deserializing Duration nanos"));
                }
                Ok(Duration::new(secs, nanos))
            }
        }
        d.deserialize_struct("Duration", &["secs", "nanos"], V)
    }
}
