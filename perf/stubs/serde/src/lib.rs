//! Std-only stand-in for `serde` 1.x: the data-model traits, the impls for
//! the std types rustray serializes, and (with the `derive` feature) the
//! derive macros. The wire behaviour follows the published crate — the
//! same `Serializer`/`Visitor` calls in the same order — so `ray-codec`
//! produces the same bytes with either.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
