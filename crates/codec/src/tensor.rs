//! Flat numeric tensors with bulk-copy serialization.
//!
//! Large objects in Ray (model weights, gradients, batched observations) are
//! flat numeric buffers, and their movement cost is dominated by `memcpy`
//! (paper Fig. 9: "For larger objects, memcpy dominates object creation
//! time"). These tensor types reproduce that profile: the payload is copied
//! in bulk rather than element-by-element through serde.
//!
//! Wire layout: `magic (4) | dtype (1) | ndim (u32) | shape (u64 × ndim) |
//! payload (elem_size × product(shape))`, all little-endian.

use bytes::Bytes;

use crate::error::CodecError;

const MAGIC: [u8; 4] = *b"RTNS";

const DTYPE_F64: u8 = 1;
const DTYPE_F32: u8 = 2;

/// Splits an encoded tensor into its shape and payload after checking the
/// magic, the dtype and that the payload holds exactly `product(shape)`
/// elements of `elem` bytes.
fn parse(bytes: &[u8], dtype: u8, elem: usize) -> Result<(Vec<usize>, &[u8]), CodecError> {
    if bytes.len() < 9 {
        return Err(CodecError::msg("tensor buffer too short"));
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::msg("bad tensor magic"));
    }
    if bytes[4] != dtype {
        return Err(CodecError::msg(format!(
            "dtype mismatch: wire {} expected {dtype}",
            bytes[4]
        )));
    }
    let ndim = u32::from_le_bytes(bytes[5..9].try_into().expect("len checked")) as usize;
    let header = ndim.checked_mul(8).and_then(|n| n.checked_add(9));
    let Some(payload) = header.and_then(|h| bytes.get(h..)) else {
        return Err(CodecError::msg("tensor shape truncated"));
    };
    let shape: Vec<usize> = bytes[9..bytes.len() - payload.len()]
        .chunks_exact(8)
        .map(|d| u64::from_le_bytes(d.try_into().expect("chunks_exact")) as usize)
        .collect();
    let expect = shape
        .iter()
        .try_fold(elem, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| CodecError::msg("tensor shape overflows"))?;
    if payload.len() != expect {
        return Err(CodecError::msg(format!(
            "tensor payload {} bytes, expected {expect}",
            payload.len()
        )));
    }
    Ok((shape, payload))
}

/// The codec encoding of `Blob(TensorF64::encode_slice(data))` — what an
/// actor method returns or a task takes for a slice of `f64`s — written
/// straight from the slice, so the payload is copied once.
pub fn encode_f64_blob(data: &[f64]) -> Vec<u8> {
    let mut out = f64_blob_header(data.len());
    TensorF64::write_payload(&mut out, data);
    out
}

/// The [`encode_f64_blob`] encoding of `a[i] + b[i]`, written in one pass
/// over both views: the sum is never materialized as `f64`s first. The
/// lengths must agree; a mismatch is the error `b.add_into(a)` gives.
pub fn encode_f64_sum_blob(a: F64View<'_>, b: F64View<'_>) -> Result<Vec<u8>, CodecError> {
    b.check_len(a.len())?;
    let mut out = f64_blob_header(a.len());
    out.extend(a.iter().zip(b.iter()).flat_map(|(x, y)| (x + y).to_le_bytes()));
    Ok(out)
}

/// A buffer sized for the blob of `n` `f64`s, holding everything up to
/// the payload: the blob's length prefix and the rank-1 tensor header.
fn f64_blob_header(n: usize) -> Vec<u8> {
    let body = TensorF64::slice_encoded_len(n);
    let mut out = Vec::with_capacity(8 + body);
    out.extend_from_slice(&(body as u64).to_le_bytes());
    TensorF64::write_header(&mut out, &[n]);
    out
}

/// The elements of an encoded `f64` tensor, read where they lie: nothing
/// is copied and the payload may sit at any alignment, which is how it
/// arrives inside an argument buffer (length prefix and header put it at
/// an odd offset).
#[derive(Debug, Clone, Copy)]
pub struct F64View<'a> {
    payload: &'a [u8],
}

impl<'a> F64View<'a> {
    /// Views bytes produced by [`TensorF64::to_bytes`]; the shape is
    /// flattened.
    pub fn of_tensor(bytes: &'a [u8]) -> Result<Self, CodecError> {
        parse(bytes, DTYPE_F64, 8).map(|(_, payload)| F64View { payload })
    }

    /// Views the codec encoding of a [`Blob`](crate::Blob) holding a
    /// tensor, as [`encode_f64_blob`] writes it.
    pub fn of_encoded_blob(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let (len, body) = bytes
            .split_first_chunk::<8>()
            .ok_or_else(|| CodecError::msg("blob length prefix truncated"))?;
        if u64::from_le_bytes(*len) != body.len() as u64 {
            return Err(CodecError::msg("blob length prefix disagrees with buffer"));
        }
        Self::of_tensor(body)
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.payload.len() / 8
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact")))
    }

    /// `dst[i] += self[i]`; the lengths must agree.
    pub fn add_into(&self, dst: &mut [f64]) -> Result<(), CodecError> {
        self.check_len(dst.len())?;
        for (d, v) in dst.iter_mut().zip(self.iter()) {
            *d += v;
        }
        Ok(())
    }

    /// `dst[i] = self[i]`; the lengths must agree.
    pub fn copy_into(&self, dst: &mut [f64]) -> Result<(), CodecError> {
        self.check_len(dst.len())?;
        for (d, v) in dst.iter_mut().zip(self.iter()) {
            *d = v;
        }
        Ok(())
    }

    /// Copies the elements out.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    fn check_len(&self, dst: usize) -> Result<(), CodecError> {
        if dst == self.len() {
            Ok(())
        } else {
            Err(CodecError::msg(format!("tensor of {} elements into a slice of {dst}", self.len())))
        }
    }
}

macro_rules! tensor_impl {
    ($(#[$meta:meta])* $name:ident, $elem:ty, $dtype:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            shape: Vec<usize>,
            data: Vec<$elem>,
        }

        impl $name {
            /// Creates a tensor from a shape and matching flat data.
            ///
            /// # Examples
            ///
            /// ```
            /// use ray_codec::tensor::TensorF64;
            /// let t = TensorF64::from_shape(vec![2, 3], vec![0.0; 6]).unwrap();
            /// assert_eq!(t.len(), 6);
            /// ```
            pub fn from_shape(shape: Vec<usize>, data: Vec<$elem>) -> Result<Self, CodecError> {
                let expect: usize = shape.iter().product();
                if expect != data.len() {
                    return Err(CodecError::msg(format!(
                        "shape {shape:?} implies {expect} elements, got {}",
                        data.len()
                    )));
                }
                Ok(Self { shape, data })
            }

            /// Creates a rank-1 tensor from a vector.
            pub fn from_vec(data: Vec<$elem>) -> Self {
                Self { shape: vec![data.len()], data }
            }

            /// Creates a zero-filled tensor of the given shape.
            pub fn zeros(shape: Vec<usize>) -> Self {
                let n: usize = shape.iter().product();
                Self { shape, data: vec![0.0; n] }
            }

            /// The tensor's shape.
            pub fn shape(&self) -> &[usize] {
                &self.shape
            }

            /// Total element count.
            pub fn len(&self) -> usize {
                self.data.len()
            }

            /// Whether the tensor has zero elements.
            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            /// Flat read access to the elements.
            pub fn data(&self) -> &[$elem] {
                &self.data
            }

            /// Consumes the tensor, returning its flat data.
            pub fn into_vec(self) -> Vec<$elem> {
                self.data
            }

            /// Serialized size in bytes.
            pub fn encoded_len(&self) -> usize {
                4 + 1 + 4 + 8 * self.shape.len()
                    + self.data.len() * std::mem::size_of::<$elem>()
            }

            /// Encodes the tensor with a bulk payload copy.
            pub fn to_bytes(&self) -> Bytes {
                let mut out = Vec::with_capacity(self.encoded_len());
                Self::write(&mut out, &self.shape, &self.data);
                Bytes::from(out)
            }

            /// The bytes `Self::from_vec(data.to_vec()).to_bytes()` holds,
            /// copied out of the slice once.
            pub fn encode_slice(data: &[$elem]) -> Vec<u8> {
                let mut out = Vec::with_capacity(Self::slice_encoded_len(data.len()));
                Self::write(&mut out, &[data.len()], data);
                out
            }

            /// Serialized size of a rank-1 tensor of `n` elements.
            const fn slice_encoded_len(n: usize) -> usize {
                4 + 1 + 4 + 8 + n * std::mem::size_of::<$elem>()
            }

            fn write(out: &mut Vec<u8>, shape: &[usize], data: &[$elem]) {
                Self::write_header(out, shape);
                Self::write_payload(out, data);
            }

            fn write_header(out: &mut Vec<u8>, shape: &[usize]) {
                out.extend_from_slice(&MAGIC);
                out.push($dtype);
                out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
                for &d in shape {
                    out.extend_from_slice(&(d as u64).to_le_bytes());
                }
            }

            fn write_payload(out: &mut Vec<u8>, data: &[$elem]) {
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: `$elem` is a plain IEEE-754 float with no
                    // padding; viewing its storage as bytes is always valid,
                    // and `u8` has alignment 1. The length is the exact byte
                    // size of the slice. On little-endian hosts the byte
                    // order matches the wire format.
                    let raw: &[u8] = unsafe {
                        std::slice::from_raw_parts(
                            data.as_ptr() as *const u8,
                            std::mem::size_of_val(data),
                        )
                    };
                    out.extend_from_slice(raw);
                }
                #[cfg(not(target_endian = "little"))]
                {
                    for &v in data {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }

            /// Decodes a tensor previously produced by [`Self::to_bytes`].
            pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
                const ELEM: usize = std::mem::size_of::<$elem>();
                let (shape, payload) = parse(bytes, $dtype, ELEM)?;
                let n = payload.len() / ELEM;
                let mut data: Vec<$elem> = Vec::with_capacity(n);
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: `data` was allocated with capacity for `n`
                    // elements (`n * ELEM` bytes). `parse` returns a payload
                    // of exactly that many bytes, every bit pattern is a valid
                    // float, and source/destination do not overlap. After
                    // the copy all `n` elements are initialized, so
                    // `set_len(n)` is sound.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            payload.as_ptr(),
                            data.as_mut_ptr() as *mut u8,
                            n * ELEM,
                        );
                        data.set_len(n);
                    }
                }
                #[cfg(not(target_endian = "little"))]
                {
                    for chunk in payload.chunks_exact(ELEM) {
                        data.push(<$elem>::from_le_bytes(
                            chunk.try_into().expect("chunks_exact"),
                        ));
                    }
                }
                Ok(Self { shape, data })
            }
        }
    };
}

tensor_impl!(
    /// A dense `f64` tensor with bulk-copy (de)serialization.
    TensorF64,
    f64,
    DTYPE_F64
);
tensor_impl!(
    /// A dense `f32` tensor with bulk-copy (de)serialization.
    TensorF32,
    f32,
    DTYPE_F32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let t = TensorF64::from_shape(vec![2, 3], vec![1.0, -2.0, 3.5, 0.0, f64::MAX, 1e-300])
            .unwrap();
        let back = TensorF64::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn f32_round_trip() {
        let t = TensorF32::from_vec((0..1000).map(|i| i as f32 * 0.5).collect());
        let back = TensorF32::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_tensor_round_trip() {
        let t = TensorF64::from_vec(vec![]);
        let back = TensorF64::from_bytes(&t.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(TensorF64::from_shape(vec![2, 2], vec![0.0; 3]).is_err());
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let t = TensorF32::from_vec(vec![1.0]);
        assert!(TensorF64::from_bytes(&t.to_bytes()).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let t = TensorF64::from_vec(vec![1.0]);
        let mut b = t.to_bytes().to_vec();
        b[0] = b'X';
        assert!(TensorF64::from_bytes(&b).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let t = TensorF64::from_vec(vec![1.0, 2.0]);
        let b = t.to_bytes();
        assert!(TensorF64::from_bytes(&b[..b.len() - 1]).is_err());
    }

    #[test]
    fn unaligned_input_decodes() {
        // Prepend one byte so the payload is misaligned relative to f64.
        let t = TensorF64::from_vec(vec![1.25, 2.5, 3.75]);
        let mut buf = vec![0u8];
        buf.extend_from_slice(&t.to_bytes());
        let back = TensorF64::from_bytes(&buf[1..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn nan_payload_round_trips_bitwise() {
        let t = TensorF64::from_vec(vec![f64::NAN]);
        let back = TensorF64::from_bytes(&t.to_bytes()).unwrap();
        assert!(back.data()[0].is_nan());
    }

    #[test]
    fn zeros_has_right_shape() {
        let t = TensorF32::zeros(vec![4, 5]);
        assert_eq!(t.len(), 20);
        assert_eq!(t.shape(), &[4, 5]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }
}
