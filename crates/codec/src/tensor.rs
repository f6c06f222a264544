//! Flat numeric tensors with bulk-copy serialization.
//!
//! Large objects in Ray (model weights, gradients, batched observations) are
//! flat numeric buffers, and their movement cost is dominated by `memcpy`
//! (paper Fig. 9: "For larger objects, memcpy dominates object creation
//! time"). [`TensorF64`] reproduces that profile: the payload is copied in
//! bulk rather than element-by-element through serde.
//!
//! Wire layout: `magic (4) | dtype (1) | ndim (u32) | shape (u64 × ndim) |
//! payload (8 × product(shape))`, all little-endian. The dtype byte is
//! always `f64`'s; a decoder rejects any other.

use bytes::Bytes;

use crate::error::CodecError;

const MAGIC: [u8; 4] = *b"RTNS";

const DTYPE_F64: u8 = 1;
const F64_BYTES: usize = std::mem::size_of::<f64>();

/// Splits an encoded `f64` tensor into its shape and payload after
/// checking the magic, the dtype and that the payload holds exactly
/// `product(shape)` elements.
fn parse(bytes: &[u8]) -> Result<(Vec<usize>, &[u8]), CodecError> {
    let (shape, header, expect) = parse_header(bytes)?;
    let payload = bytes.get(header..).unwrap_or_default();
    if payload.len() != expect {
        return Err(CodecError::msg(format!(
            "tensor payload {} bytes, expected {expect}",
            payload.len()
        )));
    }
    Ok((shape, payload))
}

/// Reads the header an encoded `f64` tensor begins with, checking the
/// magic and the dtype: returns the shape, the header's length and the
/// payload length the shape implies.
fn parse_header(bytes: &[u8]) -> Result<(Vec<usize>, usize, usize), CodecError> {
    if bytes.len() < 9 {
        return Err(CodecError::msg("tensor buffer too short"));
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::msg("bad tensor magic"));
    }
    if bytes[4] != DTYPE_F64 {
        return Err(CodecError::msg(format!(
            "dtype mismatch: wire {} expected {DTYPE_F64}",
            bytes[4]
        )));
    }
    let header = tensor_header_len(bytes).filter(|&h| h <= bytes.len());
    let Some(header) = header else {
        return Err(CodecError::msg("tensor shape truncated"));
    };
    let shape: Vec<usize> = bytes[9..header]
        .chunks_exact(8)
        .map(|d| u64::from_le_bytes(d.try_into().expect("chunks_exact")) as usize)
        .collect();
    let expect = shape
        .iter()
        .try_fold(F64_BYTES, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| CodecError::msg("tensor shape overflows"))?;
    Ok((shape, header, expect))
}

/// The length of the header of the encoded tensor `bytes` begins with:
/// magic, dtype, ndim and `ndim` shape words. `None` until `bytes` holds
/// the ndim, or if the length overflows.
fn tensor_header_len(bytes: &[u8]) -> Option<usize> {
    let ndim = bytes.get(5..9)?;
    let ndim = u32::from_le_bytes(ndim.try_into().expect("4 bytes")) as usize;
    ndim.checked_mul(8).and_then(|n| n.checked_add(9))
}

/// The codec encoding of `Blob(TensorF64::encode_slice(data))` — what an
/// actor method returns or a task takes for a slice of `f64`s — written
/// straight from the slice, so the payload is copied once.
pub fn encode_f64_blob(data: &[f64]) -> Vec<u8> {
    let mut out = f64_blob_header(data.len());
    TensorF64::write_payload(&mut out, data);
    out
}

/// Bytes of the [`encode_f64_blob`] encoding before its payload: the
/// blob's length prefix and the rank-1 tensor header.
const F64_BLOB_HEADER: usize = 8 + 4 + 1 + 4 + 8;

/// The [`encode_f64_blob`] encoding of `held[i] + incoming[i]`, where
/// `incoming` is itself such an encoded blob (any shape, flattened) handed
/// over in pieces as they arrive: each piece's elements are summed into
/// the output as it is fed, so the sum of the first pieces is done before
/// the last one lands. The output is appended to a buffer sized once and
/// never zero-filled. A piece at offset 0 starts the incoming blob over (a
/// restarted transfer); any other piece must begin where the previous one
/// ended. Pieces may split the header or an element anywhere. Fed the
/// whole blob as one piece, it is a one-pass sum of two encoded blobs.
///
/// The first error sticks until a restart: a malformed header, more bytes
/// than the length prefix declares, or an element count other than
/// `held`'s, which is the error `incoming.add_into(held)` gives.
pub struct F64SumBlob<'a> {
    held: F64View<'a>,
    out: Vec<u8>,
    /// Bytes of the incoming blob fed since the last restart.
    fed: usize,
    /// The incoming blob's length prefix and tensor header, gathered until
    /// whole; then its total length is known.
    header: Vec<u8>,
    total: Option<usize>,
    /// The leading bytes of an element split between two pieces.
    carry: [u8; 8],
    carried: usize,
    error: Option<CodecError>,
}

impl<'a> F64SumBlob<'a> {
    /// A sum into a copy of `held`'s elements, with nothing fed yet.
    pub fn new(held: F64View<'a>) -> Self {
        F64SumBlob {
            held,
            out: f64_blob_header(held.len()),
            fed: 0,
            header: Vec::new(),
            total: None,
            carry: [0; 8],
            carried: 0,
            error: None,
        }
    }

    /// Feeds the piece of the incoming blob that starts at byte `offset`.
    pub fn feed(&mut self, offset: usize, piece: &[u8]) {
        if offset == 0 {
            self.out.truncate(F64_BLOB_HEADER);
            self.fed = 0;
            self.header.clear();
            self.total = None;
            self.carried = 0;
            self.error = None;
        }
        if self.error.is_some() {
            return;
        }
        let taken = if offset == self.fed {
            self.fed += piece.len();
            self.take(piece)
        } else {
            Err(CodecError::msg(format!("piece at byte {offset}, expected {}", self.fed)))
        };
        self.error = taken.err();
    }

    /// The encoded sum, once the whole incoming blob has been fed.
    pub fn finish(self) -> Result<Vec<u8>, CodecError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.total {
            Some(total) if total == self.fed => Ok(self.out),
            Some(_) => Err(CodecError::msg("blob length prefix disagrees with buffer")),
            None => Err(CodecError::msg("tensor shape truncated")),
        }
    }

    fn take(&mut self, mut piece: &[u8]) -> Result<(), CodecError> {
        let total = match self.total {
            Some(total) => total,
            None => {
                let Some((total, rest)) = self.gather_header(piece)? else {
                    return Ok(());
                };
                self.total = Some(total);
                piece = rest;
                total
            }
        };
        if self.fed > total {
            return Err(CodecError::msg("blob length prefix disagrees with buffer"));
        }
        let held = self.held.payload;
        if self.carried > 0 {
            let n = (8 - self.carried).min(piece.len());
            let (head, rest) = piece.split_at(n);
            self.carry[self.carried..self.carried + n].copy_from_slice(head);
            self.carried += n;
            piece = rest;
            if self.carried < 8 {
                return Ok(());
            }
            let at = self.out.len() - F64_BLOB_HEADER;
            sum_into(&mut self.out, &held[at..at + 8], &self.carry);
            self.carried = 0;
        }
        let whole = piece.len() / 8 * 8;
        let at = self.out.len() - F64_BLOB_HEADER;
        sum_into(&mut self.out, &held[at..at + whole], &piece[..whole]);
        let tail = &piece[whole..];
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
        Ok(())
    }

    /// Adds the header bytes `piece` begins with. Once the header is
    /// whole, checks it against `held` and returns the incoming blob's
    /// total length and the rest of the piece.
    fn gather_header<'p>(
        &mut self,
        mut piece: &'p [u8],
    ) -> Result<Option<(usize, &'p [u8])>, CodecError> {
        // The length prefix and the tensor header up to its ndim, then the
        // `ndim` shape words.
        let wanted = |header: &[u8]| {
            header.get(8..).and_then(tensor_header_len).map_or(8 + 9, |h| 8 + h)
        };
        loop {
            let want = wanted(&self.header);
            let (head, rest) = piece.split_at((want - self.header.len()).min(piece.len()));
            self.header.extend_from_slice(head);
            piece = rest;
            if self.header.len() < want {
                return Ok(None);
            }
            if wanted(&self.header) == want {
                break;
            }
        }
        let (prefix, tensor) = self.header.split_at(8);
        let body = u64::from_le_bytes(prefix.try_into().expect("8 bytes")) as usize;
        let (_, header, payload) = parse_header(tensor)?;
        if body.checked_sub(header) != Some(payload) {
            return Err(CodecError::msg("blob length prefix disagrees with buffer"));
        }
        check_len(payload / F64_BYTES, self.held.len())?;
        Ok(Some((8 + body, piece)))
    }
}

/// Appends `a[i] + b[i]` for the whole `f64`s the two byte slices hold,
/// straight into `out`'s spare capacity: nothing is written twice.
fn sum_into(out: &mut Vec<u8>, a: &[u8], b: &[u8]) {
    out.extend(a.chunks_exact(8).zip(b.chunks_exact(8)).flat_map(|(x, y)| {
        let x = f64::from_le_bytes(x.try_into().expect("chunks_exact"));
        let y = f64::from_le_bytes(y.try_into().expect("chunks_exact"));
        (x + y).to_le_bytes()
    }));
}

/// `Ok` if a tensor of `n` elements fits a slice of `dst`; the error is the
/// one `F64View::add_into` and `copy_into` give.
fn check_len(n: usize, dst: usize) -> Result<(), CodecError> {
    if n == dst {
        Ok(())
    } else {
        Err(CodecError::msg(format!("tensor of {n} elements into a slice of {dst}")))
    }
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
        parse(bytes).map(|(_, payload)| F64View { payload })
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
        check_len(self.len(), dst)
    }
}

/// A dense `f64` tensor with bulk-copy (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorF64 {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl TensorF64 {
    /// Creates a tensor from a shape and matching flat data.
    ///
    /// # Examples
    ///
    /// ```
    /// use ray_codec::tensor::TensorF64;
    /// let t = TensorF64::from_shape(vec![2, 3], vec![0.0; 6]).unwrap();
    /// assert_eq!(t.len(), 6);
    /// ```
    pub fn from_shape(shape: Vec<usize>, data: Vec<f64>) -> Result<Self, CodecError> {
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
    pub fn from_vec(data: Vec<f64>) -> Self {
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
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + 1 + 4 + 8 * self.shape.len() + self.data.len() * F64_BYTES
    }

    /// Encodes the tensor with a bulk payload copy.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        Self::write(&mut out, &self.shape, &self.data);
        Bytes::from(out)
    }

    /// The bytes `Self::from_vec(data.to_vec()).to_bytes()` holds,
    /// copied out of the slice once.
    pub fn encode_slice(data: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::slice_encoded_len(data.len()));
        Self::write(&mut out, &[data.len()], data);
        out
    }

    /// Serialized size of a rank-1 tensor of `n` elements.
    const fn slice_encoded_len(n: usize) -> usize {
        4 + 1 + 4 + 8 + n * F64_BYTES
    }

    fn write(out: &mut Vec<u8>, shape: &[usize], data: &[f64]) {
        Self::write_header(out, shape);
        Self::write_payload(out, data);
    }

    fn write_header(out: &mut Vec<u8>, shape: &[usize]) {
        out.extend_from_slice(&MAGIC);
        out.push(DTYPE_F64);
        out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
        for &d in shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }

    fn write_payload(out: &mut Vec<u8>, data: &[f64]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `f64` is a plain IEEE-754 float with no padding;
            // viewing its storage as bytes is always valid, and `u8` has
            // alignment 1. The length is the exact byte size of the
            // slice. On little-endian hosts the byte order matches the
            // wire format.
            let raw: &[u8] = unsafe {
                std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
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
        let (shape, payload) = parse(bytes)?;
        let n = payload.len() / F64_BYTES;
        let mut data: Vec<f64> = Vec::with_capacity(n);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `data` was allocated with capacity for `n`
            // elements (`n * F64_BYTES` bytes). `parse` returns a payload
            // of exactly that many bytes, every bit pattern is a valid
            // float, and source/destination do not overlap. After the
            // copy all `n` elements are initialized, so `set_len(n)` is
            // sound.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    payload.as_ptr(),
                    data.as_mut_ptr() as *mut u8,
                    n * F64_BYTES,
                );
                data.set_len(n);
            }
        }
        #[cfg(not(target_endian = "little"))]
        {
            for chunk in payload.chunks_exact(F64_BYTES) {
                data.push(f64::from_le_bytes(chunk.try_into().expect("chunks_exact")));
            }
        }
        Ok(Self { shape, data })
    }
}

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
        let mut b = TensorF64::from_vec(vec![1.0]).to_bytes().to_vec();
        b[4] = DTYPE_F64 + 1;
        assert!(TensorF64::from_bytes(&b).is_err());
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
        let t = TensorF64::zeros(vec![4, 5]);
        assert_eq!(t.len(), 20);
        assert_eq!(t.shape(), &[4, 5]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }
}
