//! Property-style round-trip tests for the codec, driven by seeded
//! [`DetRng`] inputs instead of a strategy DSL so the suite runs offline
//! and every failure reproduces from its printed seed.
//!
//! Three properties:
//!
//! 1. `decode(encode(v)) == v` for randomly generated nested serde values
//!    and for tensors of random shape (including zero-length axes).
//! 2. Every strict prefix of a valid encoding fails to decode with a typed
//!    error — never a panic, never a silently wrong value.
//! 3. Structural invalidity (shape/data mismatch, bad magic, bad dtype) is
//!    rejected.
//! 4. The one-copy slice encoders write exactly the bytes the owned
//!    tensor path writes, and the borrowed view reads them back at every
//!    payload alignment.
//! 5. The one-pass sum of two views writes what `add_into` followed by
//!    `encode_f64_blob` writes, whatever the alignment of either input.

use std::collections::BTreeMap;

use ray_codec::tensor::{encode_f64_blob, encode_f64_sum_blob, F64View, TensorF32, TensorF64};
use ray_codec::Blob;
use ray_common::util::DetRng;
use serde::{Deserialize, Serialize};

/// A value tree exercising every serde shape the format supports: unit,
/// newtype, struct and tuple variants, options, boxes, maps, sequences,
/// strings, and the bulk-bytes `Blob` lane.
#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Payload {
    Empty,
    Scalar(u64),
    Signed { a: i64, b: i8, c: bool },
    Text(String),
    Floats(Vec<f64>),
    Bulk(Blob),
    Pair(Box<Payload>, Box<Payload>),
    Table(BTreeMap<String, u32>),
    Maybe(Option<Box<Payload>>),
}

fn random_string(rng: &mut DetRng) -> String {
    let len = (rng.next_u64() % 24) as usize;
    (0..len)
        .map(|_| match rng.next_u64() % 4 {
            // Mostly ASCII, with some multi-byte scalars so UTF-8 length
            // handling is exercised.
            0 => char::from(b'a' + (rng.next_u64() % 26) as u8),
            1 => char::from(b'0' + (rng.next_u64() % 10) as u8),
            2 => 'λ',
            _ => '界',
        })
        .collect()
}

fn random_payload(rng: &mut DetRng, depth: usize) -> Payload {
    // Leaves only at the depth limit; recursion is bounded.
    let choices = if depth == 0 { 6 } else { 9 };
    match rng.next_u64() % choices {
        0 => Payload::Empty,
        1 => Payload::Scalar(rng.next_u64()),
        2 => Payload::Signed {
            a: rng.next_u64() as i64,
            b: (rng.next_u64() % 256) as u8 as i8,
            c: rng.next_u64().is_multiple_of(2),
        },
        3 => Payload::Text(random_string(rng)),
        4 => {
            let len = (rng.next_u64() % 16) as usize;
            Payload::Floats((0..len).map(|_| rng.next_f64() * 1e6 - 5e5).collect())
        }
        5 => {
            let len = (rng.next_u64() % 512) as usize;
            Payload::Bulk(Blob((0..len).map(|_| (rng.next_u64() % 256) as u8).collect()))
        }
        6 => Payload::Pair(
            Box::new(random_payload(rng, depth - 1)),
            Box::new(random_payload(rng, depth - 1)),
        ),
        7 => {
            let len = (rng.next_u64() % 8) as usize;
            Payload::Table(
                (0..len).map(|i| (format!("k{i}-{}", random_string(rng)), rng.next_u64() as u32)).collect(),
            )
        }
        _ => Payload::Maybe(if rng.next_u64().is_multiple_of(2) {
            None
        } else {
            Some(Box::new(random_payload(rng, depth - 1)))
        }),
    }
}

#[test]
fn serde_values_roundtrip_over_seeded_inputs() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed);
        let value = random_payload(&mut rng, 3);
        let bytes = ray_codec::encode(&value).unwrap_or_else(|e| panic!("seed {seed}: encode failed: {e}"));
        let back: Payload = ray_codec::decode(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e} ({value:?})"));
        assert_eq!(back, value, "seed {seed}: value must survive the round trip");
    }
}

#[test]
fn truncated_serde_buffers_error_instead_of_panicking() {
    for seed in 0..60u64 {
        let mut rng = DetRng::new(seed ^ 0xA5A5);
        let value = random_payload(&mut rng, 2);
        let bytes = ray_codec::encode(&value).unwrap();
        if bytes.is_empty() {
            continue; // A unit variant can encode to the variant tag only.
        }
        // Every short prefix of a small encoding, plus random cuts of a
        // large one: decoding must fail with a typed error.
        let cuts: Vec<usize> = if bytes.len() <= 64 {
            (0..bytes.len()).collect()
        } else {
            (0..64).map(|_| (rng.next_u64() as usize) % bytes.len()).collect()
        };
        for cut in cuts {
            let res: Result<Payload, _> = ray_codec::decode(&bytes[..cut]);
            assert!(
                res.is_err(),
                "seed {seed}: decoding a {cut}/{} prefix must fail ({value:?})",
                bytes.len()
            );
        }
    }
}

#[test]
fn tensors_roundtrip_over_seeded_shapes() {
    for seed in 0..120u64 {
        let mut rng = DetRng::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let ndim = (rng.next_u64() % 4) as usize;
        // Axis length 0 is deliberately in range: empty tensors are valid.
        let shape: Vec<usize> = (0..ndim).map(|_| (rng.next_u64() % 7) as usize).collect();
        let len: usize = shape.iter().product();

        let data64: Vec<f64> = (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let t64 = TensorF64::from_shape(shape.clone(), data64).unwrap();
        let back64 = TensorF64::from_bytes(&t64.to_bytes()).unwrap();
        assert_eq!(back64, t64, "seed {seed}: f64 tensor shape {shape:?}");

        let data32: Vec<f32> = (0..len).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32).collect();
        let t32 = TensorF32::from_shape(shape.clone(), data32).unwrap();
        let back32 = TensorF32::from_bytes(&t32.to_bytes()).unwrap();
        assert_eq!(back32, t32, "seed {seed}: f32 tensor shape {shape:?}");
    }
}

#[test]
fn zero_length_tensors_roundtrip() {
    for shape in [vec![], vec![0], vec![0, 5], vec![3, 0, 2]] {
        let t = TensorF64::from_shape(shape.clone(), vec![]).unwrap_or_else(|_| {
            // `vec![]` (rank 0) has product 1; use zeros for that case.
            TensorF64::zeros(shape.clone())
        });
        let back = TensorF64::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t, "shape {shape:?}");
        assert_eq!(back.shape(), &shape[..]);
    }
    // Empty rank-1 built through the convenience constructor too.
    let empty = TensorF64::from_vec(vec![]);
    let back = TensorF64::from_bytes(&empty.to_bytes()).unwrap();
    assert_eq!(back, empty);
    assert!(back.data().is_empty());
}

#[test]
fn truncated_tensor_buffers_error_instead_of_panicking() {
    let mut rng = DetRng::new(99);
    let data: Vec<f64> = (0..24).map(|_| rng.next_f64()).collect();
    let t = TensorF64::from_shape(vec![4, 6], data).unwrap();
    let bytes = t.to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            TensorF64::from_bytes(&bytes[..cut]).is_err(),
            "decoding a {cut}/{} tensor prefix must fail",
            bytes.len()
        );
    }
}

#[test]
fn structurally_invalid_tensors_are_rejected() {
    // Shape/data length mismatch.
    assert!(TensorF64::from_shape(vec![2, 3], vec![0.0; 5]).is_err());
    // Bad magic.
    let good = TensorF64::from_vec(vec![1.0, 2.0]).to_bytes().to_vec();
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(TensorF64::from_bytes(&bad_magic).is_err());
    // Wrong dtype byte: an f64 payload must not decode as f32.
    assert!(TensorF32::from_bytes(&good).is_err());
}

fn random_f64s(rng: &mut DetRng) -> Vec<f64> {
    let len = (rng.next_u64() % 200) as usize;
    // Raw bit patterns: NaN payloads, infinities and subnormals included.
    (0..len).map(|_| f64::from_bits(rng.next_u64())).collect()
}

#[test]
fn slice_encoders_match_the_owned_tensor_path() {
    for seed in 0..120u64 {
        let mut rng = DetRng::new(seed ^ 0x51ED);
        let s = random_f64s(&mut rng);
        let owned = TensorF64::from_vec(s.to_vec()).to_bytes();
        assert_eq!(TensorF64::encode_slice(&s), owned, "seed {seed}");
        assert_eq!(Blob::from_f64s(&s).0, owned, "seed {seed}");
        assert_eq!(
            encode_f64_blob(&s),
            ray_codec::encode(&Blob(owned.to_vec())).unwrap(),
            "seed {seed}: blob framing"
        );
    }
}

#[test]
fn borrowed_view_roundtrips_at_every_misalignment() {
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed ^ 0xA11C);
        let s = random_f64s(&mut rng);
        let bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
        let framed = encode_f64_blob(&s);
        for pad in 0..8usize {
            // `pad` leading bytes shift the payload through every offset
            // modulo the alignment of f64.
            let mut buf = vec![0xEEu8; pad];
            buf.extend_from_slice(&framed);
            let view = F64View::of_encoded_blob(&buf[pad..]).unwrap();
            assert_eq!(view.len(), s.len());
            assert_eq!(view.is_empty(), s.is_empty());
            let got: Vec<u64> = view.to_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits, "seed {seed} pad {pad}");

            let mut copied = vec![0.0; s.len()];
            view.copy_into(&mut copied).unwrap();
            assert_eq!(copied.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);

            // Finite addends so the sums compare with `==`.
            let base: Vec<f64> = (0..s.len()).map(|_| rng.next_f64()).collect();
            let mut summed = base.clone();
            view.add_into(&mut summed).unwrap();
            for ((sum, b), v) in summed.iter().zip(&base).zip(&s) {
                assert_eq!(sum.to_bits(), (b + v).to_bits(), "seed {seed} pad {pad}");
            }

            assert!(view.copy_into(&mut vec![0.0; s.len() + 1]).is_err());
            assert!(view.add_into(&mut vec![0.0; s.len() + 1]).is_err());
        }
    }
}

#[test]
fn borrowed_view_rejects_truncated_and_mistyped_buffers() {
    let mut rng = DetRng::new(7);
    let s: Vec<f64> = (0..24).map(|_| rng.next_f64()).collect();
    let framed = encode_f64_blob(&s);
    for cut in 0..framed.len() {
        assert!(F64View::of_encoded_blob(&framed[..cut]).is_err(), "blob prefix {cut}");
    }
    let tensor = &framed[8..];
    for cut in 0..tensor.len() {
        assert!(F64View::of_tensor(&tensor[..cut]).is_err(), "tensor prefix {cut}");
    }
    // A trailing byte the length prefix does not cover.
    let mut long = framed.clone();
    long.push(0);
    assert!(F64View::of_encoded_blob(&long).is_err());
    // An f32 tensor must not read as f64, framed or bare.
    let f32s = TensorF32::from_vec(vec![1.0; 8]).to_bytes().to_vec();
    assert!(F64View::of_tensor(&f32s).is_err());
    assert!(Blob(f32s.clone()).f64s().is_err());
    assert!(F64View::of_encoded_blob(&ray_codec::encode(&Blob(f32s)).unwrap()).is_err());
    // A shape whose element count overflows is an error, not a wrap-around.
    let mut huge = TensorF64::from_shape(vec![1, 1], vec![0.0]).unwrap().to_bytes().to_vec();
    huge[9..25].fill(0xFF);
    assert!(F64View::of_tensor(&huge).is_err());
    assert!(TensorF64::from_bytes(&huge).is_err());
}

#[test]
fn one_pass_sum_matches_add_into_then_encode_at_every_alignment() {
    let mut rng = DetRng::new(0x5053);
    for len in [0usize, 1, 7, 4099] {
        let a: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
        let b: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
        let mut sum = a.clone();
        F64View::of_encoded_blob(&encode_f64_blob(&b)).unwrap().add_into(&mut sum).unwrap();
        let expected = encode_f64_blob(&sum);
        // `pad` leading bytes put each input's payload at every offset
        // modulo the alignment of f64, independently of the other's.
        let framed = |v: &[f64], pad: usize| {
            let mut buf = vec![0xEEu8; pad];
            buf.extend_from_slice(&encode_f64_blob(v));
            buf
        };
        for pad_a in 0..8 {
            let buf_a = framed(&a, pad_a);
            let view_a = F64View::of_encoded_blob(&buf_a[pad_a..]).unwrap();
            for pad_b in 0..8 {
                let buf_b = framed(&b, pad_b);
                let view_b = F64View::of_encoded_blob(&buf_b[pad_b..]).unwrap();
                let got = encode_f64_sum_blob(view_a, view_b).unwrap();
                assert!(got == expected, "len {len}, pads {pad_a}/{pad_b}");
            }
        }
    }
}

#[test]
fn one_pass_sum_of_unequal_lengths_is_an_error() {
    let short = encode_f64_blob(&[1.0; 3]);
    let long = encode_f64_blob(&[1.0; 4]);
    let (short, long) = (
        F64View::of_encoded_blob(&short).unwrap(),
        F64View::of_encoded_blob(&long).unwrap(),
    );
    let err = encode_f64_sum_blob(long, short).unwrap_err();
    assert_eq!(err.to_string(), short.add_into(&mut [0.0; 4]).unwrap_err().to_string());
    assert!(encode_f64_sum_blob(short, long).is_err());
}
