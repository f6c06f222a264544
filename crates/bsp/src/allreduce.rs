//! Ring allreduce (Thakur et al. [57] in the paper), MPI-style.
//!
//! The classic two-phase algorithm: a reduce-scatter pass (each rank ends
//! up owning the fully reduced version of one chunk) followed by an
//! allgather pass (the owned chunks circulate until every rank has all of
//! them). Each of the `2(n-1)` steps moves `len/n` elements over a single
//! connection — the single-threaded transfer profile the paper measures
//! for OpenMPI in Fig. 12a.

use bytes::Bytes;
use ray_codec::tensor::{F64View, TensorF64};

use crate::comm::Rank;

/// Tag namespace for allreduce traffic (disjoint from user tags by the
/// high bit).
const TAG_BASE: u64 = 1 << 63;

/// Every rank cuts equal-length buffers with the same [`chunk_bounds`], so
/// what a peer sends is a tensor of exactly the receiving range's length.
const PEER_CHUNK: &str = "invariant: all ranks call with equal-length buffers";

/// In-place sum-allreduce over `data` across all ranks of the world.
///
/// All ranks must call this collectively with equal-length buffers.
pub fn ring_allreduce_sum(rank: &Rank, data: &mut [f64]) {
    let n = rank.size();
    if n == 1 || data.is_empty() {
        return;
    }
    let me = rank.rank();
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let bounds = chunk_bounds(data.len(), n);
    // One ring step on the wire: pass `outgoing` on, take the peer's chunk.
    let exchange = |tag: u64, outgoing: &[f64]| {
        rank.send(next, tag, Bytes::from(TensorF64::encode_slice(outgoing)));
        rank.recv(prev, tag)
    };

    // Phase 1: reduce-scatter. After step s, the chunk we are about to
    // send next step holds partial sums of s+1 ranks.
    for step in 0..n - 1 {
        let send_chunk = (me + n - step) % n;
        let recv_chunk = (me + n - step - 1) % n;
        let (lo, hi) = bounds[send_chunk];
        let incoming = exchange(TAG_BASE + step as u64, &data[lo..hi]);
        let (rlo, rhi) = bounds[recv_chunk];
        F64View::of_tensor(&incoming)
            .and_then(|chunk| chunk.add_into(&mut data[rlo..rhi]))
            .expect(PEER_CHUNK);
    }

    // Phase 2: allgather. Circulate the fully reduced chunks.
    for step in 0..n - 1 {
        let send_chunk = (me + 1 + n - step) % n;
        let recv_chunk = (me + n - step) % n;
        let (lo, hi) = bounds[send_chunk];
        let incoming = exchange(TAG_BASE + (n + step) as u64, &data[lo..hi]);
        let (rlo, rhi) = bounds[recv_chunk];
        F64View::of_tensor(&incoming)
            .and_then(|chunk| chunk.copy_into(&mut data[rlo..rhi]))
            .expect(PEER_CHUNK);
    }
}

/// Splits `len` elements into `n` nearly equal chunks, returning
/// `(start, end)` per chunk.
pub fn chunk_bounds(len: usize, n: usize) -> Vec<(usize, usize)> {
    let base = len / n;
    let rem = len % n;
    let mut bounds = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BspWorld;
    use ray_common::config::TransportConfig;

    fn fast() -> TransportConfig {
        TransportConfig {
            latency: std::time::Duration::from_micros(1),
            ..TransportConfig::default()
        }
    }

    #[test]
    fn chunk_bounds_cover_everything() {
        for len in [0usize, 1, 7, 16, 100] {
            for n in [1usize, 2, 3, 8] {
                let b = chunk_bounds(len, n);
                assert_eq!(b.len(), n);
                assert_eq!(b[0].0, 0);
                assert_eq!(b[n - 1].1, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for n in [2usize, 3, 4, 8] {
            let world = BspWorld::new(n, &fast());
            let out = world.run(|rank| {
                let mut data: Vec<f64> =
                    (0..37).map(|i| (rank.rank() + 1) as f64 * i as f64).collect();
                rank.allreduce_sum(&mut data);
                data
            });
            let scale: f64 = (1..=n).map(|r| r as f64).sum();
            for result in &out {
                for (i, v) in result.iter().enumerate() {
                    assert!((v - scale * i as f64).abs() < 1e-9, "n={n} i={i} v={v}");
                }
            }
        }
    }

    #[test]
    fn allreduce_single_rank_is_identity() {
        let world = BspWorld::new(1, &fast());
        let out = world.run(|rank| {
            let mut data = vec![1.0, 2.0, 3.0];
            rank.allreduce_sum(&mut data);
            data
        });
        assert_eq!(out[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn allreduce_len_smaller_than_world() {
        let world = BspWorld::new(4, &fast());
        let out = world.run(|rank| {
            let mut data = vec![rank.rank() as f64 + 1.0];
            rank.allreduce_sum(&mut data);
            data[0]
        });
        for v in out {
            assert_eq!(v, 10.0);
        }
    }
}
