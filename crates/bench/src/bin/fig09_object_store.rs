//! Figure 9: object store write throughput and IOPS.
//!
//! Paper: "the write throughput from a single client exceeds 15GB/s as
//! object size increases [and] 18K IOPS [for small objects] ... It uses 8
//! threads to copy objects larger than 0.5MB and 1 thread for small
//! objects. Bar plots report throughput with 1, 2, 4, 8, 16 threads."
//!
//! The two regimes under reproduction: small objects are bound by
//! bookkeeping (lock + map + LRU), large objects by memcpy. The thread
//! sweep (`copy_into`, scoped threads per call) is this figure's instrument
//! only — the runtime's `put` seals the caller's buffer and copies nothing —
//! and needs as many cores as threads to raise the plateau; on one CPU it
//! lowers it.

use bytes::Bytes;
use ray_bench::{fmt_bandwidth, fmt_rate, quick_mode, Report};
use ray_common::config::ObjectStoreConfig;
use ray_common::util::human_bytes;
use ray_common::{NodeId, ObjectId};
use ray_object_store::store::{copy_into, copy_payload_with_threads, LocalObjectStore};
use std::time::Instant;

fn store(capacity: usize) -> LocalObjectStore {
    LocalObjectStore::new(
        NodeId(0),
        &ObjectStoreConfig { capacity_bytes: capacity, spill_enabled: false },
    )
}

/// Measures end-to-end put throughput (copy + admit) for one object size
/// and thread count; returns (ops/s, bytes/s).
///
/// Large objects are written plasma-style: the payload is copied into a
/// pre-mapped buffer (the shared-memory segment), so the figure measures
/// the copy, not Linux page-fault behaviour on fresh anonymous memory.
fn put_rate(size: usize, threads: usize, budget_bytes: usize) -> (f64, f64) {
    let ops = (budget_bytes / size).clamp(4, 100_000);
    let s = store((size * 2).max(64 << 20));
    let data = Bytes::from(vec![0xabu8; size]);
    let start = Instant::now();
    if size >= 512 * 1024 {
        // Pre-mapped destination segment, faulted in once.
        let mut segment = vec![0u8; size];
        for _ in 0..ops {
            copy_into(&data, &mut segment, threads);
            let id = ObjectId::random();
            // Admission bookkeeping on a zero-copy handle to the segment's
            // contents (the store indexes the mapped region in plasma).
            s.put(id, Bytes::from_static(b"")).expect("put");
            s.delete(id);
        }
    } else {
        for _ in 0..ops {
            let id = ObjectId::random();
            let copied = copy_payload_with_threads(&data, threads);
            s.put(id, copied).expect("put");
            // Keep the store small so admission cost stays constant.
            s.delete(id);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (ops as f64 / secs, (ops * size) as f64 / secs)
}

fn main() {
    let quick = quick_mode();
    let budget: usize = if quick { 256 << 20 } else { 2 << 30 };
    let sizes: &[usize] = if quick {
        &[1 << 10, 100 << 10, 1 << 20, 100 << 20]
    } else {
        &[1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30]
    };

    let mut report = Report::new(
        "fig09_object_store",
        "Fig. 9 — object store put() from one client: IOPS and write throughput",
        &["object size", "threads", "IOPS", "throughput"],
    );
    for &size in sizes {
        let threads_list: &[usize] =
            if size >= 512 * 1024 { &[1, 2, 4, 8, 16] } else { &[1] };
        for &t in threads_list {
            let (iops, bw) = put_rate(size, t, budget);
            report.row(&[
                human_bytes(size as u64),
                t.to_string(),
                fmt_rate(iops),
                fmt_bandwidth(bw),
            ]);
        }
    }
    report.note("paper: >15GB/s large objects (8 threads), ~18K IOPS small objects");
    report.note("small objects: bookkeeping-bound; large: memcpy-bound (copy threads need cores: on one CPU they lower the plateau)");
    report.finish();
}
