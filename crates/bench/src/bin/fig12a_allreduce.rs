//! Figure 12a: allreduce on Ray vs Ray* (single connection) vs OpenMPI.
//!
//! Paper: "Ray completes allreduce across 16 nodes on 100MB in ~200ms and
//! 1GB in ~1200ms, surprisingly outperforming OpenMPI by 1.5× and 2×
//! respectively ... We attribute Ray's performance to its use of multiple
//! threads for network transfers ... whereas OpenMPI sequentially sends
//! and receives data on a single thread. Ray* restricts Ray to 1 thread
//! for sending and 1 thread for receiving."

use ray_bench::{fmt_duration, mean, quick_mode, Report};
use ray_bsp::BspWorld;
use ray_common::config::TransportConfig;
use ray_common::util::human_bytes;
use ray_common::RayConfig;
use ray_rl::allreduce;
use rustray::Cluster;
use std::time::Duration;

/// The shared network model: a paper-like link where one connection
/// cannot saturate the NIC (per-connection ~16MB/s with an 8-connection stripe), so
/// striping matters and wire time dominates memcpy — the regime in which
/// the paper's comparison runs.
fn transport(connections: usize) -> TransportConfig {
    TransportConfig {
        latency: std::time::Duration::from_micros(100),
        bandwidth_bytes_per_sec: 16 << 20,
        connections_per_transfer: connections,
        chunk_bytes: 512 * 1024,
        ..TransportConfig::default()
    }
}

/// Mean time of `reps` ring allreduces after one warm-up, over buffers in
/// which rank `w` holds `w` everywhere. Panics unless every rank then holds
/// `S · n^(t−1)` after the `t = reps + 1` iterations, `S = n(n−1)/2` the
/// first sum (exact in `f64` at these sizes).
fn ray_allreduce_time(workers: usize, elements: usize, connections: usize, reps: usize) -> Duration {
    let mut cfg = RayConfig::builder().nodes(workers).workers_per_node(2).build();
    cfg.transport = transport(connections);
    let cluster = Cluster::start(cfg).expect("start cluster");
    allreduce::register(&cluster);
    let ctx = cluster.driver();
    let buffers: Vec<Vec<f64>> =
        (0..workers).map(|w| vec![w as f64; elements]).collect();
    let handles = allreduce::create_ring(&ctx, workers, buffers).expect("ring");
    // Warm-up round, then timed rounds.
    allreduce::ray_ring_allreduce(&ctx, &handles, elements).expect("warmup");
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            allreduce::ray_ring_allreduce(&ctx, &handles, elements)
                .expect("allreduce")
                .as_secs_f64()
        })
        .collect();
    let first_sum = (workers * (workers - 1) / 2) as f64;
    let expected = first_sum * (workers as f64).powi(reps as i32);
    let buffers = allreduce::read_buffers(&ctx, &handles).expect("read buffers");
    for (rank, buf) in buffers.iter().enumerate() {
        assert!(
            buf.len() == elements && buf.iter().all(|&v| v == expected),
            "{connections} connection(s): rank {rank} does not hold {expected} everywhere"
        );
    }
    cluster.shutdown();
    Duration::from_secs_f64(mean(&times))
}

/// "2.3x faster" or "1.5x slower": Ray against MPI, whichever way it went.
fn versus(ray: Duration, mpi: Duration) -> String {
    let (ray, mpi) = (ray.as_secs_f64().max(1e-9), mpi.as_secs_f64().max(1e-9));
    if ray <= mpi {
        format!("{:.1}x faster", mpi / ray)
    } else {
        format!("{:.1}x slower", ray / mpi)
    }
}

fn mpi_allreduce_time(workers: usize, elements: usize, reps: usize) -> Duration {
    // MPI sends over a single connection of the same link model.
    let world = BspWorld::new(workers, &transport(1));
    let times = world.run(|rank| {
        // Warm-up.
        let mut data = vec![rank.rank() as f64; elements];
        rank.allreduce_sum(&mut data);
        let mut total = 0.0;
        for _ in 0..reps {
            let mut data = vec![rank.rank() as f64; elements];
            rank.barrier();
            let t = std::time::Instant::now();
            rank.allreduce_sum(&mut data);
            rank.barrier();
            total += t.elapsed().as_secs_f64();
        }
        total / reps as f64
    });
    Duration::from_secs_f64(mean(&times))
}

fn main() {
    let quick = quick_mode();
    let workers = 4;
    let reps = if quick { 2 } else { 3 };
    // Paper sweeps 10MB–1GB on 16 nodes; scaled to 4–64MB buffers.
    let sizes_mb: &[usize] = if quick { &[4, 16] } else { &[16, 48, 96] };

    let mut report = Report::new(
        "fig12a_allreduce",
        "Fig. 12a — ring allreduce iteration time: Ray (striped) vs Ray* (1 conn) vs MPI",
        &["buffer", "Ray", "Ray*", "OpenMPI-like", "Ray vs MPI"],
    );
    for &mb in sizes_mb {
        let elements = mb * 1024 * 1024 / 8;
        let ray = ray_allreduce_time(workers, elements, 8, reps);
        let ray_star = ray_allreduce_time(workers, elements, 1, reps);
        let mpi = mpi_allreduce_time(workers, elements, reps);
        report.row(&[
            human_bytes((mb << 20) as u64),
            fmt_duration(ray),
            fmt_duration(ray_star),
            fmt_duration(mpi),
            versus(ray, mpi),
        ]);
    }
    report.note(format!(
        "{workers} participants, one per node; mean of {reps} iterations after a warm-up; \
         every rank's buffer checked against the analytic sum"
    ));
    report.note(
        "Ray stripes each transfer over 8 connections, OpenMPI-like sends on 1 of the same \
         per-connection bandwidth, so the gap is near the stripe width, not the paper's 1.5–2x",
    );
    report.note("paper: Ray 1.5–2x faster than OpenMPI at 100MB–1GB; Ray* ≈ OpenMPI");
    report.finish();
}
