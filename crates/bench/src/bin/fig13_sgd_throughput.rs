//! Figure 13: distributed training throughput — parameter server on Ray
//! vs allreduce-based and ideal-lockstep baselines.
//!
//! Paper: data-parallel synchronous SGD on ResNet-101-scale gradients;
//! "Ray matches the performance of Horovod and is within 10% of
//! distributed TensorFlow", thanks to pipelining gradient computation,
//! transfer, and summation.
//!
//! Systems compared at equal replica counts ("GPUs"):
//! - **Ray PS**: [`ray_rl::ps::train_ps`] — sharded parameter-server
//!   actors, rounds pipelined through object references;
//! - **Horovod-like**: ranks on the BSP substrate computing the same
//!   gradients and synchronizing with ring allreduce over the modeled
//!   network;
//! - **distributed-TF-like**: the upper bound — the same gradient math on
//!   plain threads with an in-process barrier and shared-memory
//!   accumulation (zero network cost).

use ray_bench::{fmt_rate, mean, quick_mode, Report};
use ray_bsp::BspWorld;
use ray_common::config::TransportConfig;
use ray_common::RayConfig;
use ray_rl::ps::{gradient, train_ps, PsConfig};
use rustray::Cluster;

fn config(workers: usize, iterations: usize) -> PsConfig {
    PsConfig {
        num_workers: workers,
        num_shards: 2,
        // ~45k parameters (scaled from ResNet-101's 44.5M by ~1000x, like
        // the rest of the laptop scaling).
        layer_dims: vec![64, 256, 96, 10],
        batch_size: 8,
        iterations,
        lr: 0.01,
        seed: 11,
    }
}

fn ray_ps_rate(workers: usize, iterations: usize) -> f64 {
    let nodes = (workers / 2).max(1);
    let cluster = Cluster::start(
        RayConfig::builder().nodes(nodes).workers_per_node(4).build(),
    )
    .expect("start cluster");
    let report = train_ps(&cluster, &config(workers, iterations)).expect("train");
    cluster.shutdown();
    report.samples_per_sec
}

fn horovod_like_rate(workers: usize, iterations: usize) -> f64 {
    let cfg = config(workers, iterations);
    let world = BspWorld::new(workers, &TransportConfig::default());
    let start = std::time::Instant::now();
    world.run(|rank| {
        let (mut model, teacher) = (cfg.model(), cfg.teacher());
        let mut params = model.params();
        for round in 0..cfg.iterations {
            let (mut grads, _) =
                gradient(&cfg, &mut model, &teacher, &params, rank.rank() as u64, round as u64);
            // Ring allreduce over the modeled network, then identical
            // updates on every rank.
            rank.allreduce_sum(&mut grads.0);
            grads.scale(1.0 / rank.size() as f64);
            for (p, g) in params.iter_mut().zip(grads.0.iter()) {
                *p -= cfg.lr * g;
            }
        }
    });
    let total = (iterations * workers * cfg.batch_size) as f64;
    total / start.elapsed().as_secs_f64()
}

fn lockstep_rate(workers: usize, iterations: usize) -> f64 {
    let cfg = config(workers, iterations);
    let init = cfg.model().params();
    let accum = ray_common::sync::OrderedMutex::new(
        &ray_common::sync::classes::BENCH_ACCUM,
        vec![0.0f64; init.len()],
    );
    let params = ray_common::sync::OrderedRwLock::new(&ray_common::sync::classes::BENCH_PARAMS, init);
    let barrier = std::sync::Barrier::new(workers);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let cfg = &cfg;
            let params = &params;
            let accum = &accum;
            let barrier = &barrier;
            s.spawn(move || {
                let (mut model, teacher) = (cfg.model(), cfg.teacher());
                for round in 0..cfg.iterations {
                    let snapshot = params.read().clone();
                    let (grads, _) =
                        gradient(cfg, &mut model, &teacher, &snapshot, w as u64, round as u64);
                    {
                        let mut acc = accum.lock();
                        for (a, g) in acc.iter_mut().zip(grads.0.iter()) {
                            *a += g;
                        }
                    }
                    if barrier.wait().is_leader() {
                        let mut acc = accum.lock();
                        let mut p = params.write();
                        for (pi, a) in p.iter_mut().zip(acc.iter()) {
                            *pi -= cfg.lr * *a / workers as f64;
                        }
                        acc.iter_mut().for_each(|a| *a = 0.0);
                    }
                    barrier.wait();
                }
            });
        }
    });
    let total = (iterations * workers * cfg.batch_size) as f64;
    total / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = quick_mode();
    let worker_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let iterations = if quick { 20 } else { 50 };
    let reps = if quick { 1 } else { 2 };

    let mut report = Report::new(
        "fig13_sgd_throughput",
        "Fig. 13 — synchronous data-parallel SGD throughput (samples/s) by system",
        &["replicas", "Ray PS", "Horovod-like", "dist-TF-like", "Ray vs TF"],
    );
    for &w in worker_counts {
        let ray: Vec<f64> = (0..reps).map(|_| ray_ps_rate(w, iterations)).collect();
        let hvd: Vec<f64> = (0..reps).map(|_| horovod_like_rate(w, iterations)).collect();
        let tf: Vec<f64> = (0..reps).map(|_| lockstep_rate(w, iterations)).collect();
        let (ray, hvd, tf) = (mean(&ray), mean(&hvd), mean(&tf));
        report.row(&[
            w.to_string(),
            fmt_rate(ray),
            fmt_rate(hvd),
            fmt_rate(tf),
            format!("{:.0}%", 100.0 * ray / tf.max(1e-9)),
        ]);
    }
    report.note("all three systems call ray_rl::ps::gradient; only synchronization differs");
    report.note("paper: Ray matches Horovod, within 10% of distributed TF");
    report.finish();
}
