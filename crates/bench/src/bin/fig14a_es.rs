//! Figure 14a: Evolution Strategies — Ray vs the special-purpose
//! reference system.
//!
//! Paper: "an implementation on Ray scales to 8192 cores ... the
//! special-purpose system fails to complete at 2048 cores, where the work
//! in the system exceeds the processing capacity of the application
//! driver. The Ray implementation uses an aggregation tree of actors,
//! reaching a median time of 3.7 minutes, more than twice as fast as the
//! best published result."
//!
//! The mechanism under reproduction is the *aggregation architecture*:
//! the reference design folds every worker result into the gradient
//! serially at one driver (regenerating the O(dims) noise vector per
//! message), so its driver-side critical path grows **linearly** with the
//! worker count; Ray's aggregation tree distributes that fold, so its
//! critical path grows with the tree depth — **logarithmically**. On a
//! single-core host end-to-end wall times coincide (there is no second
//! core for the tree to use), so alongside wall time this benchmark
//! *measures* both critical paths directly from the real task bodies and
//! reports where the serial driver crosses over — the paper's
//! "fails beyond 1024 cores" line.

use bytes::Bytes;
use ray_bench::{fmt_duration, quick_mode, Report};
use ray_codec::tensor::encode_f64_blob;
use ray_common::RayConfig;
use ray_rl::envs::EnvRng;
use ray_rl::es::{fold_noise, rank_weights, reference_es, sum_partials, train_es, EsConfig};
use rustray::Cluster;
use std::time::{Duration, Instant};

fn config(perturbations: usize, iterations: usize) -> EsConfig {
    EsConfig {
        env: "humanoid-light".into(),
        num_workers: perturbations,
        episodes_per_eval: 1,
        max_steps: 60,
        sigma: 0.3,
        lr: 0.4,
        iterations,
        target_score: None,
        eval_episodes: 2,
        agg_leaf: 8,
        agg_fan_in: 8,
        seed: 21,
    }
}

/// The `(seed, weight)` pairs of one iteration with `workers` messages,
/// weighted from random mirrored returns.
fn weights(workers: usize) -> Vec<(u64, f64)> {
    let mut rng = EnvRng::new(9);
    let seeds: Vec<u64> = (0..workers).map(|_| rng.next_u64()).collect();
    let results: Vec<(f64, f64)> =
        (0..workers).map(|_| (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect();
    rank_weights(&seeds, &results)
}

/// Times `f` once.
fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

/// The reference system's per-iteration aggregation: the driver folds
/// every worker's message, regenerating its noise (`fold_noise` over all
/// pairs).
fn measure_serial_fold(workers: usize, dims: usize) -> Duration {
    let weighted = weights(workers);
    timed(|| fold_noise(dims, &weighted))
}

/// The aggregation tree's *critical path* from the same task bodies: one
/// leaf fold of `leaf` messages (`es_partial_grad`) plus one `fan_in`-way
/// sum (`es_sum`) per tree level — the wall time the tree takes when each
/// level runs in parallel (the paper's multi-core setting).
fn measure_tree_critical_path(workers: usize, dims: usize, leaf: usize, fan_in: usize) -> Duration {
    let leaf_weights = weights(leaf.min(workers));
    let leaf_time = timed(|| fold_noise(dims, &leaf_weights));
    let parts: Vec<Bytes> =
        (0..fan_in).map(|i| Bytes::from(encode_f64_blob(&vec![i as f64; dims]))).collect();
    let sum_time = timed(|| sum_partials(&parts).expect("well-formed partial gradients"));
    // Depth of the tree over ceil(workers/leaf) leaves.
    let mut width = workers.div_ceil(leaf);
    let mut depth = 0u32;
    while width > 1 {
        width = width.div_ceil(fan_in);
        depth += 1;
    }
    leaf_time + sum_time * depth
}

fn main() {
    let quick = quick_mode();
    let iterations = if quick { 3 } else { 5 };
    let dims = (376 + 1) * 17; // Linear Humanoid policy parameters.

    // Part 1: end-to-end equivalence and wall time at one scale. Both
    // systems run the identical algorithm (scores asserted equal).
    let cores = if quick { 2 } else { 4 };
    let perturbations = 24 * cores;
    let cfg = config(perturbations, iterations);
    let cluster = Cluster::start(
        RayConfig::builder().nodes(cores).workers_per_node(2).build(),
    )
    .expect("start cluster");
    let ray = train_es(&cluster, &cfg).expect("ray es");
    cluster.shutdown();
    let reference = reference_es(&cfg, cores).expect("reference es");
    for (a, b) in ray.scores.iter().zip(reference.scores.iter()) {
        assert!((a - b).abs() < 1e-6, "implementations diverged: {a} vs {b}");
    }

    let mut report = Report::new(
        "fig14a_es",
        "Fig. 14a — ES end-to-end (identical algorithm, one host)",
        &["system", "wall time", "final score"],
    );
    report.row(&[
        "Ray ES (aggregation tree)".into(),
        fmt_duration(ray.wall),
        format!("{:.1}", ray.scores.last().copied().unwrap_or(0.0)),
    ]);
    report.row(&[
        "Reference ES (serial driver)".into(),
        fmt_duration(reference.wall),
        format!("{:.1}", reference.scores.last().copied().unwrap_or(0.0)),
    ]);
    report.note(format!(
        "{perturbations} perturbations/iter on {cores} simulated nodes; scores asserted equal"
    ));
    report.note("single-core host: wall times coincide; the architectural gap is the critical path below");
    report.finish();

    // Part 2: the scaling mechanism, timed on the fold and the sum the
    // tasks and the reference driver run.
    let mut scaling = Report::new(
        "fig14a_es",
        "Fig. 14a (mechanism) — aggregation critical path per iteration vs worker count",
        &["workers", "serial driver (reference)", "tree critical path (Ray)", "ratio"],
    );
    let worker_counts: &[usize] =
        if quick { &[64, 512, 2048] } else { &[64, 256, 1024, 4096, 8192] };
    for &w in worker_counts {
        let serial = measure_serial_fold(w, dims);
        let tree = measure_tree_critical_path(w, dims, cfg.agg_leaf, cfg.agg_fan_in);
        scaling.row(&[
            w.to_string(),
            fmt_duration(serial),
            fmt_duration(tree),
            format!("{:.0}x", serial.as_secs_f64() / tree.as_secs_f64().max(1e-9)),
        ]);
    }
    scaling.note("serial driver grows linearly with workers (the paper's 'driver exceeds capacity' failure at 2048)");
    scaling.note("tree path grows with depth only — why Ray ES kept scaling to 8192 cores");
    scaling.finish();
}
