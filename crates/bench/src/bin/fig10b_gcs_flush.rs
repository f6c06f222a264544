//! Figure 10b: GCS memory with and without flushing.
//!
//! Paper: submitting 50 million no-op tasks sequentially, GCS memory
//! "grows linearly with the number of tasks tracked and eventually
//! reaches the memory capacity of the system" without flushing (the
//! workload then fails to complete), while periodic flushing keeps the
//! footprint capped at a user-configurable level.

use ray_bench::{quick_mode, Report};
use ray_common::config::GcsConfig;
use ray_common::util::human_bytes;
use ray_common::RayConfig;
use rustray::task::TaskOptions;
use rustray::Cluster;
use std::time::Duration;

/// Streams `total` no-op tasks and samples GCS resident bytes after every
/// `sample_every` tasks.
fn run(total: usize, sample_every: usize, flush: bool) -> (Vec<(usize, u64)>, u64) {
    let mut cfg = RayConfig::builder().nodes(2).workers_per_node(2).build();
    cfg.gcs = GcsConfig {
        num_shards: 4,
        chain_length: 1,
        flush_enabled: flush,
        // Aggressive cap, as in the paper's microbenchmark: "consumed
        // memory is kept as low as possible".
        flush_threshold_entries: 2_000,
        flush_interval: Duration::from_millis(10),
        ..GcsConfig::default()
    };
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.register_fn0("noop", || 0u8);
    let ctx = cluster.driver();

    let mut series = Vec::new();
    let mut pending = Vec::with_capacity(sample_every);
    let mut submitted = 0usize;
    while submitted < total {
        for _ in 0..sample_every.min(total - submitted) {
            pending.push(ctx.submit("noop", vec![], TaskOptions::default()).unwrap()[0]);
            submitted += 1;
        }
        ctx.wait(&pending, pending.len(), Duration::from_secs(60)).unwrap();
        pending.clear();
        // Let the flusher catch up to the burst before sampling.
        if flush {
            std::thread::sleep(Duration::from_millis(25));
        }
        series.push((submitted, cluster.gcs().resident_bytes()));
    }
    let flushed = cluster.gcs().entries_flushed();
    cluster.shutdown();
    (series, flushed)
}

fn main() {
    let quick = quick_mode();
    // Paper: 50M tasks over ~60000s. Scaled: enough tasks that lineage
    // dwarfs the flush threshold.
    let total = if quick { 20_000 } else { 100_000 };
    let samples = 10;

    let (no_flush, _) = run(total, total / samples, false);
    let (with_flush, flushed) = run(total, total / samples, true);

    let mut report = Report::new(
        "fig10b_gcs_flush",
        "Fig. 10b — GCS resident memory while streaming no-op tasks",
        &["tasks", "no flush", "with flush"],
    );
    for ((n, a), (_, b)) in no_flush.iter().zip(with_flush.iter()) {
        report.row(&[n.to_string(), human_bytes(*a), human_bytes(*b)]);
    }
    let growth_no_flush =
        no_flush.last().unwrap().1 as f64 / no_flush.first().unwrap().1.max(1) as f64;
    let growth_flush =
        with_flush.last().unwrap().1 as f64 / with_flush.first().unwrap().1.max(1) as f64;
    report.note(format!(
        "footprint growth, first to last sample: no flush {growth_no_flush:.1}x, with flushing {growth_flush:.1}x"
    ));
    report.note(format!("entries flushed to disk: {flushed}"));
    report.note("paper: without flushing the 50M-task run exhausts memory and stalls");
    assert!(
        (with_flush.last().unwrap().1 as f64) < (no_flush.last().unwrap().1 as f64) * 0.5,
        "flushing must cap the footprint well below the unflushed run"
    );
    report.finish();
}
