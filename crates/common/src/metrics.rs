//! Lightweight metrics: named atomic counters and histograms.
//!
//! The benchmarks that regenerate the paper's figures need cheap, contention-
//! tolerant counters (tasks executed, bytes moved, spillovers, replays).
//! A [`MetricsRegistry`] is shared across a cluster's components; counters
//! are created once and then updated lock-free. [`Histogram`]s add
//! bucketed latency distributions (task latency, queue wait) on one
//! bucket ladder, [`DEFAULT_BUCKETS`], and
//! [`MetricsRegistry::render`] produces a Prometheus-style text
//! exposition of everything.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{classes, OrderedRwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds, the same for every histogram: a 1-2-5
/// ladder in microseconds, 100 µs to 5 s. An implicit `+Inf` bucket
/// follows the last bound.
pub const DEFAULT_BUCKETS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// A fixed-bucket histogram with lock-free observation.
///
/// Buckets are *non-cumulative* internally; [`Histogram::snapshot`] and
/// [`MetricsRegistry::render`] expose the cumulative (`le`) form
/// Prometheus expects.
#[derive(Debug, Default)]
pub struct Histogram {
    /// One count per [`DEFAULT_BUCKETS`] bound (inclusive), then `+Inf`.
    buckets: [AtomicU64; DEFAULT_BUCKETS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = DEFAULT_BUCKETS.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts as `(upper_bound, count ≤ bound)` pairs;
    /// the final pair is `(u64::MAX, total)` standing in for `+Inf`.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut cum = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let bound = DEFAULT_BUCKETS.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, cum));
        }
        out
    }
}

/// A registry of named counters and histograms shared by one
/// cluster.
///
/// # Examples
///
/// ```
/// use ray_common::metrics::MetricsRegistry;
/// let m = MetricsRegistry::new();
/// m.counter("tasks_executed").inc();
/// m.counter("tasks_executed").add(2);
/// assert_eq!(m.counter("tasks_executed").get(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: OrderedRwLock<HashMap<String, Arc<Counter>>>,
    histograms: OrderedRwLock<HashMap<String, Arc<Histogram>>>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            counters: OrderedRwLock::new(&classes::METRICS_COUNTERS, HashMap::new()),
            histograms: OrderedRwLock::new(&classes::METRICS_HISTOGRAMS, HashMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter with the given name, creating it if needed.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::default()))
            .clone()
    }

    /// Returns the histogram with the given name (1-2-5 buckets,
    /// [`DEFAULT_BUCKETS`]), creating it if needed.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner.histograms.write().entry(name.to_string()).or_default().clone()
    }

    /// Renders every counter and histogram as Prometheus-style
    /// text exposition (the "text endpoint/dump" a scraper or test reads).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in self.counter_snapshot() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        let hists: Vec<(String, Arc<Histogram>)> = {
            let map = self.inner.histograms.read();
            let mut v: Vec<_> = map.iter().map(|(k, h)| (k.clone(), h.clone())).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        for (name, h) in hists {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (bound, cum) in h.snapshot() {
                if bound == u64::MAX {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Snapshot of all counters, sorted by name (for reports and tests).
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .inner
            .counters
            .read()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        v.sort();
        v
    }
}

/// Well-known metric names used across the workspace, collected here so
/// benchmarks and tests don't drift on spelling.
pub mod names {
    /// Tasks submitted through any driver or worker context.
    pub const TASKS_SUBMITTED: &str = "tasks_submitted";
    /// Tasks that finished executing on some worker.
    pub const TASKS_EXECUTED: &str = "tasks_executed";
    /// Tasks re-executed due to lineage reconstruction.
    pub const TASKS_REEXECUTED: &str = "tasks_reexecuted";
    /// Actor methods replayed during actor reconstruction.
    pub const METHODS_REPLAYED: &str = "methods_replayed";
    /// Actor checkpoints taken.
    pub const CHECKPOINTS_TAKEN: &str = "checkpoints_taken";
    /// Tasks forwarded from a local scheduler to the global scheduler.
    pub const TASKS_SPILLED: &str = "tasks_spilled";
    /// Tasks scheduled directly by their local scheduler.
    pub const TASKS_LOCAL: &str = "tasks_scheduled_locally";
    /// GCS entries flushed to disk.
    pub const GCS_ENTRIES_FLUSHED: &str = "gcs_entries_flushed";
    /// Heartbeats the failure detector observed as overdue (one per node
    /// per monitor pass while a live node's heartbeat is stale).
    pub const HEARTBEATS_MISSED: &str = "heartbeats_missed";
    /// Nodes the failure detector declared dead (vs. harness `kill_node`).
    pub const NODES_DECLARED_DEAD: &str = "nodes_declared_dead";
    /// Object transfers retried after a transient (dropped-message) error.
    pub const TRANSFER_RETRIES: &str = "transfer_retries";
    /// GCS client operations retried after a transient error.
    pub const GCS_RETRIES: &str = "gcs_retries";
    /// Histogram: end-to-end task execution latency in microseconds
    /// (worker dequeue → results stored).
    pub const TASK_LATENCY_MICROS: &str = "task_latency_micros";
    /// Histogram: time a task sat in a local scheduler's ready queue
    /// before dispatch, in microseconds.
    pub const QUEUE_WAIT_MICROS: &str = "queue_wait_micros";
    /// Tasks torn down by `ray.cancel` (any lifecycle stage).
    pub const TASKS_CANCELLED: &str = "tasks_cancelled";
    /// Nothing increments this: a submit is never shed (a serve pool sheds
    /// requests, counted in [`SERVE_SHED`]). The name stays because the
    /// benchmark (`perf/`) reads it.
    pub const TASKS_SHED: &str = "tasks_shed";
    /// Tasks torn down because their absolute deadline expired.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Actor checkpoints whose GCS write failed (retried on the next
    /// stateful method instead of silently advancing the interval).
    pub const ACTOR_CHECKPOINT_FAILED: &str = "actor_checkpoint_failed";
    /// Serving requests completed successfully through a replica pool.
    pub const SERVE_REQUESTS: &str = "serve_requests";
    /// Serving requests shed at the pool door (queue past watermark).
    pub const SERVE_SHED: &str = "serve_requests_shed";
    /// Hedged second attempts launched against straggling replicas.
    pub const SERVE_HEDGES: &str = "serve_hedges";
    /// Requests retried on a surviving replica after a replica failure.
    pub const SERVE_FAILOVERS: &str = "serve_failovers";
    /// Served requests that completed past the configured latency SLO.
    pub const SERVE_SLO_VIOLATIONS: &str = "serve_slo_violations";
    /// Replicas spawned into pools (deploys and autoscale-up). A probe that
    /// re-admits a rebuilt replica emits `replica_spawned` but counts nothing.
    pub const SERVE_REPLICAS_SPAWNED: &str = "serve_replicas_spawned";
    /// Replicas drained and retired from pools.
    pub const SERVE_REPLICAS_RETIRED: &str = "serve_replicas_retired";
    /// Nothing increments this: a pool routes each request on its caller's
    /// thread, one request per replica call. The name stays because the
    /// benchmark (`perf/`) reads it.
    pub const SERVE_BATCHES: &str = "serve_batches";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_are_shared_by_name() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.inc();
        b.inc();
        assert_eq!(m.counter("x").get(), 2);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let m = MetricsRegistry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.counter("hot").inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.counter("hot").get(), 80_000);
    }

    #[test]
    fn histogram_buckets_and_render() {
        let m = MetricsRegistry::new();
        let h = m.histogram("task_latency_micros");
        h.observe(5); // ≤ 100
        h.observe(100); // ≤ 100 (inclusive bound)
        h.observe(200); // ≤ 250
        h.observe(6_000_000); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6_000_305);
        let snap = h.snapshot();
        assert_eq!(snap.len(), DEFAULT_BUCKETS.len() + 1);
        assert_eq!(&snap[..3], &[(100, 2), (250, 3), (500, 3)]);
        assert_eq!(snap[DEFAULT_BUCKETS.len() - 1], (5_000_000, 3));
        assert_eq!(snap[DEFAULT_BUCKETS.len()], (u64::MAX, 4));

        m.counter("tasks_executed").add(7);
        let text = m.render();
        assert!(text.contains("tasks_executed 7"));
        assert!(text.contains("task_latency_micros_bucket{le=\"100\"} 2"));
        assert!(text.contains("task_latency_micros_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("task_latency_micros_sum 6000305"));
        assert!(text.contains("task_latency_micros_count 4"));
    }

    #[test]
    fn histogram_is_shared_by_name_and_keeps_first_bounds() {
        let m = MetricsRegistry::new();
        // Every histogram has the default bounds, so the first caller's
        // are the ones kept.
        m.histogram("h").observe(1);
        m.histogram("h").observe(2);
        assert_eq!(m.histogram("h").count(), 2);
    }

    #[test]
    fn snapshots_are_sorted() {
        let m = MetricsRegistry::new();
        m.counter("b").inc();
        m.counter("a").inc();
        let snap = m.counter_snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "b");
    }
}
