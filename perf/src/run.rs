//! One run of one workload, as the driver asks for it: an end-to-end run
//! (`--trace 0`, tracing off, timed) or a per-layer run (`--trace 1`:
//! a fixed-count pass with tracing off, the same pass traced, then the
//! layer probes).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use ray_common::metrics::{names, MetricsRegistry};
use ray_common::ShardId;
use rustray::Cluster;

use crate::fold::{self, STAGE_METRICS};
use crate::harness::median_setup;
use crate::json;
use crate::probes;
use crate::span::{self, SpanClock};
use crate::spec;
use crate::stats::{self, Sliced};
use crate::workloads::{self, Mode, Outcome};

/// Set-ups per end-to-end run; the median is `setup_s`. A set-up is tens of
/// milliseconds for three of the workloads, so few repetitions read jitter.
const SETUP_REPS: usize = 9;
/// Lifecycle events written to a Chrome trace file; a traced `task_storm`
/// pass emits several times this, and a viewer chokes long before.
const CHROME_EVENT_CAP: usize = 60_000;

/// What a run reports: every metric of its kind, in `spec` order.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<(&'static str, &'static str, Sliced)>,
    pub attempted: u64,
    pub failed: u64,
    /// Further checks that are not per-op: dropped trace events, stage
    /// shares that do not add up.
    pub problems: Vec<String>,
    /// Extra JSON fields for the detail line.
    pub detail: Vec<(&'static str, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The last line of a run's output: exactly the four keys the driver
    /// reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(json::Object::new(), |obj, (name, unit, v)| {
                obj.raw(
                    name,
                    json::Object::new()
                        .num("value", v.median)
                        .str("unit", unit)
                        .finish(),
                )
            });
        json::Object::new()
            .bool("correct", self.correct())
            .int("attempted", self.attempted.max(1))
            .int("failed", self.failed)
            .raw("metrics", metrics.finish())
            .finish()
    }

    /// The line before it: what `result.json` keeps beyond the medians.
    pub fn detail_line(&self) -> String {
        let slices = self.metrics.iter().filter(|(_, _, v)| v.q1 != v.q3).fold(
            json::Object::new(),
            |obj, (name, _, v)| {
                obj.raw(
                    name,
                    json::Object::new().num("q1", v.q1).num("q3", v.q3).finish(),
                )
            },
        );
        let problems = json::array(self.problems.iter().map(|p| json::string(p)));
        let base = json::Object::new()
            .str("workload", &self.workload)
            .int("seed", self.seed)
            .bool("traced", self.traced)
            .raw("slices", slices.finish())
            .raw("problems", problems);
        self.detail
            .iter()
            .fold(base, |obj, (k, v)| obj.raw(k, v))
            .finish()
    }

    pub fn print(&self) {
        for (name, unit, v) in &self.metrics {
            println!("{} {name} {} {unit}", self.workload, json::number(v.median));
        }
        for p in &self.problems {
            println!("{} PROBLEM {p}", self.workload);
        }
        println!("{}", self.detail_line());
        println!("{}", self.result_line());
    }
}

pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Report {
    let (env, setup_s) = median_setup(
        SETUP_REPS,
        || workloads::setup(workload, seed, false).expect("known workload"),
        |env| env.shutdown(),
    );
    let host_before = stats::host_cpu_ticks();
    let out = env.run(Mode::Timed(Duration::from_secs_f64(seconds)), None);
    let steal = host_before.and_then(stats::host_steal_share).unwrap_or(0.0);
    env.shutdown();
    Report {
        workload: workload.to_string(),
        seed,
        traced: false,
        metrics: spec::END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "ops_per_s" => out.throughput.ops_per_s,
                    "cpu_us_per_op" => out.throughput.cpu_us_per_op,
                    "op_p50_us" => out.p50_us,
                    "setup_s" => Sliced::flat(setup_s),
                    other => panic!("end-to-end metric {other} is not measured"),
                };
                (m.name, m.unit, value)
            })
            .collect(),
        attempted: out.attempted,
        failed: out.failed,
        problems: Vec::new(),
        detail: vec![
            ("ops_completed", out.completed.to_string()),
            ("host_steal_share", json::number(steal)),
            (
                "slice_values",
                ["ops_per_s", "cpu_us_per_op", "op_p50_us", "op_p99_us"]
                    .iter()
                    .zip(&out.slice_values)
                    .fold(json::Object::new(), |obj, (name, v)| {
                        obj.raw(name, json::array(v.iter().map(|x| json::number(*x))))
                    })
                    .finish(),
            ),
        ],
    }
}

/// The public counters a pass is bracketed with; per-op run counts are
/// their growth over the pass divided by its ops.
struct Counters {
    gcs_writes: u64,
    gcs_resident: u64,
    global_decisions: u64,
    store_puts: u64,
    store_evictions: u64,
    /// Bytes resident in the fullest store.
    store_resident_max: usize,
    fabric_bytes: u64,
    fabric_transfers: u64,
    registry: BTreeMap<String, u64>,
}

impl Counters {
    fn read(cluster: &Cluster) -> Counters {
        let gcs = cluster.gcs();
        let stores: Vec<_> = (0..cluster.config().num_nodes)
            .filter_map(|n| cluster.object_store(ray_common::NodeId(n as u32)))
            .collect();
        Counters {
            gcs_writes: (0..gcs.num_shards())
                .map(|i| gcs.shard(ShardId(i as u32)).committed_updates())
                .sum(),
            gcs_resident: gcs.resident_bytes(),
            global_decisions: cluster.scheduler().decision_count(),
            store_puts: stores.iter().map(|s| s.put_count()).sum(),
            store_evictions: stores.iter().map(|s| s.eviction_count()).sum(),
            store_resident_max: stores.iter().map(|s| s.resident_bytes()).max().unwrap_or(0),
            fabric_bytes: cluster.fabric().bytes_transferred(),
            fabric_transfers: cluster.fabric().transfer_count(),
            registry: cluster.metrics().counter_snapshot().into_iter().collect(),
        }
    }

    fn named(&self, name: &str) -> u64 {
        self.registry.get(name).copied().unwrap_or(0)
    }
}

/// Upper bound of the registry histogram bucket holding the median.
fn histogram_p50(registry: &MetricsRegistry, name: &str) -> f64 {
    let snapshot = registry.histogram(name).snapshot();
    let total = snapshot.last().map_or(0, |b| b.1);
    snapshot
        .iter()
        .find(|(_, cumulative)| total > 0 && *cumulative * 2 >= total)
        .map_or(0.0, |(bound, _)| *bound as f64)
}

fn run_counts(
    before: &Counters,
    after: &Counters,
    out: &Outcome,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let ops = out.completed.max(1) as f64;
    let per_op = |a: u64, b: u64| a.saturating_sub(b) as f64 / ops;
    let grew = |name: &str| after.named(name).saturating_sub(before.named(name)) as f64;
    m.insert(
        "gcs.writes_per_op",
        per_op(after.gcs_writes, before.gcs_writes),
    );
    m.insert(
        "gcs.resident_bytes_per_op",
        per_op(after.gcs_resident, before.gcs_resident),
    );
    m.insert("gcs.retries", grew(names::GCS_RETRIES));
    m.insert(
        "scheduler.global_decisions_per_op",
        per_op(after.global_decisions, before.global_decisions),
    );
    let (spilled, local) = (grew(names::TASKS_SPILLED), grew(names::TASKS_LOCAL));
    m.insert(
        "scheduler.spilled_share",
        if spilled + local > 0.0 {
            spilled / (spilled + local)
        } else {
            0.0
        },
    );
    m.insert(
        "object_store.puts_per_op",
        per_op(after.store_puts, before.store_puts),
    );
    m.insert(
        "object_store.evictions",
        after.store_evictions.saturating_sub(before.store_evictions) as f64,
    );
    m.insert(
        "transport.bytes_per_op",
        per_op(after.fabric_bytes, before.fabric_bytes),
    );
    m.insert(
        "transport.transfers_per_op",
        per_op(after.fabric_transfers, before.fabric_transfers),
    );
    m.insert("core.tasks_reexecuted", grew(names::TASKS_REEXECUTED));
    m.insert("core.tasks_shed", grew(names::TASKS_SHED));
    let requests = grew(names::SERVE_REQUESTS);
    if requests > 0.0 {
        m.insert("serve.hedge_share", grew(names::SERVE_HEDGES) / requests);
        m.insert(
            "serve.failover_share",
            grew(names::SERVE_FAILOVERS) / requests,
        );
        m.insert("serve.shed_share", grew(names::SERVE_SHED) / requests);
        m.insert(
            "serve.slo_miss_share",
            grew(names::SERVE_SLO_VIOLATIONS) / requests,
        );
        m.insert(
            "serve.batches_per_request",
            grew(names::SERVE_BATCHES) / requests,
        );
    }
}

pub fn per_layer(workload: &str, seed: u64, out_dir: Option<&Path>) -> Report {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();

    // Pass 1: fixed count, tracing off. Counters, memory, and the rate
    // the traced pass is held against.
    let env = workloads::setup(workload, seed, false).expect("known workload");
    let before = Counters::read(env.cluster());
    let plain = env.run(Mode::Fixed, None);
    let after = Counters::read(env.cluster());
    run_counts(&before, &after, &plain, &mut m);
    m.insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    m.insert(
        "core.queue_wait_p50_us",
        histogram_p50(env.cluster().metrics(), names::QUEUE_WAIT_MICROS),
    );
    m.insert(
        "core.task_latency_p50_us",
        histogram_p50(env.cluster().metrics(), names::TASK_LATENCY_MICROS),
    );
    m.insert(
        "object_store.peak_resident_mb",
        after.store_resident_max as f64 / (1 << 20) as f64,
    );
    m.insert("mb_per_s", plain.throughput.mb_per_s());
    m.insert("fixed_ops_per_s", plain.throughput.ops_per_s.median);
    m.insert("fixed_cpu_us_per_op", plain.throughput.cpu_us_per_op.median);
    m.insert("diag.op_p99_us", plain.p99_us.median);
    m.extend(env.layer_extras(&plain));
    env.shutdown();

    // Pass 2: the same work with tracing on and the benchmark's own spans
    // recorded.
    let env = workloads::setup(workload, seed, true).expect("known workload");
    let clock = SpanClock::new(env.cluster().trace().clock());
    let traced = env.run(Mode::Fixed, Some(clock));
    let log = env
        .cluster()
        .trace_log()
        .expect("read the trace log back from the GCS");
    let dropped = env.cluster().trace().dropped();
    if let Some(dir) = out_dir {
        // A failure to create the directory shows as the write failing.
        let _ = std::fs::create_dir_all(dir);
        let capped = ray_common::trace::TraceLog::from_events(
            log.events()
                .iter()
                .take(CHROME_EVENT_CAP)
                .cloned()
                .collect(),
        );
        let path = dir.join(format!("trace_{workload}.json"));
        if let Err(e) = std::fs::write(&path, span::render_chrome(&capped, clock, &traced.spans)) {
            problems.push(format!("write {}: {e}", path.display()));
        }
    }
    env.shutdown();
    m.insert("common.trace_dropped", dropped as f64);
    if dropped > 0 {
        problems.push(format!(
            "{dropped} trace events dropped: the stage table is incomplete"
        ));
    }
    let plain_rate = plain.throughput.ops_per_s.median;
    if plain_rate > 0.0 {
        m.insert(
            "common.tracing_overhead_share",
            1.0 - traced.throughput.ops_per_s.median / plain_rate,
        );
    }
    let table = fold::fold(&log);
    for (i, (us, share)) in STAGE_METRICS.iter().enumerate() {
        m.insert(us, table.p50_us[i]);
        m.insert(share, table.share[i]);
    }
    let share_sum: f64 = table.share.iter().sum();
    if table.tasks > 0 && (share_sum - 1.0).abs() > 0.1 {
        problems.push(format!("stage shares sum to {share_sum}, not 1.0 ± 0.1"));
    }

    // Pass 3: the layers on their own.
    let probes = probes::all();
    m.insert(
        "core.submit_unexplained_share",
        probes::submit_unexplained_share(&probes),
    );
    m.extend(probes);

    let failed = plain.failed + traced.failed;
    let attempted = plain.attempted + traced.attempted;
    m.insert("failed_share", failed as f64 / attempted.max(1) as f64);
    let unknown: Vec<_> = m.keys().filter(|k| spec::per_layer(k).is_none()).collect();
    assert!(
        unknown.is_empty(),
        "metrics missing from spec::PER_LAYER: {unknown:?}"
    );

    let spans =
        span::summarize(&traced.spans)
            .into_iter()
            .fold(json::Object::new(), |obj, (name, s)| {
                obj.raw(
                    name,
                    json::Object::new()
                        .int("count", s.count as u64)
                        .num("p50_us", s.p50_us)
                        .num("self_p50_us", s.self_p50_us)
                        .finish(),
                )
            });
    Report {
        workload: workload.to_string(),
        seed,
        traced: true,
        // A layer metric that does not apply to this workload reads 0.
        metrics: spec::PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name,
                    p.unit,
                    Sliced::flat(m.get(p.name).copied().unwrap_or(0.0)),
                )
            })
            .collect(),
        attempted,
        failed,
        problems,
        detail: vec![
            ("spans", spans.finish()),
            ("stage_tasks", table.tasks.to_string()),
            ("ops_completed", plain.completed.to_string()),
        ],
    }
}
