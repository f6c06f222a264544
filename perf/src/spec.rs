//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root carries the same tables for the driver; a unit test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "task_storm",
        why: "control plane: 2 closed-loop drivers burst empty tasks (throughput), then one driver calls serially (unloaded latency); lineage on, GCS write-dominated, almost no bytes moved",
    },
    Workload {
        name: "object_flow",
        why: "data plane with zero wire time: 64KiB/4MiB puts pulled across nodes by a pinned checksum task, 8 in flight, beside a paced hot reader; few tasks, many bytes, GCS read-dominated",
    },
    Workload {
        name: "ring_allreduce",
        why: "wire-bound collective through actors: 4 ranks x 4MiB over the fig12a link (8 striped connections); one closed-loop driver; chunk pipelining moves it, control-plane cuts should not",
    },
    Workload {
        name: "serve_steady",
        why: "serving layer: 2 closed-loop clients on a 2-replica pool (hedging on, autoscale off), 8KiB requests, fixed-iteration model; router + actor round trip is over half of each request",
    },
];

/// The bounds are what this sandbox's noise allows, not what one would
/// wish: across ten runs the quartiles of these metrics lie 2-11% of the
/// median apart (set-up: up to 18%), and a bound must sit well clear of
/// that or an unchanged commit fails its own gate.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Whole-workload numbers from the fixed-count passes. These would be
    // end-to-end metrics but for the driver's rules: each applies to some
    // workloads only, is 0 on a healthy run, or (memory) grows with the
    // op count of a timed run.
    up("mb_per_s", "MB/s"),
    up("vs_bsp", "ratio"),
    down("failed_share", "ratio"),
    down("peak_rss_mb", "MB"),
    up("fixed_ops_per_s", "1/s"),
    down("fixed_cpu_us_per_op", "us"),
    // Was to be end-to-end; its quartiles lay 60% of the median apart on
    // `task_storm`, whose unloaded tail is the VM's wake-up jitter.
    down("diag.op_p99_us", "us"),
    // codec
    down("codec.taskspec_encode_ns", "ns"),
    down("codec.taskspec_decode_ns", "ns"),
    down("codec.value_roundtrip_64k_us", "us"),
    up("codec.tensor_encode_mb_per_s", "MB/s"),
    up("codec.tensor_decode_mb_per_s", "MB/s"),
    // common
    down("common.trace_emit_off_ns", "ns"),
    down("common.trace_emit_on_ns", "ns"),
    down("common.counter_inc_ns", "ns"),
    down("common.histogram_observe_ns", "ns"),
    down("common.tracing_overhead_share", "ratio"),
    down("common.trace_dropped", "count"),
    // gcs
    down("gcs.put_task_us", "us"),
    down("gcs.put_object_lineage_us", "us"),
    down("gcs.get_task_us", "us"),
    down("gcs.chain_write_r1_us", "us"),
    down("gcs.chain_write_r2_us", "us"),
    down("gcs.writes_per_op", "count"),
    down("gcs.add_object_location_us", "us"),
    down("gcs.get_object_locations_us", "us"),
    down("gcs.subscribe_notify_us", "us"),
    down("gcs.log_actor_method_us", "us"),
    down("gcs.retries", "count"),
    down("gcs.resident_bytes_per_op", "B"),
    // scheduler
    down("scheduler.decide_local_ns", "ns"),
    down("scheduler.ledger_acquire_release_ns", "ns"),
    down("scheduler.heartbeat_ns", "ns"),
    down("scheduler.place_us", "us"),
    down("scheduler.spilled_share", "ratio"),
    down("scheduler.global_decisions_per_op", "count"),
    // object_store
    down("object_store.put_1k_ns", "ns"),
    down("object_store.get_1k_ns", "ns"),
    down("object_store.put_64k_us", "us"),
    up("object_store.put_4m_mb_per_s", "MB/s"),
    down("object_store.get_4m_ns", "ns"),
    down("object_store.delete_ns", "ns"),
    up("object_store.copy_4m_t1_mb_per_s", "MB/s"),
    up("object_store.copy_4m_t8_mb_per_s", "MB/s"),
    down("object_store.fetch_64k_us", "us"),
    down("object_store.fetch_4m_us", "us"),
    up("object_store.hot_reads_per_s", "1/s"),
    down("object_store.puts_per_op", "count"),
    down("object_store.evictions", "count"),
    down("object_store.peak_resident_mb", "MB"),
    // transport
    down("transport.transfer_overhead_us", "us"),
    down("transport.transfer_virtual_ns", "ns"),
    down("transport.semaphore_acquire_ns", "ns"),
    down("transport.bytes_per_op", "B"),
    down("transport.transfers_per_op", "count"),
    down("transport.bytes_moved_per_byte_reduced", "ratio"),
    // core
    down("core.submit_call_us", "us"),
    down("core.wait_call_us", "us"),
    down("core.get_ready_us", "us"),
    down("core.put_1k_us", "us"),
    down("core.put_1m_us", "us"),
    down("core.actor_call_roundtrip_us", "us"),
    down("core.stage.submit_to_sched_us", "us"),
    down("core.stage.sched_to_deps_us", "us"),
    down("core.stage.deps_to_run_us", "us"),
    down("core.stage.run_to_finish_us", "us"),
    down("core.stage.submit_to_sched_share", "ratio"),
    down("core.stage.sched_to_deps_share", "ratio"),
    down("core.stage.deps_to_run_share", "ratio"),
    down("core.stage.run_to_finish_share", "ratio"),
    down("core.queue_wait_p50_us", "us"),
    down("core.task_latency_p50_us", "us"),
    down("core.tasks_reexecuted", "count"),
    down("core.tasks_shed", "count"),
    down("core.submit_unexplained_share", "ratio"),
    // serve
    down("serve.request_overhead_us", "us"),
    down("serve.hedge_share", "ratio"),
    down("serve.failover_share", "ratio"),
    down("serve.shed_share", "ratio"),
    down("serve.slo_miss_share", "ratio"),
    down("serve.batches_per_request", "count"),
    down("serve.digest_record_ns", "ns"),
    down("serve.pool_p99_us", "us"),
    // rl / bsp
    down("rl.allreduce_calls_per_iter", "count"),
    up("rl.allreduce_wire_efficiency", "ratio"),
    down("bsp.allreduce_iter_ms", "ms"),
];

/// Per-layer counts that depend only on the work done, never on timing:
/// two runs of one commit must report them identically. Listed per
/// workload, because hedging makes `serve_steady`'s counts vary and a
/// count that is 0 everywhere proves nothing. `gcs.writes_per_op` is not
/// among them: a `get` that finds its object not yet ready subscribes and
/// unsubscribes, two committed updates more, so the count moves in its
/// fourth digit with timing. Nor is anything on `task_storm`: which node
/// runs a task is timing too, and a result checked from the other node is
/// one more transfer and put.
pub const EXACT_COUNTS: &[(&str, &str)] = &[
    ("object_flow", "object_store.puts_per_op"),
    ("object_flow", "transport.bytes_per_op"),
    ("object_flow", "transport.transfers_per_op"),
    ("ring_allreduce", "object_store.puts_per_op"),
    ("ring_allreduce", "transport.bytes_per_op"),
    ("ring_allreduce", "transport.bytes_moved_per_byte_reduced"),
    ("ring_allreduce", "rl.allreduce_calls_per_iter"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("BENCHMARK.json: `{key}` is {other:?}, not an array"),
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is too long",
                w.name
            );
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for (w, exact) in EXACT_COUNTS {
            assert!(workload(w).is_some(), "{w} is not a workload");
            assert!(
                per_layer(exact).is_some(),
                "{exact} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn bounds_are_within_what_the_driver_accepts() {
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_carries_exactly_these_tables() {
        let doc = json::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| {
                (
                    json::get_str(w, "name").unwrap(),
                    json::get_str(w, "why").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    json::get_str(m, "name").unwrap(),
                    json::get_str(m, "unit").unwrap(),
                    json::get_str(m, "better").unwrap(),
                    json::get_num(m, "bound").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.label(), m.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    json::get_str(m, "name").unwrap(),
                    json::get_str(m, "unit").unwrap(),
                    json::get_str(m, "better").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.label()))
            .collect();
        assert_eq!(layers, ours);

        assert_eq!(entries(&doc, "paths"), [Json::Str("perf".to_string())]);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
