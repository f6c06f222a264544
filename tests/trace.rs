//! Deterministic trace-assertion suite for the lifecycle tracing layer.
//!
//! Every test starts a traced cluster, runs a seeded workload, reads the
//! merged event log from the cluster's trace collector
//! ([`Cluster::trace_log`]), and asserts on it with the chainable
//! [`TraceAssert`] API. The last test is the determinism contract: two
//! runs with the same seed — including a node kill, detector-driven death
//! declaration, and lineage reconstruction — must produce identical
//! event-log signatures (timestamps and retry multiplicity excluded).

use ray_repro::common::config::{FaultConfig, SchedulerPolicy};
use ray_repro::common::metrics::names;
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{NodeId, RayConfig};
use ray_repro::ray::task::{Arg, ObjectRef, TaskOptions};
use ray_repro::ray::{node_affinity, Cluster};
use std::time::{Duration, Instant};

fn wait_for_counter(cluster: &Cluster, name: &str, min: u64, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cluster.metrics().counter(name).get() >= min {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

// ----------------------------------------------------------------------
// The state machine, observed end to end.
// ----------------------------------------------------------------------

#[test]
fn task_lifecycle_is_traced_in_order() {
    let cfg = RayConfig::builder().nodes(2).workers_per_node(2).seed(3).tracing(true).build();
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    let mut fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
    for _ in 0..4 {
        fut = ctx.call("inc", vec![Arg::from_ref(&fut)]).unwrap();
    }
    // Pin the last hop to node 1 so both nodes execute traced work and the
    // result crosses the wire back to the driver's node.
    let pin = TaskOptions::default().with_demand(node_affinity(NodeId(1)));
    let far: ObjectRef<u64> = ctx.call_opts("inc", vec![Arg::from_ref(&fut)], pin).unwrap();
    assert_eq!(ctx.get_with_timeout(&far, Duration::from_secs(30)).unwrap(), 6);

    let log = cluster.trace_log().unwrap();
    let check = log.assert();
    check
        .happened(TraceEventKind::Submitted)
        .happened(TraceEventKind::Running)
        .happened(TraceEventKind::Finished)
        .happened(TraceEventKind::ObjectPut)
        .happened(TraceEventKind::ObjectTransferred)
        .happened_on(NodeId(0), TraceEventKind::Running)
        .happened_on(NodeId(1), TraceEventKind::Running)
        .never(TraceEventKind::Failed)
        .never(TraceEventKind::NodeDeclaredDead)
        .never(TraceEventKind::Reconstructing)
        .deps_fetched_before_running();

    // Every finished task walked the full state machine, in order.
    let mut finished_tasks = 0;
    for entity in log.entities() {
        if !matches!(entity, TraceEntity::Task(_)) {
            continue;
        }
        if log.count_for(entity, TraceEventKind::Finished) > 0 {
            finished_tasks += 1;
            check.ordered(
                entity,
                &[
                    TraceEventKind::Submitted,
                    TraceEventKind::Running,
                    TraceEventKind::Finished,
                ],
            );
        }
    }
    assert_eq!(finished_tasks, 6, "all six tasks must appear in the log");

    // The pinned output materialized on its producer before it was copied.
    check.ordered(
        TraceEntity::Object(far.id()),
        &[TraceEventKind::ObjectPut, TraceEventKind::ObjectTransferred],
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Spill-to-global placement leaves a decision trail.
// ----------------------------------------------------------------------

#[test]
fn global_placement_is_traced_with_decision_reasons() {
    let cfg = RayConfig::builder()
        .nodes(2)
        .workers_per_node(1)
        .seed(5)
        .policy(SchedulerPolicy::Centralized)
        .tracing(true)
        .build();
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let futs: Vec<ObjectRef<u64>> = (0..6)
        .map(|i| ctx.call("inc", vec![Arg::value(&(i as u64)).unwrap()]).unwrap())
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(ctx.get_with_timeout(f, Duration::from_secs(30)).unwrap(), i as u64 + 1);
    }

    let log = cluster.trace_log().unwrap();
    let check = log.assert();
    // The centralized policy forwards everything: every task must show a
    // spill followed by a global placement, and none may fast-path.
    check
        .happened(TraceEventKind::SpilledGlobal)
        .happened(TraceEventKind::GlobalPlaced)
        .never(TraceEventKind::ScheduledLocal)
        .never(TraceEventKind::Failed);
    for entity in log.entities() {
        if matches!(entity, TraceEntity::Task(_)) {
            check.ordered(
                entity,
                &[
                    TraceEventKind::Submitted,
                    TraceEventKind::SpilledGlobal,
                    TraceEventKind::GlobalPlaced,
                    TraceEventKind::Finished,
                ],
            );
        }
    }
    // The spill reason is recorded on the event itself.
    let spills: Vec<_> = log
        .events()
        .iter()
        .filter(|e| e.kind == TraceEventKind::SpilledGlobal)
        .collect();
    assert!(spills.iter().all(|e| e.detail == "policy_forwards_all"), "spill events must carry the local scheduler's decision reason");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Disabled tracing stays silent.
// ----------------------------------------------------------------------

#[test]
fn disabled_tracing_produces_an_empty_log() {
    let cfg = RayConfig::builder().nodes(2).workers_per_node(2).seed(3).build();
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&1u64).unwrap()]).unwrap();
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(30)).unwrap(), 2);
    assert!(!cluster.trace().is_enabled());
    let log = cluster.trace_log().unwrap();
    assert!(log.events().is_empty(), "disabled tracing must record nothing");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Store pressure and GCS flushing leave a trail too.
// ----------------------------------------------------------------------

/// Eviction under memory pressure is observable: spill-enabled stores
/// emit `ObjectSpilled` per victim, spill-disabled stores emit
/// `ObjectEvicted` (the object is gone), and a GCS flush stamps
/// `GcsFlush` on the shard entity.
#[test]
fn store_pressure_and_gcs_flush_are_traced() {
    use ray_repro::common::config::ObjectStoreConfig;

    // Phase 1: spill enabled — victims are recoverable, so the trail is
    // ObjectSpilled (never ObjectEvicted).
    let mut cfg =
        RayConfig::builder().nodes(1).workers_per_node(1).seed(11).tracing(true).build();
    cfg.object_store = ObjectStoreConfig { capacity_bytes: 64 * 1024, spill_enabled: true };
    let cluster = Cluster::start(cfg).unwrap();
    let ctx = cluster.driver();
    for i in 0..8u64 {
        ctx.put(&vec![i as u8; 16 * 1024]).unwrap();
    }
    cluster.gcs().flush_all_to_disk(0).unwrap();
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::ObjectSpilled)
        .happened(TraceEventKind::GcsFlush)
        .never(TraceEventKind::ObjectEvicted);
    cluster.shutdown();

    // Phase 2: spill disabled — the same pressure drops victims for good,
    // which must be visible as ObjectEvicted.
    let mut cfg =
        RayConfig::builder().nodes(1).workers_per_node(1).seed(11).tracing(true).build();
    cfg.object_store = ObjectStoreConfig { capacity_bytes: 64 * 1024, spill_enabled: false };
    let cluster = Cluster::start(cfg).unwrap();
    let ctx = cluster.driver();
    for i in 0..8u64 {
        ctx.put(&vec![i as u8; 16 * 1024]).unwrap();
    }
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::ObjectEvicted)
        .never(TraceEventKind::ObjectSpilled);
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Determinism: same seed, same signature — through a full recovery.
// ----------------------------------------------------------------------

/// One seeded run: build a pinned chain, lose its node abruptly, let the
/// failure detector declare the death, restart the slot, and branch off a
/// lost mid-chain object to force recursive lineage reconstruction.
/// Returns the log's canonical signature.
fn traced_recovery_signature(seed: u64) -> String {
    let mut cfg =
        RayConfig::builder().nodes(3).workers_per_node(2).seed(seed).tracing(true).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 10,
        heartbeat_timeout: Duration::from_millis(250),
        ..FaultConfig::default()
    };
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    let pin = TaskOptions::default().with_demand(node_affinity(NodeId(1)));
    let mut fut: ObjectRef<u64> =
        ctx.call_opts("inc", vec![Arg::value(&0u64).unwrap()], pin.clone()).unwrap();
    let mut mid = fut;
    for i in 0..5 {
        fut = ctx.call_opts("inc", vec![Arg::from_ref(&fut)], pin.clone()).unwrap();
        if i == 2 {
            mid = fut;
        }
    }
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(30)).unwrap(), 6);

    cluster.kill_node_abrupt(NodeId(1));
    assert!(
        wait_for_counter(&cluster, names::NODES_DECLARED_DEAD, 1, Duration::from_secs(15)),
        "detector must declare the crashed node dead"
    );
    cluster.restart_node(NodeId(1)).unwrap();

    // `mid` lived only on the dead node: this get walks the whole pinned
    // prefix back through lineage re-execution.
    let branch: ObjectRef<u64> = ctx.call("inc", vec![Arg::from_ref(&mid)]).unwrap();
    assert_eq!(ctx.get_with_timeout(&branch, Duration::from_secs(120)).unwrap(), 5);

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened_on(NodeId(1), TraceEventKind::NodeDeclaredDead)
        .count_at_least(TraceEntity::Object(mid.id()), TraceEventKind::Reconstructing, 1)
        .ordered(
            TraceEntity::Object(mid.id()),
            &[
                TraceEventKind::ObjectPut,
                TraceEventKind::Reconstructing,
                TraceEventKind::ObjectPut,
            ],
        )
        .happened(TraceEventKind::Resubmitted)
        .deps_fetched_before_running();
    let sig = log.signature();
    assert!(!sig.is_empty());
    cluster.shutdown();
    sig
}

#[test]
fn same_seed_recovery_runs_have_identical_signatures() {
    let first = traced_recovery_signature(21);
    let second = traced_recovery_signature(21);
    assert_eq!(
        first, second,
        "two same-seed runs through kill + detection + reconstruction must \
         produce the same canonical event sequence"
    );
}
