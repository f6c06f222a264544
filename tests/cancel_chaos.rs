//! Cancellation and deadline-propagation suite.
//!
//! Exercises the teardown paths end to end against live clusters:
//! - a cancelled *queued* task is dropped by the dispatch scan and never
//!   emits `running`;
//! - a cancelled *running* task frees its worker slot, fans out to its
//!   children (`cancel_propagated`), and its outputs are never
//!   reconstructed;
//! - a deadline set at the root of a 3-deep nested chain expires every
//!   level of the chain;
//! - a mixed schedule (straggler injection, mid-run cancel, mid-run
//!   deadline expiry, node kill + lineage reconstruction) replays with an
//!   identical trace signature under the same seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ray_repro::common::config::FaultConfig;
use ray_repro::common::metrics::names;
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{NodeId, RayConfig, RayError};
use ray_repro::ray::task::{Arg, ObjectRef, TaskOptions};
use ray_repro::ray::{chaos, encode_return, node_affinity, Cluster};

const LONG: Duration = Duration::from_secs(60);

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

fn wait_until(mut pred: impl FnMut() -> bool, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Registers a function that parks its worker (without blocking on any
/// object) until `release` flips, setting `started` on entry. With one
/// base worker per node this pins the node's queue: later default-demand
/// tasks stay queued until the blocker returns.
fn register_blocker(cluster: &Cluster, started: &Arc<AtomicBool>, release: &Arc<AtomicBool>) {
    let (started, release) = (started.clone(), release.clone());
    cluster.register_raw("blocker", move |_ctx, _args| {
        started.store(true, Ordering::SeqCst);
        let t0 = Instant::now();
        while !release.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(2));
        }
        encode_return(&1u64)
    });
}

// ----------------------------------------------------------------------
// Cancel mid-queue: the task is dropped before it ever runs.
// ----------------------------------------------------------------------

#[test]
fn cancelled_queued_task_never_runs() {
    let cfg = RayConfig::builder().nodes(1).workers_per_node(1).seed(11).tracing(true).build();
    let cluster = Cluster::start(cfg).unwrap();
    // The teardown counters appear in the Prometheus text exposition from
    // startup (eager registration), not only after the first teardown.
    let text = cluster.metrics().render();
    for name in [names::TASKS_CANCELLED, names::DEADLINE_EXCEEDED] {
        assert!(text.contains(name), "{name} missing from metrics exposition");
    }
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    register_blocker(&cluster, &started, &release);
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    let hold: ObjectRef<u64> = ctx.call("blocker", vec![]).unwrap();
    assert!(wait_until(|| started.load(Ordering::SeqCst), LONG), "blocker never started");

    // The single worker is held, so the victim parks in the local queue.
    let victim: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&1u64).unwrap()]).unwrap();
    assert!(ctx.cancel_ref(&victim).unwrap(), "first cancel must report newly-cancelled");
    assert!(!ctx.cancel_ref(&victim).unwrap(), "second cancel must be a no-op");

    // The dispatch scan tears the victim down without waiting for the
    // blocker: its consumers observe the typed error immediately.
    assert!(wait_for_counter(&cluster, names::TASKS_CANCELLED, 1, LONG));
    match ctx.get_with_timeout(&victim, LONG) {
        Err(RayError::Cancelled(_)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    release.store(true, Ordering::SeqCst);
    assert_eq!(ctx.get_with_timeout(&hold, LONG).unwrap(), 1, "the cluster drains");

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::TaskCancelled)
        .never(TraceEventKind::Failed)
        .never(TraceEventKind::TaskDeadlineExceeded);
    let mut cancelled = 0;
    for entity in log.entities() {
        if !matches!(entity, TraceEntity::Task(_)) {
            continue;
        }
        if log.count_for(entity, TraceEventKind::TaskCancelled) == 0 {
            continue;
        }
        cancelled += 1;
        assert_eq!(
            log.count_for(entity, TraceEventKind::Running),
            0,
            "a task cancelled in the queue must never reach running"
        );
    }
    assert_eq!(cancelled, 1, "exactly the victim is cancelled");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Cancel mid-run: slot freed, children cancelled, nothing reconstructed.
// ----------------------------------------------------------------------

#[test]
fn cancelled_running_task_frees_worker_and_cancels_children() {
    let cfg = RayConfig::builder().nodes(1).workers_per_node(1).seed(12).tracing(true).build();
    let cluster = Cluster::start(cfg).unwrap();
    let child_started = Arc::new(AtomicBool::new(false));
    {
        let child_started = child_started.clone();
        cluster.register_raw("spin_child", move |ctx, _args| {
            child_started.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            // Cooperative cancellation: the body polls its own token.
            while !ctx.is_cancelled() && t0.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(2));
            }
            encode_return(&0u64)
        });
    }
    cluster.register_raw("parent", move |ctx, _args| {
        let child: ObjectRef<u64> = ctx.call("spin_child", vec![]).map_err(|e| e.to_string())?;
        // Blocks until cancellation aborts the fetch (the child never
        // finishes on its own).
        match ctx.get_with_timeout(&child, Duration::from_secs(30)) {
            Ok(v) => encode_return(&v),
            Err(e) => Err(e.to_string()),
        }
    });
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    let root: ObjectRef<u64> = ctx.call("parent", vec![]).unwrap();
    assert!(wait_until(|| child_started.load(Ordering::SeqCst), LONG), "child never started");

    // Both parent and child are mid-run now; cancelling the root fans out.
    assert!(ctx.cancel_ref(&root).unwrap());
    assert!(wait_for_counter(&cluster, names::TASKS_CANCELLED, 2, LONG));

    // The worker slots are free again: fresh work completes on this
    // single-base-worker node.
    let after: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&41u64).unwrap()]).unwrap();
    assert_eq!(ctx.get_with_timeout(&after, LONG).unwrap(), 42);
    match ctx.get_with_timeout(&root, LONG) {
        Err(RayError::Cancelled(_)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::TaskCancelled)
        .happened(TraceEventKind::CancelPropagated)
        .never(TraceEventKind::Failed)
        .never(TraceEventKind::Reconstructing);
    let mut cancelled = 0;
    for entity in log.entities() {
        if !matches!(entity, TraceEntity::Task(_)) {
            continue;
        }
        if log.count_for(entity, TraceEventKind::TaskCancelled) == 0 {
            continue;
        }
        cancelled += 1;
        assert!(
            log.count_for(entity, TraceEventKind::Running) > 0,
            "both victims were cancelled mid-run"
        );
        assert_eq!(
            log.count_for(entity, TraceEventKind::Finished),
            0,
            "a cancelled task must not also finish"
        );
    }
    assert_eq!(cancelled, 2, "parent and child are both torn down");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Deadline cascade: a root timeout expires a 3-deep nested chain.
// ----------------------------------------------------------------------

#[test]
fn deadline_propagates_through_nested_chain() {
    let cfg = RayConfig::builder().nodes(1).workers_per_node(2).seed(13).tracing(true).build();
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_raw("chain_level", move |ctx, args| {
        let depth: u64 = ray_repro::ray::decode_arg(args, 0)?;
        if depth == 0 {
            // The leaf outlives any budget the cascade carries.
            std::thread::sleep(Duration::from_millis(500));
            return encode_return(&0u64);
        }
        let child: ObjectRef<u64> = ctx
            .call("chain_level", vec![Arg::value(&(depth - 1)).unwrap()])
            .map_err(|e| e.to_string())?;
        match ctx.get_with_timeout(&child, Duration::from_secs(30)) {
            Ok(v) => encode_return(&(v + 1)),
            Err(e) => Err(e.to_string()),
        }
    });
    let ctx = cluster.driver();

    let opts = TaskOptions::default().with_timeout(Duration::from_millis(150));
    let root: ObjectRef<u64> =
        ctx.call_opts("chain_level", vec![Arg::value(&2u64).unwrap()], opts).unwrap();
    match ctx.get_with_timeout(&root, LONG) {
        Err(RayError::DeadlineExceeded(_)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Root, middle, and leaf all expire — the leaf only reports once its
    // oblivious 500ms body returns.
    assert!(wait_for_counter(&cluster, names::DEADLINE_EXCEEDED, 3, LONG));

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::TaskDeadlineExceeded)
        .never(TraceEventKind::Failed)
        .never(TraceEventKind::TaskCancelled);
    let mut expired = 0;
    for entity in log.entities() {
        if !matches!(entity, TraceEntity::Task(_)) {
            continue;
        }
        if log.count_for(entity, TraceEventKind::TaskDeadlineExceeded) > 0 {
            expired += 1;
            assert_eq!(
                log.count_for(entity, TraceEventKind::Finished),
                0,
                "an expired task must not also finish"
            );
        }
    }
    assert_eq!(expired, 3, "the whole 3-deep chain expires");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Determinism: the same seed replays the same mixed schedule bit-for-bit.
// ----------------------------------------------------------------------

/// One mixed cancellation-chaos run: a pinned chain, a straggler node
/// (`DelayWorker`), a mid-run cancel, a mid-run deadline expiry, and a
/// node kill followed by lineage reconstruction of the straggler's
/// output. Returns the run's trace signature.
fn traced_cancel_signature(seed: u64) -> String {
    let mut cfg =
        RayConfig::builder().nodes(3).workers_per_node(2).seed(seed).tracing(true).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 10,
        ..Default::default()
    };
    let cluster = Cluster::start(cfg).unwrap();
    let spinning = Arc::new(AtomicBool::new(false));
    {
        let spinning = spinning.clone();
        cluster.register_raw("spin_until_cancelled", move |ctx, _args| {
            spinning.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            while !ctx.is_cancelled() && t0.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(2));
            }
            encode_return(&0u64)
        });
    }
    let napping = Arc::new(AtomicBool::new(false));
    {
        let napping = napping.clone();
        cluster.register_raw("outlive_deadline", move |_ctx, _args| {
            napping.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(700));
            encode_return(&0u64)
        });
    }
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    // 1. A pinned chain through node 1 (baseline traced work).
    let pin1 = || TaskOptions::default().with_demand(node_affinity(NodeId(1)));
    let mut f: ObjectRef<u64> = ctx.call_opts("inc", vec![Arg::value(&0u64).unwrap()], pin1()).unwrap();
    for _ in 0..2 {
        f = ctx.call_opts("inc", vec![Arg::from_ref(&f)], pin1()).unwrap();
    }
    assert_eq!(ctx.get_with_timeout(&f, LONG).unwrap(), 3);

    // 2. Straggler injection: every task body on node 2 pays 30ms.
    chaos::apply(&cluster, chaos::ChaosAction::DelayWorker(NodeId(2), Duration::from_millis(30)));
    let pin2 = TaskOptions::default().with_demand(node_affinity(NodeId(2)));
    let far: ObjectRef<u64> =
        ctx.call_opts("inc", vec![Arg::value(&9u64).unwrap()], pin2).unwrap();
    assert_eq!(ctx.get_with_timeout(&far, LONG).unwrap(), 10);

    // 3. Cancel a task that is provably mid-run.
    let spin: ObjectRef<u64> = ctx.call("spin_until_cancelled", vec![]).unwrap();
    assert!(wait_until(|| spinning.load(Ordering::SeqCst), LONG), "spinner never started");
    assert!(ctx.cancel_ref(&spin).unwrap());
    assert!(wait_for_counter(&cluster, names::TASKS_CANCELLED, 1, LONG));
    assert!(matches!(ctx.get_with_timeout(&spin, LONG), Err(RayError::Cancelled(_))));

    // 4. A deadline expiring mid-run (the body starts inside the budget
    //    and sleeps past it).
    let sleepy: ObjectRef<u64> = ctx
        .call_opts("outlive_deadline", vec![], TaskOptions::default().with_timeout(Duration::from_millis(300)))
        .unwrap();
    assert!(wait_until(|| napping.load(Ordering::SeqCst), LONG), "sleeper never started");
    assert!(wait_for_counter(&cluster, names::DEADLINE_EXCEEDED, 1, LONG));
    assert!(matches!(ctx.get_with_timeout(&sleepy, LONG), Err(RayError::DeadlineExceeded(_))));

    // 5. Kill the straggler node, restart it, drop every surviving
    //    replica of its output, and force lineage reconstruction (the
    //    producer is pinned there, so the re-execution lands on the
    //    restarted node — straggler delay and all).
    cluster.kill_node(NodeId(2));
    cluster.restart_node(NodeId(2)).unwrap();
    ctx.free(&[far.id()]).unwrap();
    assert_eq!(ctx.get_with_timeout(&far, LONG).unwrap(), 10, "reconstruction after the kill");

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::TaskCancelled)
        .happened(TraceEventKind::TaskDeadlineExceeded)
        .happened(TraceEventKind::NodeDeclaredDead)
        .happened(TraceEventKind::Reconstructing);
    let sig = log.signature();
    cluster.shutdown();
    sig
}

#[test]
fn same_seed_cancel_chaos_runs_are_identical() {
    let a = traced_cancel_signature(0xCA11);
    let b = traced_cancel_signature(0xCA11);
    assert_eq!(a, b, "same-seed cancellation chaos must replay identically");
}
