//! End-to-end behaviour of the rustray runtime: the API of paper Table 1,
//! nested tasks, actors with stateful-edge ordering, resource-aware
//! scheduling, error propagation, and fault tolerance (Fig. 11).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_common::config::{FaultConfig, SchedulerPolicy};
use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{NodeId, ObjectId, RayConfig, RayError, Resources, ShardId};
use ray_gcs::kv::{Key, Table, UpdateOp};
use rustray::registry::{decode_arg, encode_return, RemoteResult};
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{node_affinity, ActorInstance, Cluster, RayContext};

/// The waiting side of a gate: holds every waiter until the gate's
/// [`Opener`] is dropped, and nobody after that.
#[derive(Clone)]
struct Gate(Arc<OnceLock<()>>);

impl Gate {
    fn wait(&self) {
        self.0.wait();
    }
}

/// Opens its gate when dropped, so a failing test releases its waiters.
struct Opener(Arc<OnceLock<()>>);

impl Drop for Opener {
    fn drop(&mut self) {
        let _ = self.0.set(());
    }
}

fn new_gate() -> (Opener, Gate) {
    let cell = Arc::new(OnceLock::new());
    (Opener(cell.clone()), Gate(cell))
}

fn small_cluster() -> Cluster {
    Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).seed(7).build()).unwrap()
}

#[test]
fn remote_function_round_trip() {
    let cluster = small_cluster();
    cluster.register_fn2("add", |a: i64, b: i64| a + b);
    let ctx = cluster.driver();
    let fut = ctx
        .call::<i64>("add", vec![Arg::value(&40i64).unwrap(), Arg::value(&2i64).unwrap()])
        .unwrap();
    assert_eq!(ctx.get(&fut).unwrap(), 42);
    cluster.shutdown();
}

#[test]
fn futures_chain_without_blocking() {
    // Futures pass into further calls without get(): data edges form a
    // chain (paper §3.1).
    let cluster = small_cluster();
    cluster.register_fn1("inc", |x: i64| x + 1);
    let ctx = cluster.driver();
    let mut fut: ObjectRef<i64> =
        ctx.call("inc", vec![Arg::value(&0i64).unwrap()]).unwrap();
    for _ in 0..20 {
        fut = ctx.call("inc", vec![Arg::from_ref(&fut)]).unwrap();
    }
    assert_eq!(ctx.get(&fut).unwrap(), 21);
    cluster.shutdown();
}

#[test]
fn put_and_get_values() {
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let r = ctx.put(&vec![1.5f64, 2.5, 3.5]).unwrap();
    assert_eq!(ctx.get(&r).unwrap(), vec![1.5, 2.5, 3.5]);
    cluster.shutdown();
}

#[test]
fn a_put_is_the_callers_buffer_on_its_node_and_a_copy_elsewhere() {
    let cluster = small_cluster();
    cluster.register_raw("address_of_arg", |_ctx, args| {
        encode_return(&(args[0].as_ptr() as usize as u64))
    });
    let ctx = cluster.driver_on(NodeId(0));
    let data = Bytes::from(vec![42u8; 64 << 10]);
    let id = ctx.put_raw(data.clone()).unwrap();
    let got = ctx.get_raw(id, Duration::from_secs(10)).unwrap();
    assert_eq!(got.as_ptr(), data.as_ptr(), "a local get must not copy");
    let address_on = |node: u32| -> u64 {
        let pin = TaskOptions::default().with_demand(node_affinity(NodeId(node)));
        let r: ObjectRef<u64> =
            ctx.call_opts("address_of_arg", vec![Arg::from_id(id)], pin).unwrap();
        ctx.get(&r).unwrap()
    };
    assert_eq!(address_on(0), data.as_ptr() as usize as u64, "a co-located task reads the put");
    assert_ne!(address_on(1), data.as_ptr() as usize as u64, "a remote task reads the wire's copy");
    cluster.shutdown();
}

#[test]
fn parallel_fan_out_fan_in() {
    let cluster =
        Cluster::start(RayConfig::builder().nodes(4).workers_per_node(2).build()).unwrap();
    cluster.register_fn1("square", |x: u64| x * x);
    let ctx = cluster.driver();
    let futs: Vec<ObjectRef<u64>> = (0..50u64)
        .map(|i| ctx.call("square", vec![Arg::value(&i).unwrap()]).unwrap())
        .collect();
    let total: u64 = ctx.get_all(&futs).unwrap().into_iter().sum();
    assert_eq!(total, (0..50u64).map(|i| i * i).sum());
    cluster.shutdown();
}

#[test]
fn nested_remote_functions() {
    // A remote function that itself fans out (paper §3.1: nested remote
    // functions are critical for scalability).
    let cluster = small_cluster();
    cluster.register_fn1("leaf", |x: u64| x * 2);
    cluster.register_raw("parent", |ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let n: u64 = decode_arg(args, 0)?;
        let futs: Vec<ObjectRef<u64>> = (0..n)
            .map(|i| {
                ctx.call("leaf", vec![Arg::value(&i).map_err(|e| e.to_string())?])
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, String>>()?;
        let sum: u64 =
            ctx.get_all(&futs).map_err(|e| e.to_string())?.into_iter().sum();
        encode_return(&sum)
    });
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("parent", vec![Arg::value(&10u64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&fut).unwrap(), (0..10u64).map(|i| i * 2).sum());
    cluster.shutdown();
}

#[test]
fn deeply_nested_calls_do_not_deadlock_single_worker() {
    // One worker per node; a worker that blocks on a child grows the pool
    // instead of wedging — at each of the three sites that can block one.
    struct CountsDrop(Arc<AtomicUsize>);
    impl Drop for CountsDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicUsize::new(0));
    let cluster =
        Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
    cluster.register_fn1("same", |x: u64| x);
    let captured = CountsDrop(dropped.clone());
    cluster.register_raw("nest", move |ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let _held_by_the_registry = &captured;
        let how: String = decode_arg(args, 0)?;
        let depth: u64 = decode_arg(args, 1)?;
        let err = |e: RayError| e.to_string();
        let child: ObjectRef<u64> = if depth == 0 {
            ctx.call("same", vec![Arg::value(&0u64).map_err(err)?]).map_err(err)?
        } else {
            let args = vec![Arg::value(&how).map_err(err)?, Arg::value(&(depth - 1)).map_err(err)?];
            ctx.call("nest", args).map_err(err)?
        };
        let v = match how.as_str() {
            "get" => ctx.get(&child).map_err(err)?,
            "wait" => {
                let (ready, _) =
                    ctx.wait(&[child.id()], 1, Duration::from_secs(30)).map_err(err)?;
                assert_eq!(ready, vec![child.id()]);
                ctx.get(&child).map_err(err)?
            }
            // The child's future goes to a second child, whose worker waits
            // for it in its argument fetch while the first child is itself
            // waiting on a grandchild.
            "arg" => {
                let via: ObjectRef<u64> =
                    ctx.call("same", vec![Arg::from_ref(&child)]).map_err(err)?;
                ctx.get(&via).map_err(err)?
            }
            other => return Err(format!("unknown site {other}")),
        };
        encode_return(&(v + u64::from(depth > 0)))
    });
    let ctx = cluster.driver();
    for (how, depth) in [("get", 5u64), ("wait", 5), ("arg", 3)] {
        let args = vec![Arg::value(how).unwrap(), Arg::value(&depth).unwrap()];
        let fut: ObjectRef<u64> = ctx.call("nest", args).unwrap();
        assert_eq!(ctx.get(&fut).unwrap(), depth, "blocked in {how}");
    }
    // Every thread the node started — the heartbeat thread and the workers
    // the pool grew — is joined by shutdown and has let go of the runtime,
    // so the registry and what its functions captured die with the cluster.
    drop(ctx);
    cluster.shutdown();
    assert_eq!(dropped.load(Ordering::SeqCst), 0);
    drop(cluster);
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
}

#[test]
fn a_producer_resubmitted_behind_its_blocked_consumers_still_runs() {
    // One worker per node caps the pool at 12 threads. Thirteen consumers
    // of a freed object take all twelve and block in their argument
    // fetches; lineage then resubmits the producer behind the thirteenth.
    // The pool must still start a thread for it, or every consumer waits
    // out its deadline.
    const CONSUMERS: usize = 13;
    let cluster =
        Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
    cluster.register_fn0("produce", || 7u64);
    cluster.register_fn1("consume", |x: u64| x + 1);
    let ctx = cluster.driver();
    let x: ObjectRef<u64> = ctx.call("produce", vec![]).unwrap();
    assert_eq!(ctx.get(&x).unwrap(), 7);
    ctx.free(&[x.id()]).unwrap();
    let start = Instant::now();
    let opts = TaskOptions::default().with_timeout(Duration::from_secs(10));
    let outs: Vec<ObjectRef<u64>> = (0..CONSUMERS)
        .map(|_| {
            ctx.call_opts("consume", vec![Arg::from_ref(&x)], opts.clone())
                .unwrap()
        })
        .collect();
    assert_eq!(ctx.get_all(&outs).unwrap(), vec![8; CONSUMERS]);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "consumers took {elapsed:?}"
    );
    cluster.shutdown();
}

#[test]
fn wait_returns_first_k_ready() {
    let cluster = small_cluster();
    cluster.register_fn1("sleepy", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        ms
    });
    let ctx = cluster.driver();
    // One fast, one slow.
    let fast: ObjectRef<u64> = ctx.call("sleepy", vec![Arg::value(&5u64).unwrap()]).unwrap();
    let slow: ObjectRef<u64> =
        ctx.call("sleepy", vec![Arg::value(&2000u64).unwrap()]).unwrap();
    let (ready, pending) = ctx
        .wait(&[fast.id(), slow.id()], 1, Duration::from_secs(10))
        .unwrap();
    assert_eq!(ready, vec![fast.id()]);
    assert_eq!(pending, vec![slow.id()]);
    cluster.shutdown();
}

#[test]
fn wait_times_out_with_partial_results() {
    let cluster = small_cluster();
    cluster.register_fn1("sleepy", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        ms
    });
    let ctx = cluster.driver();
    let slow: ObjectRef<u64> =
        ctx.call("sleepy", vec![Arg::value(&5000u64).unwrap()]).unwrap();
    let (ready, pending) = ctx
        .wait(&[slow.id()], 1, Duration::from_millis(50))
        .unwrap();
    assert!(ready.is_empty());
    assert_eq!(pending.len(), 1);
    cluster.shutdown();
}

#[test]
fn wait_over_more_ids_than_one_subscribe_op_carries() {
    // Default four GCS shards. 300 objects that exist, 1 000 that never
    // will: ~325 ids per shard, so every shard's group is split over two
    // subscribe ops of one subscription.
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let exist: Vec<ObjectId> = (0..300u32).map(|i| ctx.put(&i).unwrap().id()).collect();
    assert!(exist.len() + 1000 > 4 * ray_gcs::kv::MAX_SUBSCRIBE_KEYS);
    let mut ids: Vec<ObjectId> = Vec::new();
    for (i, &id) in exist.iter().enumerate() {
        ids.push(id);
        ids.extend((0..if i < 100 { 10 } else { 0 }).map(|_| ObjectId::random()));
    }
    // Duplicates, of both kinds.
    ids.extend_from_within(..20);
    let exist: std::collections::HashSet<ObjectId> = exist.into_iter().collect();
    let distinct = |v: &[ObjectId]| v.iter().collect::<std::collections::HashSet<_>>().len();

    // Fewer than are ready: exactly that many come back, the rest pending
    // in the caller's order.
    let (ready, pending) = ctx.wait(&ids, 120, Duration::from_secs(30)).unwrap();
    assert_eq!(ready.len(), 120);
    assert_eq!(distinct(&ready), 120);
    assert!(ready.iter().all(|id| exist.contains(id)));
    let rest: Vec<ObjectId> = ids.iter().copied().filter(|id| !ready.contains(id)).collect();
    assert_eq!(pending, rest);

    // More than are ready: every object that exists, once each, then the
    // timeout.
    let (ready, pending) = ctx.wait(&ids, ids.len(), Duration::from_millis(300)).unwrap();
    assert_eq!(ready.len(), 300);
    assert_eq!(distinct(&ready), 300);
    assert!(ready.iter().all(|id| exist.contains(id)));
    assert!(pending.iter().all(|id| !exist.contains(id)));
    assert_eq!(distinct(&pending), 1000);
    cluster.shutdown();
}

#[test]
fn oversized_return_count_is_a_typed_error() {
    use rustray::task::{TaskKind, TaskSpec};
    use rustray::ActorHandle;

    let cluster = small_cluster();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let arg = || vec![Arg::value(&1u64).unwrap()];
    // Rejected before the return ids are computed, let alone allocated.
    for n in [u64::MAX, 65_536] {
        let err = ctx.submit("inc", arg(), TaskOptions::default().returns(n)).unwrap_err();
        assert!(matches!(err, RayError::Invalid(_)), "{n} returns: {err:?}");
    }
    let nobody = ActorHandle::from_parts(ray_common::ActorId::random(), ObjectId::random());
    let err = ctx.call_actor_multi(&nobody, "m", arg(), u64::MAX).unwrap_err();
    assert!(matches!(err, RayError::Invalid(_)), "{err:?}");
    // The cluster keeps serving.
    let fut: ObjectRef<u64> = ctx.call("inc", arg()).unwrap();
    assert_eq!(ctx.get(&fut).unwrap(), 2);
    // The bound itself is a legal task: every return has an id that names it.
    let spec = TaskSpec {
        task: ray_common::TaskId::random(),
        kind: TaskKind::Normal,
        function: ray_common::FunctionId::for_name("inc"),
        function_name: "inc".into(),
        args: Vec::new(),
        num_returns: 65_535,
        demand: Resources::none(),
        deadline_micros: None,
        critical: false,
    };
    let returns = spec.return_ids();
    assert_eq!(returns.len(), 65_535);
    assert_eq!(returns.last().and_then(ObjectId::producer), Some(spec.task));
    cluster.shutdown();
}

#[test]
fn task_errors_propagate_through_get() {
    let cluster = small_cluster();
    cluster.register_raw("boom", |_: &RayContext, _: &[Bytes]| -> RemoteResult {
        Err("deliberate failure".into())
    });
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("boom", vec![]).unwrap();
    match ctx.get(&fut) {
        Err(RayError::TaskFailed { message, .. }) => assert!(message.contains("deliberate")),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn task_panics_become_task_failures() {
    let cluster = small_cluster();
    cluster.register_fn1("panic_if_odd", |x: u64| {
        if x % 2 == 1 {
            panic!("odd input {x}");
        }
        x
    });
    let ctx = cluster.driver();
    let ok: ObjectRef<u64> = ctx.call("panic_if_odd", vec![Arg::value(&2u64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&ok).unwrap(), 2);
    let bad: ObjectRef<u64> =
        ctx.call("panic_if_odd", vec![Arg::value(&3u64).unwrap()]).unwrap();
    match ctx.get(&bad) {
        Err(RayError::TaskFailed { message, .. }) => assert!(message.contains("odd input 3")),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn errors_propagate_through_dependent_tasks() {
    let cluster = small_cluster();
    cluster.register_raw("boom", |_: &RayContext, _: &[Bytes]| -> RemoteResult {
        Err("root cause".into())
    });
    cluster.register_fn1("consume", |x: u64| x);
    let ctx = cluster.driver();
    let bad: ObjectRef<u64> = ctx.call("boom", vec![]).unwrap();
    let downstream: ObjectRef<u64> =
        ctx.call("consume", vec![Arg::from_ref(&bad)]).unwrap();
    match ctx.get(&downstream) {
        Err(RayError::TaskFailed { message, .. }) => assert!(message.contains("root cause")),
        other => panic!("expected propagated TaskFailed, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn unknown_function_fails_cleanly() {
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("never_registered", vec![]).unwrap();
    assert!(matches!(ctx.get(&fut), Err(RayError::TaskFailed { .. })));
    cluster.shutdown();
}

#[test]
fn gpu_task_waits_for_gpu_node() {
    // GPU demand routes to the one GPU node (paper §5.3.2 heterogeneity).
    let cluster = Cluster::start(
        RayConfig::builder()
            .nodes(2)
            .workers_per_node(2)
            .node_resources(Resources::new(2.0, 0.0))
            .build(),
    )
    .unwrap();
    // Add a GPU node via restart trickery: kill node 1, it restarts with
    // the same capacity — so instead check infeasible demand stays pending
    // and then a feasible task completes.
    cluster.register_fn0("cpu_task", || 1u8);
    let ctx = cluster.driver();
    let gpu_fut: ObjectRef<u8> =
        ctx.call_opts("cpu_task", vec![], TaskOptions::gpus(1.0)).unwrap();
    // No GPU node exists: the task must not complete.
    let (ready, _) = ctx.wait(&[gpu_fut.id()], 1, Duration::from_millis(200)).unwrap();
    assert!(ready.is_empty(), "GPU task ran on a CPU-only cluster");
    // CPU tasks keep flowing meanwhile.
    let ok: ObjectRef<u8> = ctx.call("cpu_task", vec![]).unwrap();
    assert_eq!(ctx.get(&ok).unwrap(), 1);
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Actors.
// ----------------------------------------------------------------------

struct Counter {
    value: i64,
}

impl ActorInstance for Counter {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "incr" => {
                let by: i64 = decode_arg(args, 0)?;
                self.value += by;
                encode_return(&self.value)
            }
            "get" => encode_return(&self.value),
            other => Err(format!("no method {other}")),
        }
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.value.to_le_bytes().to_vec())
    }

    fn restore(&mut self, data: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] = data.try_into().map_err(|_| "bad checkpoint")?;
        self.value = i64::from_le_bytes(bytes);
        Ok(())
    }
}

fn register_counter(cluster: &Cluster) {
    cluster.register_actor_class("Counter", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Counter { value: start }))
    });
}

#[test]
fn actor_methods_execute_serially_in_order() {
    let cluster = small_cluster();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx.create_actor("Counter", vec![Arg::value(&100i64).unwrap()], TaskOptions::default()).unwrap();
    let mut futs = Vec::new();
    for _ in 0..20 {
        futs.push(ctx.call_actor::<i64>(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap());
    }
    // Stateful edges: results are 101..=120 in submission order.
    let values = ctx.get_all(&futs).unwrap();
    assert_eq!(values, (101..=120).collect::<Vec<i64>>());
    cluster.shutdown();
}

#[test]
fn actor_handle_ready_future_resolves() {
    let cluster = small_cluster();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    let actor_id = ctx.get(&h.ready()).unwrap();
    assert_eq!(actor_id, h.id());
    cluster.shutdown();
}

#[test]
fn actor_method_errors_do_not_kill_actor() {
    let cluster = small_cluster();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    let bad: ObjectRef<i64> = ctx.call_actor(&h, "no_such_method", vec![]).unwrap();
    assert!(matches!(ctx.get(&bad), Err(RayError::TaskFailed { .. })));
    let ok: ObjectRef<i64> =
        ctx.call_actor(&h, "incr", vec![Arg::value(&5i64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&ok).unwrap(), 5);
    cluster.shutdown();
}

/// One body, registered both as the remote function `probe` and as the
/// only method of the `Probe` actor class: what it does is picked by its
/// first argument, so a task and an actor method can be driven through
/// the same outcomes.
fn probe_body(args: &[Bytes]) -> RemoteResult {
    match decode_arg::<String>(args, 0)?.as_str() {
        "ok" => encode_return(&7u64),
        "err" => Err("deliberate failure".into()),
        "panic" => panic!("deliberate panic"),
        "arity" => Ok(Vec::new()),
        other => Err(format!("unknown probe {other}")),
    }
}

struct Probe;

impl ActorInstance for Probe {
    fn call(&mut self, _ctx: &RayContext, _method: &str, args: &[Bytes]) -> RemoteResult {
        probe_body(args)
    }
}

fn traced_probe_cluster() -> Cluster {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(2).workers_per_node(2).seed(7).tracing(true).build(),
    )
    .unwrap();
    cluster.register_raw("probe", |_: &RayContext, args: &[Bytes]| probe_body(args));
    cluster.register_actor_class("Probe", |_ctx, _args| Ok(Box::new(Probe)));
    cluster
}

/// The task that produces `id`, found among the log's task entities.
fn producer(log: &ray_common::trace::TraceLog, id: ObjectId) -> ray_common::TaskId {
    log.entities()
        .into_iter()
        .find_map(|e| match e {
            TraceEntity::Task(t) if ObjectId::for_task_return(t, 0) == id => Some(t),
            _ => None,
        })
        .expect("the producing task left no trace event")
}

#[test]
fn failed_actor_methods_emit_failed_and_the_actor_lives_on() {
    let cluster = traced_probe_cluster();
    let ctx = cluster.driver();
    let h = ctx.create_actor("Probe", vec![], TaskOptions::default()).unwrap();
    let probe = |what: &str| -> ObjectRef<u64> {
        ctx.call_actor(&h, "probe", vec![Arg::value(what).unwrap()]).unwrap()
    };
    let mut failed = Vec::new();
    for (what, expect) in [
        ("err", "deliberate failure"),
        ("panic", "deliberate panic"),
        ("arity", "probe returned 0 values, declared 1"),
    ] {
        let fut = probe(what);
        match ctx.get(&fut) {
            Err(RayError::TaskFailed { message, .. }) => {
                assert!(message.contains(expect), "{what}: {message}")
            }
            other => panic!("{what}: expected TaskFailed, got {other:?}"),
        }
        failed.push(fut.id());
        // The actor still serves the next call.
        assert_eq!(ctx.get(&probe("ok")).unwrap(), 7);
    }
    let log = cluster.trace_log().unwrap();
    for id in failed {
        let task = TraceEntity::Task(producer(&log, id));
        log.assert()
            .count_eq(task, TraceEventKind::Failed, 1)
            .count_eq(task, TraceEventKind::Finished, 0);
    }
    cluster.shutdown();
}

#[test]
fn actor_methods_are_traced_from_submission() {
    let cluster = traced_probe_cluster();
    let ctx = cluster.driver();
    let h = ctx.create_actor("Probe", vec![], TaskOptions::default()).unwrap();
    let ok = || vec![Arg::value("ok").unwrap()];
    let mut futs: Vec<ObjectRef<u64>> = Vec::new();
    for _ in 0..8 {
        futs.push(ctx.call_actor(&h, "probe", ok()).unwrap());
        futs.push(ctx.call_actor_readonly(&h, "probe", ok()).unwrap());
    }
    assert_eq!(ctx.get_all(&futs).unwrap(), vec![7; 16]);
    let log = cluster.trace_log().unwrap();
    for fut in futs {
        log.assert().ordered(
            TraceEntity::Task(producer(&log, fut.id())),
            &[TraceEventKind::Submitted, TraceEventKind::Running, TraceEventKind::Finished],
        );
    }
    cluster.shutdown();
}

#[test]
fn trace_log_includes_batches_a_heartbeat_still_has_in_flight() {
    // A node's heartbeat drains its ring, then writes the batch to the GCS.
    // A `trace_log` that falls between the two finds the ring empty and
    // must wait for the write instead of reading the log without it: by
    // the time `get` returns, the task's `finished` is part of the log.
    let cluster = traced_probe_cluster();
    let ctx = cluster.driver();
    for round in 0..400 {
        let fut: ObjectRef<u64> = ctx.call("probe", vec![Arg::value("ok").unwrap()]).unwrap();
        assert_eq!(ctx.get(&fut).unwrap(), 7);
        let log = cluster.trace_log().unwrap();
        let task = TraceEntity::Task(producer(&log, fut.id()));
        assert_eq!(log.count_for(task, TraceEventKind::Finished), 1, "round {round}");
    }
    cluster.shutdown();
}

#[test]
fn tasks_and_actor_methods_share_one_engine() {
    use TraceEventKind::*;
    let cluster = traced_probe_cluster();
    let ctx = cluster.driver();
    let h = ctx.create_actor("Probe", vec![], TaskOptions::default()).unwrap();
    ctx.get(&h.ready()).unwrap();
    let expired = TaskOptions::default().with_timeout(Duration::ZERO);
    // Either engine column: submit one probe, as a task or as a method.
    let submit = |as_method: bool, what: &str, opts: &TaskOptions| -> ObjectRef<u64> {
        let args = vec![Arg::value(what).unwrap()];
        if as_method {
            ctx.call_actor_opts(&h, "probe", args, opts).unwrap()
        } else {
            ctx.call_opts("probe", args, opts.clone()).unwrap()
        }
    };
    let outcome = |fut: &ObjectRef<u64>| match ctx.get(fut) {
        Ok(v) => format!("ok {v}"),
        Err(RayError::TaskFailed { message, .. }) => format!("failed: {message}"),
        Err(RayError::Cancelled(_)) => "cancelled".into(),
        Err(RayError::DeadlineExceeded(_)) => "deadline exceeded".into(),
        Err(other) => format!("{other:?}"),
    };
    // (what the body does, cancel before it runs, options, outcome, lifecycle)
    let none = TaskOptions::default();
    let ran = |end| vec![Submitted, DepsFetched, Running, end];
    let rows = [
        ("ok", false, &none, "ok 7", ran(Finished)),
        ("err", false, &none, "failed: deliberate failure", ran(Failed)),
        ("panic", false, &none, "failed: task panicked: deliberate panic", ran(Failed)),
        ("arity", false, &none, "failed: probe returned 0 values, declared 1", ran(Failed)),
        ("ok", true, &none, "cancelled", vec![Submitted, TaskCancelled]),
        ("ok", false, &expired, "deadline exceeded", vec![Submitted, TaskDeadlineExceeded]),
    ];
    let mut seen = Vec::new();
    for (what, cancel, opts, want, kinds) in &rows {
        for as_method in [false, true] {
            if *cancel {
                // Hold the task at the head of the execute path (the
                // straggler delay comes before the teardown check) so the
                // cancel lands before the body can start.
                for n in 0..2 {
                    cluster.set_worker_delay(NodeId(n), Duration::from_millis(300));
                }
            }
            let fut = submit(as_method, what, opts);
            if *cancel {
                assert!(ctx.cancel_ref(&fut).unwrap());
            }
            assert_eq!(&outcome(&fut), want, "{what} as_method={as_method}");
            for n in 0..2 {
                cluster.set_worker_delay(NodeId(n), Duration::ZERO);
            }
            seen.push((fut.id(), kinds, *what, as_method));
        }
    }
    let log = cluster.trace_log().unwrap();
    for (id, kinds, what, as_method) in seen {
        // Where a task was queued is the scheduler's business, not the
        // engine's; an actor method has no such stage.
        let lifecycle: Vec<TraceEventKind> = log
            .kinds_for(TraceEntity::Task(producer(&log, id)))
            .into_iter()
            .filter(|k| !matches!(k, ScheduledLocal | SpilledGlobal | GlobalPlaced))
            .collect();
        assert_eq!(&lifecycle, kinds, "{what} as_method={as_method}");
    }
    cluster.shutdown();
}

#[test]
fn actor_handles_shared_across_tasks() {
    // A handle passed (by actor ID) into a remote function can call the
    // actor (paper §3.1: "a handle to an actor can be passed to other
    // actors or tasks").
    let cluster = small_cluster();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    // Pump the counter from the driver; a remote reader sees the state.
    for _ in 0..3 {
        let f: ObjectRef<i64> =
            ctx.call_actor(&h, "incr", vec![Arg::value(&10i64).unwrap()]).unwrap();
        ctx.get(&f).unwrap();
    }
    let f: ObjectRef<i64> = ctx.call_actor(&h, "get", vec![]).unwrap();
    assert_eq!(ctx.get(&f).unwrap(), 30);
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Fault tolerance (paper Fig. 11).
// ----------------------------------------------------------------------

#[test]
fn lost_object_is_reconstructed_via_lineage() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(2).workers_per_node(2).seed(3).build(),
    )
    .unwrap();
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    cluster.register_fn1("tracked", |x: u64| {
        RUNS.fetch_add(1, Ordering::SeqCst);
        x * 3
    });
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("tracked", vec![Arg::value(&7u64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&fut).unwrap(), 21);
    let runs_before = RUNS.load(Ordering::SeqCst);

    // Destroy every replica of the result.
    for n in 0..2 {
        if let Some(store) = cluster.object_store(NodeId(n)) {
            store.delete(fut.id());
            store.spill().clear();
        }
    }
    // get() must transparently re-execute the task.
    assert_eq!(ctx.get(&fut).unwrap(), 21);
    assert!(RUNS.load(Ordering::SeqCst) > runs_before, "task should have re-executed");
    cluster.shutdown();
}

#[test]
fn node_death_recovers_chain_results() {
    // Linear chain of tasks; kill a node mid-stream; the final get still
    // succeeds through reconstruction (Fig. 11a's mechanism).
    let cluster = Cluster::start(
        RayConfig::builder().nodes(3).workers_per_node(2).seed(11).build(),
    )
    .unwrap();
    cluster.register_fn1("incr", |x: u64| x + 1);
    let ctx = cluster.driver();
    let mut fut: ObjectRef<u64> = ctx.call("incr", vec![Arg::value(&0u64).unwrap()]).unwrap();
    for i in 0..30 {
        fut = ctx.call("incr", vec![Arg::from_ref(&fut)]).unwrap();
        if i == 15 {
            cluster.kill_node(NodeId(1));
        }
    }
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap(), 31);
    cluster.shutdown();
}

#[test]
fn put_objects_are_not_reconstructable() {
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let r = ctx.put(&123u64).unwrap();
    for n in 0..2 {
        if let Some(store) = cluster.object_store(NodeId(n)) {
            store.delete(r.id());
            store.spill().clear();
        }
    }
    match ctx.get_with_timeout(&r, Duration::from_secs(2)) {
        Err(RayError::ObjectLost(_)) | Err(RayError::Timeout) => {}
        other => panic!("expected loss, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn get_times_out_cleanly_on_an_object_nobody_creates() {
    // The ensure/fetch loop must convert "producer never materializes"
    // into a typed Timeout at the requested deadline — not hang, and not
    // misreport it as a loss (the object was never created at all).
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let r: ObjectRef<u64> = ObjectRef::from_id(ObjectId::random());
    let t0 = Instant::now();
    match ctx.get_with_timeout(&r, Duration::from_millis(300)) {
        Err(RayError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(waited >= Duration::from_millis(300), "returned early: {waited:?}");
    assert!(waited < Duration::from_secs(20), "deadline ignored: {waited:?}");
    cluster.shutdown();
}

#[test]
fn actor_rebuilds_on_node_death_with_checkpointing() {
    let mut cfg = RayConfig::builder().nodes(3).workers_per_node(2).seed(5).build();
    cfg.fault = FaultConfig {
        lineage_enabled: true,
        max_reconstruction_attempts: 3,
        actor_checkpoint_interval: Some(4),
        ..FaultConfig::default()
    };
    let cluster = Cluster::start(cfg).unwrap();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    // Drive state and find out where the actor lives.
    for _ in 0..10 {
        let f: ObjectRef<i64> =
            ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap();
        ctx.get(&f).unwrap();
    }
    let record = cluster.gcs().client().get_actor(h.id()).unwrap().unwrap();
    cluster.kill_node(record.node);
    // Drive from a surviving node (killing the driver's own node would
    // kill a real driver too).
    let survivor = (0..3).map(NodeId).find(|&n| n != record.node).unwrap();
    let ctx = cluster.driver_on(survivor);

    // The next method sees the fully recovered state (checkpoint + replay).
    let f: ObjectRef<i64> =
        ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap();
    assert_eq!(ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap(), 11);
    // Checkpoints bounded the replay.
    assert!(cluster.metrics().counter("checkpoints_taken").get() >= 1);
    let replayed = cluster.metrics().counter("methods_replayed").get();
    assert!(replayed <= 4, "checkpoint every 4 should bound replay, replayed {replayed}");
    cluster.shutdown();
}

#[test]
fn actor_rebuilds_without_checkpoint_by_full_replay() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(3).workers_per_node(2).seed(6).build(),
    )
    .unwrap();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&5i64).unwrap()], TaskOptions::default())
        .unwrap();
    for _ in 0..6 {
        let f: ObjectRef<i64> =
            ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap();
        ctx.get(&f).unwrap();
    }
    let record = cluster.gcs().client().get_actor(h.id()).unwrap().unwrap();
    cluster.kill_node(record.node);
    let survivor = (0..3).map(NodeId).find(|&n| n != record.node).unwrap();
    let ctx = cluster.driver_on(survivor);
    let f: ObjectRef<i64> = ctx.call_actor(&h, "get", vec![]).unwrap();
    assert_eq!(ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap(), 11);
    assert_eq!(cluster.metrics().counter("methods_replayed").get(), 6);
    cluster.shutdown();
}

#[test]
fn read_only_methods_skip_the_stateful_edge() {
    // Paper §5.1 future work: annotating non-mutating methods bounds
    // reconstruction further. Read-only calls execute in order but are
    // not logged and not replayed.
    let cluster = Cluster::start(
        RayConfig::builder().nodes(3).workers_per_node(2).seed(13).build(),
    )
    .unwrap();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    for _ in 0..5 {
        let w: ObjectRef<i64> =
            ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap();
        ctx.get(&w).unwrap();
        // Interleave read-only reads (twice as many as writes).
        for _ in 0..2 {
            let r: ObjectRef<i64> = ctx.call_actor_readonly(&h, "get", vec![]).unwrap();
            assert!(ctx.get(&r).unwrap() >= 1);
        }
    }
    // Only the 5 writes are on the stateful-edge chain: the method log is
    // the record of progress, and it ends at seq 4.
    let gcs = cluster.gcs().client();
    assert!(gcs.get_actor_method(h.id(), 4).unwrap().is_some());
    assert!(gcs.get_actor_method(h.id(), 5).unwrap().is_none());
    let record = gcs.get_actor(h.id()).unwrap().unwrap();

    cluster.kill_node(record.node);
    let survivor = (0..3).map(NodeId).find(|&n| n != record.node).unwrap();
    let ctx = cluster.driver_on(survivor);
    let f: ObjectRef<i64> = ctx.call_actor(&h, "get", vec![]).unwrap();
    assert_eq!(ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap(), 5);
    // Replay covered only the 5 logged writes, not the 10 reads.
    assert_eq!(cluster.metrics().counter("methods_replayed").get(), 5);
    cluster.shutdown();
}

/// Kills the hosting node after `k` logged methods and checks that the
/// rebuild replays exactly the methods past the last checkpoint — the
/// method log alone says how far the actor had got — and ends in the state
/// of a twin that never failed.
fn recovers_from_the_method_log(k: i64, checkpoint_interval: Option<u64>) {
    let mut cfg =
        RayConfig::builder().nodes(3).workers_per_node(2).seed(21).tracing(true).build();
    cfg.fault =
        FaultConfig { actor_checkpoint_interval: checkpoint_interval, ..FaultConfig::default() };
    let cluster = Cluster::start(cfg).unwrap();
    register_counter(&cluster);
    let ctx = cluster.driver();
    let pinned = |n| TaskOptions::default().with_demand(node_affinity(NodeId(n)));
    let incr = |h: &rustray::ActorHandle, by: i64| -> ObjectRef<i64> {
        ctx.call_actor(h, "incr", vec![Arg::value(&by).unwrap()]).unwrap()
    };
    let doomed = ctx.create_actor("Counter", vec![Arg::value(&0i64).unwrap()], pinned(1)).unwrap();
    let twin = ctx.create_actor("Counter", vec![Arg::value(&0i64).unwrap()], pinned(0)).unwrap();
    // Distinct increments: a method skipped or applied twice changes the sum.
    for i in 1..=k {
        for h in [&doomed, &twin] {
            ctx.get(&incr(h, i)).unwrap();
        }
    }
    let gcs = cluster.gcs().client();
    assert!(gcs.get_actor_method(doomed.id(), k as u64 - 1).unwrap().is_some());
    assert!(gcs.get_actor_method(doomed.id(), k as u64).unwrap().is_none());
    let checkpointed = gcs.get_checkpoint(doomed.id()).unwrap().map_or(0, |ck| ck.seq);
    let expected = checkpoint_interval.map_or(0, |every| k as u64 / every * every);
    assert_eq!(checkpointed, expected);

    cluster.kill_node(NodeId(1));
    cluster.restart_node(NodeId(1)).unwrap();
    let after: Vec<i64> = [&doomed, &twin]
        .map(|h| ctx.get_with_timeout(&incr(h, 1000), Duration::from_secs(120)).unwrap())
        .to_vec();
    assert_eq!(after[0], after[1], "rebuilt state differs from the fault-free twin");
    assert_eq!(after[0], k * (k + 1) / 2 + 1000);

    let log = cluster.trace_log().unwrap();
    log.assert()
        .count_eq(
            TraceEntity::Actor(doomed.id()),
            TraceEventKind::MethodReplayed,
            (k as u64 - checkpointed) as usize,
        )
        .count_eq(TraceEntity::Actor(doomed.id()), TraceEventKind::ActorRebuilt, 1)
        .count_eq(TraceEntity::Actor(twin.id()), TraceEventKind::MethodReplayed, 0);
    // The rebuild republished the record at its new placement.
    assert_eq!(gcs.get_actor(doomed.id()).unwrap().unwrap().node, NodeId(1));
    cluster.shutdown();
}

#[test]
fn rebuild_replays_the_whole_log_without_a_checkpoint() {
    recovers_from_the_method_log(10, None);
}

#[test]
fn rebuild_replays_only_past_the_checkpoint() {
    // Checkpoints at seq 4 and 8: methods 8 and 9 are replayed.
    recovers_from_the_method_log(10, Some(4));
}

#[test]
fn method_calls_keep_submission_order_across_a_rebuild() {
    /// `push(x)` appends `x` and returns everything pushed so far;
    /// `push(0)` first reports in and waits for the gate.
    struct Pusher {
        seen: Vec<u64>,
        entered: Sender<()>,
        gate: Gate,
    }
    impl ActorInstance for Pusher {
        fn call(&mut self, _: &RayContext, _: &str, args: &[Bytes]) -> RemoteResult {
            let x: u64 = decode_arg(args, 0)?;
            if x == 0 {
                let _ = self.entered.send(());
                self.gate.wait();
            }
            self.seen.push(x);
            encode_return(&self.seen)
        }
    }
    // Rows: the first calls arrive at a live actor or at one whose
    // constructor has not returned yet; the home node dies with an
    // announcement (the router starts the rebuild) or abruptly (the old
    // host finds out when it looks for its next call).
    for (pending, abrupt) in [(false, false), (false, true), (true, false)] {
        let row = format!("pending={pending} abrupt={abrupt}");
        let cluster =
            Cluster::start(RayConfig::builder().nodes(3).workers_per_node(2).seed(7).build())
                .unwrap();
        // Each gate holds whoever waits on it until its opener is dropped:
        // a rebuild's constructor and its replay of `push(0)` pass straight
        // through.
        let (entered_tx, entered) = channel();
        let (open, gate) = new_gate();
        let (ctor_open, ctor_gate) = new_gate();
        cluster.register_actor_class("Pusher", move |_ctx, _args| {
            ctor_gate.wait();
            Ok(Box::new(Pusher { seen: Vec::new(), entered: entered_tx.clone(), gate: gate.clone() }))
        });
        let ctx = cluster.driver();
        let h = cluster
            .driver_on(NodeId(1))
            .create_actor("Pusher", vec![], TaskOptions::default())
            .unwrap();
        let push = |x: u64| -> ObjectRef<Vec<u64>> {
            ctx.call_actor(&h, "push", vec![Arg::value(&x).unwrap()]).unwrap()
        };
        let mut ctor_open = Some(ctor_open);
        if !pending {
            ctor_open = None;
            ctx.get(&h.ready()).unwrap();
        }
        // `push(0)` holds the host; 1 and 2 wait behind it.
        let _held = [push(0), push(1), push(2)];
        drop(ctor_open);
        entered.recv_timeout(Duration::from_secs(30)).expect("push(0) never started");
        let home = cluster.actor_node(h.id()).expect("the actor is live");
        assert_ne!(home, NodeId(0), "{row}: the actor shares the driver's node");
        if abrupt {
            cluster.kill_node_abrupt(home);
        } else {
            cluster.kill_node(home);
        }
        let _behind = push(3);
        drop(open);
        let all = ctx.get_with_timeout(&push(4), Duration::from_secs(60)).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3, 4], "{row}");
        cluster.shutdown();
    }
}

#[test]
fn calls_left_in_a_dead_actors_mailbox_fail_at_once() {
    let cluster =
        Cluster::start(RayConfig::builder().nodes(3).workers_per_node(2).seed(7).build()).unwrap();
    // The constructor works once; its second run (the rebuild) waits for
    // the gate and then refuses, which leaves the actor dead.
    let runs = Arc::new(AtomicUsize::new(0));
    let (open, gate) = new_gate();
    cluster.register_actor_class("Once", move |_ctx, _args| {
        if runs.fetch_add(1, Ordering::SeqCst) > 0 {
            gate.wait();
            return Err("no second life".into());
        }
        Ok(Box::new(Counter { value: 0 }))
    });
    let ctx = cluster.driver();
    let h = cluster.driver_on(NodeId(1)).create_actor("Once", vec![], TaskOptions::default()).unwrap();
    ctx.get(&h.ready()).unwrap();
    let home = cluster.actor_node(h.id()).expect("the actor is live");
    assert_ne!(home, NodeId(0));
    // The rebuild has begun by the time `kill_node` returns and cannot
    // fail before the gate opens: this call joins a hostless mailbox.
    cluster.kill_node(home);
    let orphan: ObjectRef<i64> = ctx.call_actor(&h, "get", vec![]).unwrap();
    drop(open);
    let t0 = Instant::now();
    let err = ctx.get_with_timeout(&orphan, Duration::from_secs(8)).unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(2), "{err:?} after {:?}", t0.elapsed());
    match &err {
        RayError::ActorDied(a) => assert_eq!(*a, h.id()),
        RayError::TaskFailed { message, .. } => {
            assert_eq!(*message, RayError::ActorDied(h.id()).to_string())
        }
        other => panic!("expected the actor's death, got {other:?}"),
    }
    // A call made now is refused on the spot, as before.
    match ctx.call_actor::<i64>(&h, "get", vec![]) {
        Err(RayError::ActorDied(a)) => assert_eq!(a, h.id()),
        other => panic!("expected ActorDied, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn calls_to_an_actor_whose_constructor_failed_fail_at_once() {
    let cluster = small_cluster();
    let ctx = cluster.driver();
    for panics in [false, true] {
        let class = if panics { "CtorPanics" } else { "CtorRefuses" };
        let (open, gate) = new_gate();
        cluster.register_actor_class(class, move |_ctx, _args| {
            gate.wait();
            if panics {
                panic!("constructor blew up");
            }
            Err("constructor refused".into())
        });
        let h = ctx.create_actor(class, vec![], TaskOptions::default()).unwrap();
        // Made while the constructor is still running: it waits in the
        // mailbox for a host that will never come.
        let before: ObjectRef<i64> = ctx.call_actor(&h, "get", vec![]).unwrap();
        drop(open);
        let t0 = Instant::now();
        assert!(ctx.get_with_timeout(&h.ready(), Duration::from_secs(8)).is_err(), "{class}");
        let after = ctx.call_actor::<i64>(&h, "get", vec![]);
        for (when, err) in [
            ("before", ctx.get_with_timeout(&before, Duration::from_secs(8)).unwrap_err()),
            ("after", after.and_then(|r| ctx.get_with_timeout(&r, Duration::from_secs(8))).unwrap_err()),
        ] {
            let row = format!("{class}, call made {when} the failure");
            assert!(t0.elapsed() < Duration::from_secs(2), "{row}: {err:?} after {:?}", t0.elapsed());
            match &err {
                RayError::ActorDied(a) => assert_eq!(*a, h.id(), "{row}"),
                RayError::TaskFailed { message, .. } => {
                    assert_eq!(*message, RayError::ActorDied(h.id()).to_string(), "{row}")
                }
                other => panic!("{row}: expected the actor's death, got {other:?}"),
            }
        }
    }
    cluster.shutdown();
}

#[test]
fn actor_methods_never_rewrite_the_actor_record() {
    // One shard, no flusher: every GCS write lands in one counter and
    // nothing writes in the background.
    let mut cfg = RayConfig::builder().nodes(2).workers_per_node(2).seed(3).build();
    cfg.gcs.num_shards = 1;
    cfg.gcs.flush_enabled = false;
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_actor_class("Padded", |_ctx, args| {
        let padding: ray_codec::Blob = decode_arg(args, 0)?;
        Ok(Box::new(Counter { value: padding.0.len() as i64 }))
    });
    let ctx = cluster.driver();
    let shard = cluster.gcs().shard(ShardId(0));
    let gcs = cluster.gcs().client();

    let mut growth = Vec::new();
    for (sub_id, padding) in [(1u64, 1usize << 10), (2, 1 << 20)] {
        let arg = Arg::value(&ray_codec::Blob(vec![7u8; padding])).unwrap();
        let h = ctx.create_actor("Padded", vec![arg], TaskOptions::default()).unwrap();
        ctx.get(&h.ready()).unwrap();
        let record = gcs.get_actor(h.id()).unwrap().unwrap();
        assert!(record.init_args.0.len() >= padding);

        // Watch the record's key from here on. Subscribing to an existing
        // entry delivers its current state, and more than once if the
        // chain retried the subscribe under load; one method call later
        // every such delivery has happened (replicas apply in order), so
        // anything that arrives after the drain is a write of the record.
        let (tx, rx) = channel();
        let key = Key::fixed(Table::Actor, h.id().0.as_bytes());
        shard.write(UpdateOp::Subscribe { keys: vec![key], sub_id, sender: tx }).unwrap();
        let warm: ObjectRef<i64> =
            ctx.call_actor(&h, "incr", vec![Arg::value(&0i64).unwrap()]).unwrap();
        ctx.get(&warm).unwrap();
        while rx.try_recv().is_ok() {}

        let before = shard.committed_updates();
        let calls: Vec<ObjectRef<i64>> = (0..100)
            .map(|_| ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap())
            .collect();
        // Wait with reads only (a blocking `get` may subscribe, which is
        // itself a write): the last result's location is the last write a
        // method makes.
        let deadline = Instant::now() + Duration::from_secs(60);
        while gcs.get_object_locations(calls[99].id()).unwrap().is_empty() {
            assert!(Instant::now() < deadline, "methods never finished");
            std::thread::sleep(Duration::from_millis(2));
        }
        growth.push(shard.committed_updates() - before);

        assert_eq!(ctx.get(&calls[99]).unwrap(), padding as i64 + 100);
        assert!(rx.try_recv().is_err(), "the actor record was rewritten after creation");
        assert_eq!(gcs.get_actor(h.id()).unwrap().unwrap(), record);
    }
    assert_eq!(growth[0], growth[1], "GCS writes per method depend on constructor size");
    cluster.shutdown();
}

#[test]
fn an_empty_task_costs_two_gcs_writes() {
    // Tracing off, lineage on, the default four shards, no flusher: the
    // only GCS writes are the ones submit, the finishing worker and `wait`
    // make.
    let cluster = small_cluster();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let shards = cluster.gcs().num_shards();
    let writes = || -> u64 {
        (0..shards).map(|i| cluster.gcs().shard(ShardId(i as u32)).committed_updates()).sum()
    };
    let put = ctx.put(&7u64).unwrap();

    const TASKS: u64 = 256;
    let before = writes();
    let ids: Vec<ObjectId> = (0..TASKS)
        .map(|x| ctx.submit("inc", vec![Arg::value(&x).unwrap()], TaskOptions::default()).unwrap()[0])
        .collect();
    let (ready, pending) = ctx.wait(&ids, ids.len(), Duration::from_secs(60)).unwrap();
    assert_eq!((ready.len(), pending.len()), (ids.len(), 0));
    let growth = writes() - before;
    // Per task: its spec, its result's location. Per `wait`: a subscribe
    // and an unsubscribe per shard and per full op of keys.
    let wait_ops = 2 * (shards as u64 + TASKS / ray_gcs::kv::MAX_SUBSCRIBE_KEYS as u64);
    assert!(
        (2 * TASKS..=2 * TASKS + wait_ops).contains(&growth),
        "{TASKS} empty tasks and one wait made {growth} GCS writes"
    );

    // `cancel` reads the producer off the id: a `put` has none, a finished
    // task has nothing left to stop, and neither answer touches the GCS.
    let before = writes();
    assert!(!ctx.cancel(put.id()).unwrap());
    assert!(!ctx.cancel(ids[0]).unwrap());
    assert_eq!(writes(), before);
    // No fault was injected, so no chain replaced a member: a slow apply
    // is waited for, not reported.
    assert_eq!(cluster.metrics().counter(names::GCS_RECONFIGURATIONS).get(), 0);
    assert_eq!(cluster.snapshot().unwrap().gcs_reconfigurations, vec![0; shards]);
    cluster.shutdown();
}

#[test]
fn a_chain_reconfigures_once_per_crashed_member() {
    let cluster = small_cluster();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let shard = cluster.gcs().shard(ShardId(0));
    // Task specs and result locations spread over all four shards, so a
    // round writes to (and meets the dead member of) the shard under attack.
    let round = || {
        let ids: Vec<ObjectId> = (0..64u64)
            .map(|x| ctx.submit("inc", vec![Arg::value(&x).unwrap()], TaskOptions::default()).unwrap()[0])
            .collect();
        let (ready, _) = ctx.wait(&ids, ids.len(), Duration::from_secs(60)).unwrap();
        assert_eq!(ready.len(), ids.len());
    };
    round();
    for (crashes, member) in [(1, 0), (2, 1)] {
        // A head, then (once the head's replacement has joined) a tail.
        shard.crash_member(member);
        round();
        assert_eq!((shard.reconfigurations(), shard.replica_count()), (crashes, 2));
    }
    assert_eq!(cluster.snapshot().unwrap().gcs_reconfigurations, vec![2, 0, 0, 0]);
    assert_eq!(cluster.metrics().counter(names::GCS_RECONFIGURATIONS).get(), 2);
    cluster.shutdown();
}

#[test]
fn free_drops_an_objects_row_in_one_update() {
    let cluster = small_cluster();
    let ctx = cluster.driver();
    let gcs = cluster.gcs().client();
    let shards = cluster.gcs().num_shards();
    let writes = || -> u64 {
        (0..shards).map(|i| cluster.gcs().shard(ShardId(i as u32)).committed_updates()).sum()
    };
    let id = ctx.put_raw(Bytes::from_static(b"held on two nodes")).unwrap();
    cluster.driver_on(NodeId(1)).get_raw(id, Duration::from_secs(5)).unwrap();
    assert_eq!(gcs.get_object_locations(id).unwrap().len(), 2);

    // Subscribed before the free, as a `wait` in flight would be: the
    // deletion reaches the channel as a `None` entry that is not a location.
    let sub = gcs.subscribe_object(id).unwrap();
    assert_eq!(sub.wait_for_location(Duration::from_secs(5)).unwrap().len(), 2);
    let before = writes();
    ctx.free(&[id]).unwrap();
    assert_eq!(writes() - before, 1, "one Delete, not one SetRemove per replica");
    for node in 0..2 {
        assert!(!cluster.object_store(NodeId(node)).unwrap().contains(id));
    }
    assert!(gcs.get_object_locations(id).unwrap().is_empty());
    let row = Key::fixed(Table::Object, id.0.as_bytes());
    let rows = (0..shards).filter_map(|i| cluster.gcs().shard(ShardId(i as u32)).read(&row).unwrap());
    assert_eq!(rows.count(), 0, "no empty set left behind");
    assert_eq!(sub.wait_for_location(Duration::from_millis(100)).unwrap_err(), RayError::Timeout);
    let (ready, pending) = ctx.wait(&[id], 1, Duration::from_millis(100)).unwrap();
    assert_eq!((ready, pending), (vec![], vec![id]));
    // Freeing what is already gone writes nothing.
    drop(sub);
    let before = writes();
    ctx.free(&[id]).unwrap();
    assert_eq!(writes(), before);
    cluster.shutdown();
}

#[test]
fn finished_tasks_leave_no_cancel_token_behind() {
    let cluster = small_cluster();
    cluster.register_fn1("inc", |x: u64| x + 1);
    register_counter(&cluster);
    let ctx = cluster.driver();
    let h = ctx
        .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    ctx.get(&h.ready()).unwrap();
    let methods: Vec<ObjectRef<i64>> = (0..10)
        .map(|_| ctx.call_actor(&h, "incr", vec![Arg::value(&1i64).unwrap()]).unwrap())
        .collect();
    let tasks: Vec<ObjectRef<u64>> =
        (0..1_000u64).map(|x| ctx.call("inc", vec![Arg::value(&x).unwrap()]).unwrap()).collect();
    ctx.get_all(&methods).unwrap();
    ctx.get_all(&tasks).unwrap();
    // A task gives up its token before its result appears, and leaves the
    // in-flight table after: with every result in, the registry holds no
    // more than what is still in flight, not one entry per task ever run.
    let snap = cluster.snapshot().unwrap();
    assert!(
        snap.cancel_tokens <= snap.inflight_tasks,
        "{} cancel tokens for {} tasks in flight",
        snap.cancel_tokens,
        snap.inflight_tasks
    );
    cluster.shutdown();
}

#[test]
fn shutdown_stops_and_joins_actor_hosts() {
    struct Flagged(Arc<AtomicUsize>);
    impl ActorInstance for Flagged {
        fn call(&mut self, _: &RayContext, _: &str, _: &[Bytes]) -> RemoteResult {
            encode_return(&0u8)
        }
    }
    impl Drop for Flagged {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicUsize::new(0));
    let cluster = small_cluster();
    let flag = dropped.clone();
    cluster.register_actor_class("Flagged", move |_ctx, _args| Ok(Box::new(Flagged(flag.clone()))));
    let ctx = cluster.driver();
    let handles: Vec<_> = (0..3)
        .map(|_| ctx.create_actor("Flagged", vec![], TaskOptions::default()).unwrap())
        .collect();
    for h in &handles {
        let f: ObjectRef<u8> = ctx.call_actor(h, "poke", vec![]).unwrap();
        ctx.get(&f).unwrap();
    }
    assert_eq!(dropped.load(Ordering::SeqCst), 0);
    cluster.shutdown();
    // Every host thread has exited and released its instance by the time
    // shutdown returns, not at some later point.
    assert_eq!(dropped.load(Ordering::SeqCst), 3);

    // A shutdown that lands during a rebuild: the incarnation's one thread
    // is inside the constructor when the router stops. The instance it
    // goes on to build is dropped, and the thread has ended and let go of
    // the runtime, by the time shutdown returns.
    let (built, dropped) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let released = Arc::new(());
    let cluster =
        Cluster::start(RayConfig::builder().nodes(3).workers_per_node(2).seed(7).build()).unwrap();
    let (entered_tx, entered) = channel();
    let (open, gate) = new_gate();
    let (count, flag, held) = (built.clone(), dropped.clone(), released.clone());
    cluster.register_actor_class("Flagged", move |_ctx, _args| {
        let _held_by_the_registry = &held;
        if count.fetch_add(1, Ordering::SeqCst) > 0 {
            let _ = entered_tx.send(());
            gate.wait();
        }
        Ok(Box::new(Flagged(flag.clone())))
    });
    let ctx = cluster.driver();
    let h = cluster
        .driver_on(NodeId(1))
        .create_actor("Flagged", vec![], TaskOptions::default())
        .unwrap();
    ctx.get(&h.ready()).unwrap();
    cluster.kill_node(cluster.actor_node(h.id()).expect("the actor is live"));
    entered.recv_timeout(Duration::from_secs(30)).expect("the rebuild never reached the constructor");
    drop(ctx);
    std::thread::scope(|s| {
        s.spawn(|| cluster.shutdown());
        // Shutdown stops the router before it takes the nodes down, so with
        // no node left the rebuild can only go live on a stopped router.
        while cluster.live_nodes() > 0 {
            std::thread::yield_now();
        }
        drop(open);
    });
    assert_eq!(built.load(Ordering::SeqCst), 2);
    assert_eq!(dropped.load(Ordering::SeqCst), 2);
    drop(cluster);
    assert_eq!(Arc::strong_count(&released), 1, "a thread outlived shutdown holding the runtime");
}

#[test]
fn restart_node_rejoins_cluster() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(2).workers_per_node(1).build(),
    )
    .unwrap();
    assert_eq!(cluster.live_nodes(), 2);
    cluster.kill_node(NodeId(1));
    assert_eq!(cluster.live_nodes(), 1);
    cluster.restart_node(NodeId(1)).unwrap();
    assert_eq!(cluster.live_nodes(), 2);
    // Restarting a live node is rejected.
    assert!(cluster.restart_node(NodeId(1)).is_err());
    // And the cluster still runs tasks.
    cluster.register_fn0("one", || 1u8);
    let ctx = cluster.driver();
    let f: ObjectRef<u8> = ctx.call("one", vec![]).unwrap();
    assert_eq!(ctx.get(&f).unwrap(), 1);
    cluster.shutdown();
}

#[test]
fn add_node_scales_out() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(1).workers_per_node(1).build(),
    )
    .unwrap();
    let added = cluster.add_node().unwrap();
    assert_eq!(cluster.live_nodes(), 2);
    assert_ne!(added, NodeId(0));
    cluster.shutdown();
}

#[test]
fn node_affinity_pins_tasks() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(3).workers_per_node(2).build(),
    )
    .unwrap();
    cluster.register_fn0("where_am_i", || std::thread::current().name().unwrap().to_string());
    let ctx = cluster.driver();
    for n in 0..3u32 {
        let opts = TaskOptions::default().with_demand(rustray::node_affinity(NodeId(n)));
        let fut: ObjectRef<String> = ctx.call_opts("where_am_i", vec![], opts).unwrap();
        let name = ctx.get(&fut).unwrap();
        assert!(
            name.starts_with(&format!("worker-N{n}-")),
            "task pinned to N{n} ran on {name}"
        );
    }
    cluster.shutdown();
}

#[test]
fn centralized_policy_still_executes_tasks() {
    let cluster = Cluster::start(
        RayConfig::builder()
            .nodes(2)
            .workers_per_node(2)
            .policy(SchedulerPolicy::Centralized)
            .build(),
    )
    .unwrap();
    cluster.register_fn1("double", |x: u64| x * 2);
    let ctx = cluster.driver();
    let futs: Vec<ObjectRef<u64>> = (0..20u64)
        .map(|i| ctx.call("double", vec![Arg::value(&i).unwrap()]).unwrap())
        .collect();
    let sum: u64 = ctx.get_all(&futs).unwrap().into_iter().sum();
    assert_eq!(sum, (0..20u64).map(|i| i * 2).sum());
    // Every task went through the global scheduler.
    assert_eq!(cluster.metrics().counter("tasks_scheduled_locally").get(), 0);
    assert!(cluster.metrics().counter("tasks_spilled").get() >= 20);
    cluster.shutdown();
}

#[test]
fn spillover_balances_load_across_nodes() {
    // Flood one driver: the spillover threshold pushes overflow to the
    // other node (bottom-up scheduling, Fig. 6).
    let mut cfg = RayConfig::builder().nodes(2).workers_per_node(2).build();
    cfg.scheduler.spillover_threshold = 4;
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("work", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        ms
    });
    let ctx = cluster.driver();
    let futs: Vec<ObjectRef<u64>> = (0..64)
        .map(|_| ctx.call("work", vec![Arg::value(&5u64).unwrap()]).unwrap())
        .collect();
    ctx.get_all(&futs).unwrap();
    let spilled = cluster.metrics().counter("tasks_spilled").get();
    assert!(spilled > 0, "expected some spillover with a flooded queue");
    cluster.shutdown();
}

/// Registers `gate`, a task that holds its worker until the returned
/// opener is dropped; the returned receiver hears when it starts.
fn register_gate(cluster: &Cluster) -> (Receiver<()>, Opener) {
    let (started_tx, started_rx) = channel();
    let (open, gate) = new_gate();
    cluster.register_fn0("gate", move || {
        let _ = started_tx.send(());
        gate.wait();
        0u8
    });
    (started_rx, open)
}

#[test]
fn spill_rule_and_admission_read_the_exact_queue_length() {
    use TraceEventKind::{ScheduledLocal, SpilledGlobal};
    const THRESHOLD: usize = 4;
    const K: usize = 3;
    // Node 0's only worker is held by the gate, so every task its driver
    // submits next stays queued there: the queue's length is the number
    // submitted so far, and both rules must act on exactly that number.
    let held = |cfg: RayConfig| {
        let cluster = Cluster::start(cfg).unwrap();
        let (started, open) = register_gate(&cluster);
        cluster.register_fn0("nop", || 0u8);
        let ctx = cluster.driver();
        let gate: ObjectRef<u8> = ctx.call("gate", vec![]).unwrap();
        started.recv_timeout(Duration::from_secs(10)).expect("the gate never started");
        (cluster, ctx, gate, open)
    };
    let config = || RayConfig::builder().nodes(2).workers_per_node(1).seed(7).tracing(true).build();

    // Spillover forwards a task when the queue is *over* the threshold:
    // lengths 0..=4 keep the first five, every later one spills.
    // Lineage is off so that no GCS write paces the burst: a length that
    // is published late lets extra tasks through.
    let mut cfg = config();
    cfg.scheduler.spillover_threshold = THRESHOLD;
    cfg.fault.lineage_enabled = false;
    let (cluster, ctx, gate, open) = held(cfg);
    let futs: Vec<ObjectRef<u8>> =
        (0..THRESHOLD + 1 + K).map(|_| ctx.call("nop", vec![]).unwrap()).collect();
    drop(open);
    ctx.get(&gate).unwrap();
    ctx.get_all(&futs).unwrap();
    let log = cluster.trace_log().unwrap();
    for (i, fut) in futs.iter().enumerate() {
        let task = TraceEntity::Task(producer(&log, fut.id()));
        let (local, spilled) = if i <= THRESHOLD { (1, 0) } else { (0, 1) };
        log.assert().count_eq(task, ScheduledLocal, local).count_eq(task, SpilledGlobal, spilled);
    }
    cluster.shutdown();

    // Admission sheds a task when the queue is *at* the watermark: with
    // nothing spilling and no retry, five are admitted and the sixth shed.
    let mut cfg = config();
    cfg.scheduler.spillover_threshold = 1_000;
    cfg.scheduler.admission_watermark = Some(THRESHOLD + 1);
    cfg.scheduler.admission_retry_limit = 0;
    let (cluster, ctx, gate, open) = held(cfg);
    let admitted: Vec<ObjectRef<u8>> =
        (0..THRESHOLD + 1).map(|_| ctx.call("nop", vec![]).unwrap()).collect();
    match ctx.call::<u8>("nop", vec![]) {
        Err(RayError::Overloaded(NodeId(0))) => {}
        other => panic!("expected Overloaded(N0), got {other:?}"),
    }
    assert_eq!(cluster.metrics().counter("tasks_shed").get(), 1);
    drop(open);
    ctx.get(&gate).unwrap();
    ctx.get_all(&admitted).unwrap();
    cluster.shutdown();
}

#[test]
fn metrics_count_submissions_and_executions() {
    let cluster = small_cluster();
    cluster.register_fn0("nop", || 0u8);
    let ctx = cluster.driver();
    let futs: Vec<ObjectRef<u8>> =
        (0..10).map(|_| ctx.call("nop", vec![]).unwrap()).collect();
    ctx.get_all(&futs).unwrap();
    assert!(cluster.metrics().counter("tasks_submitted").get() >= 10);
    // Results become visible before the executing worker bumps the
    // counter, so give the last increment a moment to land.
    let t0 = std::time::Instant::now();
    while cluster.metrics().counter("tasks_executed").get() < 10
        && t0.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cluster.metrics().counter("tasks_executed").get() >= 10);
    cluster.shutdown();
}

#[test]
fn concurrent_drivers_share_the_cluster() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(2).workers_per_node(4).build(),
    )
    .unwrap();
    cluster.register_fn1("echo", |x: u64| x);
    let cluster = Arc::new(cluster);
    let handles: Vec<_> = (0..4u32)
        .map(|d| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let ctx = cluster.driver_on(NodeId(d % 2));
                let futs: Vec<ObjectRef<u64>> = (0..25u64)
                    .map(|i| ctx.call("echo", vec![Arg::value(&i).unwrap()]).unwrap())
                    .collect();
                let sum: u64 = ctx.get_all(&futs).unwrap().into_iter().sum();
                assert_eq!(sum, (0..25u64).sum());
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    cluster.shutdown();
}
