//! Worker processes: stateless task executors.
//!
//! "A stateless process that executes tasks invoked by a driver or another
//! worker ... A worker executes tasks serially, with no local state
//! maintained across tasks" (paper §4.1). Each worker is a thread pulling
//! from its node's run queue; it resolves the task's object arguments
//! (replicating remote ones into the local store first, §4.2.3), runs the
//! registered function with a [`RayContext`] for nested calls, and stores
//! the results.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;

use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{NodeId, RayResult};

use crate::actor;
use crate::context::RayContext;
use crate::lineage::{ensure_object_at, Waiter};
use crate::node::NodeHandle;
use crate::registry::{encode_return, RemoteResult};
use crate::runtime::{error_envelopes, RuntimeShared};
use crate::task::{Arg, TaskKind, TaskSpec};

/// Spawns worker `index` of `handle`'s node: it pulls tasks from the node's
/// run queue until the node stops.
pub(crate) fn spawn(
    shared: Arc<RuntimeShared>,
    handle: Arc<NodeHandle>,
    index: usize,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("worker-{}-{index}", handle.node))
        .spawn(move || {
            ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
            let clock = shared.trace.clock().clone();
            // Resolved once: the registry lookup takes a lock, and this
            // is the per-task hot loop.
            let queue_wait = shared.metrics.histogram(names::QUEUE_WAIT_MICROS);
            let task_latency = shared.metrics.histogram(names::TASK_LATENCY_MICROS);
            let tasks_executed = shared.metrics.counter(names::TASKS_EXECUTED);
            while let Some((spec, enqueued)) = handle.next_task() {
                let start = clock.now();
                queue_wait.observe(start.duration_since(enqueued).as_micros() as u64);
                run_task(&shared, &handle, &spec);
                tasks_executed.inc();
                let elapsed = clock.now().duration_since(start);
                task_latency.observe(elapsed.as_micros() as u64);
                // Feeds the EWMA the global scheduler's wait estimate reads.
                shared.load.observe_task_duration(handle.node, elapsed.as_secs_f64() * 1e3);
                handle.release(&spec.demand);
            }
        })
        .expect("invariant: thread spawn only fails on OS resource exhaustion")
}

/// Resolves a task's arguments to raw payloads, pulling remote objects
/// into the local store first. A `worker` is marked blocked for the
/// duration of each fetch (worker-pool growth; see node.rs).
fn resolve_args(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    worker: Option<&Arc<NodeHandle>>,
    spec: &TaskSpec,
) -> RayResult<Vec<Bytes>> {
    let mut resolved = Vec::with_capacity(spec.args.len());
    for arg in &spec.args {
        match arg {
            Arg::Value(v) => resolved.push(Bytes::copy_from_slice(&v.0)),
            Arg::ObjectRef(id) => {
                let blocked = worker.map(|w| w.block(shared));
                let waiter = Waiter { task: spec.task, deadline_micros: spec.deadline_micros };
                let data = ensure_object_at(shared, *id, node, Some(waiter));
                drop(blocked);
                let data = data?;
                if let Some(err) = crate::runtime::check_error_object(&data) {
                    // Failure propagates through data edges: a task whose
                    // input failed fails with the same root cause.
                    return Err(err);
                }
                resolved.push(data);
            }
        }
    }
    Ok(resolved)
}

/// How much of the policy around a body applies to this execution. The
/// stateless task is the full policy; the other two modes are the only
/// places where running an actor method differs from running a task.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A stateless task or an actor creation.
    Task,
    /// A live actor method. A cancel or deadline that lands *during* the
    /// body does not tear it down afterwards: the method is already in the
    /// stateful-edge log and its state change is already applied, so a
    /// replay will produce these outputs again — discarding them now would
    /// make the first run and the replay disagree.
    Method,
    /// A logged method replayed by an actor rebuild. It ran once already,
    /// so nothing may stop it running again: no teardown check (the
    /// original deadline has passed, the log says the method counts), no
    /// straggler delay (recovery speed is not the chaos target), and its
    /// outputs only fill holes — surviving replicas stay as they are.
    Replay,
}

/// The single execute path: everything the runtime does before and after
/// any body, whichever kind of task the body belongs to.
///
/// straggler delay → teardown check → `committed` → argument fetch →
/// `deps_fetched`, `running` → the body under `catch_unwind` → arity check
/// → `finished` | `failed` → store. `committed` runs once the task can no
/// longer be torn down before its body — the actor host appends to the
/// method log there, so a torn-down method is never logged. Returns
/// `false` if the task was torn down instead of completing.
pub(crate) fn execute(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    worker: Option<&Arc<NodeHandle>>,
    spec: &TaskSpec,
    mode: Mode,
    committed: impl FnOnce(),
    body: impl FnOnce(&RayContext, &[Bytes]) -> RemoteResult,
) -> bool {
    let entity = TraceEntity::Task(spec.task);
    if mode != Mode::Replay {
        // Chaos straggler injection (`DelayWorker`): pay the configured
        // extra latency before touching the task at all.
        let delay_us = shared.worker_delays[node.index()].load(Ordering::Relaxed);
        if delay_us > 0 {
            std::thread::sleep(Duration::from_micros(delay_us));
        }
        // A task cancelled (or expired) after dispatch but before
        // execution tears down without ever emitting `running`.
        if let Some(cause) = shared.teardown_cause(spec) {
            shared.teardown(node, spec, cause);
            return false;
        }
    }
    committed();
    let outcome = resolve_args(shared, node, worker, spec)
        .map_err(|e| e.to_string())
        .and_then(|args| {
            shared.trace.emit(node, TraceEventKind::DepsFetched, entity, "");
            shared.trace.emit(node, TraceEventKind::Running, entity, &spec.kind);
            let ctx = RayContext::for_task(
                shared.clone(),
                node,
                spec.task,
                spec.deadline_micros,
                worker.cloned(),
            );
            std::panic::catch_unwind(AssertUnwindSafe(|| body(&ctx, &args)))
                .unwrap_or_else(|panic| Err(panic_message(panic)))
        })
        .and_then(|outputs| {
            if outputs.len() == spec.num_returns as usize {
                Ok(outputs)
            } else {
                Err(format!(
                    "{} returned {} values, declared {}",
                    spec.function_name,
                    outputs.len(),
                    spec.num_returns
                ))
            }
        });
    // Cancellation or deadline expiry observed mid-run (a blocking fetch
    // returns the typed error, or the body simply outlived its deadline):
    // whatever the body produced is discarded in favor of typed teardown
    // envelopes.
    if mode == Mode::Task {
        if let Some(cause) = shared.teardown_cause(spec) {
            shared.teardown(node, spec, cause);
            return false;
        }
    }
    let outputs = match outcome {
        Ok(outputs) => {
            shared.trace.emit(node, TraceEventKind::Finished, entity, "");
            outputs
        }
        // Failures become error-envelope result objects so consumers
        // observe them through `get`.
        Err(msg) => {
            shared.trace.emit(node, TraceEventKind::Failed, entity, &msg);
            error_envelopes(spec, &msg)
        }
    };
    // Nothing can stop this task any more: its token goes before its
    // results appear, so `cancel` on a finished task's return says `false`.
    shared.cancels.remove(spec.task);
    // A store error means the node died under us; the results are lost and
    // will be reconstructed elsewhere if anyone needs them.
    let _ = match mode {
        Mode::Replay => actor::store_missing_results(shared, node, spec, outputs),
        Mode::Task | Mode::Method => shared.store_results(node, spec, outputs),
    };
    true
}

/// Runs a task a worker took from its node's queue: the body is the
/// registered function, or the actor constructor for a creation task.
fn run_task(shared: &Arc<RuntimeShared>, worker: &Arc<NodeHandle>, spec: &TaskSpec) {
    let node = worker.node;
    execute(shared, node, Some(worker), spec, Mode::Task, || (), |ctx, args| match &spec.kind {
        TaskKind::Normal => {
            let f = shared.registry.function(spec.function).map_err(|e| e.to_string())?;
            f(ctx, args)
        }
        TaskKind::ActorCreation { actor } => {
            // Spawn the stateful actor worker on this node; the creation
            // task's return object is the actor ID, so creation can be
            // awaited like any future.
            actor::spawn_actor_here(shared, worker, *actor, spec, ctx, args)
                .map_err(|e| e.to_string())?;
            encode_return(actor)
        }
        TaskKind::ActorMethod { .. } => {
            Err("actor methods are executed by actor hosts, not workers".into())
        }
    });
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}
