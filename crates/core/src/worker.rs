//! Worker processes: stateless task executors.
//!
//! "A stateless process that executes tasks invoked by a driver or another
//! worker ... A worker executes tasks serially, with no local state
//! maintained across tasks" (paper §4.1). Each worker is a thread with an
//! inbox; it resolves the task's object arguments (replicating remote ones
//! into the local store first, §4.2.3), runs the registered function with
//! a [`RayContext`] for nested calls, and stores the results.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Sender};

use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{NodeId, RayResult};

use crate::actor;
use crate::context::RayContext;
use crate::lineage::{ensure_object_at, Waiter};
use crate::runtime::{encode_error_object, NodeMsg, RuntimeShared};
use crate::task::{Arg, TaskKind, TaskSpec};

/// Messages to a worker thread.
pub(crate) enum WorkerMsg {
    /// Execute one task.
    Run(TaskSpec),
    /// Exit.
    Stop,
}

/// Handle to one worker thread.
pub(crate) struct WorkerHandle {
    pub tx: Sender<WorkerMsg>,
    pub join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Spawns worker `index` on `node`; completions report to `node_tx`.
    pub fn spawn(
        shared: Arc<RuntimeShared>,
        node: NodeId,
        index: usize,
        node_tx: Sender<NodeMsg>,
    ) -> WorkerHandle {
        let (tx, rx) = unbounded();
        let join = std::thread::Builder::new()
            .name(format!("worker-{node}-{index}"))
            .spawn(move || {
                ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
                let clock = shared.trace.clock().clone();
                // Resolved once: the registry lookup takes a lock, and this
                // is the per-task hot loop.
                let task_latency = shared.metrics.histogram(names::TASK_LATENCY_MICROS);
                let tasks_executed = shared.metrics.counter(names::TASKS_EXECUTED);
                while let Ok(msg) = rx.recv() {
                    match msg {
                        WorkerMsg::Run(spec) => {
                            let start = clock.now();
                            let demand = spec.demand.clone();
                            let task = spec.task;
                            execute_task(&shared, node, Some((node_tx.clone(), index)), &spec);
                            tasks_executed.inc();
                            shared.inflight.remove(task);
                            let elapsed = clock.now().duration_since(start);
                            task_latency.observe(elapsed.as_micros() as u64);
                            let done = NodeMsg::WorkerDone {
                                worker: index,
                                demand,
                                duration_ms: elapsed.as_secs_f64() * 1e3,
                            };
                            if node_tx.send(done).is_err() {
                                return; // Node shut down mid-task.
                            }
                        }
                        WorkerMsg::Stop => return,
                    }
                }
            })
            .expect("invariant: thread spawn only fails on OS resource exhaustion");
        WorkerHandle { tx, join: Some(join) }
    }
}

/// Resolves a task's arguments to raw payloads, pulling remote objects
/// into the local store first. `worker_slot` lets the blocking fetch
/// notify the local scheduler (worker-pool growth; see node.rs).
pub(crate) fn resolve_args(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    worker_slot: Option<&(Sender<NodeMsg>, usize)>,
    spec: &TaskSpec,
) -> RayResult<Vec<Bytes>> {
    let mut resolved = Vec::with_capacity(spec.args.len());
    for arg in &spec.args {
        match arg {
            Arg::Value(v) => resolved.push(Bytes::copy_from_slice(&v.0)),
            Arg::ObjectRef(id) => {
                let blocked = notify_blocked(worker_slot);
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

struct BlockedGuard<'a>(Option<&'a (Sender<NodeMsg>, usize)>);

impl Drop for BlockedGuard<'_> {
    fn drop(&mut self) {
        if let Some((tx, idx)) = self.0 {
            let _ = tx.send(NodeMsg::WorkerUnblocked { worker: *idx });
        }
    }
}

fn notify_blocked<'a>(slot: Option<&'a (Sender<NodeMsg>, usize)>) -> BlockedGuard<'a> {
    if let Some((tx, idx)) = slot {
        let _ = tx.send(NodeMsg::WorkerBlocked { worker: *idx });
    }
    BlockedGuard(slot)
}

/// Executes one task end-to-end on `node`. Failures become error-envelope
/// result objects so consumers observe them through `get`.
pub(crate) fn execute_task(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    worker_slot: Option<(Sender<NodeMsg>, usize)>,
    spec: &TaskSpec,
) {
    // Chaos straggler injection (`DelayWorker`): pay the configured extra
    // latency before touching the task at all.
    let delay_us = shared.worker_delays[node.index()].load(std::sync::atomic::Ordering::Relaxed);
    if delay_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(delay_us));
    }
    // A task cancelled (or expired) after dispatch but before execution
    // must tear down without ever emitting `running`.
    if let Some(cause) = shared.teardown_cause(spec) {
        shared.teardown(node, spec, cause);
        return;
    }
    let outcome = run_task_body(shared, node, worker_slot.as_ref(), spec);
    // Cancellation or deadline expiry observed mid-run (a blocking fetch
    // returns the typed error, or the body simply outlived its deadline):
    // whatever the body produced is discarded in favor of typed teardown
    // envelopes, and the worker slot is freed by the normal `WorkerDone`
    // path on return.
    if let Some(cause) = shared.teardown_cause(spec) {
        shared.teardown(node, spec, cause);
        return;
    }
    let outputs = match outcome {
        Ok(outputs) => {
            if outputs.len() != spec.num_returns as usize {
                let msg = format!(
                    "function {} returned {} values, declared {}",
                    spec.function_name,
                    outputs.len(),
                    spec.num_returns
                );
                shared.trace.emit(
                    node,
                    TraceEventKind::Failed,
                    TraceEntity::Task(spec.task),
                    &msg,
                );
                (0..spec.num_returns).map(|_| encode_error_object(spec.task, &msg)).collect()
            } else {
                shared.trace.emit(node, TraceEventKind::Finished, TraceEntity::Task(spec.task), "");
                outputs.into_iter().map(Bytes::from).collect::<Vec<_>>()
            }
        }
        Err(msg) => {
            shared.trace.emit(
                node,
                TraceEventKind::Failed,
                TraceEntity::Task(spec.task),
                &msg,
            );
            (0..spec.num_returns)
                .map(|_| encode_error_object(spec.task, &msg))
                .collect()
        }
    };
    if let Err(e) = shared.store_results(node, spec, outputs) {
        // The node died under us; results are lost and will be
        // reconstructed elsewhere if anyone needs them.
        let _ = e;
    }
}

fn run_task_body(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    worker_slot: Option<&(Sender<NodeMsg>, usize)>,
    spec: &TaskSpec,
) -> Result<Vec<Vec<u8>>, String> {
    match &spec.kind {
        TaskKind::Normal => {
            let f = shared
                .registry
                .function(spec.function)
                .map_err(|e| e.to_string())?;
            let args = resolve_args(shared, node, worker_slot, spec).map_err(|e| e.to_string())?;
            shared.trace.emit(node, TraceEventKind::DepsFetched, TraceEntity::Task(spec.task), "");
            shared.trace.emit(node, TraceEventKind::Running, TraceEntity::Task(spec.task), "");
            let ctx = RayContext::for_task(
                shared.clone(),
                node,
                spec.task,
                spec.deadline_micros,
                worker_slot.cloned(),
            );
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx, &args)));
            match result {
                Ok(r) => r,
                Err(panic) => Err(panic_message(panic)),
            }
        }
        TaskKind::ActorCreation { actor } => {
            // Spawn the stateful actor worker on this node; the creation
            // task's return object is the actor ID, so creation can be
            // awaited like any future.
            shared.trace.emit(node, TraceEventKind::Running, TraceEntity::Task(spec.task), "");
            actor::spawn_actor_here(shared, node, *actor, spec).map_err(|e| e.to_string())?;
            let encoded = ray_codec::encode(actor).map_err(|e| e.to_string())?;
            Ok(vec![encoded])
        }
        TaskKind::ActorMethod { .. } => {
            Err("actor methods are executed by actor hosts, not workers".into())
        }
    }
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

