//! Shared runtime state and the task submission path.
//!
//! Everything a node, worker, actor host, or driver needs hangs off one
//! [`RuntimeShared`]: the GCS client, the object-store directory and
//! transfer manager, the load table and global-scheduler channel, node
//! handles, the function registry, and the per-task registry.
//!
//! The submission path implements the bottom-up rule end-to-end: record
//! lineage in the GCS, consult the local decision
//! ([`ray_scheduler::decide_local`]), and either enqueue on the local
//! scheduler or forward to the global scheduler (paper Fig. 6).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_common::sync::{OrderedMutex, OrderedRwLock};

use ray_common::metrics::{names, MetricsRegistry};
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::util::{retry, Backoff};
use ray_common::{NodeId, ObjectId, RayConfig, RayError, RayResult, TaskId};
use ray_gcs::tables::GcsClient;
use ray_gcs::Gcs;
use ray_object_store::transfer::{StoreDirectory, TransferManager};
use ray_scheduler::{decide_local_reason, GlobalScheduler, LoadTable, LocalDecision};
use ray_transport::Fabric;

use crate::actor::ActorRouter;
use crate::cancel::{CancelReason, CancelRegistry};
use crate::node::NodeHandle;
use crate::registry::FunctionRegistry;
use crate::task::{TaskKind, TaskSpec};

/// Messages processed by the global-scheduler thread.
pub(crate) enum GlobalMsg {
    /// A task forwarded by some node's local scheduler.
    Forward(TaskSpec, NodeId),
    /// Stop the thread.
    Shutdown,
}

/// Reconstruction-dedup state for one stalled producer task
/// (see [`crate::lineage`]): how many times it has been resubmitted and
/// when the next resubmission is allowed.
pub(crate) struct StalledEntry {
    pub attempts: u32,
    pub next_retry: Instant,
}

/// The shared spine of one simulated cluster.
pub struct RuntimeShared {
    pub(crate) config: RayConfig,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) trace: TraceCollector,
    pub(crate) fabric: Fabric,
    pub(crate) gcs: Gcs,
    pub(crate) gcs_client: GcsClient,
    pub(crate) registry: FunctionRegistry,
    pub(crate) directory: StoreDirectory,
    pub(crate) transfer: TransferManager,
    pub(crate) load: Arc<LoadTable>,
    pub(crate) global: GlobalScheduler,
    pub(crate) global_tx: Sender<GlobalMsg>,
    pub(crate) nodes: OrderedRwLock<Vec<Option<Arc<NodeHandle>>>>,
    /// Per-node straggler injection: extra microseconds a worker sleeps
    /// before each task body (the `DelayWorker` chaos action).
    pub(crate) worker_delays: Vec<AtomicU64>,
    /// Per live task: its cancel token, parent→child links, and the node
    /// it was dispatched to.
    pub(crate) cancels: CancelRegistry,
    pub(crate) actors: ActorRouter,
    /// Per-task resubmission backoff for stalled producers (dedups the
    /// many consumers that time out on the same missing object at once).
    pub(crate) stalled: OrderedMutex<HashMap<TaskId, StalledEntry>>,
    /// Serializes node-slot claims (`add_node`/`restart_node`): the scan
    /// for a free slot and the `start_node` that fills it must be atomic
    /// with respect to other topology changes.
    pub(crate) topology: OrderedMutex<()>,
    /// A node's periodic trace flush holds this shared from draining its
    /// ring until the batch is committed to the GCS; `Cluster::flush_traces`
    /// takes it exclusively, so a reader of the event log first waits out
    /// every batch still on its way there.
    pub(crate) trace_flush: OrderedRwLock<()>,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) driver_counter: AtomicU64,
}

impl RuntimeShared {
    /// A live node handle, if the node exists and is alive.
    pub(crate) fn node(&self, node: NodeId) -> Option<Arc<NodeHandle>> {
        let nodes = self.nodes.read();
        let h = nodes.get(node.index())?.clone()?;
        if h.is_alive() {
            Some(h)
        } else {
            None
        }
    }

    /// Any live node, preferring `hint`.
    pub(crate) fn any_live_node(&self, hint: NodeId) -> Option<Arc<NodeHandle>> {
        if let Some(h) = self.node(hint) {
            return Some(h);
        }
        let nodes = self.nodes.read();
        nodes
            .iter()
            .flatten()
            .find(|h| h.is_alive())
            .cloned()
    }

    /// Records lineage for a task: its spec in the task table, one write
    /// (skipped when lineage is disabled — the Fig. 8b ablation knob). The
    /// inverse edge from a return object to its task needs no record: the
    /// object's ID carries it ([`ObjectId::producer`]).
    pub(crate) fn record_lineage(&self, spec: &TaskSpec) -> RayResult<()> {
        if !self.config.fault.lineage_enabled {
            return Ok(());
        }
        self.gcs_client.put_task(spec.task, Bytes::from(spec.encode()?))
    }

    /// Admission control: sheds a non-critical submission when the target
    /// node's queue is at or past the configured watermark. Actor methods
    /// join their actor's mailbox, not a node's queue: they have no target
    /// and pass.
    fn admit(&self, target: Option<&NodeHandle>, spec: &TaskSpec) -> RayResult<()> {
        let Some(watermark) = self.config.scheduler.admission_watermark else {
            return Ok(());
        };
        if spec.critical {
            return Ok(());
        }
        let Some(handle) = target else {
            return Ok(()); // no live node: dispatch will surface the shutdown error
        };
        let node = handle.node;
        let depth = handle.queue_len();
        if depth < watermark {
            return Ok(());
        }
        self.metrics.counter(names::TASKS_SHED).inc();
        self.trace.emit(
            node,
            TraceEventKind::TaskShed,
            TraceEntity::Task(spec.task),
            format!("depth={depth} watermark={watermark}"),
        );
        Err(RayError::Overloaded(node))
    }

    /// The single submit path, for every task kind: one prologue, then a
    /// route on `spec.kind`.
    ///
    /// Prologue: register the cancel token under `parent` (so a parent
    /// cancel fans out) before the task can run (so `ray.cancel` on a
    /// hedged request's losing attempt reaches the actor host ahead of the
    /// method log); ask admission, retrying a rejection with bounded
    /// jittered backoff so transient overload doesn't surface to callers
    /// while sustained overload still does; count and trace the
    /// submission; record lineage — what reconstruction and actor replay
    /// read (Fig. 4) — except for a read-only method, which adds no
    /// stateful edge. Route: tasks and actor creations take the bottom-up
    /// scheduling path (paper Fig. 6), actor methods join their actor's
    /// mailbox.
    pub(crate) fn submit(
        self: &Arc<Self>,
        from: NodeId,
        parent: TaskId,
        spec: TaskSpec,
    ) -> RayResult<()> {
        let task = spec.task;
        self.cancels.ensure(task);
        self.cancels.link(parent, task);
        // The node whose queue a task or actor creation enters first,
        // resolved once for admission and the scheduling decision alike.
        let target = match spec.kind {
            TaskKind::ActorMethod { .. } => None,
            TaskKind::Normal | TaskKind::ActorCreation { .. } => self.any_live_node(from),
        };
        let backoff =
            Backoff::new(Duration::from_micros(500), Duration::from_millis(10), task.digest());
        let limit = self.config.scheduler.admission_retry_limit;
        let overloaded = |e: &RayError, _| matches!(e, RayError::Overloaded(_));
        let admitted = retry(backoff, limit, overloaded, || self.admit(target.as_deref(), &spec));
        let routed = admitted.and_then(|()| {
            self.metrics.counter(names::TASKS_SUBMITTED).inc();
            self.trace.emit(
                from,
                TraceEventKind::Submitted,
                TraceEntity::Task(task),
                &spec.function_name,
            );
            if !matches!(spec.kind, TaskKind::ActorMethod { read_only: true, .. }) {
                self.record_lineage(&spec)?;
            }
            match spec.kind {
                TaskKind::ActorMethod { actor, .. } => self.actors.invoke(actor, spec),
                TaskKind::Normal | TaskKind::ActorCreation { .. } => {
                    self.dispatch_for_scheduling(target, spec)
                }
            }
        });
        if routed.is_err() {
            // The task never entered the system; drop its registry entry
            // so shed submissions don't accumulate tokens. (The stale child
            // link in the parent's entry is harmless by design.)
            self.cancels.remove(task);
        }
        routed
    }

    /// Re-submission path used by lineage reconstruction (lineage is
    /// already recorded; do not double-write it). Resubmissions are always
    /// critical — shedding a reconstruction would livelock its consumers —
    /// and get a fresh cancel token so `ray.cancel` can still find them.
    pub(crate) fn resubmit(self: &Arc<Self>, from: NodeId, mut spec: TaskSpec) -> RayResult<()> {
        spec.critical = true;
        self.cancels.ensure(spec.task);
        self.metrics.counter(names::TASKS_REEXECUTED).inc();
        self.trace.emit(
            from,
            TraceEventKind::Resubmitted,
            TraceEntity::Task(spec.task),
            &spec.function_name,
        );
        self.dispatch_for_scheduling(self.any_live_node(from), spec)
    }

    fn dispatch_for_scheduling(
        self: &Arc<Self>,
        target: Option<Arc<NodeHandle>>,
        spec: TaskSpec,
    ) -> RayResult<()> {
        let handle =
            target.ok_or(RayError::Shutdown("no live nodes in cluster".to_string()))?;
        let node = handle.node;
        let (decision, reason) = decide_local_reason(
            self.config.scheduler.policy,
            &handle.ledger,
            handle.queue_len(),
            self.config.scheduler.spillover_threshold,
            &spec.demand,
        );
        match decision {
            LocalDecision::KeepLocal => {
                self.metrics.counter(names::TASKS_LOCAL).inc();
                self.trace.emit(
                    node,
                    TraceEventKind::ScheduledLocal,
                    TraceEntity::Task(spec.task),
                    reason.label(),
                );
                self.cancels.set_node(spec.task, node);
                handle.enqueue(self, spec)?;
            }
            LocalDecision::Forward => {
                self.metrics.counter(names::TASKS_SPILLED).inc();
                self.trace.emit(
                    node,
                    TraceEventKind::SpilledGlobal,
                    TraceEntity::Task(spec.task),
                    reason.label(),
                );
                self.global_tx
                    .send(GlobalMsg::Forward(spec, node))
                    .map_err(|_| RayError::Shutdown("global scheduler stopped".into()))?;
            }
        }
        Ok(())
    }

    /// Places a task on a specific node (used by the global scheduler
    /// thread after a placement decision).
    pub(crate) fn place_on(self: &Arc<Self>, node: NodeId, spec: TaskSpec) -> RayResult<()> {
        let handle = self.node(node).ok_or(RayError::NodeDead(node))?;
        self.cancels.set_node(spec.task, node);
        handle.enqueue(self, spec)
    }

    /// Whether the producer of a task is believed to still be running on a
    /// live node.
    pub(crate) fn task_running_on_live_node(&self, task: TaskId) -> bool {
        match self.cancels.node_of(task) {
            Some(node) => self.fabric.is_alive(node),
            None => false,
        }
    }

    /// Stores task outputs into a node's local store and publishes their
    /// locations (Fig. 7b steps 3–4). During replays, existing objects are
    /// left untouched (deterministic functions recompute identical bytes;
    /// see paper §7 "deterministic replay").
    pub(crate) fn store_results(
        &self,
        node: NodeId,
        spec: &TaskSpec,
        outputs: Vec<Bytes>,
    ) -> RayResult<()> {
        let handle = self.node(node).ok_or(RayError::NodeDead(node))?;
        for (i, data) in outputs.into_iter().enumerate() {
            let id = ObjectId::for_task_return(spec.task, i as u64);
            let size = data.len() as u64;
            match handle.store.put(id, data) {
                Ok(outcome) => outcome.unlist_dropped(&self.gcs_client, node),
                Err(RayError::DuplicateObject(_)) => {
                    // Replay of a (nominally deterministic) task produced
                    // different bytes; keep the original (immutability wins)
                    // and move on.
                    continue;
                }
                Err(e) => return Err(e),
            }
            self.gcs_client.add_object_location(id, node, size)?;
        }
        Ok(())
    }

    /// The cluster's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Why `spec` should be torn down right now, if at all: its cancel
    /// token fired, or its absolute deadline passed. Cancellation wins
    /// when both hold (the recorded reason is more specific).
    pub(crate) fn teardown_cause(&self, spec: &TaskSpec) -> Option<TeardownCause> {
        if let Some(token) = self.cancels.token_of(spec.task) {
            if let Some(reason) = token.reason() {
                return Some(TeardownCause::Cancelled(reason));
            }
        }
        if let Some(deadline) = spec.deadline_micros {
            if self.trace.clock().now_micros() >= deadline {
                return Some(TeardownCause::DeadlineExceeded);
            }
        }
        None
    }

    /// Tears a task down at whatever stage it reached: emits the teardown
    /// trace event and counter, durably marks the task's outputs
    /// `Cancelled` in the GCS object table (so lineage reconstruction
    /// refuses to resurrect them), then stores typed error envelopes so
    /// every waiter blocked on the outputs wakes with
    /// [`RayError::Cancelled`] / [`RayError::DeadlineExceeded`] instead of
    /// timing out. With no store reachable for the envelopes, consumers
    /// fall back to the GCS cancelled mark when their fetch times out.
    pub(crate) fn teardown(&self, node: NodeId, spec: &TaskSpec, cause: TeardownCause) {
        let (kind, counter, msg, detail) = match cause {
            TeardownCause::Cancelled(reason) => (
                TraceEventKind::TaskCancelled,
                names::TASKS_CANCELLED,
                CANCELLED_ENVELOPE,
                format!("reason={}", reason.label()),
            ),
            TeardownCause::DeadlineExceeded => (
                TraceEventKind::TaskDeadlineExceeded,
                names::DEADLINE_EXCEEDED,
                DEADLINE_ENVELOPE,
                format!("deadline_us={}", spec.deadline_micros.unwrap_or(0)),
            ),
        };
        self.metrics.counter(counter).inc();
        self.trace.emit(node, kind, TraceEntity::Task(spec.task), detail);
        // Durable gate first: once marked, a lost envelope cannot be
        // "reconstructed" back into running the task.
        for id in spec.return_ids() {
            let _ = self.gcs_client.mark_object_cancelled(id);
        }
        let _ = self.store_results(node, spec, error_envelopes(spec, msg));
        self.cancels.remove(spec.task);
    }

    /// `ray.cancel` entry point: cancels `task` and propagates to every
    /// registered descendant. Queued occurrences are dropped by their
    /// node's next heartbeat tick; running occurrences observe the token at
    /// their next fetch round or completion. Returns `false` if the task
    /// already completed (or was never scheduled here).
    pub(crate) fn cancel_task(&self, task: TaskId) -> bool {
        match self.cancels.cancel(task, CancelReason::User) {
            None => false,
            Some(children) => {
                let node = self.cancels.node_of(task).unwrap_or(NodeId(0));
                for child in children {
                    let child_node = self.cancels.node_of(child).unwrap_or(node);
                    self.trace.emit(
                        child_node,
                        TraceEventKind::CancelPropagated,
                        TraceEntity::Task(child),
                        format!("from={task}"),
                    );
                }
                true
            }
        }
    }
}

/// Why a task is being torn down (drives the trace kind, counter, and
/// envelope type in [`RuntimeShared::teardown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TeardownCause {
    Cancelled(CancelReason),
    DeadlineExceeded,
}

/// Builds the error-envelope payload stored as a failed task's result, so
/// the failure propagates through futures to whoever `get`s them.
fn encode_error_object(task: TaskId, message: &str) -> Bytes {
    let mut out = Vec::with_capacity(ERROR_MAGIC.len() + 16 + message.len());
    out.extend_from_slice(ERROR_MAGIC);
    out.extend_from_slice(&task.0.as_bytes());
    out.extend_from_slice(message.as_bytes());
    Bytes::from(out)
}

/// One error envelope per declared return of `spec`: what a task that
/// failed or was torn down stores in place of its outputs.
pub(crate) fn error_envelopes(spec: &TaskSpec, message: &str) -> Vec<Bytes> {
    (0..spec.num_returns).map(|_| encode_error_object(spec.task, message)).collect()
}

/// Checks whether an object payload is an error envelope; returns the
/// failure if so.
pub(crate) fn check_error_object(data: &Bytes) -> Option<RayError> {
    if data.len() < ERROR_MAGIC.len() + 16 || &data[..ERROR_MAGIC.len()] != ERROR_MAGIC {
        return None;
    }
    let mut id = [0u8; 16];
    id.copy_from_slice(&data[ERROR_MAGIC.len()..ERROR_MAGIC.len() + 16]);
    let task = TaskId::from_bytes(id);
    let message = String::from_utf8_lossy(&data[ERROR_MAGIC.len() + 16..]).into_owned();
    Some(match message.as_str() {
        CANCELLED_ENVELOPE => RayError::Cancelled(task),
        DEADLINE_ENVELOPE => RayError::DeadlineExceeded(task),
        _ => RayError::TaskFailed { task, message },
    })
}

/// Magic prefix marking error envelopes. Sixteen fixed bytes make an
/// accidental collision with user payloads vanishingly unlikely.
const ERROR_MAGIC: &[u8; 16] = b"\x00RAY-TASK-ERR\xff\xfe\xfd";

/// Envelope messages that decode to typed errors instead of
/// [`RayError::TaskFailed`]: the cancellation teardown stores these so a
/// consumer's `get` surfaces what actually happened to the producer.
const CANCELLED_ENVELOPE: &str = "__rustray_cancelled__";
const DEADLINE_ENVELOPE: &str = "__rustray_deadline_exceeded__";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_envelope_round_trips() {
        let task = TaskId::random();
        let payload = encode_error_object(task, "division by zero");
        match check_error_object(&payload) {
            Some(RayError::TaskFailed { task: t, message }) => {
                assert_eq!(t, task);
                assert_eq!(message, "division by zero");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn teardown_envelopes_decode_to_typed_errors() {
        let task = TaskId::random();
        let cancelled = encode_error_object(task, CANCELLED_ENVELOPE);
        assert_eq!(check_error_object(&cancelled), Some(RayError::Cancelled(task)));
        let expired = encode_error_object(task, DEADLINE_ENVELOPE);
        assert_eq!(check_error_object(&expired), Some(RayError::DeadlineExceeded(task)));
    }

    #[test]
    fn normal_payloads_are_not_error_envelopes() {
        assert!(check_error_object(&Bytes::from_static(b"hello")).is_none());
        assert!(check_error_object(&Bytes::new()).is_none());
        let nearly = Bytes::from_static(b"\x00RAY-TASK-ERR");
        assert!(check_error_object(&nearly).is_none());
    }
}
