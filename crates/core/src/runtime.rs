//! Shared runtime state and the task submission path.
//!
//! Everything a node, worker, actor host, or driver needs hangs off one
//! [`RuntimeShared`]: the GCS client, the object-store directory and
//! transfer manager, the load table, the placement engine and the global
//! scheduler thread's retry channel, node handles and the function
//! registry.
//!
//! The submission path implements the bottom-up rule end-to-end: record
//! lineage in the GCS, consult the local decision
//! ([`ray_scheduler::decide_local`]), and either enqueue on the local
//! scheduler or forward — run the global placement on the submitting
//! thread (paper Fig. 6).

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use ray_common::sync::{OrderedMutex, OrderedRwLock};

use ray_common::metrics::MetricsRegistry;
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::{IdMap, NodeId, ObjectId, RayConfig, RayError, RayResult, TaskId};
use ray_gcs::tables::GcsClient;
use ray_gcs::Gcs;
use ray_object_store::transfer::{StoreDirectory, TransferManager};
use ray_scheduler::{decide_local_reason, GlobalScheduler, LoadTable, LocalDecision};
use ray_transport::Fabric;

use crate::actor::ActorRouter;
use crate::cancel::{CancelReason, Token};
use crate::global_loop;
use crate::node::{NodeHandle, Undelivered};
use crate::registry::FunctionRegistry;
use crate::task::{TaskKind, TaskSpec};

/// Messages processed by the global-scheduler thread.
pub(crate) enum GlobalMsg {
    /// A task for the retries, the node it was forwarded from, and the
    /// instant before which it is not tried: one its placer could not
    /// deliver (no live node can hold it yet, its chosen node died first,
    /// or a node bounced it as infeasible), or one waiting out an injected
    /// decision delay. Once due, it retries at the thread's cadence. Its
    /// in-flight record waits in that node's run queue.
    Retry(Box<TaskSpec>, NodeId, Instant),
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
    pub(crate) actors: ActorRouter,
    /// Per-task resubmission backoff for stalled producers (dedups the
    /// many consumers that time out on the same missing object at once).
    pub(crate) stalled: OrderedMutex<IdMap<TaskId, StalledEntry>>,
    /// Serializes node-slot claims (`add_node`/`restart_node`): the scan
    /// for a free slot and the `start_node` that fills it must be atomic
    /// with respect to other topology changes.
    pub(crate) topology: OrderedMutex<()>,
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

    /// Records lineage for a task: its spec in the task table, one write.
    /// The inverse edge from a return object to its task needs no record:
    /// the object's ID carries it ([`ObjectId::producer`]).
    pub(crate) fn record_lineage(&self, spec: &TaskSpec) -> RayResult<()> {
        self.gcs_client.put_task(spec.task, Bytes::from(spec.encode()?))
    }

    /// The single submit path, for every task kind: one prologue, a route
    /// on `spec.kind`, and the link under `parent`.
    ///
    /// Prologue: trace (and so count) the submission; record lineage — what
    /// reconstruction and actor replay read (Fig. 4) — except for a
    /// read-only method, which adds no stateful edge. Route: tasks and
    /// actor creations take the bottom-up scheduling path (paper Fig. 6),
    /// actor methods join their actor's mailbox; either way the task's
    /// in-flight record is taken where it lands, before it can run (so
    /// `ray.cancel` on a hedged request's losing attempt reaches the actor
    /// host ahead of the method log). Link: a task submitted by an
    /// in-flight `parent` is linked under it once routed, so a parent
    /// cancel fans out to it; a parent cancelled before the link cancels
    /// the child here.
    pub(crate) fn submit(
        self: &Arc<Self>,
        from: NodeId,
        parent: Option<&Token>,
        spec: TaskSpec,
    ) -> RayResult<()> {
        let task = spec.task;
        self.trace.emit(
            from,
            TraceEventKind::Submitted,
            TraceEntity::Task(task),
            &spec.function_name,
        );
        let lineage = match spec.kind {
            TaskKind::ActorMethod { read_only: true, .. } => Ok(()),
            _ => self.record_lineage(&spec),
        };
        lineage.and_then(|()| match spec.kind {
            TaskKind::ActorMethod { actor, .. } => self.actors.invoke(actor, spec),
            TaskKind::Normal | TaskKind::ActorCreation { .. } => {
                self.dispatch_for_scheduling(from, spec)
            }
        })?;
        // A cancel of the parent that flips it after the link finds the
        // child there; one that flipped it before is seen here.
        if parent.is_some_and(|parent| parent.link(task)) {
            self.cancel_in_flight(task, CancelReason::Parent);
        }
        Ok(())
    }

    /// Re-submission path used by lineage reconstruction (lineage is
    /// already recorded; do not double-write it). The resubmission takes a
    /// fresh in-flight record where it lands, so `ray.cancel` can find it.
    pub(crate) fn resubmit(self: &Arc<Self>, from: NodeId, spec: TaskSpec) -> RayResult<()> {
        self.trace.emit(
            from,
            TraceEventKind::Resubmitted,
            TraceEntity::Task(spec.task),
            &spec.function_name,
        );
        self.dispatch_for_scheduling(from, spec)
    }

    /// The bottom-up rule on the node a task enters first (`from`, or any
    /// live node if `from` is gone): keep it there, or forward it — place
    /// it, on this thread, on the feasible node with the least estimated
    /// wait.
    fn dispatch_for_scheduling(self: &Arc<Self>, from: NodeId, spec: TaskSpec) -> RayResult<()> {
        let handle = self
            .any_live_node(from)
            .ok_or_else(|| RayError::Shutdown("no live nodes in cluster".to_string()))?;
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
                self.trace.emit(
                    node,
                    TraceEventKind::ScheduledLocal,
                    TraceEntity::Task(spec.task),
                    reason.label(),
                );
                handle.enqueue(self, spec).map_err(|undelivered| undelivered.1)?;
            }
            LocalDecision::Forward => {
                self.trace.emit(
                    node,
                    TraceEventKind::SpilledGlobal,
                    TraceEntity::Task(spec.task),
                    reason.label(),
                );
                global_loop::forward(self, spec, node).map_err(|undelivered| undelivered.1)?;
            }
        }
        Ok(())
    }

    /// Places a task on a specific node (after a placement decision); a
    /// failed delivery hands the task back.
    pub(crate) fn place_on(
        self: &Arc<Self>,
        node: NodeId,
        spec: TaskSpec,
    ) -> Result<(), Undelivered> {
        let Some(handle) = self.node(node) else {
            return Err(Box::new((spec, RayError::NodeDead(node))));
        };
        handle.enqueue(self, spec)
    }

    /// Whether a task is believed to be queued or running on a live node:
    /// a search of the live nodes' in-flight records (reconstruction only).
    pub(crate) fn task_running_on_live_node(&self, task: TaskId) -> bool {
        let nodes = self.nodes.read();
        let mut live = nodes.iter().flatten().filter(|h| h.is_alive());
        live.any(|h| self.fabric.is_alive(h.node) && h.with_records(|records| records.holds(task)))
    }

    /// Stores task outputs into a node's local store and publishes their
    /// locations (Fig. 7b steps 3–4), waking a getter parked on that store
    /// only once the location is in. During replays, existing objects are
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
            match handle.store.put_listed(id, data, &self.gcs_client) {
                // Replay of a (nominally deterministic) task produced
                // different bytes; keep the original (immutability wins)
                // and move on.
                Ok(()) | Err(RayError::DuplicateObject(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The cluster's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Tears a task down at whatever stage it reached: emits (and so
    /// counts) the teardown trace event, durably marks the task's outputs
    /// `Cancelled` in the GCS object table (so lineage reconstruction
    /// refuses to resurrect them), then stores typed error envelopes so
    /// every waiter blocked on the outputs wakes with
    /// [`RayError::Cancelled`] / [`RayError::DeadlineExceeded`] instead of
    /// timing out. With no store reachable for the envelopes, consumers
    /// fall back to the GCS cancelled mark when their fetch times out.
    pub(crate) fn teardown(&self, node: NodeId, spec: &TaskSpec, cause: TeardownCause) {
        let (kind, msg, detail) = match cause {
            TeardownCause::Cancelled(reason) => (
                TraceEventKind::TaskCancelled,
                CANCELLED_ENVELOPE,
                format!("reason={}", reason.label()),
            ),
            TeardownCause::DeadlineExceeded => (
                TraceEventKind::TaskDeadlineExceeded,
                DEADLINE_ENVELOPE,
                format!("deadline_us={}", spec.deadline_micros.unwrap_or(0)),
            ),
        };
        self.trace.emit(node, kind, TraceEntity::Task(spec.task), detail);
        // Durable gate first: once marked, a lost envelope cannot be
        // "reconstructed" back into running the task.
        for id in spec.return_ids() {
            let _ = self.gcs_client.mark_object_cancelled(id);
        }
        let _ = self.store_results(node, spec, error_envelopes(spec, msg));
    }

    /// Cancels `task`'s in-flight records, searching the live nodes' run
    /// queues, then the actors' mailboxes. `None` unless this call flipped
    /// one; else the node the task is queued or running on (`None` for an
    /// actor call) and its children.
    fn cancel_in_flight(&self, task: TaskId, reason: CancelReason) -> Option<Flipped> {
        // Every live node: a placed task's record and the one it waited
        // with for placement may briefly both be there.
        let mut flipped: Option<Flipped> = None;
        for h in self.nodes.read().iter().flatten().filter(|h| h.is_alive()) {
            if let Some(children) = h.with_records(|records| records.cancel(task, reason)) {
                flipped.get_or_insert((Some(h.node), Vec::new())).1.extend(children);
            }
        }
        flipped.or_else(|| Some((None, self.actors.cancel(task, reason)?)))
    }

    /// `ray.cancel` entry point: cancels `task` and propagates to every
    /// in-flight descendant. Queued occurrences are dropped by their
    /// node's next heartbeat tick; running occurrences observe the token at
    /// their next fetch round or completion. Returns `false` if the task is
    /// not in flight (finished, or never scheduled here) or was already
    /// cancelled.
    pub(crate) fn cancel_task(&self, task: TaskId) -> bool {
        let Some((node, mut frontier)) = self.cancel_in_flight(task, CancelReason::User) else {
            return false;
        };
        let node = node.unwrap_or(NodeId(0));
        while let Some(child) = frontier.pop() {
            // Finished, or already cancelled: nothing below it to reach.
            let Some((child_node, children)) = self.cancel_in_flight(child, CancelReason::Parent)
            else {
                continue;
            };
            self.trace.emit(
                child_node.unwrap_or(node),
                TraceEventKind::CancelPropagated,
                TraceEntity::Task(child),
                format!("from={task}"),
            );
            frontier.extend(children);
        }
        true
    }
}

/// A cancel that flipped a record: where the task is (`None` for an actor
/// call), and its children.
type Flipped = (Option<NodeId>, Vec<TaskId>);

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

/// Whether a payload that begins with `head` may be an error envelope.
pub(crate) fn may_be_error_object(head: &[u8]) -> bool {
    head.starts_with(ERROR_MAGIC) || ERROR_MAGIC.starts_with(head)
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
