//! Per-node local scheduler: the run queue, resource accounting, worker
//! pool and heartbeat.
//!
//! The local scheduler is the first stop for every task created on its
//! node (bottom-up scheduling, §4.2.2). It is a queue with a length, not a
//! thread: submitters push onto it from their own thread, workers pull
//! from it, acquiring the task's resources as they do, and the pool grows
//! when workers block inside `get` — the mechanism that lets nested remote
//! calls (e.g. `train_policy` in paper Fig. 3) wait on children without
//! deadlocking the node. The node's periodic work (purging cancelled
//! tasks, the load heartbeat, the trace flush) runs beside the task path
//! on its `heartbeat-N` thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ray_common::sync::{classes, OrderedCondvar, OrderedMutex};
use ray_common::{NodeId, RayError, RayResult, Resources};
use ray_object_store::store::LocalObjectStore;
use ray_scheduler::{NodeLoad, ResourceLedger};

use crate::runtime::{GlobalMsg, RuntimeShared};
use crate::task::TaskSpec;
use crate::worker;

/// How many queued tasks a worker scans past a blocked head-of-line entry
/// (limited out-of-order dispatch, like Ray's dispatch of whichever ready
/// task fits).
const DISPATCH_SCAN: usize = 16;

/// The automatic per-node affinity resource: a task or actor demanding
/// `node_affinity(n)` can only be placed on node `n` (like Ray's per-node
/// custom resources). Every node advertises a large quantity of its own.
pub fn node_affinity(node: NodeId) -> ray_common::Resources {
    ray_common::Resources::none().with_custom(&format!("node:{}", node.0), 1.0)
}

fn node_capacity(shared: &RuntimeShared, node: NodeId) -> ray_common::Resources {
    shared
        .config
        .node_resources
        .clone()
        .with_custom(&format!("node:{}", node.0), 1_000_000.0)
}

/// Handle to one running node: its object store, its resource ledger and
/// its run queue.
pub(crate) struct NodeHandle {
    pub node: NodeId,
    pub store: Arc<LocalObjectStore>,
    pub ledger: ResourceLedger,
    /// Written only under the queue lock (see [`NodeHandle::stop`]).
    alive: AtomicBool,
    queue: OrderedMutex<RunQueue>,
    /// Wakes workers waiting in [`NodeHandle::next_task`].
    wake: OrderedCondvar,
    /// Wakes the heartbeat thread before its next tick (only `stop` does).
    tick: OrderedCondvar,
    /// The heartbeat thread and every worker ever started.
    threads: OrderedMutex<Vec<JoinHandle<()>>>,
}

#[derive(Default)]
struct RunQueue {
    /// Each queued task carries its enqueue time for the queue-wait
    /// histogram.
    ready: VecDeque<(TaskSpec, Instant)>,
    /// Worker threads started so far.
    workers: usize,
    /// Workers waiting for a task.
    idle: usize,
    /// Workers inside a [`Blocked`] guard.
    blocked: usize,
}

/// Marks the calling worker as blocked in a `get`, `wait` or argument
/// fetch until dropped: it no longer counts as runnable for pool growth.
pub(crate) struct Blocked<'a>(&'a NodeHandle);

impl Drop for Blocked<'_> {
    fn drop(&mut self) {
        self.0.queue.lock().blocked -= 1;
    }
}

impl NodeHandle {
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Tasks queued here and not yet taken by a worker: the one number the
    /// spillover rule, admission control, the heartbeat and `inspect` read.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.lock().ready.len()
    }

    /// Queues a task for this node's workers, on the caller's thread —
    /// whether the task was submitted here or placed here by the global
    /// scheduler.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        shared: &Arc<RuntimeShared>,
        spec: TaskSpec,
    ) -> RayResult<()> {
        if !self.ledger.feasible(&spec.demand) {
            // Capacity can never satisfy this task here (stale placement
            // after a reconfiguration): bounce to the global scheduler
            // rather than wedging the queue.
            return shared
                .global_tx
                .send(GlobalMsg::Forward(spec, self.node))
                .map_err(|_| RayError::Shutdown("global scheduler stopped".into()));
        }
        let mut q = self.queue.lock();
        if !self.is_alive() {
            return Err(RayError::NodeDead(self.node));
        }
        q.ready.push_back((spec, shared.trace.clock().now()));
        self.wake_if_queued(&q);
        self.grow(shared, &mut q);
        Ok(())
    }

    /// The pool rule: with a task waiting and nobody idle to take it, start
    /// a worker — up to `workers_per_node` freely, and beyond that only to
    /// keep that many runnable (non-blocked) workers while others sit in
    /// blocking `get`s. Called at the two moments the rule can newly hold:
    /// a task was queued, or a worker blocked.
    fn grow(self: &Arc<Self>, shared: &Arc<RuntimeShared>, q: &mut RunQueue) {
        if q.ready.is_empty() || q.idle > 0 || !self.is_alive() {
            return;
        }
        let base = shared.config.workers_per_node;
        let runnable = q.workers.saturating_sub(q.blocked);
        if q.workers < base || (runnable < base && q.workers < base * 8 + 4) {
            self.threads.lock().push(worker::spawn(shared.clone(), self.clone(), q.workers));
            q.workers += 1;
        }
    }

    /// Blocks the calling worker until a queued task's resources can be
    /// acquired — the first such task within a bounded scan — and takes it,
    /// resources held. `None` once the node is stopped: tasks still queued
    /// are lost with the node; lineage reconstruction recovers their
    /// outputs if anyone needs them.
    pub(crate) fn next_task(&self) -> Option<(TaskSpec, Instant)> {
        let mut q = self.queue.lock();
        while self.is_alive() {
            let fits = q
                .ready
                .iter()
                .take(DISPATCH_SCAN)
                .position(|(spec, _)| self.ledger.try_acquire(&spec.demand));
            if let Some(i) = fits {
                let task = q.ready.remove(i);
                // Taking a task moves the scan window: the next entry may
                // suit a worker that found nothing it could run.
                self.wake_if_queued(&q);
                return task;
            }
            q.idle += 1;
            self.wake.wait(&mut q);
            q.idle -= 1;
        }
        None
    }

    fn wake_if_queued(&self, q: &RunQueue) {
        if q.idle > 0 && !q.ready.is_empty() {
            self.wake.notify_one();
        }
    }

    /// Returns a finished task's resources; a queued task may fit now.
    pub(crate) fn release(&self, demand: &Resources) {
        self.ledger.release(demand);
        self.wake_if_queued(&self.queue.lock());
    }

    /// Marks the calling worker blocked until the guard drops, growing the
    /// pool if that leaves queued work with no runnable worker.
    pub(crate) fn block(self: &Arc<Self>, shared: &Arc<RuntimeShared>) -> Blocked<'_> {
        let mut q = self.queue.lock();
        q.blocked += 1;
        self.grow(shared, &mut q);
        Blocked(self)
    }

    /// Stops the node: nothing more is queued or taken, and every worker
    /// and the heartbeat thread exit once their current step ends. The
    /// flag flips and the wake-ups go out under the queue lock, so a
    /// thread between its `is_alive` check and its wait cannot miss them.
    pub(crate) fn stop(&self) {
        let _q = self.queue.lock();
        self.alive.store(false, Ordering::SeqCst);
        self.wake.notify_all();
        self.tick.notify_all();
    }

    /// Joins the heartbeat thread and every worker, grown ones included
    /// (none can start after `stop`).
    pub(crate) fn join(&self) {
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Starts a node: object store, ledger, run queue, heartbeat thread
/// (workers start as tasks arrive). Registers the node everywhere it must
/// be visible (store directory, GCS client table, load table) and inserts
/// the handle into `shared.nodes`.
pub(crate) fn start_node(shared: &Arc<RuntimeShared>, node: NodeId) -> Arc<NodeHandle> {
    let store = Arc::new(LocalObjectStore::new_traced(
        node,
        &shared.config.object_store,
        shared.trace.clone(),
    ));
    let ledger = ResourceLedger::new(node_capacity(shared, node));

    shared.directory.register(store.clone());
    let _ = shared.gcs_client.register_node(node);
    shared.fabric.revive_node(node);
    // A (re)started slot is a fresh process: tasks a previous incarnation
    // was running are gone (their consumers resubmit through lineage), and
    // any actor still claiming this slot is stale and must rebuild. Both
    // matter when a crashed node restarts before the failure detector
    // declared it dead.
    shared.inflight.remove_node(node);
    crate::actor::recover_actors_on(shared, node);
    shared.load.heartbeat(NodeLoad {
        node,
        queue_len: 0,
        available: ledger.available(),
        capacity: ledger.capacity().clone(),
        alive: true,
    });

    let handle = Arc::new(NodeHandle {
        node,
        store,
        ledger,
        alive: AtomicBool::new(true),
        queue: OrderedMutex::new(&classes::NODE_QUEUE, RunQueue::default()),
        wake: OrderedCondvar::new(),
        tick: OrderedCondvar::new(),
        threads: OrderedMutex::new(&classes::NODE_JOIN, Vec::new()),
    });

    {
        let mut nodes = shared.nodes.write();
        if nodes.len() <= node.index() {
            nodes.resize_with(node.index() + 1, || None);
        }
        nodes[node.index()] = Some(handle.clone());
    }

    let (shared2, handle2) = (shared.clone(), handle.clone());
    let heartbeat = std::thread::Builder::new()
        .name(format!("heartbeat-{node}"))
        .spawn(move || heartbeat_loop(shared2, handle2))
        .expect("invariant: thread spawn only fails on OS resource exhaustion");
    handle.threads.lock().push(heartbeat);
    handle
}

/// The node's periodic work, off the task path: every
/// `scheduler.heartbeat_interval`, purge the queue of cancelled and expired
/// tasks, publish the load heartbeat and flush the trace ring.
fn heartbeat_loop(shared: Arc<RuntimeShared>, handle: Arc<NodeHandle>) {
    // Metrics emitted from this thread (long-hold counters) land in this
    // cluster's registry, not a sibling's (the sink is thread-scoped).
    ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
    let clock = shared.trace.clock().clone();
    let node = handle.node;
    loop {
        let deadline = clock.now() + shared.config.scheduler.heartbeat_interval;
        let mut q = handle.queue.lock();
        while handle.is_alive() && clock.now() < deadline {
            handle.tick.wait_until(&mut q, deadline);
        }
        if !handle.is_alive() {
            break;
        }
        // Drop queued tasks whose cancel token fired or whose deadline
        // passed before they ever reached a worker. Taking them out under
        // the queue lock is what keeps a worker from running them; the
        // teardown itself (which marks their outputs cancelled and wakes
        // consumers) writes to the GCS, so it waits until the lock is gone.
        let mut torn_down = Vec::new();
        for _ in 0..q.ready.len() {
            let Some((spec, enqueued)) = q.ready.pop_front() else { break };
            match shared.teardown_cause(&spec) {
                Some(cause) => torn_down.push((spec, cause)),
                None => q.ready.push_back((spec, enqueued)),
            }
        }
        if !torn_down.is_empty() {
            handle.wake_if_queued(&q);
        }
        let queue_len = q.ready.len();
        drop(q);
        for (spec, cause) in torn_down {
            shared.teardown(node, &spec, cause);
        }
        // Heartbeats ride the fabric (paper §4.2.2: the monitor learns
        // liveness from heartbeats, not from the node's goodwill). A
        // dead node, a chaos-dropped message, or a partition that cuts
        // this node off from the majority of its peers suppresses the
        // publish — which is exactly the silence the failure detector
        // converts into a death declaration.
        if shared.fabric.deliver_heartbeat(node).is_ok() {
            shared.load.heartbeat(NodeLoad {
                node,
                queue_len,
                available: handle.ledger.available(),
                capacity: handle.ledger.capacity().clone(),
                alive: handle.is_alive(),
            });
        }
        // The node flushes its own trace ring alongside the heartbeat
        // (per-node event batches ride the same cadence as the load
        // publish; the GCS event log is the durable sink).
        flush_trace_ring(&shared, node);
    }
    // Final ring flush so an orderly shutdown loses no buffered events
    // (abrupt deaths leave theirs for `Cluster::flush_traces`).
    flush_trace_ring(&shared, node);
}

/// Drains this node's trace ring into the GCS event log as one batch.
/// If the GCS is unreachable (e.g. a shard mid-recovery), the drained
/// events go back to the front of the ring and ride the next heartbeat's
/// flush instead of being dropped — a control-plane outage must not punch
/// holes in the trace.
fn flush_trace_ring(shared: &Arc<RuntimeShared>, node: NodeId) {
    if !shared.trace.is_enabled() {
        return;
    }
    let _in_flight = shared.trace_flush.read();
    let events = shared.trace.drain_node(node);
    if events.is_empty() {
        return;
    }
    // Encode failures are deterministic (requeueing would retry forever,
    // so those batches are dropped); GCS write failures are transient —
    // requeue so the next flush tick retries.
    if let Ok(payload) = ray_codec::encode(&events) {
        if shared.gcs_client.log_trace_batch(bytes::Bytes::from(payload)).is_err() {
            shared.trace.requeue_node(node, events);
        }
    }
}
