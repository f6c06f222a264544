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
//! tasks, the load heartbeat) runs beside the task path on its
//! `heartbeat-N` thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ray_common::config::HEARTBEAT_INTERVAL;
use ray_common::sync::{classes, OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use ray_common::{NodeId, RayError, Resources};
use ray_object_store::store::LocalObjectStore;
use ray_scheduler::{NodeLoad, ResourceLedger};

use crate::cancel::InFlight;
use crate::global_loop;
use crate::runtime::RuntimeShared;
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

/// A task a node did not queue, handed back with the reason, so a caller
/// that retries it elsewhere keeps no copy of its own.
pub(crate) type Undelivered = Box<(TaskSpec, RayError)>;

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
    /// The records of the tasks queued or running here.
    in_flight: InFlight,
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
    /// spillover rule, the heartbeat and `inspect` read.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.lock().ready.len()
    }

    /// Runs `f` on the in-flight records of the tasks queued or running
    /// here, under the queue lock.
    pub(crate) fn with_records<R>(&self, f: impl FnOnce(&mut InFlight) -> R) -> R {
        f(&mut self.queue.lock().in_flight)
    }

    /// Queues a task for this node's workers, on the caller's thread —
    /// whether the task was submitted here or placed here by the global
    /// scheduler — and takes its in-flight record.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        shared: &Arc<RuntimeShared>,
        spec: TaskSpec,
    ) -> Result<(), Undelivered> {
        if !self.ledger.feasible(&spec.demand) {
            // Capacity can never satisfy this task here (stale placement
            // after a reconfiguration): bounce to the global scheduler's
            // retries rather than wedging the queue.
            return global_loop::retry_later(shared, spec, self.node, Duration::ZERO);
        }
        let mut q = self.queue.lock();
        if !self.is_alive() {
            return Err(Box::new((spec, RayError::NodeDead(self.node))));
        }
        q.in_flight.take(&spec);
        q.ready.push_back((spec, shared.trace.clock().now()));
        self.grow(shared, &mut q);
        self.unlock_and_wake(q);
        Ok(())
    }

    /// The pool rule: with a task waiting and nobody idle to take it, start
    /// a worker — up to `workers_per_node` freely, beyond that to keep that
    /// many runnable (non-blocked) workers while others sit in blocking
    /// `get`s, up to a cap, and past the cap whenever no worker is runnable
    /// at all: the queued task may be the producer every blocked worker
    /// waits for (a lineage resubmission queues behind its consumers).
    /// Past the cap the pool is at most one thread more than its blocked
    /// workers. Called at the two moments the rule can newly hold: a task
    /// was queued, or a worker blocked.
    fn grow(self: &Arc<Self>, shared: &Arc<RuntimeShared>, q: &mut RunQueue) {
        if q.ready.is_empty() || q.idle > 0 || !self.is_alive() {
            return;
        }
        let base = shared.config.workers_per_node;
        let runnable = q.workers.saturating_sub(q.blocked);
        if q.workers < base || (runnable < base && q.workers < base * 8 + 4) || runnable == 0 {
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
                self.unlock_and_wake(q);
                return task;
            }
            q.idle += 1;
            self.wake.wait(&mut q);
            q.idle -= 1;
        }
        None
    }

    /// Releases the queue lock, then wakes one idle worker if a task is
    /// still queued. The decision is made under the lock and loses no
    /// wake-up: a worker counts itself idle under the lock and is inside
    /// the condvar wait before the lock is free again. The signal goes out
    /// after the unlock because a worker woken while the lock is held, on
    /// a single CPU, preempts its waker only to block on that lock.
    fn unlock_and_wake(&self, q: OrderedMutexGuard<'_, RunQueue>) {
        let wake = q.idle > 0 && !q.ready.is_empty();
        drop(q);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Returns a finished task's resources; a queued task may fit now.
    pub(crate) fn release(&self, demand: &Resources) {
        self.ledger.release(demand);
        self.unlock_and_wake(self.queue.lock());
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
    /// The in-flight records stay with the handle, which no search for a
    /// live task visits again.
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
    // A (re)started slot is a fresh process: any actor still claiming this
    // slot is stale and must rebuild (the tasks a previous incarnation was
    // running went with its handle's records). This matters when a crashed
    // node restarts before the failure detector declared it dead.
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
/// [`HEARTBEAT_INTERVAL`], purge the queue of cancelled and expired
/// tasks and publish the load heartbeat.
fn heartbeat_loop(shared: Arc<RuntimeShared>, handle: Arc<NodeHandle>) {
    let clock = shared.trace.clock().clone();
    let node = handle.node;
    loop {
        let deadline = clock.now() + HEARTBEAT_INTERVAL;
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
        // consumers) writes to the GCS, so it waits until the lock is gone,
        // and their records go after it.
        let now = clock.now_micros();
        let mut torn_down = Vec::new();
        for _ in 0..q.ready.len() {
            let Some((spec, enqueued)) = q.ready.pop_front() else { break };
            match q.in_flight.cause(spec.task, now) {
                Some(cause) => torn_down.push((spec, cause)),
                None => q.ready.push_back((spec, enqueued)),
            }
        }
        let queue_len = q.ready.len();
        if torn_down.is_empty() {
            drop(q);
        } else {
            handle.unlock_and_wake(q);
        }
        for (spec, cause) in torn_down {
            shared.teardown(node, &spec, cause);
            handle.with_records(|records| records.free(spec.task));
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
    }
}
