//! The Ray API of paper Table 1, bound to a driver or executing task.
//!
//! | Paper | Here |
//! |---|---|
//! | `futures = f.remote(args)` | [`RayContext::submit`] / [`RayContext::call`] |
//! | `objects = ray.get(futures)` | [`RayContext::get`] / [`RayContext::get_all`] |
//! | `ready = ray.wait(futures, k, timeout)` | [`RayContext::wait`] |
//! | `actor = Class.remote(args)` | [`RayContext::create_actor`] |
//! | `futures = actor.method.remote(args)` | [`RayContext::call_actor`] |
//!
//! Every context belongs to a node (the driver's, or the node executing
//! the current task) and carries the current task's ID so nested
//! submissions derive deterministic child task IDs — the property replay
//! depends on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use ray_common::id::MAX_TASK_RETURNS;
use ray_common::{ActorId, FunctionId, NodeId, ObjectId, RayError, RayResult, TaskId};

use crate::lineage::{ensure_object_at_deadline, Waiter, DEFAULT_GET_DEADLINE};
use crate::node::{Blocked, NodeHandle};
use crate::runtime::{check_error_object, RuntimeShared};
use crate::task::{Arg, ObjectRef, TaskKind, TaskOptions, TaskSpec};

/// The two halves of a [`RayContext::wait_refs`] result: the refs that
/// became ready in time, and the ones still pending.
pub type ReadyPending<T> = (Vec<ObjectRef<T>>, Vec<ObjectRef<T>>);

/// A handle to a remote actor. Cloneable; clones address the same actor.
#[derive(Debug, Clone)]
pub struct ActorHandle {
    actor: ActorId,
    creation: ObjectId,
}

impl ActorHandle {
    /// The actor's ID.
    pub fn id(&self) -> ActorId {
        self.actor
    }

    /// Rebuilds a handle from its parts. Handles are passed between tasks
    /// and actors as `(actor_id, creation_object)` pairs (paper §3.1: "a
    /// handle to an actor can be passed to other actors or tasks").
    pub fn from_parts(actor: ActorId, creation: ObjectId) -> ActorHandle {
        ActorHandle { actor, creation }
    }

    /// A future resolving once the actor finished construction.
    pub fn ready(&self) -> ObjectRef<ActorId> {
        ObjectRef::from_id(self.creation)
    }
}

/// API entry point for a driver or an executing task (paper Table 1).
pub struct RayContext {
    shared: Arc<RuntimeShared>,
    node: NodeId,
    task: TaskId,
    /// The enclosing task's absolute deadline (trace-clock micros), if
    /// any. Children inherit it: a child's effective deadline is the
    /// minimum of the parent's and its own `opts.timeout`.
    deadline_micros: Option<u64>,
    child_counter: AtomicU64,
    put_counter: AtomicU64,
    /// The node whose worker runs this task; `None` for drivers and actor
    /// hosts, which occupy no pool slot.
    worker: Option<Arc<NodeHandle>>,
}

impl RayContext {
    pub(crate) fn for_task(
        shared: Arc<RuntimeShared>,
        node: NodeId,
        task: TaskId,
        deadline_micros: Option<u64>,
        worker: Option<Arc<NodeHandle>>,
    ) -> RayContext {
        RayContext {
            shared,
            node,
            task,
            deadline_micros,
            child_counter: AtomicU64::new(0),
            put_counter: AtomicU64::new(0),
            worker,
        }
    }

    pub(crate) fn for_driver(shared: Arc<RuntimeShared>, node: NodeId) -> RayContext {
        let n = shared.driver_counter.fetch_add(1, Ordering::Relaxed);
        let task = TaskId::for_child(TaskId::NIL, n);
        RayContext::for_task(shared, node, task, None, None)
    }

    /// The node this context runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current task's ID (a synthetic root for drivers).
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    fn next_child(&self) -> TaskId {
        TaskId::for_child(self.task, self.child_counter.fetch_add(1, Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // put / get / wait.
    // ------------------------------------------------------------------

    /// Stores a value in the local object store and returns a future for
    /// it. `put` objects carry no lineage: if every replica is lost they
    /// cannot be reconstructed (paper §4.2.3 reconstructs task outputs).
    pub fn put<T: Serialize>(&self, value: &T) -> RayResult<ObjectRef<T>> {
        let bytes = ray_codec::encode_bytes(value).map_err(RayError::from)?;
        Ok(ObjectRef::from_id(self.put_raw(bytes)?))
    }

    /// Stores raw payload bytes, returning the new object's ID. The store
    /// seals `data` itself, without a copy: a `get` on this node returns
    /// the caller's buffer.
    pub fn put_raw(&self, data: Bytes) -> RayResult<ObjectId> {
        let id = ObjectId::for_put(self.task, self.put_counter.fetch_add(1, Ordering::Relaxed));
        let handle = self.shared.node(self.node).ok_or(RayError::NodeDead(self.node))?;
        let size = data.len() as u64;
        handle.store.put(id, data)?.unlist_dropped(&self.shared.gcs_client, self.node);
        self.shared.gcs_client.add_object_location(id, self.node, size)?;
        Ok(id)
    }

    /// Blocking `ray.get`: returns the value of a future, replicating it
    /// locally (and reconstructing it via lineage) as needed.
    pub fn get<T: DeserializeOwned>(&self, r: &ObjectRef<T>) -> RayResult<T> {
        self.get_with_timeout(r, DEFAULT_GET_DEADLINE)
    }

    /// `get` with an explicit deadline.
    pub fn get_with_timeout<T: DeserializeOwned>(
        &self,
        r: &ObjectRef<T>,
        timeout: Duration,
    ) -> RayResult<T> {
        let data = self.get_raw(r.id(), timeout)?;
        ray_codec::decode(&data).map_err(RayError::from)
    }

    /// `get` returning the raw payload.
    pub fn get_raw(&self, id: ObjectId, timeout: Duration) -> RayResult<Bytes> {
        let _blocked = self.block();
        let waiter = Waiter { task: self.task, deadline_micros: self.deadline_micros };
        let data = ensure_object_at_deadline(&self.shared, id, self.node, timeout, Some(waiter))?;
        if let Some(err) = check_error_object(&data) {
            return Err(err);
        }
        Ok(data)
    }

    /// Convenience: `get` every future in order.
    pub fn get_all<T: DeserializeOwned>(&self, refs: &[ObjectRef<T>]) -> RayResult<Vec<T>> {
        refs.iter().map(|r| self.get(r)).collect()
    }

    /// Explicitly frees objects the application has finished with: every
    /// replica is dropped from its store (memory and spill) and the GCS
    /// location entries are removed. Lineage is kept, so a freed task
    /// output can still be reconstructed if someone asks for it again.
    ///
    /// This is Ray's `ray.internal.free`: long-lived applications that
    /// create large intermediates (e.g. allreduce chunks) use it to bound
    /// store growth instead of waiting for LRU pressure.
    pub fn free(&self, ids: &[ObjectId]) -> RayResult<()> {
        for &id in ids {
            for loc in self.shared.gcs_client.clear_object_locations(id)? {
                if let Some(store) = self.shared.directory.get(loc.node) {
                    store.delete(id);
                }
            }
        }
        Ok(())
    }

    /// `ray.wait`: blocks until `num_ready` of the given objects are
    /// available anywhere in the cluster, or the timeout expires. Returns
    /// `(ready, pending)` in first-ready order (paper §3.1: added to
    /// "accommodate rollouts with heterogeneous durations").
    ///
    /// Event-driven: registers callbacks with the GCS object table
    /// (Fig. 7b step 2) rather than polling, so waiting on many futures
    /// costs nothing until they complete.
    pub fn wait(
        &self,
        ids: &[ObjectId],
        num_ready: usize,
        timeout: Duration,
    ) -> RayResult<(Vec<ObjectId>, Vec<ObjectId>)> {
        use ray_gcs::kv::Entry;

        let _blocked = self.block();
        let clock = self.shared.trace.clock();
        let deadline = clock.now() + timeout;
        // Duplicate ids collapse; cap the goal at the unique count.
        let mut pending = std::collections::HashSet::with_capacity(ids.len());
        let unique: Vec<ObjectId> = ids.iter().copied().filter(|id| pending.insert(*id)).collect();
        let want = num_ready.min(unique.len());
        let mut ready: Vec<ObjectId> = Vec::with_capacity(want);

        // One subscription multiplexes every object's notifications onto
        // one channel, for one GCS update per shard; the subscribe op itself
        // delivers a snapshot for entries that already exist, so there is
        // no check-then-subscribe race. Dropped (unsubscribed) on return.
        let sub = self.shared.gcs_client.subscribe_objects(&unique)?;

        while ready.len() < want {
            let remaining = deadline.saturating_duration_since(clock.now());
            if remaining.is_zero() {
                break;
            }
            let Ok(notification) = sub.receiver().recv_timeout(remaining) else { break };
            let created = matches!(&notification.entry, Some(Entry::Set(s)) if !s.is_empty());
            if !created {
                continue;
            }
            let Ok(raw) = <[u8; 16]>::try_from(notification.key.id.as_slice()) else {
                continue;
            };
            let id = ObjectId::from_bytes(raw);
            if pending.remove(&id) {
                ready.push(id);
            }
        }

        // Preserve the caller's order among still-pending ids.
        let pending_ordered: Vec<ObjectId> =
            ids.iter().copied().filter(|id| pending.contains(id)).collect();
        Ok((ready, pending_ordered))
    }

    /// Typed wrapper over [`Self::wait`]: the ready and still-pending
    /// halves of the request, as [`ObjectRef`]s.
    pub fn wait_refs<T>(
        &self,
        refs: &[ObjectRef<T>],
        num_ready: usize,
        timeout: Duration,
    ) -> RayResult<ReadyPending<T>> {
        let ids: Vec<ObjectId> = refs.iter().map(|r| r.id()).collect();
        let (ready, pending) = self.wait(&ids, num_ready, timeout)?;
        Ok((
            ready.into_iter().map(ObjectRef::from_id).collect(),
            pending.into_iter().map(ObjectRef::from_id).collect(),
        ))
    }

    // ------------------------------------------------------------------
    // Remote functions.
    // ------------------------------------------------------------------

    /// `f.remote(args)`: submits a task for the registered function
    /// `name`, returning futures for its outputs. Non-blocking.
    pub fn submit(&self, name: &str, args: Vec<Arg>, opts: TaskOptions) -> RayResult<Vec<ObjectId>> {
        let deadline_micros = self.child_deadline(&opts);
        let spec = TaskSpec {
            task: self.next_child(),
            kind: TaskKind::Normal,
            function: FunctionId::for_name(name),
            function_name: name.to_string(),
            args,
            num_returns: opts.num_returns.unwrap_or(1),
            demand: opts.demand,
            deadline_micros,
            critical: false,
        };
        self.submit_spec(spec)
    }

    /// Where every spec this context builds enters the runtime: bounds the
    /// return count (a return's index lives in its ID's 16-bit slot) before
    /// any ID is computed or allocated for, then submits and names the
    /// outputs.
    fn submit_spec(&self, spec: TaskSpec) -> RayResult<Vec<ObjectId>> {
        if spec.num_returns > MAX_TASK_RETURNS {
            return Err(RayError::Invalid(format!(
                "{} asks for {} returns; a task may declare at most {MAX_TASK_RETURNS}",
                spec.function_name, spec.num_returns
            )));
        }
        let returns = spec.return_ids();
        self.shared.submit(self.node, self.task, spec)?;
        Ok(returns)
    }

    /// The effective absolute deadline for a child task: the tighter of
    /// the enclosing task's inherited deadline and `opts.timeout` counted
    /// from now. `None` means unbounded.
    fn child_deadline(&self, opts: &TaskOptions) -> Option<u64> {
        match opts.timeout {
            Some(t) => {
                let own = self
                    .shared
                    .trace
                    .clock()
                    .now_micros()
                    .saturating_add(t.as_micros().min(u128::from(u64::MAX)) as u64);
                Some(self.deadline_micros.map_or(own, |parent| parent.min(own)))
            }
            None => self.deadline_micros,
        }
    }

    /// `ray.cancel(future)`: requests cancellation of the task that
    /// produces `id`, fanning out to every descendant submitted under it.
    /// Returns `true` if this call newly cancelled the task, `false` if it
    /// was already cancelled, already finished and forgotten, or `id` was
    /// a `put` object (nothing to cancel). The producer is read off the ID;
    /// the GCS is not consulted.
    pub fn cancel(&self, id: ObjectId) -> RayResult<bool> {
        Ok(id.producer().is_some_and(|task| self.shared.cancel_task(task)))
    }

    /// Typed wrapper over [`Self::cancel`].
    pub fn cancel_ref<T>(&self, r: &ObjectRef<T>) -> RayResult<bool> {
        self.cancel(r.id())
    }

    /// Whether the current task has been cancelled. Long-running task
    /// bodies poll this to cooperate with `ray.cancel`: blocking `get`s
    /// abort on their own, but compute loops only stop where they check.
    /// Always `false` for drivers.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancels.is_cancelled(self.task)
    }

    /// Typed single-return submission.
    pub fn call<R>(&self, name: &str, args: Vec<Arg>) -> RayResult<ObjectRef<R>> {
        self.call_opts(name, args, TaskOptions::default())
    }

    /// Typed single-return submission with options (resources etc.).
    pub fn call_opts<R>(
        &self,
        name: &str,
        args: Vec<Arg>,
        opts: TaskOptions,
    ) -> RayResult<ObjectRef<R>> {
        let mut opts = opts;
        opts.num_returns = Some(1);
        let ids = self.submit(name, args, opts)?;
        Ok(ObjectRef::from_id(ids[0]))
    }

    // ------------------------------------------------------------------
    // Actors.
    // ------------------------------------------------------------------

    /// `Class.remote(args)`: instantiates an actor (non-blocking) and
    /// returns a handle. The creation task is scheduled like any other,
    /// honoring `opts.demand` (e.g. `@ray.remote(num_gpus=1)` actors).
    pub fn create_actor(
        &self,
        class: &str,
        args: Vec<Arg>,
        opts: TaskOptions,
    ) -> RayResult<ActorHandle> {
        let task = self.next_child();
        // Actor identity derives from the creation task, like object and
        // child-task IDs: a replayed driver regenerates the same actor,
        // and same-seed runs produce identical trace entities (which is
        // what lets chaos suites compare recovery signatures).
        let actor = ActorId(task.0.derive("actor", 0));
        self.shared.actors.register_pending(actor);
        let deadline_micros = self.child_deadline(&opts);
        let spec = TaskSpec {
            task,
            kind: TaskKind::ActorCreation { actor },
            function: FunctionId::for_name(class),
            function_name: class.to_string(),
            args,
            num_returns: 1,
            demand: opts.demand,
            deadline_micros,
            critical: false,
        };
        let returns = self.submit_spec(spec)?;
        Ok(ActorHandle { actor, creation: returns[0] })
    }

    /// `actor.method.remote(args)`: invokes a method, returning a single
    /// typed future. Non-blocking; methods on one actor execute serially
    /// in submission order (stateful edges, §3.2).
    pub fn call_actor<R>(
        &self,
        handle: &ActorHandle,
        method: &str,
        args: Vec<Arg>,
    ) -> RayResult<ObjectRef<R>> {
        let ids = self.call_actor_multi(handle, method, args, 1)?;
        Ok(ObjectRef::from_id(ids[0]))
    }

    /// [`Self::call_actor`] with options. Only `opts.timeout` is honored
    /// (tightened against the caller's inherited deadline): actor methods
    /// run on their actor's host, so resource demand does not apply. This
    /// is how the serving layer gives each routed request its own
    /// propagated deadline.
    pub fn call_actor_opts<R>(
        &self,
        handle: &ActorHandle,
        method: &str,
        args: Vec<Arg>,
        opts: &TaskOptions,
    ) -> RayResult<ObjectRef<R>> {
        let deadline = self.child_deadline(opts);
        let ids = self.call_actor_spec(handle, method, args, 1, false, deadline)?;
        Ok(ObjectRef::from_id(ids[0]))
    }

    /// Invokes a method the caller declares read-only: it executes in the
    /// same serial order but adds no stateful edge — it is not logged and
    /// not replayed during reconstruction (the paper's §5.1 future-work
    /// annotation for reducing actor reconstruction time). The caller is
    /// responsible for the method really being state-free; its result is
    /// also not individually reconstructable.
    pub fn call_actor_readonly<R>(
        &self,
        handle: &ActorHandle,
        method: &str,
        args: Vec<Arg>,
    ) -> RayResult<ObjectRef<R>> {
        let ids = self.call_actor_spec(handle, method, args, 1, true, self.deadline_micros)?;
        Ok(ObjectRef::from_id(ids[0]))
    }

    /// Actor method invocation with multiple return objects.
    pub fn call_actor_multi(
        &self,
        handle: &ActorHandle,
        method: &str,
        args: Vec<Arg>,
        num_returns: u64,
    ) -> RayResult<Vec<ObjectId>> {
        self.call_actor_spec(handle, method, args, num_returns, false, self.deadline_micros)
    }

    /// Builds a method's spec and submits it. Without `opts`, a method
    /// inherits the caller's deadline; it executes serially on the actor
    /// host, which checks the deadline before running it.
    fn call_actor_spec(
        &self,
        handle: &ActorHandle,
        method: &str,
        args: Vec<Arg>,
        num_returns: u64,
        read_only: bool,
        deadline_micros: Option<u64>,
    ) -> RayResult<Vec<ObjectId>> {
        let spec = TaskSpec {
            task: self.next_child(),
            kind: TaskKind::ActorMethod {
                actor: handle.actor,
                method: method.to_string(),
                read_only,
            },
            function: FunctionId::for_name(method),
            function_name: method.to_string(),
            args,
            num_returns,
            demand: ray_common::Resources::none(),
            deadline_micros,
            critical: false,
        };
        self.submit_spec(spec)
    }

    /// Marks this task's worker blocked for the duration of a `get` or
    /// `wait` (see [`NodeHandle::block`]).
    fn block(&self) -> Option<Blocked<'_>> {
        self.worker.as_ref().map(|w| w.block(&self.shared))
    }
}
