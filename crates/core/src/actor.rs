//! Actors: stateful workers, stateful-edge sequencing, checkpointed
//! recovery.
//!
//! "An actor is a stateful process that executes, when invoked, only the
//! methods it exposes ... actors execute methods serially, except that
//! each method depends on the state resulting from the previous method
//! execution" (paper §4.1). Here:
//!
//! - The [`ActorRouter`] is the client-visible face: it queues method
//!   calls while an actor is being created or recovered and delivers them
//!   in order once a host is live.
//! - The actor *host* is a dedicated thread owning the user's
//!   [`ActorInstance`](crate::registry::ActorInstance). It assigns the
//!   stateful-edge sequence numbers, logs each method into the GCS method
//!   log (the lineage chain of Fig. 4), stores results, and checkpoints
//!   every N methods when configured.
//! - [`rebuild_actor`] implements Fig. 11b recovery: respawn from the
//!   constructor, restore the latest checkpoint, replay the logged chain
//!   from the checkpoint's sequence number, re-storing any outputs that
//!   were lost along the way.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use ray_common::sync::{classes, OrderedMutex};

use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::util::{retry, Backoff};
use ray_common::{ActorId, NodeId, ObjectId, RayError, RayResult};
use ray_gcs::tables::{ActorRecord, ActorState, CheckpointRecord};
use ray_scheduler::TaskDescriptor;

use crate::context::RayContext;
use crate::registry::ActorInstance;
use crate::runtime::RuntimeShared;
use crate::task::{TaskKind, TaskSpec};
use crate::worker::{self, Mode};

/// Messages to an actor host thread.
pub(crate) enum ActorMsg {
    /// Invoke one method (an `ActorMethod` task spec).
    Invoke(TaskSpec),
    /// Stop the host (node death or shutdown).
    Stop,
}

enum ActorEntry {
    /// Handle exists; creation task has not executed yet. Calls queue.
    Pending { queued: VecDeque<TaskSpec> },
    /// Host is live on `node`.
    Alive { tx: Sender<ActorMsg>, node: NodeId, join: JoinHandle<()> },
    /// Host lost; rebuild in progress. Calls queue.
    Recovering { queued: VecDeque<TaskSpec> },
    /// Permanently gone.
    Dead,
}

#[derive(Default)]
struct RouterState {
    entries: HashMap<ActorId, ActorEntry>,
    /// Hosts told to stop by a recovery, and the recovery threads
    /// themselves, not yet joined.
    retired: Vec<JoinHandle<()>>,
    /// Set by [`ActorRouter::stop_all`]: no host may go live any more.
    stopped: bool,
}

/// Client-side routing state for every actor in the cluster.
pub(crate) struct ActorRouter {
    inner: OrderedMutex<RouterState>,
}

impl Default for ActorRouter {
    fn default() -> Self {
        ActorRouter {
            inner: OrderedMutex::new(&classes::ACTOR_ROUTER, RouterState::default()),
        }
    }
}

impl ActorRouter {
    pub fn new() -> ActorRouter {
        ActorRouter::default()
    }

    /// Registers a just-created handle (before the creation task runs).
    pub fn register_pending(&self, actor: ActorId) {
        self.inner
            .lock()
            .entries
            .entry(actor)
            .or_insert(ActorEntry::Pending { queued: VecDeque::new() });
    }

    /// Routes a method invocation: delivered in order if the actor is
    /// alive, queued while pending/recovering.
    pub fn invoke(&self, actor: ActorId, spec: TaskSpec) -> RayResult<()> {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(&actor) {
            None => Err(RayError::ActorDied(actor)),
            Some(ActorEntry::Dead) => Err(RayError::ActorDied(actor)),
            Some(ActorEntry::Pending { queued }) | Some(ActorEntry::Recovering { queued }) => {
                queued.push_back(spec);
                Ok(())
            }
            Some(ActorEntry::Alive { tx, .. }) => {
                if tx.send(ActorMsg::Invoke(spec)).is_err() {
                    // Host thread is gone but nobody marked it: treat as
                    // recovering; the caller's get() will poke recovery.
                    Err(RayError::ActorDied(actor))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Marks the actor alive on `node`, flushing queued calls to the new
    /// host in submission order. Once the router has stopped, the host is
    /// handed back instead, for the caller to stop and join.
    fn activate(
        &self,
        actor: ActorId,
        tx: Sender<ActorMsg>,
        node: NodeId,
        join: JoinHandle<()>,
    ) -> Result<(), (Sender<ActorMsg>, JoinHandle<()>)> {
        let mut inner = self.inner.lock();
        if inner.stopped {
            return Err((tx, join));
        }
        if let Some(ActorEntry::Pending { queued } | ActorEntry::Recovering { queued }) =
            inner.entries.remove(&actor)
        {
            for spec in queued {
                let _ = tx.send(ActorMsg::Invoke(spec));
            }
        }
        inner.entries.insert(actor, ActorEntry::Alive { tx, node, join });
        Ok(())
    }

    /// Transitions an alive actor to recovering (returns `true` if this
    /// call performed the transition — the caller then owns the rebuild).
    /// The old host is told to stop; `stop_all` joins it.
    pub fn begin_recovery(&self, actor: ActorId) -> bool {
        let mut inner = self.inner.lock();
        let Some(entry @ ActorEntry::Alive { .. }) = inner.entries.get_mut(&actor) else {
            return false;
        };
        let old = std::mem::replace(entry, ActorEntry::Recovering { queued: VecDeque::new() });
        if let ActorEntry::Alive { tx, join, .. } = old {
            let _ = tx.send(ActorMsg::Stop);
            inner.retired.push(join);
        }
        true
    }

    /// Hands over a thread that ends on its own (a stopped host, a
    /// recovery) for `stop_all` to join; after `stop_all` it comes back.
    fn retire(&self, join: JoinHandle<()>) -> Option<JoinHandle<()>> {
        let mut inner = self.inner.lock();
        if inner.stopped {
            return Some(join);
        }
        inner.retired.retain(|j| !j.is_finished());
        inner.retired.push(join);
        None
    }

    /// Cluster shutdown: tells every live host to stop, marks every actor
    /// dead so nothing routes or rebuilds any more, and returns the host
    /// threads for the caller to join (outside the router lock, and once
    /// whatever a method may be blocked on has been shut down too).
    pub fn stop_all(&self) -> Vec<JoinHandle<()>> {
        let mut inner = self.inner.lock();
        inner.stopped = true;
        let mut hosts = std::mem::take(&mut inner.retired);
        for entry in inner.entries.values_mut() {
            if let ActorEntry::Alive { tx, join, .. } = std::mem::replace(entry, ActorEntry::Dead) {
                let _ = tx.send(ActorMsg::Stop);
                hosts.push(join);
            }
        }
        hosts
    }

    /// Marks an actor permanently dead.
    pub fn mark_dead(&self, actor: ActorId) {
        self.inner.lock().entries.insert(actor, ActorEntry::Dead);
    }

    /// The node hosting an actor, if alive.
    pub fn node_of(&self, actor: ActorId) -> Option<NodeId> {
        match self.inner.lock().entries.get(&actor) {
            Some(ActorEntry::Alive { node, .. }) => Some(*node),
            _ => None,
        }
    }

    /// Actors currently hosted on `node` (for node-death handling).
    pub fn actors_on(&self, node: NodeId) -> Vec<ActorId> {
        self.inner
            .lock()
            .entries
            .iter()
            .filter_map(|(id, e)| match e {
                ActorEntry::Alive { node: n, .. } if *n == node => Some(*id),
                _ => None,
            })
            .collect()
    }
}

/// Host-side state for one live actor.
struct ActorHost {
    shared: Arc<RuntimeShared>,
    actor: ActorId,
    node: NodeId,
    instance: Box<dyn ActorInstance>,
    /// Next stateful-edge sequence number.
    seq: u64,
    /// A checkpoint write failed (GCS shard down); retry on the next
    /// stateful method instead of waiting out another full interval.
    pending_checkpoint: bool,
}

impl ActorHost {
    fn run(mut self, rx: Receiver<ActorMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                ActorMsg::Invoke(spec) => {
                    if self.shared.node(self.node).is_none() {
                        // Node died under us (abrupt crash): kick recovery
                        // and hand the method back to the router so the
                        // rebuilt incarnation runs it, instead of letting
                        // the caller's future dangle forever.
                        let _ = rebuild_actor(&self.shared, self.actor);
                        let _ = self.shared.actors.invoke(self.actor, spec);
                        break;
                    }
                    self.execute(&spec, /* replay: */ false);
                }
                ActorMsg::Stop => break,
            }
        }
        // Re-route anything still in this host's channel. Sends while the
        // router said Alive strictly precede the recovery Stop, so every
        // remaining Invoke belongs to the next incarnation's queue.
        while let Ok(ActorMsg::Invoke(spec)) = rx.try_recv() {
            let _ = self.shared.actors.invoke(self.actor, spec);
        }
    }

    /// Executes one method through the shared execute path. What is
    /// specific to actors stays here: the stateful-edge log append (a
    /// replay finds the entry already there), the sequence number, and the
    /// checkpoint cadence. Read-only methods have no stateful edge: not
    /// logged, not sequenced, never replayed.
    fn execute(&mut self, spec: &TaskSpec, replay: bool) {
        let (shared, actor, node, seq) = (&self.shared, self.actor, self.node, self.seq);
        let instance = &mut self.instance;
        let read_only = matches!(spec.kind, TaskKind::ActorMethod { read_only: true, .. });
        let mode = if replay { Mode::Replay } else { Mode::Method };
        // The log append runs only once the pre-run teardown check has
        // passed: a torn-down method never enters the stateful-edge log,
        // so it is never replayed on recovery and can leave no duplicate
        // side effects. This is what makes hedged-request losers safe to
        // cancel.
        let log = || match (read_only, replay) {
            (true, _) => {}
            (false, false) => {
                let _ = shared.gcs_client.log_actor_method(actor, seq, spec.task);
            }
            (false, true) => {
                shared.metrics.counter(names::METHODS_REPLAYED).inc();
                shared.trace.emit(
                    node,
                    TraceEventKind::MethodReplayed,
                    TraceEntity::Actor(actor),
                    format_args!("seq={seq}"),
                );
            }
        };
        let ran = worker::execute(shared, node, None, spec, mode, log, |ctx, args| {
            match &spec.kind {
                TaskKind::ActorMethod { method, .. } => instance.call(ctx, method, args),
                _ => Err("non-method spec delivered to actor host".into()),
            }
        });
        if !ran {
            return;
        }
        if !replay {
            // Completed: forget the cancel token (mirrors teardown's
            // cleanup) so long-lived serving pools don't accumulate one
            // registry entry per request.
            self.shared.cancels.remove(spec.task);
        }
        if read_only {
            return;
        }
        self.seq += 1;

        // The method log is the only record of progress: the actor record
        // is written at creation and at rebuild, never here.
        if !replay {
            if let Some(every) = self.shared.config.fault.actor_checkpoint_interval {
                if (every > 0 && self.seq.is_multiple_of(every)) || self.pending_checkpoint {
                    self.take_checkpoint();
                }
            }
        }
    }

    fn take_checkpoint(&mut self) {
        if let Some(data) = self.instance.checkpoint() {
            let rec = CheckpointRecord { seq: self.seq, data: ray_codec::Blob(data) };
            if self.shared.gcs_client.put_checkpoint(self.actor, &rec).is_ok() {
                self.pending_checkpoint = false;
                self.shared.metrics.counter(names::CHECKPOINTS_TAKEN).inc();
                self.shared.trace.emit(
                    self.node,
                    TraceEventKind::CheckpointTaken,
                    TraceEntity::Actor(self.actor),
                    format_args!("seq={}", self.seq),
                );
            } else {
                // The write failed (shard down / unreachable). Losing the
                // checkpoint silently would stretch replay to the previous
                // interval boundary; retry on the next stateful method.
                self.pending_checkpoint = true;
                self.shared.metrics.counter(names::ACTOR_CHECKPOINT_FAILED).inc();
            }
        }
    }
}

/// Stores a replayed method's outputs, filling holes only: an output that
/// still has a replica on a live node is left as it is.
pub(crate) fn store_missing_results(
    shared: &RuntimeShared,
    node: NodeId,
    spec: &TaskSpec,
    outputs: Vec<Bytes>,
) -> RayResult<()> {
    let handle = shared.node(node).ok_or(RayError::NodeDead(node))?;
    for (i, data) in outputs.into_iter().enumerate() {
        let id = ObjectId::for_task_return(spec.task, i as u64);
        let locs = shared.gcs_client.get_object_locations(id)?;
        let any_live = locs.iter().any(|l| shared.fabric.is_alive(l.node));
        if any_live {
            continue;
        }
        let size = data.len() as u64;
        match handle.store.put_nocopy(id, data) {
            Ok(_) | Err(RayError::DuplicateObject(_)) => {}
            Err(e) => return Err(e),
        }
        shared.gcs_client.add_object_location(id, node, size)?;
    }
    Ok(())
}

/// Creates a live actor on `node` from its creation task. Called by the
/// worker executing the `ActorCreation` spec (Fig. 4's `A₁₀` node).
pub(crate) fn spawn_actor_here(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    actor: ActorId,
    creation_spec: &TaskSpec,
    ctx: &RayContext,
    args: &[Bytes],
) -> RayResult<()> {
    // Persist the *resolved* constructor payloads: recovery must not
    // depend on argument objects that may later be lost.
    let arg_payloads: Vec<ray_codec::Blob> =
        args.iter().map(|b| ray_codec::Blob(b.to_vec())).collect();
    let ctor = shared.registry.actor_ctor(creation_spec.function)?;
    let instance = ctor(ctx, args)
        .map_err(|m| RayError::TaskFailed { task: creation_spec.task, message: m })?;

    let record = ActorRecord {
        actor,
        node,
        constructor: creation_spec.function,
        creation_task: creation_spec.task,
        init_args: ray_codec::Blob(ray_codec::encode(&arg_payloads).map_err(RayError::from)?),
        state: ActorState::Alive,
    };
    shared.gcs_client.put_actor(&record)?;

    start_host(shared, node, actor, instance, 0);
    Ok(())
}

fn start_host(
    shared: &Arc<RuntimeShared>,
    node: NodeId,
    actor: ActorId,
    instance: Box<dyn ActorInstance>,
    seq: u64,
) {
    let (tx, rx) = unbounded();
    let host =
        ActorHost { shared: shared.clone(), actor, node, instance, seq, pending_checkpoint: false };
    let metrics = shared.metrics.clone();
    let join = std::thread::Builder::new()
        .name(format!("actor-{actor}"))
        .spawn(move || {
            ray_common::sync::install_long_hold_metrics(metrics);
            host.run(rx)
        })
        .expect("invariant: thread spawn only fails on OS resource exhaustion");
    if let Err((tx, join)) = shared.actors.activate(actor, tx, node, join) {
        // The cluster shut down while this host was being built.
        let _ = tx.send(ActorMsg::Stop);
        let _ = join.join();
    }
}

/// Bounds rebuild retries across a transient GCS outage: each beat past
/// the third waits at least 10ms (half the backoff cap), so this rides out
/// at least 5s of control-plane unavailability, well past a shard's
/// recovery-from-disk time.
const MAX_REBUILD_RETRIES: u32 = 500;

/// Errors a rebuild should wait out rather than give up on.
fn is_transient_rebuild_error(err: &RayError) -> bool {
    matches!(
        err,
        RayError::GcsUnavailable(_) | RayError::MessageDropped | RayError::Timeout
    )
}

/// Rebuilds an actor after its host (or its host's node) died: Fig. 11b.
/// Idempotent: concurrent callers coalesce on the router's state.
pub(crate) fn rebuild_actor(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<()> {
    if !shared.actors.begin_recovery(actor) {
        return Ok(()); // Someone else is rebuilding (or it is not alive-but-stale).
    }
    let owned = shared.clone();
    let recovery = std::thread::Builder::new()
        .name(format!("actor-recovery-{actor}"))
        .spawn(move || {
            let shared = owned;
            ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
            // A rebuild can race a control-plane outage (a GCS shard
            // crashing mid-recovery): those errors are transient — shards
            // heal from their persistent log — so wait them out instead of
            // declaring the actor dead. Restarting the rebuild from
            // scratch is safe: the record stays Recovering, the ctor and
            // replay re-derive the instance, and re-stored outputs are
            // deduplicated by the store.
            let backoff = Backoff::new(
                Duration::from_millis(5),
                Duration::from_millis(20),
                actor.0.digest(),
            );
            let transient = |e: &RayError, _| {
                is_transient_rebuild_error(e) && !shared.shutting_down.load(Ordering::SeqCst)
            };
            let rebuilt = retry(backoff, MAX_REBUILD_RETRIES, transient, || {
                rebuild_actor_blocking(&shared, actor)
            });
            if rebuilt.is_err() {
                // Unrecoverable (e.g. record lost): the actor is dead;
                // pending calls will surface ActorDied.
                shared.actors.mark_dead(actor);
            }
        })
        .expect("invariant: thread spawn only fails on OS resource exhaustion");
    if let Some(recovery) = shared.actors.retire(recovery) {
        // Shutdown won the race; the rebuild bails out on `shutting_down`.
        let _ = recovery.join();
    }
    Ok(())
}

/// Checks an actor's host is live; kicks recovery if its node died.
pub(crate) fn ensure_actor_alive(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<()> {
    match shared.actors.node_of(actor) {
        Some(node) if shared.fabric.is_alive(node) => Ok(()),
        Some(_) => rebuild_actor(shared, actor),
        None => Ok(()), // Pending/recovering/dead: nothing to kick here.
    }
}

fn rebuild_actor_blocking(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<()> {
    let record = shared
        .gcs_client
        .get_actor(actor)?
        .ok_or(RayError::ActorDied(actor))?;
    // Resource demand comes from the creation task's lineage entry.
    let demand = match shared.gcs_client.get_task(record.creation_task)? {
        Some(bytes) => TaskSpec::decode(&bytes)?.demand,
        None => ray_common::Resources::none(),
    };
    // Place the respawn like any creation: feasible node, least waiting.
    let desc = TaskDescriptor {
        task: record.creation_task,
        demand,
        inputs: Vec::new(),
        submitted_from: record.node,
    };
    let node = loop {
        // A cluster tearing down has no feasible node and never will:
        // bail instead of spinning on a detached recovery thread.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Err(RayError::Shutdown("cluster stopping".into()));
        }
        match shared.global.place(&desc)? {
            Some(n) => break n,
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };

    // Reconstruct the instance: ctor → checkpoint restore → replay.
    let ctor = shared.registry.actor_ctor(record.constructor)?;
    let arg_payloads: Vec<ray_codec::Blob> =
        ray_codec::decode(&record.init_args.0).map_err(RayError::from)?;
    let args: Vec<Bytes> = arg_payloads.into_iter().map(|b| Bytes::from(b.0)).collect();
    // Rebuild replays with no deadline: the original creation deadline has
    // long passed and must not expire the recovery itself.
    let ctx = RayContext::for_task(shared.clone(), node, record.creation_task, None, None);
    let mut instance = ctor(&ctx, &args)
        .map_err(|m| RayError::TaskFailed { task: record.creation_task, message: m })?;

    let mut start_seq = 0u64;
    if let Some(ck) = shared.gcs_client.get_checkpoint(actor)? {
        if instance.restore(&ck.data.0).is_ok() {
            start_seq = ck.seq;
            shared.trace.emit(
                node,
                TraceEventKind::CheckpointRestored,
                TraceEntity::Actor(actor),
                format_args!("seq={}", ck.seq),
            );
        }
    }

    // Replay the stateful-edge chain from the checkpoint (Fig. 11b: "only
    // 500 methods to be re-executed, versus 10k without checkpointing").
    // The method log alone bounds replay: every logged method is applied
    // exactly once, with its outputs re-stored if they were lost.
    let mut host = ActorHost {
        shared: shared.clone(),
        actor,
        node,
        instance,
        seq: start_seq,
        pending_checkpoint: false,
    };
    let mut seq = start_seq;
    // Stops at the end of the log (or a hole from a crash mid-log).
    while let Some(task) = shared.gcs_client.get_actor_method(actor, seq)? {
        let spec_bytes = match shared.gcs_client.get_task(task)? {
            Some(b) => b,
            None => break,
        };
        let spec = TaskSpec::decode(&spec_bytes)?;
        host.execute(&spec, /* replay: */ true);
        seq += 1;
    }

    // Publish the new placement and go live.
    let mut record = record;
    record.node = node;
    record.state = ActorState::Alive;
    shared.gcs_client.put_actor(&record)?;
    shared.trace.emit(
        node,
        TraceEventKind::ActorRebuilt,
        TraceEntity::Actor(actor),
        format_args!("replayed={}", seq - start_seq),
    );
    let ActorHost { instance, seq, .. } = host;
    start_host(shared, node, actor, instance, seq);
    Ok(())
}

/// Node-death hook: kick recovery for every actor hosted on `node`.
pub(crate) fn recover_actors_on(shared: &Arc<RuntimeShared>, node: NodeId) {
    for actor in shared.actors.actors_on(node) {
        let _ = rebuild_actor(shared, actor);
    }
}
