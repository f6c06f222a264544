//! Actors: stateful workers, stateful-edge sequencing, checkpointed
//! recovery.
//!
//! "An actor is a stateful process that executes, when invoked, only the
//! methods it exposes ... actors execute methods serially, except that
//! each method depends on the state resulting from the previous method
//! execution" (paper §4.1). Here:
//!
//! - Every routed actor owns one [`Mailbox`]: the calls nobody has taken
//!   yet, in submission order, and who may take them. A call is pushed to
//!   the back whatever state the actor is in and leaves from the front,
//!   once, into the live incarnation; nothing ever puts one back, so what
//!   a dead incarnation did not take waits, in order, for the next. The
//!   [`ActorRouter`] only finds the mailbox.
//! - An *incarnation* is one thread owning the user's
//!   [`ActorInstance`](crate::registry::ActorInstance). It assigns the
//!   stateful-edge sequence numbers, logs each method into the GCS method
//!   log (the lineage chain of Fig. 4), stores results, and checkpoints
//!   every N methods when configured.
//! - [`rebuild_actor`] implements Fig. 11b recovery on the thread that
//!   then hosts the actor: respawn from the constructor, restore the
//!   latest checkpoint, replay the logged chain from the checkpoint's
//!   sequence number, re-storing any outputs that were lost along the
//!   way, then go live.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use ray_common::sync::{classes, OrderedCondvar, OrderedMutex};

use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::util::{retry, Backoff};
use ray_common::{ActorId, FunctionId, IdMap, NodeId, ObjectId, RayError, RayResult, TaskId};
use ray_gcs::tables::{ActorRecord, ActorState, CheckpointRecord};
use ray_scheduler::TaskDescriptor;

use crate::cancel::{CancelReason, Holder, InFlight, Token};
use crate::context::RayContext;
use crate::node::NodeHandle;
use crate::registry::ActorInstance;
use crate::runtime::{error_envelopes, RuntimeShared};
use crate::task::{TaskKind, TaskSpec};
use crate::worker::{self, Mode};

/// Who may take calls out of a [`Mailbox`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Host {
    /// Nobody yet: the creation task has not run, or a rebuild is under way.
    Vacant,
    /// The actor's `incarnation`-th host, on `node`.
    Live { node: NodeId, incarnation: u64 },
    /// Permanently gone.
    Dead,
}

struct MailboxState {
    /// Calls no incarnation has taken, in submission order.
    calls: VecDeque<TaskSpec>,
    /// The records of the calls pushed and not yet finished.
    in_flight: InFlight,
    host: Host,
    /// Incarnations that have gone live so far.
    incarnations: u64,
    /// Hosts parked in [`Mailbox::next_call`]: a push signals only when one
    /// is, so a call to a busy host costs no futex call.
    waiting: usize,
}

/// One actor's undelivered calls and its host state. It exists from
/// `register_pending` on and is never copied, flushed or re-routed.
pub(crate) struct Mailbox {
    state: OrderedMutex<MailboxState>,
    /// Wakes a waiting host: a call arrived, or the host state changed.
    wake: OrderedCondvar,
}

impl Mailbox {
    pub(crate) fn new() -> Mailbox {
        let state = MailboxState {
            calls: VecDeque::new(),
            in_flight: InFlight::default(),
            host: Host::Vacant,
            incarnations: 0,
            waiting: 0,
        };
        Mailbox {
            state: OrderedMutex::new(&classes::ACTOR_MAILBOX, state),
            wake: OrderedCondvar::new(),
        }
    }

    /// Runs `f` on the in-flight records of the calls pushed here.
    pub(crate) fn with_records<R>(&self, f: impl FnOnce(&mut InFlight) -> R) -> R {
        f(&mut self.state.lock().in_flight)
    }

    /// Appends a call and takes its in-flight record; only a dead actor
    /// refuses it (`false`).
    fn push(&self, spec: TaskSpec) -> bool {
        let mut st = self.state.lock();
        if st.host == Host::Dead {
            return false;
        }
        st.in_flight.take(&spec);
        st.calls.push_back(spec);
        let wake = st.waiting > 0;
        // Unlock first: a host woken while the lock is still held would
        // only block on it again.
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        true
    }

    /// Blocks host `me` until there is a call for it and takes the front
    /// one. `None` once `me` is no longer the live incarnation or its node
    /// died — decided under the same lock as the pop, so a host that lost
    /// its place takes nothing more.
    fn next_call(&self, me: Host, home: &NodeHandle) -> Option<TaskSpec> {
        let mut st = self.state.lock();
        while st.host == me && home.is_alive() {
            if let Some(spec) = st.calls.pop_front() {
                return Some(spec);
            }
            // Counted under the lock a push checks it under, so a push
            // either sees this host or queued its call before the look
            // above.
            st.waiting += 1;
            self.wake.wait(&mut st);
            st.waiting -= 1;
        }
        None
    }

    /// Replaces the host state, waking every host to re-check its place.
    fn set_host(&self, st: &mut MailboxState, host: Host) {
        st.host = host;
        self.wake.notify_all();
    }

    /// Makes the caller the live incarnation on `node`, superseding any
    /// other. `None` if the actor is dead.
    fn go_live(&self, node: NodeId) -> Option<Host> {
        let mut st = self.state.lock();
        if st.host == Host::Dead {
            return None;
        }
        st.incarnations += 1;
        let me = Host::Live { node, incarnation: st.incarnations };
        self.set_host(&mut st, me);
        Some(me)
    }

    /// Takes the place of a live host away (`true` if this call did it —
    /// the caller then owns the rebuild). Its calls stay where they are.
    /// With `only`, just that host's place: a host ending after its node
    /// died must not unseat the successor a rebuild has already made live.
    fn begin_recovery(&self, only: Option<Host>) -> bool {
        let mut st = self.state.lock();
        let live = matches!(st.host, Host::Live { .. }) && only.is_none_or(|h| h == st.host);
        if live {
            self.set_host(&mut st, Host::Vacant);
        }
        live
    }

    /// Marks the actor dead and hands back the calls nobody will run. Its
    /// records go with it: nothing is left to cancel.
    fn kill(&self) -> VecDeque<TaskSpec> {
        let mut st = self.state.lock();
        self.set_host(&mut st, Host::Dead);
        st.in_flight = InFlight::default();
        std::mem::take(&mut st.calls)
    }

    fn node(&self) -> Option<NodeId> {
        match self.state.lock().host {
            Host::Live { node, .. } => Some(node),
            Host::Vacant | Host::Dead => None,
        }
    }
}

#[derive(Default)]
struct RouterState {
    mailboxes: IdMap<ActorId, Arc<Mailbox>>,
    /// Incarnation threads not yet joined.
    incarnations: Vec<JoinHandle<()>>,
    /// Set by [`ActorRouter::stop_all`]: no incarnation may start any more.
    stopped: bool,
}

/// Finds every actor's mailbox, and keeps the threads that host them.
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
        self.inner.lock().mailboxes.entry(actor).or_insert_with(|| Arc::new(Mailbox::new()));
    }

    fn mailbox(&self, actor: ActorId) -> Option<Arc<Mailbox>> {
        self.inner.lock().mailboxes.get(&actor).cloned()
    }

    /// Routes a method invocation to the back of its actor's mailbox,
    /// whether the actor is pending, live or being rebuilt.
    pub fn invoke(&self, actor: ActorId, spec: TaskSpec) -> RayResult<()> {
        match self.mailbox(actor) {
            Some(mailbox) if mailbox.push(spec) => Ok(()),
            _ => Err(RayError::ActorDied(actor)),
        }
    }

    /// Transitions a live actor to recovering (returns `true` if this call
    /// performed the transition — the caller then owns the rebuild). The
    /// old host takes no further call and ends; `stop_all` joins it.
    pub fn begin_recovery(&self, actor: ActorId) -> bool {
        self.mailbox(actor).is_some_and(|m| m.begin_recovery(None))
    }

    /// Cluster shutdown: marks every actor dead so nothing routes, goes
    /// live or rebuilds any more, and returns the incarnation threads for
    /// the caller to join (outside the router lock, and once whatever a
    /// method may be blocked on has been shut down too).
    pub fn stop_all(&self) -> Vec<JoinHandle<()>> {
        let mut inner = self.inner.lock();
        inner.stopped = true;
        for mailbox in inner.mailboxes.values() {
            mailbox.kill();
        }
        std::mem::take(&mut inner.incarnations)
    }

    /// Cancels `task`'s records in the actors' mailboxes; `Some` of their
    /// children if this call flipped one.
    pub fn cancel(&self, task: TaskId, reason: CancelReason) -> Option<Vec<TaskId>> {
        let inner = self.inner.lock();
        inner.mailboxes.values().find_map(|m| m.with_records(|records| records.cancel(task, reason)))
    }

    /// Records of calls pushed and not yet finished, over every actor.
    pub fn in_flight(&self) -> usize {
        let inner = self.inner.lock();
        inner.mailboxes.values().map(|m| m.with_records(|records| records.len())).sum()
    }

    /// The node hosting an actor, if alive.
    pub fn node_of(&self, actor: ActorId) -> Option<NodeId> {
        self.mailbox(actor)?.node()
    }

    /// Actors currently hosted on `node` (for node-death handling).
    pub fn actors_on(&self, node: NodeId) -> Vec<ActorId> {
        let inner = self.inner.lock();
        inner.mailboxes.iter().filter(|(_, m)| m.node() == Some(node)).map(|(id, _)| *id).collect()
    }
}

/// Starts the thread of one incarnation of `actor` and keeps its handle
/// for `stop_all` to join. `false` once the router has stopped: nothing
/// was started.
fn spawn_incarnation(
    shared: &Arc<RuntimeShared>,
    actor: ActorId,
    run: impl FnOnce(&Arc<Mailbox>) + Send + 'static,
) -> bool {
    let mut router = shared.actors.inner.lock();
    let mailbox = match router.mailboxes.get(&actor) {
        Some(mailbox) if !router.stopped => mailbox.clone(),
        _ => return false,
    };
    let thread = std::thread::Builder::new()
        .name(format!("actor-{actor}"))
        .spawn(move || run(&mailbox))
        .expect("invariant: thread spawn only fails on OS resource exhaustion");
    router.incarnations.retain(|j| !j.is_finished());
    router.incarnations.push(thread);
    true
}

/// Marks an actor permanently dead and fails every call still in its
/// mailbox: each return gets a typed error envelope on a live node, so a
/// caller blocked in `get` wakes now instead of waiting out its deadline.
fn mark_dead(shared: &RuntimeShared, actor: ActorId, mailbox: &Mailbox) {
    let orphaned = mailbox.kill();
    let Some(node) = shared.any_live_node(NodeId(0)).map(|h| h.node) else {
        return;
    };
    let died = RayError::ActorDied(actor).to_string();
    for spec in orphaned {
        shared.trace.emit(node, TraceEventKind::Failed, TraceEntity::Task(spec.task), &died);
        let _ = shared.store_results(node, &spec, error_envelopes(&spec, &died));
    }
}

/// Runs an actor's constructor; a panic in it is a failure like an `Err`.
fn construct(
    shared: &RuntimeShared,
    function: FunctionId,
    task: TaskId,
    ctx: &RayContext,
    args: &[Bytes],
) -> RayResult<Box<dyn ActorInstance>> {
    let ctor = shared.registry.actor_ctor(function)?;
    std::panic::catch_unwind(AssertUnwindSafe(|| ctor(ctx, args)))
        .unwrap_or_else(|panic| Err(worker::panic_message(panic)))
        .map_err(|message| RayError::TaskFailed { task, message })
}

/// One incarnation of an actor: the instance and what its thread needs to
/// run methods on it.
struct ActorHost {
    shared: Arc<RuntimeShared>,
    actor: ActorId,
    /// The node this incarnation lives on; it dies with it.
    home: Arc<NodeHandle>,
    instance: Box<dyn ActorInstance>,
    /// Next stateful-edge sequence number.
    seq: u64,
    /// A checkpoint write failed (GCS shard down); retry on the next
    /// stateful method instead of waiting out another full interval.
    pending_checkpoint: bool,
}

impl ActorHost {
    /// Goes live (unless `me` already did) and runs calls from the
    /// mailbox, front first, for as long as this incarnation is the live
    /// one.
    fn run(mut self, mailbox: &Arc<Mailbox>, me: Option<Host>) {
        let Some(me) = me.or_else(|| mailbox.go_live(self.home.node)) else {
            return;
        };
        while let Some(mut spec) = mailbox.next_call(me, &self.home) {
            let token = Token::new(Holder::Actor(mailbox.clone()), spec.task);
            self.execute(&mut spec, Mode::Method(&token));
        }
        // A host that was superseded or stopped just ends. One whose node
        // died without anybody telling the router (abrupt crash) starts
        // its own successor, which finds the calls it left, in order.
        if !self.home.is_alive() && mailbox.begin_recovery(Some(me)) {
            spawn_rebuild(&self.shared, self.actor);
        }
    }

    /// Executes one method through the shared execute path. What is
    /// specific to actors stays here: the stateful-edge log append (a
    /// replay finds the entry already there), the sequence number, and the
    /// checkpoint cadence. Read-only methods have no stateful edge: not
    /// logged, not sequenced, never replayed. `mode` is `Method` or
    /// `Replay`.
    fn execute(&mut self, spec: &mut TaskSpec, mode: Mode) {
        let (shared, actor, node, seq, task) =
            (&self.shared, self.actor, self.home.node, self.seq, spec.task);
        let instance = &mut self.instance;
        let read_only = matches!(spec.kind, TaskKind::ActorMethod { read_only: true, .. });
        let replay = matches!(mode, Mode::Replay);
        // The log append runs only once the pre-run teardown check has
        // passed: a torn-down method never enters the stateful-edge log,
        // so it is never replayed on recovery and can leave no duplicate
        // side effects. This is what makes hedged-request losers safe to
        // cancel.
        let log = || match (read_only, replay) {
            (true, _) => {}
            (false, false) => {
                let _ = shared.gcs_client.log_actor_method(actor, seq, task);
            }
            (false, true) => {
                shared.trace.emit(
                    node,
                    TraceEventKind::MethodReplayed,
                    TraceEntity::Actor(actor),
                    format_args!("seq={seq}"),
                );
            }
        };
        let ran = worker::execute(shared, node, spec, mode, log, |ctx, spec, args| {
            match &spec.kind {
                TaskKind::ActorMethod { method, .. } => instance.call(ctx, method, args),
                _ => Err("non-method spec delivered to actor host".into()),
            }
        });
        if !ran || read_only {
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
                self.shared.trace.emit(
                    self.home.node,
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
/// still has a replica on a live node is left as it is. A replica is one a
/// live node's store holds, not a row that names the node: node death
/// leaves object rows behind, and a node restarted since has them listed
/// against an empty store.
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
        let any_live = locs.iter().any(|l| {
            shared.fabric.is_alive(l.node)
                && shared.directory.get(l.node).is_some_and(|store| store.contains(id))
        });
        if any_live {
            continue;
        }
        let size = data.len() as u64;
        match handle.store.put_listed(id, data, &shared.gcs_client) {
            Ok(()) => {}
            Err(RayError::DuplicateObject(_)) => {
                shared.gcs_client.add_object_location(id, node, size)?
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Creates a live actor on `home` from its creation task. Called by the
/// worker executing the `ActorCreation` spec (Fig. 4's `A₁₀` node).
pub(crate) fn spawn_actor_here(
    shared: &Arc<RuntimeShared>,
    home: &Arc<NodeHandle>,
    actor: ActorId,
    creation_spec: &TaskSpec,
    ctx: &RayContext,
    args: &[Bytes],
) -> RayResult<()> {
    // Persist the *resolved* constructor payloads: recovery must not
    // depend on argument objects that may later be lost.
    let arg_payloads: Vec<ray_codec::Blob> =
        args.iter().map(|b| ray_codec::Blob(b.to_vec())).collect();
    let instance = match construct(shared, creation_spec.function, creation_spec.task, ctx, args) {
        Ok(instance) => instance,
        Err(e) => {
            // Nothing will ever host this actor: the calls already in its
            // mailbox fail now, and later ones are refused.
            if let Some(mailbox) = shared.actors.mailbox(actor) {
                mark_dead(shared, actor, &mailbox);
            }
            return Err(e);
        }
    };

    let record = ActorRecord {
        actor,
        node: home.node,
        constructor: creation_spec.function,
        creation_task: creation_spec.task,
        init_args: ray_codec::Blob(ray_codec::encode(&arg_payloads).map_err(RayError::from)?),
        state: ActorState::Alive,
    };
    shared.gcs_client.put_actor(&record)?;

    let host = ActorHost {
        shared: shared.clone(),
        actor,
        home: home.clone(),
        instance,
        seq: 0,
        pending_checkpoint: false,
    };
    // Live before the creation task's result appears, so whoever awaits
    // the actor finds it hosted; the thread only takes over.
    let me = shared.actors.mailbox(actor).and_then(|mailbox| mailbox.go_live(home.node));
    if spawn_incarnation(shared, actor, move |mailbox| host.run(mailbox, me)) {
        Ok(())
    } else {
        Err(RayError::Shutdown("cluster stopping".into()))
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
/// Idempotent: concurrent callers coalesce on the mailbox's host state.
/// The thread started here is the next incarnation: it reconstructs the
/// instance and then hosts it.
pub(crate) fn rebuild_actor(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<()> {
    // Otherwise someone else is rebuilding (or it is not alive-but-stale).
    if shared.actors.begin_recovery(actor) {
        spawn_rebuild(shared, actor);
    }
    Ok(())
}

/// Starts the incarnation that rebuilds `actor`; the caller has vacated
/// the mailbox (`begin_recovery`).
fn spawn_rebuild(shared: &Arc<RuntimeShared>, actor: ActorId) {
    let owned = shared.clone();
    // If shutdown won the race nothing starts, and nothing needs to.
    spawn_incarnation(shared, actor, move |mailbox| {
        let shared = owned;
        // A rebuild can race a control-plane outage (a GCS shard
        // crashing mid-recovery): those errors are transient — shards
        // heal from their persistent log — so wait them out instead of
        // declaring the actor dead. Restarting the rebuild from
        // scratch is safe: the mailbox stays hostless, the ctor and
        // replay re-derive the instance, and re-stored outputs are
        // deduplicated by the store.
        let backoff =
            Backoff::new(Duration::from_millis(5), Duration::from_millis(20), actor.0.digest());
        let transient = |e: &RayError, _| {
            is_transient_rebuild_error(e) && !shared.shutting_down.load(Ordering::SeqCst)
        };
        let rebuilt =
            retry(backoff, MAX_REBUILD_RETRIES, transient, || rebuild_actor_blocking(&shared, actor));
        match rebuilt {
            Ok(host) => host.run(mailbox, None),
            // Unrecoverable (e.g. record lost): the actor is dead, and
            // the calls waiting for it fail with it.
            Err(_) => mark_dead(&shared, actor, mailbox),
        }
    });
}

/// Checks an actor's host is live; kicks recovery if its node died.
pub(crate) fn ensure_actor_alive(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<()> {
    match shared.actors.node_of(actor) {
        Some(node) if shared.fabric.is_alive(node) => Ok(()),
        Some(_) => rebuild_actor(shared, actor),
        None => Ok(()), // Pending/recovering/dead: nothing to kick here.
    }
}

/// Reconstructs an actor's instance on a node of the scheduler's choosing:
/// ctor → checkpoint restore → replay. The host it returns is not live yet.
fn rebuild_actor_blocking(shared: &Arc<RuntimeShared>, actor: ActorId) -> RayResult<ActorHost> {
    let mut record = shared
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
    let home = loop {
        // A cluster tearing down has no feasible node and never will:
        // bail instead of spinning.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Err(RayError::Shutdown("cluster stopping".into()));
        }
        match shared.global.place(&desc)?.and_then(|n| shared.node(n)) {
            Some(home) => break home,
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    let node = home.node;

    let arg_payloads: Vec<ray_codec::Blob> =
        ray_codec::decode(&record.init_args.0).map_err(RayError::from)?;
    let args: Vec<Bytes> = arg_payloads.into_iter().map(|b| Bytes::from(b.0)).collect();
    // Rebuild replays with no deadline: the original creation deadline has
    // long passed and must not expire the recovery itself.
    let ctx = RayContext::for_task(shared.clone(), node, record.creation_task, None, None);
    let instance = construct(shared, record.constructor, record.creation_task, &ctx, &args)?;
    let mut host =
        ActorHost { shared: shared.clone(), actor, home, instance, seq: 0, pending_checkpoint: false };

    if let Some(ck) = shared.gcs_client.get_checkpoint(actor)? {
        if host.instance.restore(&ck.data.0).is_ok() {
            host.seq = ck.seq;
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
    // exactly once, with its outputs re-stored if they were lost. Stops at
    // the end of the log (or a hole from a crash mid-log); nothing stops a
    // replay from running, so each one moves `seq` on.
    let start_seq = host.seq;
    while let Some(task) = shared.gcs_client.get_actor_method(actor, host.seq)? {
        let Some(spec_bytes) = shared.gcs_client.get_task(task)? else {
            break;
        };
        host.execute(&mut TaskSpec::decode(&spec_bytes)?, Mode::Replay);
    }

    // Publish the new placement.
    record.node = node;
    record.state = ActorState::Alive;
    shared.gcs_client.put_actor(&record)?;
    shared.trace.emit(
        node,
        TraceEventKind::ActorRebuilt,
        TraceEntity::Actor(actor),
        format_args!("replayed={}", host.seq - start_seq),
    );
    Ok(host)
}

/// Node-death hook: kick recovery for every actor hosted on `node`.
pub(crate) fn recover_actors_on(shared: &Arc<RuntimeShared>, node: NodeId) {
    for actor in shared.actors.actors_on(node) {
        let _ = rebuild_actor(shared, actor);
    }
}
