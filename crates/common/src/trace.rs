//! Task-lifecycle tracing: the event log the paper's GCS makes possible.
//!
//! Paper §4.1: the GCS lets Ray "replay and debug the system" and backs
//! its timeline visualization tooling. This module is the workspace's
//! system-level half of that story: every task, actor method, and object
//! moves through an explicit lifecycle state machine whose transitions
//! emit [`TraceEvent`]s — timestamped, sequence-numbered, causally
//! ordered by a collector-global counter — into per-node ring buffers
//! ([`TraceCollector`]), which the local schedulers flush to the GCS
//! event-log table on their heartbeat cadence.
//!
//! Three consumers sit on top:
//!
//! - [`TraceLog`] — the merged, seq-ordered event log read back from the
//!   GCS after a run.
//! - [`TraceAssert`] — a chainable, panicking query API for integration
//!   tests ("this object was reconstructed exactly once", "no task ran
//!   before its dependencies were fetched", "spillover hit node 2").
//! - [`render_chrome_trace`] — a Chrome `trace_event` JSON exporter
//!   (`chrome://tracing` / Perfetto), pairing `Running`→`Finished` into
//!   duration spans and rendering everything else as instants.
//!
//! Determinism: wall timestamps differ across runs, so cross-run
//! comparison goes through [`TraceLog::signature`] — a canonical
//! projection that drops timing-dependent kinds ([`TraceEventKind::is_volatile`])
//! and collapses retry multiplicity (first-occurrence dedup per entity).
//! Two seeded chaos runs must produce identical signatures.
//!
//! Timestamps come from a [`Clock`], never from a bare `Instant::now()`
//! in emission paths — `xtask lint` enforces this so traces stay
//! virtualizable under the chaos harness.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::id::{ActorId, NodeId, ObjectId, ShardId, TaskId};
use crate::sync::{classes, OrderedMutex, OrderedRwLock};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The trace time source.
///
/// Emission paths get *both* of their time needs from here:
///
/// - [`Clock::now_micros`] — the trace timestamp. Virtualizable: a
///   manual clock only moves when [`Clock::advance`] is called, which is
///   what lets tests pin timestamps.
/// - [`Clock::now`] — a real [`Instant`] for deadline/condvar math
///   (timeouts must track real time even when trace time is frozen).
///
/// The point of routing the *real* side through the clock too is the
/// lint: emission-path files may not name `Instant::now()` directly, so
/// every time read is auditable and future virtualization has one seam.
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

enum ClockInner {
    /// Micros since the clock's creation, read from the OS.
    Wall { epoch: Instant },
    /// Micros advanced explicitly by tests.
    Manual { micros: AtomicU64 },
}

impl Clock {
    /// A wall clock: `now_micros` is microseconds since construction.
    pub fn wall() -> Clock {
        Clock {
            inner: Arc::new(ClockInner::Wall { epoch: Instant::now() }),
        }
    }

    /// A manual clock starting at 0; only [`Clock::advance`] moves it.
    pub fn manual() -> Clock {
        Clock {
            inner: Arc::new(ClockInner::Manual { micros: AtomicU64::new(0) }),
        }
    }

    /// The current trace timestamp in microseconds.
    pub fn now_micros(&self) -> u64 {
        match &*self.inner {
            ClockInner::Wall { epoch } => epoch.elapsed().as_micros() as u64,
            ClockInner::Manual { micros } => micros.load(Ordering::Relaxed),
        }
    }

    /// A real [`Instant`] for deadline arithmetic. Identical to
    /// `Instant::now()`; exists so emission-path files have a single,
    /// lint-enforced seam for reading time.
    pub fn now(&self) -> Instant {
        Instant::now()
    }

    /// Advances a manual clock by `micros`; no-op on a wall clock.
    pub fn advance(&self, micros: u64) {
        if let ClockInner::Manual { micros: m } = &*self.inner {
            m.fetch_add(micros, Ordering::Relaxed);
        }
    }

    /// Whether this is a manual (test) clock.
    pub fn is_manual(&self) -> bool {
        matches!(&*self.inner, ClockInner::Manual { .. })
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.inner {
            ClockInner::Wall { .. } => f.write_str("Clock::wall"),
            ClockInner::Manual { micros } => {
                write!(f, "Clock::manual({}µs)", micros.load(Ordering::Relaxed))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What a lifecycle event happened *to*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceEntity {
    /// A task (normal, actor creation, or actor method).
    Task(TaskId),
    /// An object in the distributed store.
    Object(ObjectId),
    /// An actor.
    Actor(ActorId),
    /// A node.
    Node(NodeId),
    /// A GCS shard (control-plane chain failover/recovery events).
    Shard(ShardId),
}

impl TraceEntity {
    /// A stable, sortable text key (used by [`TraceLog::signature`]).
    pub fn key(&self) -> String {
        match self {
            TraceEntity::Task(t) => format!("t:{t}"),
            TraceEntity::Object(o) => format!("o:{o}"),
            TraceEntity::Actor(a) => format!("a:{a}"),
            TraceEntity::Node(n) => format!("n:{}", n.0),
            TraceEntity::Shard(s) => format!("s:{}", s.0),
        }
    }
}

impl std::fmt::Display for TraceEntity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key())
    }
}

/// The lifecycle transition an event records.
///
/// Task lifecycle (paper §4.2.2 bottom-up scheduling + §4.2.3 recovery):
/// `Submitted → ScheduledLocal | SpilledGlobal → GlobalPlaced? →
/// DepsFetched → Running → Finished | Failed`, with `Resubmitted`
/// splicing a re-execution in after a loss. Objects move through
/// `ObjectPut → ObjectSpilled/ObjectEvicted/ObjectTransferred →
/// Reconstructing` on loss. Actors add the stateful-edge kinds
/// (`MethodReplayed`, `CheckpointTaken`, `CheckpointRestored`,
/// `ActorRebuilt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// Task entered the system at its submitting node.
    Submitted,
    /// Local scheduler kept the task (bottom-up fast path).
    ScheduledLocal,
    /// Local scheduler spilled the task to the global scheduler.
    SpilledGlobal,
    /// Global scheduler placed a spilled task on a node.
    GlobalPlaced,
    /// All object arguments are local to the executing node.
    DepsFetched,
    /// Task body started executing.
    Running,
    /// Task body finished and results were stored.
    Finished,
    /// Task body failed (error envelope stored).
    Failed,
    /// A lost object's producer was claimed for re-execution.
    Reconstructing,
    /// A task was resubmitted through lineage.
    Resubmitted,
    /// Object materialized in a node's store.
    ObjectPut,
    /// Object was evicted to the node's spill tier.
    ObjectSpilled,
    /// Object was dropped from a node's store.
    ObjectEvicted,
    /// Object was copied between nodes.
    ObjectTransferred,
    /// A transfer attempt failed and will be retried.
    TransferRetry,
    /// The fabric dropped a message (chaos or partition).
    MessageDropped,
    /// The failure detector counted a missed heartbeat.
    HeartbeatMissed,
    /// The failure detector declared a node dead.
    NodeDeclaredDead,
    /// An actor method was replayed from the method log.
    MethodReplayed,
    /// An actor checkpoint was persisted.
    CheckpointTaken,
    /// An actor restored from a checkpoint during rebuild.
    CheckpointRestored,
    /// An actor finished rebuilding on a new node.
    ActorRebuilt,
    /// A GCS chain replica was crashed (fault injection or real failure).
    GcsReplicaCrashed,
    /// A GCS chain was reconfigured: dead members dropped, replacements
    /// spliced in via state transfer.
    GcsReconfigured,
    /// A whole GCS shard lost every replica and was rebuilt from its
    /// flushed disk log.
    GcsShardRecovered,
    /// A GCS flush cycle moved cold entries to the shard's disk log.
    GcsFlush,
    /// The task was torn down by `ray.cancel` (directly or via a cancelled
    /// parent). Emitted exactly once, by whichever lifecycle stage dropped
    /// it: local/global queue scan, pre-run check, or post-run teardown.
    TaskCancelled,
    /// The task's absolute deadline expired before it produced results.
    TaskDeadlineExceeded,
    /// Admission control shed the task at submit (queue past watermark).
    TaskShed,
    /// A cancel propagated from a parent task to a registered child.
    CancelPropagated,
    /// A serving replica entered (or re-entered) a pool's routable set:
    /// initial deploy, autoscale-up, or re-admission after recovery.
    ReplicaSpawned,
    /// A serving replica was drained and removed from its pool
    /// (autoscale-down or explicit retirement).
    ReplicaRetired,
    /// A pool declared a replica unhealthy (call failure or probe
    /// deadline miss) and stopped routing new requests to it.
    ReplicaUnhealthy,
    /// A pool launched a hedged second attempt against a straggling
    /// replica (first result wins; the loser is cancelled).
    RequestHedged,
    /// A served request completed but exceeded the pool's latency SLO.
    SloViolated,
}

impl TraceEventKind {
    /// A stable text label (signatures, Chrome trace names, assertions).
    pub fn label(&self) -> &'static str {
        use TraceEventKind::*;
        match self {
            Submitted => "submitted",
            ScheduledLocal => "scheduled_local",
            SpilledGlobal => "spilled_global",
            GlobalPlaced => "global_placed",
            DepsFetched => "deps_fetched",
            Running => "running",
            Finished => "finished",
            Failed => "failed",
            Reconstructing => "reconstructing",
            Resubmitted => "resubmitted",
            ObjectPut => "object_put",
            ObjectSpilled => "object_spilled",
            ObjectEvicted => "object_evicted",
            ObjectTransferred => "object_transferred",
            TransferRetry => "transfer_retry",
            MessageDropped => "message_dropped",
            HeartbeatMissed => "heartbeat_missed",
            NodeDeclaredDead => "node_declared_dead",
            MethodReplayed => "method_replayed",
            CheckpointTaken => "checkpoint_taken",
            CheckpointRestored => "checkpoint_restored",
            ActorRebuilt => "actor_rebuilt",
            GcsReplicaCrashed => "gcs_replica_crashed",
            GcsReconfigured => "gcs_reconfigured",
            GcsShardRecovered => "gcs_shard_recovered",
            GcsFlush => "gcs_flush",
            TaskCancelled => "task_cancelled",
            TaskDeadlineExceeded => "task_deadline_exceeded",
            TaskShed => "task_shed",
            CancelPropagated => "cancel_propagated",
            ReplicaSpawned => "replica_spawned",
            ReplicaRetired => "replica_retired",
            ReplicaUnhealthy => "replica_unhealthy",
            RequestHedged => "request_hedged",
            SloViolated => "slo_violated",
        }
    }

    /// Whether this kind is timing- or placement-dependent and therefore
    /// excluded from the cross-run determinism signature. Retry counts,
    /// drop counts, heartbeat ages, transfer/eviction traffic, and
    /// local-vs-spill placement all legitimately vary between two runs of
    /// the same seed (they depend on wall-clock interleaving); the
    /// *lifecycle outcome* kinds do not.
    pub fn is_volatile(&self) -> bool {
        use TraceEventKind::*;
        matches!(
            self,
            TransferRetry
                | MessageDropped
                | HeartbeatMissed
                | ObjectTransferred
                | ObjectEvicted
                | ObjectSpilled
                | ScheduledLocal
                | SpilledGlobal
                | GlobalPlaced
                | DepsFetched
                | GcsReconfigured
                | GcsFlush
                | TaskShed
                | CancelPropagated
                | RequestHedged
                | SloViolated
        )
    }
}

impl std::fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Collector-global sequence number: a total causal order over every
    /// event one collector saw, independent of clock resolution.
    pub seq: u64,
    /// Trace timestamp ([`Clock::now_micros`]) at emission.
    pub ts_micros: u64,
    /// The node the event happened on (attribution, and the Chrome-trace
    /// process row).
    pub node: NodeId,
    /// The lifecycle transition.
    pub kind: TraceEventKind,
    /// What it happened to.
    pub entity: TraceEntity,
    /// Free-form context (function name, seq number, byte count, …).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Default per-node ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

struct Ring {
    buf: OrderedMutex<RingBuf>,
}

struct RingBuf {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

struct CollectorInner {
    enabled: AtomicBool,
    clock: Clock,
    seq: AtomicU64,
    capacity: usize,
    /// Per-node rings, indexed by `NodeId::index()`; grown lazily.
    rings: OrderedRwLock<Vec<Option<Arc<Ring>>>>,
    /// Events dropped because their ring was full.
    dropped: AtomicU64,
}

/// The per-process event sink: per-node bounded rings behind one cheap
/// clonable handle.
///
/// The disabled fast path is a single relaxed atomic load —
/// [`TraceCollector::disabled`] collectors add no measurable overhead to
/// a run (the `fig08b_scalability` acceptance criterion).
#[derive(Clone)]
pub struct TraceCollector {
    inner: Arc<CollectorInner>,
}

impl TraceCollector {
    /// An enabled collector with `capacity` events per node ring.
    pub fn new(capacity: usize) -> TraceCollector {
        TraceCollector::build(true, capacity, Clock::wall())
    }

    /// An enabled collector with an explicit [`Clock`] (tests use a
    /// manual clock to pin timestamps).
    pub fn with_clock(capacity: usize, clock: Clock) -> TraceCollector {
        TraceCollector::build(true, capacity, clock)
    }

    /// The no-op collector: every [`TraceCollector::emit`] returns after
    /// one relaxed load.
    pub fn disabled() -> TraceCollector {
        TraceCollector::build(false, 0, Clock::wall())
    }

    fn build(enabled: bool, capacity: usize, clock: Clock) -> TraceCollector {
        TraceCollector {
            inner: Arc::new(CollectorInner {
                enabled: AtomicBool::new(enabled),
                clock,
                seq: AtomicU64::new(0),
                capacity,
                rings: OrderedRwLock::new(&classes::TRACE_RINGS, Vec::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether emission is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The collector's time source.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Records one lifecycle event into `node`'s ring. Ordering comes
    /// from the collector-global `seq`, so events emitted from different
    /// threads still merge into one total order. `detail` is rendered
    /// only when emission is live: pass `format_args!(..)`, not
    /// `format!(..)`, so a disabled collector allocates nothing.
    pub fn emit(
        &self,
        node: NodeId,
        kind: TraceEventKind,
        entity: TraceEntity,
        detail: impl std::fmt::Display,
    ) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let event = TraceEvent {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_micros: self.inner.clock.now_micros(),
            node,
            kind,
            entity,
            detail: detail.to_string(),
        };
        let ring = self.ring(node);
        let mut buf = ring.buf.lock();
        if buf.events.len() >= self.inner.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.events.push_back(event);
    }

    fn ring(&self, node: NodeId) -> Arc<Ring> {
        let idx = node.index();
        {
            let rings = self.inner.rings.read();
            if let Some(Some(r)) = rings.get(idx) {
                return r.clone();
            }
        }
        let mut rings = self.inner.rings.write();
        if rings.len() <= idx {
            rings.resize_with(idx + 1, || None);
        }
        rings[idx]
            .get_or_insert_with(|| {
                Arc::new(Ring {
                    buf: OrderedMutex::new(
                        &classes::TRACE_RING,
                        RingBuf { events: VecDeque::new(), dropped: 0 },
                    ),
                })
            })
            .clone()
    }

    /// Drains and returns `node`'s buffered events (oldest first). The
    /// local scheduler calls this on its heartbeat tick to flush to the
    /// GCS event log.
    pub fn drain_node(&self, node: NodeId) -> Vec<TraceEvent> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let ring = {
            let rings = self.inner.rings.read();
            match rings.get(node.index()) {
                Some(Some(r)) => r.clone(),
                _ => return Vec::new(),
            }
        };
        let mut buf = ring.buf.lock();
        buf.events.drain(..).collect()
    }

    /// Returns previously drained events to the front of `node`'s ring
    /// (oldest first). Used when a flush to the GCS fails transiently —
    /// e.g. a shard mid-recovery — so lifecycle events are not lost; the
    /// next heartbeat tick retries them. Events past ring capacity are
    /// dropped from the front (oldest first), same as on emit.
    pub fn requeue_node(&self, node: NodeId, events: Vec<TraceEvent>) {
        if !self.is_enabled() || events.is_empty() {
            return;
        }
        let ring = self.ring(node);
        let mut buf = ring.buf.lock();
        for e in events.into_iter().rev() {
            buf.events.push_front(e);
        }
        while buf.events.len() > self.inner.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains every ring (final flush at shutdown/collection time).
    pub fn drain_all(&self) -> Vec<TraceEvent> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let rings: Vec<Arc<Ring>> = {
            let rings = self.inner.rings.read();
            rings.iter().flatten().cloned().collect()
        };
        let mut out = Vec::new();
        for ring in rings {
            let mut buf = ring.buf.lock();
            out.extend(buf.events.drain(..));
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::disabled()
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.inner.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// TraceLog
// ---------------------------------------------------------------------------

/// The merged event log of a run: every flushed batch, decoded, deduped
/// by `seq`, and sorted. The entry point for assertions and export.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Builds a log from raw events: sorts by `seq` and drops duplicate
    /// sequence numbers (a batch can be both flushed and re-read).
    pub fn from_events(events: Vec<TraceEvent>) -> TraceLog {
        let mut by_seq: BTreeMap<u64, TraceEvent> = BTreeMap::new();
        for e in events {
            by_seq.entry(e.seq).or_insert(e);
        }
        TraceLog { events: by_seq.into_values().collect() }
    }

    /// All events, seq-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events concerning one entity, seq-ordered.
    pub fn events_for(&self, entity: TraceEntity) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.entity == entity).collect()
    }

    /// The kind sequence one entity went through, seq-ordered.
    pub fn kinds_for(&self, entity: TraceEntity) -> Vec<TraceEventKind> {
        self.events
            .iter()
            .filter(|e| e.entity == entity)
            .map(|e| e.kind)
            .collect()
    }

    /// How many events of `kind` the log holds.
    pub fn count(&self, kind: TraceEventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// How many events of `kind` concern `entity`.
    pub fn count_for(&self, entity: TraceEntity, kind: TraceEventKind) -> usize {
        self.events
            .iter()
            .filter(|e| e.entity == entity && e.kind == kind)
            .count()
    }

    /// Every entity that appears in the log, sorted by key.
    pub fn entities(&self) -> Vec<TraceEntity> {
        let mut set: Vec<TraceEntity> = Vec::new();
        for e in &self.events {
            if !set.contains(&e.entity) {
                set.push(e.entity);
            }
        }
        set.sort_by_key(|a| a.key());
        set
    }

    /// The canonical cross-run determinism projection.
    ///
    /// Per entity (sorted by stable key): the *first-occurrence-deduped*
    /// sequence of non-[volatile](TraceEventKind::is_volatile) kinds.
    /// Dedup collapses retry multiplicity (how many times a consumer
    /// escalated reconstruction is timing-dependent; *that* it did is
    /// not), and dropping volatile kinds removes placement and transfer
    /// noise. Two runs with the same seed must produce equal signatures.
    pub fn signature(&self) -> String {
        let mut per: BTreeMap<String, Vec<&'static str>> = BTreeMap::new();
        for e in &self.events {
            if e.kind.is_volatile() {
                continue;
            }
            let labels = per.entry(e.entity.key()).or_default();
            let label = e.kind.label();
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
        let mut out = String::new();
        for (key, labels) in per {
            out.push_str(&key);
            out.push(':');
            out.push_str(&labels.join(">"));
            out.push('\n');
        }
        out
    }

    /// Starts a chainable assertion run; every check panics with a
    /// descriptive message on failure.
    pub fn assert(&self) -> TraceAssert<'_> {
        TraceAssert { log: self }
    }
}

// ---------------------------------------------------------------------------
// TraceAssert
// ---------------------------------------------------------------------------

/// Chainable, panicking event-log queries for deterministic tests.
///
/// ```ignore
/// log.assert()
///     .happened(TraceEventKind::NodeDeclaredDead)
///     .ordered(obj, &[TraceEventKind::Reconstructing, TraceEventKind::ObjectPut])
///     .count_eq(actor, TraceEventKind::CheckpointRestored, 1);
/// ```
pub struct TraceAssert<'a> {
    log: &'a TraceLog,
}

impl<'a> TraceAssert<'a> {
    /// At least one event of `kind` exists.
    pub fn happened(&self, kind: TraceEventKind) -> &Self {
        assert!(
            self.log.count(kind) > 0,
            "trace: expected at least one '{kind}' event, found none"
        );
        self
    }

    /// No event of `kind` exists anywhere in the log.
    pub fn never(&self, kind: TraceEventKind) -> &Self {
        let n = self.log.count(kind);
        assert!(n == 0, "trace: expected no '{kind}' events, found {n}");
        self
    }

    /// At least one event of `kind` happened on `node`.
    pub fn happened_on(&self, node: NodeId, kind: TraceEventKind) -> &Self {
        let n = self
            .log
            .events
            .iter()
            .filter(|e| e.node == node && e.kind == kind)
            .count();
        assert!(
            n > 0,
            "trace: expected at least one '{kind}' event on node {node}, found none \
             (kind occurs {} time(s) elsewhere)",
            self.log.count(kind)
        );
        self
    }

    /// Exactly `n` events of `kind` concern `entity`.
    pub fn count_eq(&self, entity: TraceEntity, kind: TraceEventKind, n: usize) -> &Self {
        let got = self.log.count_for(entity, kind);
        assert!(
            got == n,
            "trace: expected exactly {n} '{kind}' event(s) for {entity}, found {got}; \
             full sequence: {:?}",
            self.log.kinds_for(entity)
        );
        self
    }

    /// At least `n` events of `kind` concern `entity`.
    pub fn count_at_least(&self, entity: TraceEntity, kind: TraceEventKind, n: usize) -> &Self {
        let got = self.log.count_for(entity, kind);
        assert!(
            got >= n,
            "trace: expected at least {n} '{kind}' event(s) for {entity}, found {got}"
        );
        self
    }

    /// At most `n` events of `kind` concern `entity` (bounded-replay
    /// checks: "replay did not exceed the checkpoint gap").
    pub fn count_at_most(&self, entity: TraceEntity, kind: TraceEventKind, n: usize) -> &Self {
        let got = self.log.count_for(entity, kind);
        assert!(
            got <= n,
            "trace: expected at most {n} '{kind}' event(s) for {entity}, found {got}; \
             full sequence: {:?}",
            self.log.kinds_for(entity)
        );
        self
    }

    /// `kinds` appears as a (not necessarily contiguous) subsequence of
    /// `entity`'s event stream — the recovery-sequence assertion.
    pub fn ordered(&self, entity: TraceEntity, kinds: &[TraceEventKind]) -> &Self {
        let stream = self.log.kinds_for(entity);
        let mut want = kinds.iter();
        let mut next = want.next();
        for k in &stream {
            if Some(k) == next {
                next = want.next();
            }
        }
        assert!(
            next.is_none(),
            "trace: expected {entity} to pass through {:?} in order; actual sequence {:?} \
             is missing '{}' (and anything after it)",
            kinds,
            stream,
            next.unwrap()
        );
        self
    }

    /// The first `a` event for `entity` precedes the first `b` event.
    pub fn before(&self, entity: TraceEntity, a: TraceEventKind, b: TraceEventKind) -> &Self {
        let first = |kind| {
            self.log
                .events
                .iter()
                .find(|e| e.entity == entity && e.kind == kind)
                .map(|e| e.seq)
        };
        let (sa, sb) = (first(a), first(b));
        match (sa, sb) {
            (Some(sa), Some(sb)) => assert!(
                sa < sb,
                "trace: expected '{a}' (seq {sa}) before '{b}' (seq {sb}) for {entity}"
            ),
            _ => panic!(
                "trace: expected both '{a}' and '{b}' for {entity}; found {:?}",
                self.log.kinds_for(entity)
            ),
        }
        self
    }

    /// The global invariant "no task ran before its dependencies were
    /// local": every task entity that fetched dependencies did so before
    /// its first `Running` event, and every `Running` task with object
    /// arguments has a `DepsFetched` on record (emitted by the worker
    /// after argument resolution, i.e. after the objects landed in its
    /// local store).
    pub fn deps_fetched_before_running(&self) -> &Self {
        for entity in self.log.entities() {
            if !matches!(entity, TraceEntity::Task(_)) {
                continue;
            }
            let events = self.log.events_for(entity);
            let first_running = events
                .iter()
                .find(|e| e.kind == TraceEventKind::Running)
                .map(|e| e.seq);
            let first_deps = events
                .iter()
                .find(|e| e.kind == TraceEventKind::DepsFetched)
                .map(|e| e.seq);
            if let (Some(run), Some(deps)) = (first_running, first_deps) {
                assert!(
                    deps < run,
                    "trace: task {entity} ran (seq {run}) before its dependencies were \
                     fetched (seq {deps})"
                );
            }
        }
        self
    }

    /// `object` was claimed for lineage reconstruction exactly `n` times.
    pub fn reconstructed_exactly(&self, object: ObjectId, n: usize) -> &Self {
        self.count_eq(TraceEntity::Object(object), TraceEventKind::Reconstructing, n)
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a [`TraceLog`] as Chrome `trace_event` JSON (the array-of-
/// events form `{"traceEvents": [...]}` that `chrome://tracing` and
/// Perfetto load directly).
///
/// `Running`→`Finished`/`Failed` pairs per task entity become complete
/// (`"X"`) duration spans; every other event renders as an instant
/// (`"i"`). `pid` is the node, `tid` a stable per-entity lane.
pub fn render_chrome_trace(log: &TraceLog) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    // Open Running spans per entity: (start ts, node, detail).
    let mut open: BTreeMap<String, (u64, NodeId, String)> = BTreeMap::new();
    let tid = |entity: &TraceEntity| -> u64 {
        let key = entity.key();
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h % 1000
    };
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };
    for e in log.events() {
        let key = e.entity.key();
        match e.kind {
            TraceEventKind::Running => {
                open.insert(key, (e.ts_micros, e.node, e.detail.clone()));
            }
            TraceEventKind::Finished | TraceEventKind::Failed => {
                if let Some((start, node, detail)) = open.remove(&key) {
                    let dur = e.ts_micros.saturating_sub(start).max(1);
                    let name = if detail.is_empty() { key.clone() } else { detail };
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\
                             \"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"entity\":\"{}\",\
                             \"outcome\":\"{}\"}}}}",
                            json_escape(&name),
                            start,
                            dur,
                            node.0,
                            tid(&e.entity),
                            json_escape(&key),
                            e.kind.label()
                        ),
                    );
                } else {
                    // Unpaired completion (ring overflow ate the start):
                    // render as an instant so nothing is silently lost.
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":{},\
                             \"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{\"entity\":\"{}\"}}}}",
                            e.kind.label(),
                            e.ts_micros,
                            e.node.0,
                            tid(&e.entity),
                            json_escape(&key)
                        ),
                    );
                }
            }
            _ => {
                let name = if e.detail.is_empty() {
                    e.kind.label().to_string()
                } else {
                    format!("{} ({})", e.kind.label(), e.detail)
                };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{\"entity\":\"{}\"}}}}",
                        json_escape(&name),
                        e.ts_micros,
                        e.node.0,
                        tid(&e.entity),
                        json_escape(&key)
                    ),
                );
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(n: u8) -> TraceEntity {
        TraceEntity::Task(TaskId::for_child(TaskId::NIL, n as u64))
    }

    fn obj(n: u8) -> TraceEntity {
        TraceEntity::Object(ObjectId::for_task_return(TaskId::NIL, n as u64))
    }

    #[test]
    fn disabled_collector_is_a_no_op() {
        let c = TraceCollector::disabled();
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        assert!(!c.is_enabled());
        assert!(c.drain_all().is_empty());
    }

    #[test]
    fn events_merge_into_one_seq_order() {
        let c = TraceCollector::new(16);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "f");
        c.emit(NodeId(1), TraceEventKind::Running, task(1), "f");
        c.emit(NodeId(1), TraceEventKind::Finished, task(1), "f");
        let all = c.drain_all();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        let log = TraceLog::from_events(all);
        log.assert().ordered(
            task(1),
            &[TraceEventKind::Submitted, TraceEventKind::Running, TraceEventKind::Finished],
        );
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let c = TraceCollector::new(2);
        for i in 0..5 {
            c.emit(NodeId(0), TraceEventKind::Submitted, task(1), format!("{i}"));
        }
        assert_eq!(c.dropped(), 3);
        let events = c.drain_node(NodeId(0));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].detail, "3");
        assert_eq!(events[1].detail, "4");
    }

    #[test]
    fn drain_node_only_touches_that_node() {
        let c = TraceCollector::new(16);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        c.emit(NodeId(2), TraceEventKind::Submitted, task(2), "");
        assert_eq!(c.drain_node(NodeId(0)).len(), 1);
        assert_eq!(c.drain_node(NodeId(0)).len(), 0);
        assert_eq!(c.drain_all().len(), 1);
    }

    #[test]
    fn manual_clock_pins_timestamps() {
        let clock = Clock::manual();
        let c = TraceCollector::with_clock(16, clock.clone());
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        clock.advance(250);
        c.emit(NodeId(0), TraceEventKind::Running, task(1), "");
        let events = c.drain_all();
        assert_eq!(events[0].ts_micros, 0);
        assert_eq!(events[1].ts_micros, 250);
    }

    #[test]
    fn log_dedupes_by_seq() {
        let c = TraceCollector::new(16);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        let batch = c.drain_all();
        let mut doubled = batch.clone();
        doubled.extend(batch);
        let log = TraceLog::from_events(doubled);
        assert_eq!(log.events().len(), 1);
    }

    #[test]
    fn signature_ignores_volatile_kinds_and_retry_multiplicity() {
        let c = TraceCollector::new(64);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        c.emit(NodeId(0), TraceEventKind::ScheduledLocal, task(1), "");
        c.emit(NodeId(0), TraceEventKind::Running, task(1), "");
        c.emit(NodeId(0), TraceEventKind::TransferRetry, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::Reconstructing, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::Reconstructing, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::Finished, task(1), "");
        let sig_a = TraceLog::from_events(c.drain_all()).signature();

        // Same lifecycle, different retry counts and spill decisions.
        let c = TraceCollector::new(64);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        c.emit(NodeId(0), TraceEventKind::SpilledGlobal, task(1), "");
        c.emit(NodeId(0), TraceEventKind::Running, task(1), "");
        c.emit(NodeId(0), TraceEventKind::Reconstructing, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::TransferRetry, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::TransferRetry, obj(1), "");
        c.emit(NodeId(0), TraceEventKind::Finished, task(1), "");
        let sig_b = TraceLog::from_events(c.drain_all()).signature();

        assert_eq!(sig_a, sig_b);
        assert!(sig_a.contains("submitted>running>finished"));
    }

    #[test]
    #[should_panic(expected = "is missing 'finished'")]
    fn ordered_panics_on_missing_step() {
        let c = TraceCollector::new(16);
        c.emit(NodeId(0), TraceEventKind::Submitted, task(1), "");
        let log = TraceLog::from_events(c.drain_all());
        log.assert().ordered(task(1), &[TraceEventKind::Submitted, TraceEventKind::Finished]);
    }

    #[test]
    #[should_panic(expected = "ran (seq")]
    fn deps_check_catches_inverted_order() {
        let c = TraceCollector::new(16);
        c.emit(NodeId(0), TraceEventKind::Running, task(1), "");
        c.emit(NodeId(0), TraceEventKind::DepsFetched, task(1), "");
        let log = TraceLog::from_events(c.drain_all());
        log.assert().deps_fetched_before_running();
    }

    #[test]
    fn chrome_trace_pairs_running_and_finished() {
        let clock = Clock::manual();
        let c = TraceCollector::with_clock(16, clock.clone());
        c.emit(NodeId(1), TraceEventKind::Running, task(1), "work");
        clock.advance(500);
        c.emit(NodeId(1), TraceEventKind::Finished, task(1), "work");
        c.emit(NodeId(0), TraceEventKind::ObjectPut, obj(1), "64B");
        let log = TraceLog::from_events(c.drain_all());
        let json = render_chrome_trace(&log);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":500"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Regression for the open-span tracking map (a `HashMap` until the
    /// determinism pass flagged the file): with a `BTreeMap` the export
    /// is a pure function of the log — two renders of the same log are
    /// byte-identical, with interleaved spans, unclosed spans, and
    /// multiple nodes in play.
    #[test]
    fn chrome_export_is_byte_stable() {
        let clock = Clock::manual();
        let c = TraceCollector::with_clock(64, clock.clone());
        // Six spans opened in descending order across three nodes; only
        // half of them close, so the open-span map stays populated.
        for n in (0..6u8).rev() {
            c.emit(NodeId(u32::from(n % 3)), TraceEventKind::Running, task(n), "work");
            clock.advance(10 + u64::from(n));
        }
        for n in [1u8, 3, 5] {
            c.emit(NodeId(u32::from(n % 3)), TraceEventKind::Finished, task(n), "work");
        }
        c.emit(NodeId(0), TraceEventKind::ObjectPut, obj(1), "64B");
        let log = TraceLog::from_events(c.drain_all());
        let first = render_chrome_trace(&log);
        let second = render_chrome_trace(&log);
        assert_eq!(first, second, "chrome export must be byte-stable");
        // The three closed spans pair up; the put renders as an instant.
        assert_eq!(first.matches("\"ph\":\"X\"").count(), 3);
        assert!(first.contains("\"ph\":\"i\""));
    }
}
