//! Ranked locks: the workspace's concurrency discipline.
//!
//! Every mutex/rwlock in the workspace is an [`OrderedMutex`] or
//! [`OrderedRwLock`] registered to a named [`LockClass`] with a numeric
//! rank. The rule is simple: **a thread may only acquire a lock whose rank
//! is strictly greater than every lock it already holds.** Ranks define a
//! total order over lock classes, so any execution that obeys the rule is
//! deadlock-free by construction (a cycle of waiters would need a rank
//! inversion somewhere).
//!
//! In debug builds the wrappers enforce the rule and record evidence:
//!
//! - a thread-local held-lock stack checks the rank rule at every acquire
//!   and panics (configurable, see [`set_panic_on_violation`]) on
//!   inversion;
//! - a global acquisition-order graph accumulates one edge per observed
//!   "A held while acquiring B" pair; [`detect_cycle`] /
//!   [`assert_acyclic`] let tests fail on *potential* deadlocks even when
//!   the fatal interleaving never manifested in that run;
//! - holds longer than a configurable threshold
//!   ([`set_long_hold_threshold`]) are counted and fed to
//!   [`crate::metrics`] under [`crate::metrics::names::LOCK_LONG_HOLDS`].
//!
//! In release builds (`not(debug_assertions)`) every check compiles away
//! and the wrappers are transparent newtypes over `parking_lot` — hot
//! paths pay nothing.
//!
//! This file is the **only** place in the workspace allowed to name
//! `parking_lot` or `std::sync::{Mutex, RwLock, Condvar}`; the `xtask`
//! lint (`cargo run -p xtask -- lint`) rejects raw locks everywhere else.
//! All production lock classes live in [`classes`], which doubles as the
//! workspace's documented rank table (mirrored in `DESIGN.md`).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Instant;

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU32;

/// A named rank in the workspace-wide lock order.
///
/// Classes are declared as `static`s (construction is `const`) and passed
/// by reference to [`OrderedMutex::new`] / [`OrderedRwLock::new`]. Many
/// lock *instances* may share one class (e.g. the 16 inflight-table
/// shards): the rank rule then also forbids holding two instances of the
/// same class at once, which is exactly the discipline sharded structures
/// want.
pub struct LockClass {
    name: &'static str,
    rank: u32,
    /// Dense id assigned on first acquisition (0 = not yet registered);
    /// indexes the acquisition-order graph.
    #[cfg(debug_assertions)]
    id: AtomicU32,
}

impl LockClass {
    /// Declares a lock class. `rank` positions it in the global order:
    /// lower ranks are acquired first (outermost).
    pub const fn new(name: &'static str, rank: u32) -> Self {
        LockClass {
            name,
            rank,
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
        }
    }

    /// The class name (used in violation reports and the rank table).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The class rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }
}

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockClass({} rank {})", self.name, self.rank)
    }
}

/// The workspace rank table. One entry per production lock, grouped in
/// rank bands by crate so new locks slot in without renumbering:
///
/// | band      | crate            |
/// |-----------|------------------|
/// | 50–99     | serve (above core: pool locks span calls into it) |
/// | 100–199   | core runtime     |
/// | 200–299   | scheduler        |
/// | 290–399   | object store     |
/// | 400–499   | GCS              |
/// | 500–599   | transport        |
/// | 600–699   | BSP              |
/// | 700–799   | RL library       |
/// | 800–899   | benches          |
/// | 1000+     | metrics (innermost: safe to touch from anywhere) |
///
/// The bands encode the system's call direction: core orchestration sits
/// outermost, subsystem internals are inner, and metrics — bumped from
/// every layer — rank above everything.
pub mod classes {
    use super::LockClass;

    // --- serve (50–99): the serving layer sits above core, so its
    // locks are outermost — they may be held across actor calls ---

    /// A replica pool's slot table (router view of its replicas).
    pub static SERVE_POOL: LockClass = LockClass::new("serve.pool", 50);
    /// A pool's control state (autoscaler bookkeeping, worker threads).
    pub static SERVE_CONTROL: LockClass = LockClass::new("serve.control", 60);

    // --- core runtime (100–199): cluster orchestration, outermost ---

    /// Serializes topology changes (node add/restart/declare-dead); held
    /// across calls into every subsystem, so it must rank below them all.
    pub static CLUSTER_TOPOLOGY: LockClass = LockClass::new("core.topology", 100);
    /// The node-handle table (`RuntimeShared::nodes`).
    pub static RUNTIME_NODES: LockClass = LockClass::new("core.nodes", 110);
    /// The actor router's id → mailbox map.
    pub static ACTOR_ROUTER: LockClass = LockClass::new("core.actors", 120);
    /// One actor's mailbox: its undelivered calls and its host state.
    pub static ACTOR_MAILBOX: LockClass = LockClass::new("core.actor_mailbox", 122);
    /// A node's run queue; held while a worker is started (`NODE_JOIN`),
    /// a queued task's token is checked (`CANCEL_SHARD`) and its
    /// resources are acquired (`SCHED_LEDGER`), so it ranks below all three.
    pub static NODE_QUEUE: LockClass = LockClass::new("core.node_queue", 125);
    /// One shard of the inflight task table (16 instances, one class).
    pub static INFLIGHT_SHARD: LockClass = LockClass::new("core.inflight_shard", 130);
    /// One shard of the cancellation registry (task → token + children).
    pub static CANCEL_SHARD: LockClass = LockClass::new("core.cancel_shard", 135);
    /// Stalled-task resubmission ledger for lineage reconstruction.
    pub static STALLED_TASKS: LockClass = LockClass::new("core.stalled", 140);
    /// A node's thread handles (heartbeat thread and workers).
    pub static NODE_JOIN: LockClass = LockClass::new("core.node_join", 150);
    /// The global-scheduler thread's join handle.
    pub static GLOBAL_JOIN: LockClass = LockClass::new("core.global_join", 155);
    /// The function registry map.
    pub static FUNCTION_REGISTRY: LockClass = LockClass::new("core.registry", 160);
    /// Shared by a node's trace flush from ring drain to GCS commit,
    /// exclusive for a reader of the event log waiting those flushes out.
    pub static TRACE_FLUSH: LockClass = LockClass::new("core.trace_flush", 165);

    // --- scheduler (200–289) ---

    /// Per-node load/heartbeat table.
    pub static SCHED_LOAD_NODES: LockClass = LockClass::new("scheduler.load_nodes", 200);
    /// Cluster-wide EWMA bandwidth estimate.
    pub static SCHED_LOAD_BANDWIDTH: LockClass = LockClass::new("scheduler.load_bandwidth", 210);
    /// Global scheduler's object-location cache.
    pub static SCHED_LOCATION_CACHE: LockClass = LockClass::new("scheduler.location_cache", 220);
    /// The global scheduler's tie-breaking RNG (a leaf: nothing is
    /// acquired while it is held).
    pub static SCHED_RNG: LockClass = LockClass::new("scheduler.rng", 225);
    /// A local scheduler's available-resource ledger.
    pub static SCHED_LEDGER: LockClass = LockClass::new("scheduler.ledger", 230);

    // --- object store (290–399) ---

    /// The node-id → store directory used by the transfer manager.
    pub static STORE_DIRECTORY: LockClass = LockClass::new("object_store.directory", 290);
    /// A local store's object map; held while evicting into spill.
    pub static STORE_MAP: LockClass = LockClass::new("object_store.map", 300);
    /// Spill-store index (offsets); acquired under `STORE_MAP` on evict.
    pub static SPILL_INDEX: LockClass = LockClass::new("object_store.spill_index", 310);
    /// Spill-store backing buffer.
    pub static SPILL_BACKING: LockClass = LockClass::new("object_store.spill_backing", 320);

    // --- GCS (400–499) ---

    /// Serializes chain reconfiguration; held while reading/writing the
    /// member list.
    pub static GCS_RECONFIG: LockClass = LockClass::new("gcs.reconfig", 400);
    /// The replication-chain member list.
    pub static GCS_MEMBERS: LockClass = LockClass::new("gcs.members", 410);
    /// A chain's write order: held by the one writer walking an update
    /// from head to tail, so every member applies the same sequence.
    pub static GCS_CHAIN_ORDER: LockClass = LockClass::new("gcs.chain_order", 412);
    /// One chain member's shard state; a write holds one at a time (under
    /// `GCS_CHAIN_ORDER`), a read only the tail's. Held while flushing
    /// into the disk tier.
    pub static GCS_REPLICA_STATE: LockClass = LockClass::new("gcs.replica_state", 415);
    /// Durable-store backing buffer (flush target).
    pub static GCS_DISK_BACKING: LockClass = LockClass::new("gcs.disk_backing", 420);
    /// Durable-store key index.
    pub static GCS_DISK_INDEX: LockClass = LockClass::new("gcs.disk_index", 430);
    /// The flusher thread's join handle.
    pub static GCS_FLUSHER_JOIN: LockClass = LockClass::new("gcs.flusher_join", 440);
    /// Consistency-checker write journal (never held across chain calls).
    pub static GCS_CHECKER: LockClass = LockClass::new("gcs.checker", 450);

    // --- transport (500–599) ---

    /// The partitioned-link set consulted on every delivery.
    pub static FABRIC_PARTITIONS: LockClass = LockClass::new("transport.partitions", 500);
    /// Per-link lane (bandwidth semaphore) table.
    pub static FABRIC_LANES: LockClass = LockClass::new("transport.lanes", 510);
    /// Chaos-injection RNG.
    pub static FABRIC_CHAOS_RNG: LockClass = LockClass::new("transport.chaos_rng", 520);
    /// Counting-semaphore permit state (innermost transport lock: held
    /// only around the permit counter and its condvar).
    pub static TRANSPORT_SEMAPHORE: LockClass = LockClass::new("transport.semaphore", 530);

    // --- BSP (600–699) ---

    /// A BSP rank's out-of-step message stash.
    pub static BSP_STASH: LockClass = LockClass::new("bsp.stash", 600);

    // --- RL library (700–799) ---

    /// Scratch output slots for `parallel_map` workers.
    pub static RL_SCRATCH: LockClass = LockClass::new("rl.scratch", 700);

    // --- benches (800–899) ---

    /// Gradient accumulator in the SGD throughput bench; held while
    /// publishing into `BENCH_PARAMS`.
    pub static BENCH_ACCUM: LockClass = LockClass::new("bench.accum", 800);
    /// Shared parameter block in the SGD throughput bench.
    pub static BENCH_PARAMS: LockClass = LockClass::new("bench.params", 810);

    // --- metrics (1000+): innermost, touchable from any layer ---

    /// Counter map of a [`crate::metrics::MetricsRegistry`].
    pub static METRICS_COUNTERS: LockClass = LockClass::new("metrics.counters", 1000);
    /// Gauge map of a [`crate::metrics::MetricsRegistry`].
    pub static METRICS_GAUGES: LockClass = LockClass::new("metrics.gauges", 1010);
    /// Histogram map of a [`crate::metrics::MetricsRegistry`].
    pub static METRICS_HISTOGRAMS: LockClass = LockClass::new("metrics.histograms", 1015);
    /// The trace collector's node → ring table (grown lazily).
    pub static TRACE_RINGS: LockClass = LockClass::new("trace.rings", 1020);
    /// One node's trace ring buffer (innermost: emission can happen under
    /// any subsystem lock, like metrics bumps).
    pub static TRACE_RING: LockClass = LockClass::new("trace.ring", 1030);
}

// ---------------------------------------------------------------------------
// Debug-build tracking: held stack, order graph, violations, long holds.
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
mod order {
    use super::LockClass;
    use crate::metrics::{names, MetricsRegistry};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Global registry + acquisition-order graph. Edges are pairs of dense
    /// class ids; `BTreeSet` keeps iteration (and thus cycle reports)
    /// deterministic.
    struct State {
        classes: Vec<&'static LockClass>,
        edges: BTreeSet<(u32, u32)>,
        violations: Vec<String>,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        classes: Vec::new(),
        edges: BTreeSet::new(),
        violations: Vec::new(),
    });

    /// Whether a rank inversion panics (default) or is only recorded.
    /// Tests that deliberately invert flip this off first.
    static PANIC_ON_VIOLATION: AtomicBool = AtomicBool::new(true);

    /// Long-hold threshold in microseconds (default 250ms) and counter.
    static LONG_HOLD_MICROS: AtomicU64 = AtomicU64::new(250_000);
    static LONG_HOLD_COUNT: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// The classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
        /// Re-entrancy guard: long-hold reporting touches the metrics
        /// registry, whose own locks must not re-report.
        static REPORTING: Cell<bool> = const { Cell::new(false) };
        /// Per-thread metrics sink for long-hold events. Thread-scoped on
        /// purpose: two `Cluster`s in one process (parallel `cargo test`)
        /// must not feed each other's registries, so each cluster installs
        /// its registry on the threads it owns instead of process-wide.
        static METRICS_SINK: RefCell<Option<MetricsRegistry>> = const { RefCell::new(None) };
    }

    /// Assigns (once) and returns the dense 1-based id of `class`.
    fn class_id(class: &'static LockClass) -> u32 {
        let id = class.id.load(Ordering::Acquire);
        if id != 0 {
            return id;
        }
        let mut st = STATE.lock().unwrap();
        let id = class.id.load(Ordering::Acquire);
        if id != 0 {
            return id;
        }
        st.classes.push(class);
        let id = st.classes.len() as u32;
        class.id.store(id, Ordering::Release);
        id
    }

    /// Rank check + edge recording. Runs *before* the blocking acquire so
    /// a would-deadlock interleaving is reported instead of hanging.
    pub(super) fn before_acquire(class: &'static LockClass) {
        let id = class_id(class);
        // Snapshot the held stack out of the RefCell so the panic path
        // below can't hit a re-entrant borrow.
        let held: Vec<&'static LockClass> = HELD
            .try_with(|h| h.borrow().clone())
            .unwrap_or_default();
        if held.is_empty() {
            return;
        }
        let mut ids: Vec<u32> = held.iter().map(|c| class_id(c)).collect();
        ids.sort_unstable();
        ids.dedup();
        let max_rank = held.iter().map(|c| c.rank()).max().unwrap();
        let violation = class.rank() <= max_rank;
        {
            let mut st = STATE.lock().unwrap();
            for held_id in ids {
                st.edges.insert((held_id, id));
            }
            if violation {
                let stack: Vec<String> = held
                    .iter()
                    .map(|c| format!("{} (rank {})", c.name(), c.rank()))
                    .collect();
                st.violations.push(format!(
                    "lock-order violation: acquiring '{}' (rank {}) while holding [{}]",
                    class.name(),
                    class.rank(),
                    stack.join(", ")
                ));
            }
        }
        if violation && PANIC_ON_VIOLATION.load(Ordering::Relaxed) {
            panic!(
                "lock-order violation: acquiring '{}' (rank {}) while holding a lock of rank {} — \
                 see ray_common::sync::classes for the rank table",
                class.name(),
                class.rank(),
                max_rank
            );
        }
    }

    /// Pushes `class` onto the held stack (acquire succeeded).
    pub(super) fn after_acquire(class: &'static LockClass) {
        let _ = HELD.try_with(|h| h.borrow_mut().push(class));
    }

    /// Pops `class` (topmost matching entry — releases may be
    /// out-of-LIFO) and runs the long-hold check.
    pub(super) fn on_release(class: &'static LockClass, acquired: Instant) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|c| std::ptr::eq(*c, class)) {
                held.remove(pos);
            }
        });
        let held_for = acquired.elapsed();
        if held_for >= Duration::from_micros(LONG_HOLD_MICROS.load(Ordering::Relaxed)) {
            report_long_hold(class, held_for);
        }
    }

    fn report_long_hold(class: &'static LockClass, _held_for: Duration) {
        LONG_HOLD_COUNT.fetch_add(1, Ordering::Relaxed);
        let entered = REPORTING
            .try_with(|r| {
                if r.get() {
                    false
                } else {
                    r.set(true);
                    true
                }
            })
            .unwrap_or(false);
        if !entered {
            return;
        }
        let sink = METRICS_SINK
            .try_with(|s| s.borrow().clone())
            .unwrap_or_default();
        if let Some(m) = sink {
            m.counter(names::LOCK_LONG_HOLDS).inc();
        }
        let _ = class; // identity available for future per-class metrics
        let _ = REPORTING.try_with(|r| r.set(false));
    }

    // ---- public (re-exported) debug API ----

    pub(super) fn set_panic_on_violation(on: bool) -> bool {
        PANIC_ON_VIOLATION.swap(on, Ordering::Relaxed)
    }

    pub(super) fn violations() -> Vec<String> {
        STATE.lock().unwrap().violations.clone()
    }

    pub(super) fn acquisition_edges() -> Vec<(&'static str, &'static str)> {
        let st = STATE.lock().unwrap();
        st.edges
            .iter()
            .map(|&(a, b)| {
                (
                    st.classes[(a - 1) as usize].name(),
                    st.classes[(b - 1) as usize].name(),
                )
            })
            .collect()
    }

    pub(super) fn detect_cycle() -> Option<Vec<&'static str>> {
        let st = STATE.lock().unwrap();
        let n = st.classes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        for &(a, b) in &st.edges {
            adj[a as usize].push(b); // BTreeSet order ⇒ each list sorted
        }
        let mut color = vec![0u8; n + 1]; // 0 white, 1 on-path, 2 done
        let mut path: Vec<u32> = Vec::new();
        fn dfs(
            u: u32,
            adj: &[Vec<u32>],
            color: &mut [u8],
            path: &mut Vec<u32>,
        ) -> Option<Vec<u32>> {
            color[u as usize] = 1;
            path.push(u);
            for &v in &adj[u as usize] {
                match color[v as usize] {
                    0 => {
                        if let Some(c) = dfs(v, adj, color, path) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let pos = path.iter().position(|&x| x == v).unwrap();
                        let mut cycle = path[pos..].to_vec();
                        cycle.push(v);
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
            path.pop();
            color[u as usize] = 2;
            None
        }
        for start in 1..=n as u32 {
            if color[start as usize] == 0 {
                if let Some(cycle) = dfs(start, &adj, &mut color, &mut path) {
                    return Some(
                        cycle
                            .into_iter()
                            .map(|id| st.classes[(id - 1) as usize].name())
                            .collect(),
                    );
                }
            }
        }
        None
    }

    pub(super) fn set_long_hold_threshold(d: Duration) {
        LONG_HOLD_MICROS.store(d.as_micros() as u64, Ordering::Relaxed);
    }

    pub(super) fn long_hold_count() -> u64 {
        LONG_HOLD_COUNT.load(Ordering::Relaxed)
    }

    pub(super) fn install_long_hold_metrics(m: MetricsRegistry) {
        let _ = METRICS_SINK.try_with(|s| *s.borrow_mut() = Some(m));
    }
}

// ---------------------------------------------------------------------------
// Public debug API (no-op shims in release builds).
// ---------------------------------------------------------------------------

/// Controls whether a rank inversion panics (debug builds). Returns the
/// previous setting. Violations are recorded either way, so a test that
/// disables panics can still assert on [`violations`] / [`detect_cycle`].
pub fn set_panic_on_violation(on: bool) -> bool {
    #[cfg(debug_assertions)]
    {
        order::set_panic_on_violation(on)
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = on;
        true
    }
}

/// All rank-inversion reports recorded so far (debug builds; empty in
/// release).
pub fn violations() -> Vec<String> {
    #[cfg(debug_assertions)]
    {
        order::violations()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// The accumulated acquisition-order graph as `(held, acquired)` name
/// pairs, deterministically ordered (debug builds; empty in release).
pub fn acquisition_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(debug_assertions)]
    {
        order::acquisition_edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Searches the acquisition-order graph for a cycle — a *potential*
/// deadlock, even if no run ever interleaved into it. Returns the cycle as
/// class names, first repeated at the end; deterministic across calls.
/// Always `None` in release builds.
pub fn detect_cycle() -> Option<Vec<&'static str>> {
    #[cfg(debug_assertions)]
    {
        order::detect_cycle()
    }
    #[cfg(not(debug_assertions))]
    {
        None
    }
}

/// Panics if the acquisition-order graph contains a cycle. No-op in
/// release builds.
pub fn assert_acyclic() {
    if let Some(cycle) = detect_cycle() {
        panic!(
            "lock acquisition-order graph has a cycle (potential deadlock): {}",
            cycle.join(" -> ")
        );
    }
}

/// Sets the hold-duration threshold beyond which a release is counted as
/// a long hold (debug builds; default 250ms).
pub fn set_long_hold_threshold(d: std::time::Duration) {
    #[cfg(debug_assertions)]
    order::set_long_hold_threshold(d);
    #[cfg(not(debug_assertions))]
    let _ = d;
}

/// Number of long holds observed so far (debug builds; 0 in release).
pub fn long_hold_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        order::long_hold_count()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Routes long-hold events on the **calling thread** to `m` as
/// [`crate::metrics::names::LOCK_LONG_HOLDS`] increments (debug builds).
/// The sink is thread-scoped: a cluster installs its registry on every
/// thread it owns (schedulers, workers, actor hosts) plus the thread that
/// called `Cluster::start`, so two clusters in one process — parallel
/// `cargo test`, notably — cannot contaminate each other's counters. A
/// later install on the same thread replaces that thread's sink.
pub fn install_long_hold_metrics(m: crate::metrics::MetricsRegistry) {
    #[cfg(debug_assertions)]
    order::install_long_hold_metrics(m);
    #[cfg(not(debug_assertions))]
    let _ = m;
}

// ---------------------------------------------------------------------------
// OrderedMutex
// ---------------------------------------------------------------------------

/// A [`parking_lot::Mutex`] bound to a [`LockClass`]; rank-checked in
/// debug builds, transparent in release.
pub struct OrderedMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex registered to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedMutex {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquires the mutex, enforcing the rank rule in debug builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.lock();
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedMutexGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            #[cfg(debug_assertions)]
            acquired: Instant::now(),
            inner,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// The class this lock is registered to.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`OrderedMutex`]; releases (and pops the held stack) on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    #[cfg(debug_assertions)]
    acquired: Instant,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::on_release(self.class, self.acquired);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// OrderedRwLock
// ---------------------------------------------------------------------------

/// A [`parking_lot::RwLock`] bound to a [`LockClass`]. Read and write
/// acquisitions are rank-checked identically — the order discipline is
/// about *waiting*, which shared acquires do too.
pub struct OrderedRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates an rwlock registered to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedRwLock {
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquires shared access, enforcing the rank rule in debug builds.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.read();
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedRwLockReadGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            #[cfg(debug_assertions)]
            acquired: Instant::now(),
            inner,
        }
    }

    /// Acquires exclusive access, enforcing the rank rule in debug builds.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.write();
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedRwLockWriteGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            #[cfg(debug_assertions)]
            acquired: Instant::now(),
            inner,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// The class this lock is registered to.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    #[cfg(debug_assertions)]
    acquired: Instant,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::on_release(self.class, self.acquired);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    #[cfg(debug_assertions)]
    acquired: Instant,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::on_release(self.class, self.acquired);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// OrderedCondvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`OrderedMutex`]. Waiting releases the
/// mutex; on wake the guard's hold timer restarts so long-hold detection
/// measures actual hold time, not wait time.
pub struct OrderedCondvar {
    inner: parking_lot::Condvar,
}

impl OrderedCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks until notified, atomically releasing `guard`'s mutex.
    pub fn wait<T>(&self, guard: &mut OrderedMutexGuard<'_, T>) {
        self.inner.wait(&mut guard.inner);
        #[cfg(debug_assertions)]
        {
            guard.acquired = Instant::now();
        }
    }

    /// Blocks until notified or `deadline` passes; the result's
    /// `timed_out()` reports which.
    pub fn wait_until<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        deadline: Instant,
    ) -> parking_lot::WaitTimeoutResult {
        let res = self.inner.wait_until(&mut guard.inner, deadline);
        #[cfg(debug_assertions)]
        {
            guard.acquired = Instant::now();
        }
        res
    }
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        OrderedCondvar::new()
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OrderedCondvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    static T_OUTER: LockClass = LockClass::new("test.outer", 10_000);
    static T_INNER: LockClass = LockClass::new("test.inner", 10_010);
    static T_HOLD: LockClass = LockClass::new("test.hold", 10_020);
    static T_COND: LockClass = LockClass::new("test.cond", 10_030);

    #[test]
    fn in_order_acquisition_is_clean() {
        let a = OrderedMutex::new(&T_OUTER, 1);
        let b = OrderedMutex::new(&T_INNER, 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        // The edge outer→inner is now on record.
        #[cfg(debug_assertions)]
        assert!(acquisition_edges()
            .iter()
            .any(|&(x, y)| x == "test.outer" && y == "test.inner"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn inversion_is_recorded_when_panic_disabled() {
        let a = OrderedMutex::new(&T_OUTER, ());
        let b = OrderedMutex::new(&T_INNER, ());
        let prev = set_panic_on_violation(false);
        {
            let _gb = b.lock();
            let _ga = a.lock(); // inner held while acquiring outer
        }
        set_panic_on_violation(prev);
        assert!(violations()
            .iter()
            .any(|v| v.contains("test.outer") && v.contains("test.inner")));
    }

    #[test]
    fn rwlock_reads_and_writes_work() {
        let l = OrderedRwLock::new(&T_HOLD, vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn long_holds_are_counted() {
        set_long_hold_threshold(Duration::from_millis(1));
        let before = long_hold_count();
        let m = OrderedMutex::new(&T_HOLD, ());
        {
            let _g = m.lock();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(long_hold_count() > before);
        set_long_hold_threshold(Duration::from_millis(250));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn long_hold_sink_is_scoped_per_thread() {
        use crate::metrics::{names, MetricsRegistry};
        static T_SCOPE: LockClass = LockClass::new("test.sink_scope", 10_040);
        // Two "clusters" on two threads, each with its own registry: a
        // long hold on one thread must only land in that thread's sink.
        // Holds are longer than the default 250ms threshold so this test
        // never touches the (process-global) threshold knob and cannot
        // race sibling tests that do.
        let spawn_cluster_thread = |hold: bool| {
            std::thread::spawn(move || {
                let reg = MetricsRegistry::new();
                install_long_hold_metrics(reg.clone());
                let m = OrderedMutex::new(&T_SCOPE, ());
                {
                    let _g = m.lock();
                    if hold {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                }
                reg.counter(names::LOCK_LONG_HOLDS).get()
            })
        };
        let holder = spawn_cluster_thread(true);
        let bystander = spawn_cluster_thread(false);
        // The holding thread's registry saw its long hold; the bystander
        // cluster's registry saw nothing — a process-global sink (the old
        // behaviour) could route the holder's event into whichever
        // registry installed last.
        assert!(holder.join().unwrap() >= 1);
        assert_eq!(bystander.join().unwrap(), 0);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = OrderedMutex::new(&T_COND, false);
        let cv = OrderedCondvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        use std::sync::Arc;
        struct Shared {
            m: OrderedMutex<bool>,
            cv: OrderedCondvar,
        }
        let s = Arc::new(Shared {
            m: OrderedMutex::new(&T_COND, false),
            cv: OrderedCondvar::new(),
        });
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            let mut g = s2.m.lock();
            while !*g {
                s2.cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        *s.m.lock() = true;
        s.cv.notify_all();
        t.join().unwrap();
    }
}
