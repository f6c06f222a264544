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
//!   the fatal interleaving never manifested in that run.
//!
//! In release builds (`not(debug_assertions)`) every check compiles away
//! and the wrappers are thin newtypes over `std::sync` — hot paths pay
//! nothing. Poisoning is ignored (`PoisonError::into_inner`): a thread
//! that panics under a lock leaves the value as it was and the lock usable,
//! which the engine's `catch_unwind` around user code relies on.
//!
//! This file is the **only** place in the workspace allowed to name
//! `std::sync::{Mutex, RwLock, Condvar}`; the `xtask` analyzer
//! (`cargo run -p xtask -- analyze`) rejects raw locks everywhere else.
//! All production lock classes live in [`classes`], which doubles as the
//! workspace's documented rank table (mirrored in `DESIGN.md`).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Instant;

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU32;

/// A named rank in the workspace-wide lock order.
///
/// Classes are declared as `static`s (construction is `const`) and passed
/// by reference to [`OrderedMutex::new`] / [`OrderedRwLock::new`]. Many
/// lock *instances* may share one class (e.g. the 16 cancel-registry
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
    /// One shard of the per-task registry (task → token, children, node;
    /// 16 instances, one class).
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

    /// A BSP rank's inbox: delivered messages not yet claimed by a
    /// matching receive (a leaf: nothing is acquired while it is held).
    pub static BSP_INBOX: LockClass = LockClass::new("bsp.inbox", 600);

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
// Debug-build tracking: held stack, order graph, violations.
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
mod order {
    use super::LockClass;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

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

    thread_local! {
        /// The classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
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
    /// out-of-LIFO).
    pub(super) fn on_release(class: &'static LockClass) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|c| std::ptr::eq(*c, class)) {
                held.remove(pos);
            }
        });
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

// ---------------------------------------------------------------------------
// OrderedMutex
// ---------------------------------------------------------------------------

/// A [`std::sync::Mutex`] bound to a [`LockClass`]; rank-checked in
/// debug builds, transparent in release, never poisoned.
pub struct OrderedMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: sync::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex registered to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedMutex {
            class,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquires the mutex, enforcing the rank rule in debug builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedMutexGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            inner: Some(inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
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
    /// `None` only inside an [`OrderedCondvar`] wait, while std owns it.
    inner: Option<sync::MutexGuard<'a, T>>,
}

const GUARD_HELD: &str = "invariant: a guard is only empty inside a condvar wait";

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect(GUARD_HELD)
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect(GUARD_HELD)
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::on_release(self.class);
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

/// A [`std::sync::RwLock`] bound to a [`LockClass`], never poisoned. Read
/// and write acquisitions are rank-checked identically — the order
/// discipline is about *waiting*, which shared acquires do too.
pub struct OrderedRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: sync::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates an rwlock registered to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedRwLock {
            class,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquires shared access, enforcing the rank rule in debug builds.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedRwLockReadGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            inner,
        }
    }

    /// Acquires exclusive access, enforcing the rank rule in debug builds.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::before_acquire(self.class);
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        order::after_acquire(self.class);
        OrderedRwLockWriteGuard {
            #[cfg(debug_assertions)]
            class: self.class,
            inner,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
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
    inner: sync::RwLockReadGuard<'a, T>,
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
        order::on_release(self.class);
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
    inner: sync::RwLockWriteGuard<'a, T>,
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
        order::on_release(self.class);
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

/// Whether an [`OrderedCondvar::wait_until`] ended at its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the deadline passed before a notification arrived.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable paired with [`OrderedMutex`]. Waiting releases the
/// mutex and re-acquires it before returning.
pub struct OrderedCondvar {
    inner: sync::Condvar,
}

impl OrderedCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: sync::Condvar::new(),
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
        let held = guard.inner.take().expect(GUARD_HELD);
        guard.inner = Some(self.inner.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// Blocks until notified or `deadline` passes; the result's
    /// `timed_out()` reports which.
    pub fn wait_until<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let held = guard.inner.take().expect(GUARD_HELD);
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (held, res) = self
            .inner
            .wait_timeout(held, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
        WaitTimeoutResult(res.timed_out())
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
    fn condvar_wait_until_times_out() {
        let m = OrderedMutex::new(&T_COND, false);
        let cv = OrderedCondvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    static T_POISON: LockClass = LockClass::new("test.poison", 10_050);

    /// Runs `f` on its own thread, which must panic.
    fn panics_on_a_thread(f: impl FnOnce() + Send + 'static) {
        assert!(std::thread::spawn(f).join().is_err(), "the thread was meant to panic");
    }

    #[test]
    fn a_panic_under_a_lock_leaves_it_usable_and_the_value_intact() {
        use std::sync::Arc;
        let m = Arc::new(OrderedMutex::new(&T_POISON, 7));
        let l = Arc::new(OrderedRwLock::new(&T_POISON, 7));
        let (m2, l2, l3) = (m.clone(), l.clone(), l.clone());
        panics_on_a_thread(move || {
            let _g = m2.lock();
            panic!("dies holding the mutex");
        });
        panics_on_a_thread(move || {
            let _g = l2.read();
            panic!("dies holding a read guard");
        });
        panics_on_a_thread(move || {
            let _g = l3.write();
            panic!("dies holding the write guard");
        });
        assert_eq!(*m.lock(), 7);
        assert_eq!(*l.read(), 7);
        *l.write() += 1;
        assert_eq!(*l.read(), 8);
        let (Ok(mut m), Ok(mut l)) = (Arc::try_unwrap(m), Arc::try_unwrap(l)) else {
            panic!("the panicking threads still hold the locks");
        };
        assert_eq!((*m.get_mut(), *l.get_mut()), (7, 8));
        assert_eq!((m.into_inner(), l.into_inner()), (7, 8));
    }

    #[test]
    fn a_condvar_waiter_wakes_past_a_panic_under_its_mutex() {
        use std::sync::Arc;
        /// `(waiting, go)`: the waiter is inside its wait; it may leave.
        struct Shared {
            m: OrderedMutex<(bool, bool)>,
            cv: OrderedCondvar,
        }
        for timed in [false, true] {
            let s = Arc::new(Shared {
                m: OrderedMutex::new(&T_POISON, (false, false)),
                cv: OrderedCondvar::new(),
            });
            let waiter = {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut g = s.m.lock();
                    g.0 = true;
                    while !g.1 {
                        if timed {
                            s.cv.wait_until(&mut g, Instant::now() + Duration::from_secs(30));
                        } else {
                            s.cv.wait(&mut g);
                        }
                    }
                })
            };
            let notifier = s.clone();
            panics_on_a_thread(move || loop {
                let mut g = notifier.m.lock();
                if g.0 {
                    // The waiter released the mutex inside its wait: it
                    // wakes to re-take it from a thread that died holding it.
                    g.1 = true;
                    notifier.cv.notify_all();
                    panic!("dies holding the waiter's mutex");
                }
                drop(g);
                std::thread::yield_now();
            });
            assert!(waiter.join().is_ok(), "timed={timed}: the waiter panicked");
            assert_eq!(*s.m.lock(), (true, true), "timed={timed}");
        }
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
