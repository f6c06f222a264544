//! The replica pool: router, health model, autoscaler, hedging.
//!
//! One [`ReplicaPool`] owns N replicas of one actor class and routes
//! requests at them. The division of labor with the core runtime:
//!
//! - **core** owns replica *durability*: checkpoints, method-log replay,
//!   and actor reconstruction after a node death. The pool never rebuilds
//!   a replica itself — it spawns with `critical` so reconstruction is
//!   automatic, and re-admits the replica when a health probe answers.
//! - **the pool** owns *availability*: while a replica is down, requests
//!   fail over to survivors within their deadline budget, new capacity is
//!   spawned when queues build, and stragglers are raced with hedges.
//!
//! Retries never duplicate side effects: before any attempt is retried or
//! loses a hedge race, it is cancelled through its task cancel token, and
//! the actor host checks that token *before* appending the method to the
//! stateful-edge log. An attempt either executes exactly once (and its
//! result is fetched) or is torn down unlogged.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ray_common::metrics::names;
use ray_common::sync::{classes, OrderedMutex, OrderedRwLock};
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{ActorId, NodeId, RayError, RayResult};
use ray_codec::Blob;
use rustray::{node_affinity, ActorHandle, Arg, Cluster, ObjectRef, RayContext, TaskOptions};

use crate::config::{HedgeConfig, PoolConfig};
use crate::stats::LatencyDigest;

/// How long the router naps when no replica is routable, before
/// re-checking whether a probe or reconstruction brought one back.
const NO_REPLICA_WAIT: Duration = Duration::from_micros(500);

/// Cadence of the drain check while retiring a replica.
const DRAIN_POLL: Duration = Duration::from_micros(500);

/// Deadline for a spawned replica's constructor to finish.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(5);

/// The read-only health-probe method every replica class answers (see
/// [`PoolConfig`]).
const PROBE_METHOD: &str = "ping";

/// A snapshot row of [`ReplicaPool::replicas`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaInfo {
    pub actor: ActorId,
    pub node: NodeId,
    pub healthy: bool,
    pub outstanding: usize,
}

/// One replica as the router sees it.
struct ReplicaSlot {
    handle: ActorHandle,
    /// Last known hosting node (raw [`NodeId`] index; refreshed by probes
    /// after reconstruction may have moved the actor).
    node: AtomicU32,
    /// Routable? Cleared on a replica fault, set again by a probe answer.
    healthy: AtomicBool,
    /// Requests currently routed at this replica (drain accounting).
    outstanding: AtomicUsize,
}

impl ReplicaSlot {
    fn new(handle: ActorHandle, node: NodeId) -> ReplicaSlot {
        ReplicaSlot {
            handle,
            node: AtomicU32::new(node.0),
            healthy: AtomicBool::new(true),
            outstanding: AtomicUsize::new(0),
        }
    }

    fn node(&self) -> NodeId {
        NodeId(self.node.load(Ordering::Relaxed))
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }
}

/// Decrements a slot's outstanding count on drop (panic- and early-return
/// safe).
struct LoadGuard<'a>(&'a ReplicaSlot);

impl<'a> LoadGuard<'a> {
    fn new(slot: &'a ReplicaSlot) -> LoadGuard<'a> {
        slot.outstanding.fetch_add(1, Ordering::Relaxed);
        LoadGuard(slot)
    }
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        self.0.outstanding.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Decrements the pool's admitted-requests count on drop.
struct PendingGuard<'a>(&'a PoolInner);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

struct PoolInner {
    cluster: Arc<Cluster>,
    /// One driver context for the pool's lifetime: creating it once at
    /// deploy keeps task IDs (and thus traces) deterministic across runs.
    ctx: RayContext,
    cfg: PoolConfig,
    slots: OrderedRwLock<Vec<Arc<ReplicaSlot>>>,
    /// Requests admitted and not yet answered (shed watermark input).
    pending: AtomicUsize,
    /// Round-robin cursor for tie-breaking among equally loaded replicas.
    rr: AtomicUsize,
    digest: LatencyDigest,
    shutdown: AtomicBool,
    /// Trace-clock micros of the last autoscaling decision (cooldown).
    last_scale_us: AtomicU64,
}

/// A deployed pool. Dropping (or [`ReplicaPool::shutdown`]) stops the
/// background threads; the replicas themselves live until the cluster
/// shuts down.
pub struct ReplicaPool {
    inner: Arc<PoolInner>,
    workers: OrderedMutex<Vec<JoinHandle<()>>>,
}

impl ReplicaPool {
    /// Deploys `cfg.replicas_min` replicas and starts the health/autoscale
    /// monitor thread if one is configured.
    pub fn deploy(cluster: &Arc<Cluster>, cfg: PoolConfig) -> RayResult<ReplicaPool> {
        cfg.validate()?;
        let ctx = cluster.driver();
        let inner = Arc::new(PoolInner {
            cluster: Arc::clone(cluster),
            ctx,
            cfg,
            slots: OrderedRwLock::new(&classes::SERVE_POOL, Vec::new()),
            pending: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            digest: LatencyDigest::new(),
            shutdown: AtomicBool::new(false),
            last_scale_us: AtomicU64::new(0),
        });
        for _ in 0..inner.cfg.replicas_min {
            inner.spawn_replica("deploy")?;
        }
        let mut workers = Vec::new();
        if let Some(interval) = inner.cfg.monitor_interval {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("serve-monitor".to_string())
                    .spawn(move || monitor_loop(&inner, interval))
                    .map_err(|e| RayError::Io(e.to_string()))?,
            );
        }
        Ok(ReplicaPool {
            inner,
            workers: OrderedMutex::new(&classes::SERVE_CONTROL, workers),
        })
    }

    /// Serves one request end to end: admission (shed past the
    /// watermark), routing with failover and optional hedging, latency +
    /// SLO accounting. `payload` is handed to the replica method as one
    /// [`Blob`] argument; the reply is the method's `Blob` return.
    pub fn request(&self, payload: Vec<u8>) -> RayResult<Vec<u8>> {
        self.inner.request(payload).map(|b| b.0)
    }

    /// One synchronous health-probe round over every replica. Returns the
    /// number of healthy replicas afterwards. Tests (and the monitor
    /// thread) drive recovery re-admission through this.
    pub fn probe_now(&self) -> usize {
        self.inner.probe_now()
    }

    /// One autoscaling decision (no-op unless enabled and out of
    /// cooldown).
    pub fn autoscale_once(&self) -> RayResult<()> {
        self.inner.autoscale_once()
    }

    /// Spawns one replica beyond the current set (bounded by
    /// `replicas_max`), placed by the global scheduler.
    pub fn scale_up(&self) -> RayResult<ActorId> {
        if self.inner.replica_count() >= self.inner.cfg.replicas_max {
            return Err(RayError::Invalid("pool at replicas_max".into()));
        }
        self.inner.spawn_replica("scale-up")
    }

    /// Current replica table snapshot.
    pub fn replicas(&self) -> Vec<ReplicaInfo> {
        self.inner
            .slots
            .read()
            .iter()
            .map(|s| ReplicaInfo {
                actor: s.handle.id(),
                node: s.node(),
                healthy: s.is_healthy(),
                outstanding: s.outstanding.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Handles to the current replicas, for out-of-band inspection
    /// (tests probe side-effect counters through these).
    pub fn replica_handles(&self) -> Vec<ActorHandle> {
        self.inner.slots.read().iter().map(|s| s.handle.clone()).collect()
    }

    /// Replicas currently marked routable.
    pub fn healthy_count(&self) -> usize {
        self.inner.healthy_count()
    }

    /// Observed success latency at quantile `q` (µs), if any samples.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        self.inner.digest.percentile(q)
    }

    /// Stops background threads and rejects new requests. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PoolInner {
    fn metrics(&self) -> &ray_common::metrics::MetricsRegistry {
        self.cluster.metrics()
    }

    fn emit(&self, kind: TraceEventKind, entity: TraceEntity, detail: String) {
        self.cluster.trace().emit(self.ctx.node(), kind, entity, detail);
    }

    fn now_micros(&self) -> u64 {
        self.cluster.trace().clock().now_micros()
    }

    fn replica_count(&self) -> usize {
        self.slots.read().len()
    }

    fn healthy_count(&self) -> usize {
        self.slots.read().iter().filter(|s| s.is_healthy()).count()
    }

    // ------------------------------------------------------------------
    // Request path.
    // ------------------------------------------------------------------

    fn request(&self, payload: Vec<u8>) -> RayResult<Blob> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(RayError::Shutdown("serve pool is shut down".into()));
        }
        let prev = self.pending.fetch_add(1, Ordering::Relaxed);
        let _admitted = PendingGuard(self);
        if prev >= self.cfg.shed_watermark {
            // Load shedding: past the watermark an immediate Overloaded
            // beats queueing work that will blow its deadline anyway.
            self.metrics().counter(names::SERVE_SHED).inc();
            return Err(RayError::Overloaded(self.ctx.node()));
        }
        let start = self.now_micros();
        let deadline_us = start.saturating_add(duration_micros(self.cfg.request_timeout));
        let out = self.route(&Arg::value(&Blob(payload))?, deadline_us);
        if out.is_ok() {
            let latency = self.now_micros().saturating_sub(start);
            self.digest.record(latency);
            self.metrics().histogram(names::SERVE_LATENCY_MICROS).observe(latency);
            self.metrics().counter(names::SERVE_REQUESTS).inc();
            if let Some(slo) = self.cfg.slo {
                if latency > duration_micros(slo) {
                    self.metrics().counter(names::SERVE_SLO_VIOLATIONS).inc();
                    self.emit(
                        TraceEventKind::SloViolated,
                        TraceEntity::Node(self.ctx.node()),
                        format!("latency_us={latency} slo_us={}", duration_micros(slo)),
                    );
                }
            }
        }
        out
    }

    /// Routes one logical call: picks a healthy replica, attempts (with
    /// hedging), and on replica faults retries on survivors while
    /// deadline budget remains. Application errors surface immediately.
    fn route(&self, arg: &Arg, deadline_us: u64) -> RayResult<Blob> {
        let mut last_err = RayError::Timeout;
        loop {
            let now = self.now_micros();
            if now >= deadline_us || self.shutdown.load(Ordering::Relaxed) {
                return Err(last_err);
            }
            let Some(slot) = self.pick(None) else {
                // Nothing routable: a probe or reconstruction may re-admit
                // a replica any moment, so burn a beat of deadline budget
                // instead of failing a request that still has time.
                std::thread::sleep(NO_REPLICA_WAIT);
                continue;
            };
            let _load = LoadGuard::new(&slot);
            // One attempt gets at most `attempt_timeout` of the budget:
            // an attempt orphaned mid-execution (node death racing the
            // method log) must not pin the request until its deadline
            // when a survivor could serve it.
            let attempt_deadline_us = match self.cfg.attempt_timeout {
                Some(cap) => deadline_us.min(now.saturating_add(duration_micros(cap))),
                None => deadline_us,
            };
            let opts = TaskOptions::default()
                .with_timeout(Duration::from_micros(attempt_deadline_us - now));
            let first = match self.ctx.call_actor_opts::<Blob>(
                &slot.handle,
                &self.cfg.method,
                vec![arg.clone()],
                &opts,
            ) {
                Ok(r) => r,
                Err(e) => {
                    self.note_replica_failure(&slot, &e);
                    last_err = e;
                    continue;
                }
            };
            match self.finish_attempt(&slot, arg, first, attempt_deadline_us) {
                Ok(v) => return Ok(v),
                Err(e) if is_replica_fault(&e) => {
                    self.note_replica_failure(&slot, &e);
                    self.metrics().counter(names::SERVE_FAILOVERS).inc();
                    last_err = e;
                }
                // Application errors and cancellation belong to the
                // caller, not the pool. (An expired attempt deadline is
                // a replica fault above, since the attempt cap sits
                // below the request budget.)
                Err(e) => return Err(e),
            }
        }
    }

    /// Awaits an in-flight attempt, optionally racing a hedge against it.
    /// Any attempt that is abandoned (failed, lost the race, or left
    /// behind on error) is cancelled so it cannot execute later and
    /// duplicate a side effect on retry.
    fn finish_attempt(
        &self,
        slot: &Arc<ReplicaSlot>,
        arg: &Arg,
        first: ObjectRef<Blob>,
        deadline_us: u64,
    ) -> RayResult<Blob> {
        let remaining =
            |inner: &PoolInner| Duration::from_micros(deadline_us.saturating_sub(inner.now_micros()));
        let Some(hedge) = &self.cfg.hedge else {
            return self.fetch_or_cancel(&first, remaining(self));
        };
        // Give the first attempt until the pool's recent straggler
        // threshold before spending a second replica on it.
        let trigger = self.hedge_trigger(hedge).min(remaining(self));
        match self.ctx.wait_refs(&[first], 1, trigger) {
            Ok((ready, _)) if !ready.is_empty() => {
                return self.fetch_or_cancel(&first, remaining(self));
            }
            Ok(_) => {}
            Err(e) => {
                let _ = self.ctx.cancel_ref(&first);
                return Err(e);
            }
        }
        let Some(other) = self.pick(Some(slot.handle.id())) else {
            // No second replica to hedge on; keep waiting on the first.
            return self.fetch_or_cancel(&first, remaining(self));
        };
        let _load = LoadGuard::new(&other);
        self.metrics().counter(names::SERVE_HEDGES).inc();
        self.emit(
            TraceEventKind::RequestHedged,
            TraceEntity::Actor(other.handle.id()),
            format!("straggler={} trigger_us={}", slot.handle.id(), trigger.as_micros()),
        );
        let opts = TaskOptions::default().with_timeout(remaining(self));
        let second = match self.ctx.call_actor_opts::<Blob>(
            &other.handle,
            &self.cfg.method,
            vec![arg.clone()],
            &opts,
        ) {
            Ok(r) => r,
            Err(e) => {
                self.note_replica_failure(&other, &e);
                return self.fetch_or_cancel(&first, remaining(self));
            }
        };
        // First result wins. `wait` fires on error envelopes too, so a
        // "winner" may have resolved to an error — fall back to the other
        // attempt rather than failing a request one attempt could serve.
        let (ready, _) = match self.ctx.wait_refs(&[first, second], 1, remaining(self)) {
            Ok(r) => r,
            Err(e) => {
                let _ = self.ctx.cancel_ref(&first);
                let _ = self.ctx.cancel_ref(&second);
                return Err(e);
            }
        };
        let first_won = ready.first().map(|w| w.id()) == Some(first.id());
        let (winner, loser) = if first_won { (first, second) } else { (second, first) };
        match self.ctx.get_with_timeout(&winner, remaining(self)) {
            Ok(v) => {
                // Tear the loser down before its method can be logged: a
                // cancelled attempt leaves no stateful edge, so the hedge
                // can never double-apply a side effect.
                let _ = self.ctx.cancel_ref(&loser);
                Ok(v)
            }
            Err(winner_err) => {
                let (winner_slot, loser_slot) =
                    if first_won { (slot, &other) } else { (&other, slot) };
                if is_replica_fault(&winner_err) {
                    self.note_replica_failure(winner_slot, &winner_err);
                }
                match self.ctx.get_with_timeout(&loser, remaining(self)) {
                    Ok(v) => Ok(v),
                    Err(loser_err) => {
                        if is_replica_fault(&loser_err) {
                            self.note_replica_failure(loser_slot, &loser_err);
                        }
                        let _ = self.ctx.cancel_ref(&loser);
                        let _ = self.ctx.cancel_ref(&winner);
                        Err(winner_err)
                    }
                }
            }
        }
    }

    /// Blocking fetch; cancels the attempt on failure so it cannot run
    /// after the router has given up on it.
    fn fetch_or_cancel(&self, r: &ObjectRef<Blob>, timeout: Duration) -> RayResult<Blob> {
        let out = self.ctx.get_with_timeout(r, timeout);
        if out.is_err() {
            let _ = self.ctx.cancel_ref(r);
        }
        out
    }

    /// The hedge arm delay: the pool's recent `percentile` latency,
    /// clamped to the configured window (ceiling doubles as the cold
    /// default).
    fn hedge_trigger(&self, hedge: &HedgeConfig) -> Duration {
        match self.digest.percentile(hedge.percentile) {
            Some(us) => Duration::from_micros(us).clamp(hedge.min, hedge.max),
            None => hedge.max,
        }
    }

    /// Picks the healthy replica (excluding `exclude`) with the fewest
    /// outstanding requests, rotating the starting point so ties spread.
    fn pick(&self, exclude: Option<ActorId>) -> Option<Arc<ReplicaSlot>> {
        let slots = self.slots.read();
        let n = slots.len();
        if n == 0 {
            return None;
        }
        let fabric = self.cluster.fabric();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut best: Option<(usize, Arc<ReplicaSlot>)> = None;
        for i in 0..n {
            let Some(slot) = slots.get((start + i) % n) else { continue };
            if Some(slot.handle.id()) == exclude
                || !slot.is_healthy()
                || !fabric.is_alive(slot.node())
            {
                continue;
            }
            let load = slot.outstanding.load(Ordering::Relaxed);
            if best.as_ref().is_none_or(|(b, _)| load < *b) {
                best = Some((load, Arc::clone(slot)));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Marks a replica unrouteable, emitting `replica_unhealthy` on the
    /// healthy→unhealthy transition only.
    fn note_replica_failure(&self, slot: &Arc<ReplicaSlot>, err: &RayError) {
        if slot.healthy.swap(false, Ordering::Relaxed) {
            self.emit(
                TraceEventKind::ReplicaUnhealthy,
                TraceEntity::Actor(slot.handle.id()),
                format!("{err}"),
            );
        }
    }

    // ------------------------------------------------------------------
    // Replica lifecycle.
    // ------------------------------------------------------------------

    /// Spawns one replica on the node the global scheduler picks, waits
    /// for its constructor, and admits it to the routing table.
    fn spawn_replica(&self, why: &str) -> RayResult<ActorId> {
        let occupied: Vec<NodeId> = self.slots.read().iter().map(|s| s.node()).collect();
        let node = self
            .cluster
            .scheduler()
            .place_replica(&self.cfg.replica_demand, &occupied)
            .ok_or_else(|| RayError::Invalid("no feasible node for a new replica".into()))?;
        // Pin to the chosen node. Like every actor, the replica is
        // reconstructed by core (checkpoint + log replay) if that node dies.
        let opts = TaskOptions::default()
            .with_demand(self.cfg.replica_demand.add(&node_affinity(node)))
            .with_timeout(SPAWN_TIMEOUT);
        let handle = self.ctx.create_actor(&self.cfg.class, self.cfg.ctor_args.clone(), opts)?;
        self.ctx.get_with_timeout(&handle.ready(), SPAWN_TIMEOUT)?;
        let id = handle.id();
        self.slots.write().push(Arc::new(ReplicaSlot::new(handle, node)));
        self.metrics().counter(names::SERVE_REPLICAS_SPAWNED).inc();
        self.emit(
            TraceEventKind::ReplicaSpawned,
            TraceEntity::Actor(id),
            format!("{why} node={}", node.0),
        );
        Ok(id)
    }

    /// Removes the scheduler's retirement pick from the routing table and
    /// waits (bounded) for its in-flight requests to drain.
    fn retire_one(&self) -> Option<ActorId> {
        let slot = {
            let mut slots = self.slots.write();
            if slots.len() <= self.cfg.replicas_min {
                return None;
            }
            let occupied: Vec<NodeId> = slots.iter().map(|s| s.node()).collect();
            let idx = self.cluster.scheduler().retire_candidate(&occupied)?;
            if idx >= slots.len() {
                return None;
            }
            slots.remove(idx)
        };
        let drain_deadline =
            self.now_micros().saturating_add(duration_micros(self.cfg.request_timeout));
        while slot.outstanding.load(Ordering::Relaxed) > 0 && self.now_micros() < drain_deadline {
            std::thread::sleep(DRAIN_POLL);
        }
        let id = slot.handle.id();
        self.metrics().counter(names::SERVE_REPLICAS_RETIRED).inc();
        self.emit(
            TraceEventKind::ReplicaRetired,
            TraceEntity::Actor(id),
            format!("scale-down node={}", slot.node().0),
        );
        Some(id)
    }

    /// One probe round: every replica gets a read-only ping with a
    /// bounded deadline. Answers refresh the replica's location and
    /// re-admit it (`replica_spawned` with a "readmitted" detail —
    /// closing the recovery arc opened by `replica_unhealthy`); timeouts
    /// and errors drain it.
    fn probe_now(&self) -> usize {
        let slots: Vec<Arc<ReplicaSlot>> = self.slots.read().clone();
        for slot in &slots {
            let answer = self
                .ctx
                .call_actor_readonly::<u64>(&slot.handle, PROBE_METHOD, Vec::new())
                .and_then(|r| self.ctx.get_with_timeout(&r, self.cfg.probe_timeout));
            match answer {
                Ok(_) => {
                    if let Some(node) = self.cluster.actor_node(slot.handle.id()) {
                        slot.node.store(node.0, Ordering::Relaxed);
                    }
                    if !slot.healthy.swap(true, Ordering::Relaxed) {
                        self.emit(
                            TraceEventKind::ReplicaSpawned,
                            TraceEntity::Actor(slot.handle.id()),
                            format!("readmitted node={}", slot.node().0),
                        );
                    }
                }
                Err(e) => self.note_replica_failure(slot, &e),
            }
        }
        self.healthy_count()
    }

    /// One autoscaling decision, driven by admitted requests per healthy
    /// replica and gated by the cooldown.
    fn autoscale_once(&self) -> RayResult<()> {
        if !self.cfg.autoscale.enabled {
            return Ok(());
        }
        let now = self.now_micros();
        let last = self.last_scale_us.load(Ordering::Relaxed);
        if now.saturating_sub(last) < duration_micros(self.cfg.autoscale.cooldown) {
            return Ok(());
        }
        let total = self.replica_count();
        let healthy = self.healthy_count();
        let depth = self.pending.load(Ordering::Relaxed) as f64 / healthy.max(1) as f64;
        if (depth > self.cfg.autoscale.scale_up_depth || healthy == 0)
            && total < self.cfg.replicas_max
        {
            self.last_scale_us.store(now, Ordering::Relaxed);
            self.spawn_replica("scale-up")?;
        } else if depth < self.cfg.autoscale.scale_down_depth
            && total > self.cfg.replicas_min
            && healthy == total
        {
            self.last_scale_us.store(now, Ordering::Relaxed);
            self.retire_one();
        }
        Ok(())
    }
}

/// Faults that indict the replica (or the path to it) rather than the
/// request: these fail over; everything else surfaces to the caller.
fn is_replica_fault(err: &RayError) -> bool {
    matches!(
        err,
        RayError::ActorDied(_)
            | RayError::NodeDead(_)
            | RayError::Timeout
            | RayError::DeadlineExceeded(_)
            | RayError::ObjectLost(_)
            | RayError::GcsUnavailable(_)
            | RayError::MessageDropped
    )
}

/// Saturating `Duration` → whole microseconds.
fn duration_micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Background health + autoscale cadence.
fn monitor_loop(inner: &Arc<PoolInner>, interval: Duration) {
    while !inner.shutdown.load(Ordering::Relaxed) {
        inner.probe_now();
        let _ = inner.autoscale_once();
        std::thread::sleep(interval);
    }
}
