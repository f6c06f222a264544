//! Cluster assembly: builds the system layer (Fig. 5) inside one process.
//!
//! A [`Cluster`] owns a GCS (sharded + chain-replicated), a global
//! scheduler thread, and N simulated nodes — each a local scheduler (a run
//! queue), a worker pool, and an object store — wired together through the
//! simulated network fabric. Nodes can be killed and restarted at runtime
//! to drive the fault-tolerance experiments (Fig. 10, Fig. 11).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use ray_common::sync::{classes, OrderedMutex, OrderedRwLock};

use ray_common::metrics::{names, MetricsRegistry};
use ray_common::trace::{render_chrome_trace, TraceCollector, TraceLog, DEFAULT_RING_CAPACITY};
use ray_common::{NodeId, RayConfig, RayError, RayResult};
use ray_gcs::Gcs;
use ray_object_store::store::LocalObjectStore;
use ray_object_store::transfer::{StoreDirectory, TransferManager};
use ray_scheduler::load::EWMA_ALPHA;
use ray_scheduler::{GlobalScheduler, LoadTable};
use ray_transport::Fabric;

use crate::actor::ActorRouter;
use crate::cancel::CancelRegistry;
use crate::context::RayContext;
use crate::failure;
use crate::global_loop::start_global;
use crate::node::start_node;
use crate::registry::{ActorInstance, FunctionRegistry};
use crate::runtime::{GlobalMsg, RuntimeShared};

/// A running rustray cluster.
///
/// # Examples
///
/// ```
/// use rustray::{Cluster, task::Arg};
/// use ray_common::RayConfig;
///
/// let cluster = Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build()).unwrap();
/// cluster.register_fn2("add", |a: i64, b: i64| a + b);
/// let ctx = cluster.driver();
/// let fut = ctx
///     .call::<i64>("add", vec![Arg::value(&2i64).unwrap(), Arg::value(&3i64).unwrap()])
///     .unwrap();
/// assert_eq!(ctx.get(&fut).unwrap(), 5);
/// cluster.shutdown();
/// ```
pub struct Cluster {
    shared: Arc<RuntimeShared>,
    global_join: OrderedMutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Starts a cluster per the configuration.
    pub fn start(config: RayConfig) -> RayResult<Cluster> {
        config.validate().map_err(RayError::Invalid)?;
        let metrics = MetricsRegistry::new();
        // Node-slot capacity leaves headroom for add_node/restart cycles.
        let capacity = config.num_nodes * 2 + 8;

        let trace = if config.tracing {
            TraceCollector::new(DEFAULT_RING_CAPACITY)
        } else {
            TraceCollector::disabled()
        };

        let fabric = Fabric::new_with_metrics(capacity, &config.transport, metrics.clone());
        fabric.set_tracer(trace.clone());
        let gcs = Gcs::start_traced(&config.gcs, metrics.clone(), trace.clone())?;
        let gcs_client = gcs.client();
        let directory = StoreDirectory::new();
        let transfer = TransferManager::new(
            directory.clone(),
            fabric.clone(),
            gcs_client.clone(),
            config.transport.connections_per_transfer,
            metrics.clone(),
        )
        .with_tracer(trace.clone());
        let load = Arc::new(LoadTable::new(EWMA_ALPHA));
        let global = GlobalScheduler::new(
            config.scheduler.policy,
            load.clone(),
            gcs_client.clone(),
            config.scheduler.added_decision_delay,
            config.seed ^ 0x9e3779b97f4a7c15,
        );
        let (global_tx, global_rx) = mpsc::channel::<GlobalMsg>();

        let shared = Arc::new(RuntimeShared {
            config: config.clone(),
            metrics,
            trace,
            fabric,
            gcs,
            gcs_client,
            registry: FunctionRegistry::new(),
            directory,
            transfer,
            load,
            global,
            global_tx,
            nodes: OrderedRwLock::new(&classes::RUNTIME_NODES, Vec::new()),
            worker_delays: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            cancels: CancelRegistry::new(),
            actors: ActorRouter::new(),
            stalled: OrderedMutex::new(&classes::STALLED_TASKS, HashMap::new()),
            topology: OrderedMutex::new(&classes::CLUSTER_TOPOLOGY, ()),
            trace_flush: OrderedRwLock::new(&classes::TRACE_FLUSH, ()),
            shutting_down: AtomicBool::new(false),
            driver_counter: AtomicU64::new(1),
        });

        // Register the cancellation counters eagerly so the Prometheus
        // exposition includes them from the first scrape, not only after
        // the first teardown.
        for name in [names::TASKS_CANCELLED, names::DEADLINE_EXCEEDED] {
            let _ = shared.metrics.counter(name);
        }

        // Nodes beyond the initial set start dead (they are add_node
        // slots); mark them so transfers to unused slots fail fast.
        for i in config.num_nodes..capacity {
            shared.fabric.kill_node(NodeId(i as u32));
        }
        for i in 0..config.num_nodes {
            start_node(&shared, NodeId(i as u32));
        }

        let global_join = start_global(shared.clone(), global_rx);
        Ok(Cluster { shared, global_join: OrderedMutex::new(&classes::GLOBAL_JOIN, Some(global_join)) })
    }

    // ------------------------------------------------------------------
    // Registration (publishes to every worker; Fig. 7a step 0).
    // ------------------------------------------------------------------

    /// Registers a raw remote function (encoded args in, encoded returns
    /// out, context available for nested calls).
    pub fn register_raw(
        &self,
        name: &str,
        f: impl Fn(&RayContext, &[bytes::Bytes]) -> crate::registry::RemoteResult
            + Send
            + Sync
            + 'static,
    ) {
        let id = self.shared.registry.register_raw(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers an actor class.
    pub fn register_actor_class(
        &self,
        name: &str,
        ctor: impl Fn(&RayContext, &[bytes::Bytes]) -> Result<Box<dyn ActorInstance>, String>
            + Send
            + Sync
            + 'static,
    ) {
        let id = self.shared.registry.register_actor(name, ctor);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers a typed 0-argument function.
    pub fn register_fn0<R: serde::Serialize>(
        &self,
        name: &str,
        f: impl Fn() -> R + Send + Sync + 'static,
    ) {
        let id = self.shared.registry.register_fn0(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers a typed 1-argument function.
    pub fn register_fn1<A, R>(&self, name: &str, f: impl Fn(A) -> R + Send + Sync + 'static)
    where
        A: serde::de::DeserializeOwned,
        R: serde::Serialize,
    {
        let id = self.shared.registry.register_fn1(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers a typed 2-argument function.
    pub fn register_fn2<A, B, R>(
        &self,
        name: &str,
        f: impl Fn(A, B) -> R + Send + Sync + 'static,
    ) where
        A: serde::de::DeserializeOwned,
        B: serde::de::DeserializeOwned,
        R: serde::Serialize,
    {
        let id = self.shared.registry.register_fn2(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers a typed 3-argument function.
    pub fn register_fn3<A, B, C, R>(
        &self,
        name: &str,
        f: impl Fn(A, B, C) -> R + Send + Sync + 'static,
    ) where
        A: serde::de::DeserializeOwned,
        B: serde::de::DeserializeOwned,
        C: serde::de::DeserializeOwned,
        R: serde::Serialize,
    {
        let id = self.shared.registry.register_fn3(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    /// Registers a typed 4-argument function.
    pub fn register_fn4<A, B, C, D, R>(
        &self,
        name: &str,
        f: impl Fn(A, B, C, D) -> R + Send + Sync + 'static,
    ) where
        A: serde::de::DeserializeOwned,
        B: serde::de::DeserializeOwned,
        C: serde::de::DeserializeOwned,
        D: serde::de::DeserializeOwned,
        R: serde::Serialize,
    {
        let id = self.shared.registry.register_fn4(name, f);
        let _ = self.shared.gcs_client.register_function(id, name);
    }

    // ------------------------------------------------------------------
    // Drivers.
    // ------------------------------------------------------------------

    /// A driver context on node 0.
    pub fn driver(&self) -> RayContext {
        self.driver_on(NodeId(0))
    }

    /// A driver context on a specific node (scalability benches run one
    /// driver per node).
    pub fn driver_on(&self, node: NodeId) -> RayContext {
        RayContext::for_driver(self.shared.clone(), node)
    }

    // ------------------------------------------------------------------
    // Topology control (fault injection + elasticity).
    // ------------------------------------------------------------------

    /// Kills a node with an announcement: its object store contents,
    /// queued tasks, and hosted actors are lost, and the full death
    /// protocol (GCS mark, directory removal, actor recovery) runs inline;
    /// lineage reconstruction and actor rebuild recover what consumers
    /// need (paper Fig. 11).
    pub fn kill_node(&self, node: NodeId) {
        failure::declare_node_dead(&self.shared, node);
    }

    /// Kills a node *abruptly*: the process vanishes mid-flight with no
    /// cleanup of any kind — no GCS death mark, no store/directory
    /// removal, no actor recovery. The rest of the cluster still believes
    /// the node is alive until the heartbeat failure detector notices its
    /// silence and runs the death protocol itself (paper §4.2.2's
    /// monitor). This is the crash-failure mode the chaos harness uses.
    pub fn kill_node_abrupt(&self, node: NodeId) {
        let handle = {
            let mut nodes = self.shared.nodes.write();
            match nodes.get_mut(node.index()).and_then(|s| s.take()) {
                Some(h) => h,
                None => return,
            }
        };
        handle.stop();
        // The machine is gone: nothing can reach it (and it can no longer
        // deliver heartbeats), but nobody is told.
        self.shared.fabric.kill_node(node);
    }

    /// Restarts a previously killed node slot with a fresh (empty) store.
    pub fn restart_node(&self, node: NodeId) -> RayResult<()> {
        let _topology = self.shared.topology.lock();
        {
            let nodes = self.shared.nodes.read();
            if nodes.get(node.index()).is_some_and(|s| s.is_some()) {
                return Err(RayError::Invalid(format!("{node} is already running")));
            }
        }
        if node.index() >= self.shared.fabric.num_nodes() {
            return Err(RayError::Invalid(format!("{node} exceeds cluster capacity")));
        }
        start_node(&self.shared, node);
        Ok(())
    }

    /// Adds a brand-new node (elastic scale-out), returning its ID.
    pub fn add_node(&self) -> RayResult<NodeId> {
        // The slot scan and the start must be atomic or two concurrent
        // add_node/restart_node calls can claim the same slot.
        let _topology = self.shared.topology.lock();
        let idx = {
            let nodes = self.shared.nodes.read();
            let mut idx = nodes.len();
            for (i, slot) in nodes.iter().enumerate() {
                if slot.is_none() {
                    idx = i;
                    break;
                }
            }
            idx
        };
        if idx >= self.shared.fabric.num_nodes() {
            return Err(RayError::Invalid("cluster at node capacity".into()));
        }
        let node = NodeId(idx as u32);
        start_node(&self.shared, node);
        Ok(node)
    }

    /// Number of currently live nodes.
    pub fn live_nodes(&self) -> usize {
        self.shared
            .nodes
            .read()
            .iter()
            .flatten()
            .filter(|h| h.is_alive())
            .count()
    }

    // ------------------------------------------------------------------
    // Introspection (benchmarks, tests, debugging tools).
    // ------------------------------------------------------------------

    /// The cluster's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.shared.metrics()
    }

    /// The GCS (resident-bytes inspection, shard access for
    /// failure-injection benchmarks).
    pub fn gcs(&self) -> &Gcs {
        &self.shared.gcs
    }

    /// The network fabric (byte counters, liveness).
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }

    /// The global scheduler (placement queries for layers above core,
    /// e.g. the serving pool's replica placement).
    pub fn scheduler(&self) -> &ray_scheduler::GlobalScheduler {
        &self.shared.global
    }

    /// The node currently hosting `actor`, if it is alive (pending,
    /// recovering, and dead actors return `None`). Serving pools use this
    /// to refresh a replica's location after reconstruction moves it.
    pub fn actor_node(&self, actor: ray_common::ActorId) -> Option<NodeId> {
        self.shared.actors.node_of(actor)
    }

    /// One node's object store, if the node is live.
    pub fn object_store(&self, node: NodeId) -> Option<Arc<LocalObjectStore>> {
        self.shared.directory.get(node)
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &RayConfig {
        &self.shared.config
    }

    /// Tasks currently queued or executing somewhere in the cluster.
    pub fn inflight_tasks(&self) -> usize {
        self.shared.cancels.dispatched()
    }

    /// Cancel tokens currently registered (for `snapshot`).
    pub(crate) fn cancel_tokens(&self) -> usize {
        self.shared.cancels.len()
    }

    /// The lifecycle trace collector (disabled unless `config.tracing`).
    pub fn trace(&self) -> &TraceCollector {
        &self.shared.trace
    }

    /// Drains every node's trace ring into the GCS event log as one final
    /// batch. Nodes flush their own rings on each heartbeat tick; this
    /// waits for any such flush still in flight, then picks up whatever is
    /// still buffered (including events from nodes that died with a
    /// non-empty ring).
    pub fn flush_traces(&self) -> RayResult<()> {
        if !self.shared.trace.is_enabled() {
            return Ok(());
        }
        let _no_flush_in_flight = self.shared.trace_flush.write();
        let events = self.shared.trace.drain_all();
        if events.is_empty() {
            return Ok(());
        }
        let payload = ray_codec::encode(&events).map_err(RayError::from)?;
        self.shared.gcs_client.log_trace_batch(bytes::Bytes::from(payload))
    }

    /// The complete, seq-ordered lifecycle event log: flushes outstanding
    /// ring contents, then reads every batch back from the GCS.
    pub fn trace_log(&self) -> RayResult<TraceLog> {
        self.flush_traces()?;
        let mut events = Vec::new();
        for batch in self.shared.gcs_client.get_trace_batches()? {
            let decoded: Vec<ray_common::trace::TraceEvent> =
                ray_codec::decode(&batch).map_err(RayError::from)?;
            events.extend(decoded);
        }
        Ok(TraceLog::from_events(events))
    }

    /// Writes the event log as Chrome `trace_event` JSON (load it at
    /// `chrome://tracing` or `https://ui.perfetto.dev`).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> RayResult<()> {
        let log = self.trace_log()?;
        std::fs::write(path, render_chrome_trace(&log))
            .map_err(|e| RayError::Invalid(format!("write {}: {e}", path.display())))
    }

    /// Tasks queued at a node's local scheduler right now (0 for unknown
    /// or dead nodes). A hint only in that it may have changed by the time
    /// the caller looks at it.
    pub fn queue_len_hint(&self, node: NodeId) -> usize {
        self.shared.node(node).map_or(0, |h| h.queue_len())
    }

    /// Injects a per-task straggler delay on `node`: every task body that
    /// starts there sleeps `delay` first, until cleared with
    /// `Duration::ZERO` (the `DelayWorker` chaos action; `chaos::repair`
    /// clears all delays).
    pub fn set_worker_delay(&self, node: NodeId, delay: Duration) {
        if let Some(slot) = self.shared.worker_delays.get(node.index()) {
            slot.store(delay.as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// Cancels the task that produces `id` (and, transitively, its
    /// registered descendants) — `ray.cancel` addressed by future. Returns
    /// `Ok(false)` if no producer is known or it already completed.
    pub fn cancel(&self, id: crate::ObjectId) -> RayResult<bool> {
        self.driver().cancel(id)
    }

    /// Stops every component: nodes, actors, the global scheduler, and the
    /// GCS. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.shared.global_tx.send(GlobalMsg::Shutdown);
        let actor_hosts = self.shared.actors.stop_all();
        let handles: Vec<_> = {
            let mut nodes = self.shared.nodes.write();
            nodes.iter_mut().filter_map(|s| s.take()).collect()
        };
        for h in &handles {
            h.stop();
        }
        if let Some(j) = self.global_join.lock().take() {
            let _ = j.join();
        }
        // GCS shutdown unblocks any worker or actor host still waiting on
        // fetches.
        self.shared.gcs.shutdown();
        for h in handles {
            h.join();
        }
        // Each host owns its instance and an `Arc` of the runtime; joining
        // is what releases both.
        for j in actor_hosts {
            let _ = j.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
