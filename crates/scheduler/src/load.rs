//! Cluster load state fed by local-scheduler heartbeats.
//!
//! "The global scheduler gets the queue size at each node and the node
//! resource availability via heartbeats" (§4.2.2), and smooths per-node
//! task-duration estimates with exponential averaging. Global scheduler
//! replicas all read the same [`LoadTable`] — the shared-via-GCS state the
//! paper describes, realized as one table in-process.

use std::time::{Duration, Instant};

use ray_common::sync::{classes, OrderedRwLock};

use ray_common::util::Ewma;
use ray_common::{NodeId, Resources};

/// The smoothing factor of every task-duration and bandwidth estimate.
pub const EWMA_ALPHA: f64 = 0.2;

/// One node's load snapshot as carried by a heartbeat.
#[derive(Debug, Clone)]
pub struct NodeLoad {
    /// Which node this is.
    pub node: NodeId,
    /// Tasks sitting in the node's local queue.
    pub queue_len: usize,
    /// Resources currently unclaimed.
    pub available: Resources,
    /// Total capacity (static, repeated for convenience).
    pub capacity: Resources,
    /// Whether the node is believed alive.
    pub alive: bool,
}

struct NodeEntry {
    load: NodeLoad,
    /// EWMA of observed task durations on this node, milliseconds.
    avg_task_ms: Ewma,
    last_heartbeat: Instant,
}

/// Shared table of per-node load, plus a cluster-wide bandwidth estimate.
pub struct LoadTable {
    nodes: OrderedRwLock<Vec<Option<NodeEntry>>>,
    /// EWMA of observed transfer bandwidth, bytes/ms.
    avg_bandwidth: OrderedRwLock<Ewma>,
    ewma_alpha: f64,
}

impl LoadTable {
    /// Creates an empty table with the given EWMA smoothing factor.
    pub fn new(ewma_alpha: f64) -> LoadTable {
        LoadTable {
            nodes: OrderedRwLock::new(&classes::SCHED_LOAD_NODES, Vec::new()),
            avg_bandwidth: OrderedRwLock::new(&classes::SCHED_LOAD_BANDWIDTH, Ewma::new(ewma_alpha)),
            ewma_alpha,
        }
    }

    /// Applies a heartbeat.
    pub fn heartbeat(&self, load: NodeLoad) {
        let mut nodes = self.nodes.write();
        let idx = load.node.index();
        if nodes.len() <= idx {
            nodes.resize_with(idx + 1, || None);
        }
        match &mut nodes[idx] {
            Some(entry) => {
                entry.load = load;
                entry.last_heartbeat = Instant::now();
            }
            slot @ None => {
                *slot = Some(NodeEntry {
                    load,
                    avg_task_ms: Ewma::new(self.ewma_alpha),
                    last_heartbeat: Instant::now(),
                });
            }
        }
    }

    /// Records an observed task duration on a node (fed back by local
    /// schedulers piggybacking on heartbeats).
    pub fn observe_task_duration(&self, node: NodeId, millis: f64) {
        let mut nodes = self.nodes.write();
        if let Some(Some(entry)) = nodes.get_mut(node.index()) {
            entry.avg_task_ms.observe(millis);
        }
    }

    /// Records an observed transfer bandwidth sample (bytes per ms).
    pub fn observe_bandwidth(&self, bytes_per_ms: f64) {
        self.avg_bandwidth.write().observe(bytes_per_ms);
    }

    /// Cluster-wide average bandwidth estimate in bytes/ms; `default` until
    /// primed.
    pub fn bandwidth_or(&self, default: f64) -> f64 {
        self.avg_bandwidth.read().value_or(default)
    }

    /// Marks a node dead (failure detection propagated from the GCS client
    /// table).
    pub fn mark_dead(&self, node: NodeId) {
        let mut nodes = self.nodes.write();
        if let Some(Some(entry)) = nodes.get_mut(node.index()) {
            entry.load.alive = false;
        }
    }

    /// Snapshot of one node's load.
    pub fn get(&self, node: NodeId) -> Option<NodeLoad> {
        self.nodes
            .read()
            .get(node.index())
            .and_then(|e| e.as_ref())
            .map(|e| e.load.clone())
    }

    /// Calls `f` on every live node, in node-id order, under one hold of
    /// the read lock: the entries are lent, not copied. `f` must not call
    /// back into the table.
    pub fn scan_live(&self, mut f: impl FnMut(LiveNode<'_>)) {
        for entry in self.nodes.read().iter().flatten().filter(|e| e.load.alive) {
            f(LiveNode(entry));
        }
    }
}

/// One live node's entry, lent for the length of a
/// [`LoadTable::scan_live`] call.
pub struct LiveNode<'a>(&'a NodeEntry);

impl LiveNode<'_> {
    /// Which node this is.
    pub fn node(&self) -> NodeId {
        self.0.load.node
    }

    /// Tasks in the node's local queue at its last heartbeat.
    pub fn queue_len(&self) -> usize {
        self.0.load.queue_len
    }

    /// EWMA task duration on the node in ms, or `default` when unprimed.
    pub fn avg_task_ms_or(&self, default: f64) -> f64 {
        self.0.avg_task_ms.value_or(default)
    }

    /// Whether the node's capacity can ever hold `demand`.
    pub fn fits(&self, demand: &Resources) -> bool {
        self.0.load.capacity.fits(demand)
    }

    /// Age of the node's most recent heartbeat.
    pub fn heartbeat_age(&self) -> Duration {
        self.0.last_heartbeat.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(node: u32, queue: usize) -> NodeLoad {
        NodeLoad {
            node: NodeId(node),
            queue_len: queue,
            available: Resources::cpus(2.0),
            capacity: Resources::cpus(4.0),
            alive: true,
        }
    }

    #[test]
    fn heartbeat_registers_and_updates() {
        let t = LoadTable::new(0.2);
        assert!(t.get(NodeId(0)).is_none());
        t.heartbeat(load(0, 3));
        assert_eq!(t.get(NodeId(0)).unwrap().queue_len, 3);
        t.heartbeat(load(0, 7));
        assert_eq!(t.get(NodeId(0)).unwrap().queue_len, 7);
    }

    /// The live nodes a scan visits, in order.
    fn live(t: &LoadTable) -> Vec<u32> {
        let mut nodes = Vec::new();
        t.scan_live(|n| nodes.push(n.node().0));
        nodes
    }

    /// One live node's entry as a scan lends it.
    fn with_live<R>(t: &LoadTable, node: u32, f: impl Fn(&LiveNode<'_>) -> R) -> Option<R> {
        let mut out = None;
        t.scan_live(|n| {
            if n.node() == NodeId(node) {
                out = Some(f(&n));
            }
        });
        out
    }

    #[test]
    fn live_nodes_excludes_dead() {
        let t = LoadTable::new(0.2);
        t.heartbeat(load(0, 0));
        t.heartbeat(load(1, 0));
        t.heartbeat(load(5, 0)); // Sparse IDs are fine.
        t.mark_dead(NodeId(1));
        assert_eq!(live(&t), vec![0, 5]);
    }

    #[test]
    fn a_scan_lends_each_entry_as_its_heartbeat_left_it() {
        let t = LoadTable::new(0.2);
        t.heartbeat(load(0, 3));
        t.heartbeat(NodeLoad { capacity: Resources::new(4.0, 1.0), ..load(1, 9) });
        assert_eq!(with_live(&t, 0, |n| n.queue_len()), Some(3));
        assert_eq!(with_live(&t, 1, |n| n.queue_len()), Some(9));
        assert_eq!(with_live(&t, 0, |n| n.fits(&Resources::gpus(1.0))), Some(false));
        assert_eq!(with_live(&t, 1, |n| n.fits(&Resources::gpus(1.0))), Some(true));
        assert_eq!(with_live(&t, 1, |n| n.fits(&Resources::cpus(4.5))), Some(false));
    }

    #[test]
    fn task_duration_ewma_converges() {
        let t = LoadTable::new(0.5);
        t.heartbeat(load(0, 0));
        let avg = |default| with_live(&t, 0, |n| n.avg_task_ms_or(default)).unwrap();
        assert_eq!(avg(9.0), 9.0);
        for _ in 0..50 {
            t.observe_task_duration(NodeId(0), 12.0);
        }
        assert!((avg(0.0) - 12.0).abs() < 0.01);
    }

    #[test]
    fn bandwidth_estimate_defaults_until_primed() {
        let t = LoadTable::new(0.2);
        assert_eq!(t.bandwidth_or(100.0), 100.0);
        t.observe_bandwidth(50.0);
        assert_eq!(t.bandwidth_or(100.0), 50.0);
    }

    #[test]
    fn heartbeat_age_tracks_recency() {
        let t = LoadTable::new(0.2);
        t.heartbeat(load(0, 0));
        let age = with_live(&t, 0, |n| n.heartbeat_age()).unwrap();
        assert!(age < Duration::from_millis(100));
        assert!(with_live(&t, 3, |n| n.heartbeat_age()).is_none());
    }
}
