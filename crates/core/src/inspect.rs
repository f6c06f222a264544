//! Cluster introspection and the event timeline — the debugging story the
//! GCS design buys.
//!
//! Paper §7: "The GCS dramatically simplified Ray development and
//! debugging. It enabled us to query the entire system state while
//! debugging Ray itself ... In addition, the GCS is also the backend for
//! our timeline visualization tool, used for application-level
//! debugging." Because every component is stateless, *all* of this reads
//! straight out of GCS tables — no component has to expose internal
//! state.
//!
//! - [`ClusterSnapshot`] / [`Cluster::snapshot`](crate::Cluster::snapshot)
//!   — point-in-time view of nodes, stores, in-flight tasks, and GCS
//!   footprint.
//! - [`TimelineEvent`] — structured task/actor lifecycle markers
//!   applications append with
//!   [`Cluster::log_timeline`](crate::Cluster::log_timeline) and read
//!   back, in order, with [`Cluster::timeline`](crate::Cluster::timeline)
//!   — the application-level debugging channel of §7.

use serde::{Deserialize, Serialize};

use ray_common::{NodeId, RayResult, ShardId};

use crate::cluster::Cluster;

/// One node's view in a [`ClusterSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// The node.
    pub node: NodeId,
    /// Whether the node is currently alive.
    pub alive: bool,
    /// Objects resident in the node's store memory.
    pub objects_in_memory: usize,
    /// Bytes resident in the node's store memory.
    pub resident_bytes: usize,
    /// Objects spilled to the node's disk tier.
    pub objects_spilled: usize,
    /// Tasks queued at the node's local scheduler.
    pub queue_len: usize,
}

/// A point-in-time view of the whole cluster, assembled from the GCS and
/// component gauges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Per-node state.
    pub nodes: Vec<NodeSnapshot>,
    /// Tasks currently queued or executing cluster-wide.
    pub inflight_tasks: usize,
    /// Cancel tokens registered: one per task submitted and not yet
    /// finished, torn down or refused.
    pub cancel_tokens: usize,
    /// Control-state bytes resident in GCS memory.
    pub gcs_resident_bytes: u64,
    /// Lineage entries flushed to the GCS disk tier.
    pub gcs_entries_flushed: u64,
    /// Chain reconfigurations per GCS shard (a dead member replaced, or the
    /// shard rebuilt from disk); all zero unless a GCS fault was injected.
    pub gcs_reconfigurations: Vec<u64>,
    /// Total tasks submitted / executed / re-executed so far.
    pub tasks: (u64, u64, u64),
}

impl ClusterSnapshot {
    /// Renders a compact human-readable dump (the "debugging tools" box of
    /// paper Fig. 5).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster: {} node(s), {} task(s) in flight, GCS {}B resident ({} flushed), \
             reconfigurations per shard {:?}",
            self.nodes.len(),
            self.inflight_tasks,
            self.gcs_resident_bytes,
            self.gcs_entries_flushed,
            self.gcs_reconfigurations
        );
        let (submitted, executed, reexecuted) = self.tasks;
        let _ = writeln!(
            out,
            "tasks: {submitted} submitted, {executed} executed, {reexecuted} re-executed"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  {} [{}] {} objects / {}B in memory, {} spilled, queue {}",
                n.node,
                if n.alive { "up" } else { "down" },
                n.objects_in_memory,
                n.resident_bytes,
                n.objects_spilled,
                n.queue_len
            );
        }
        out
    }
}

/// A structured entry in the GCS-backed application timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// A task was submitted (driver or nested).
    TaskSubmitted {
        /// Task ID bytes (hex-renderable).
        task: [u8; 16],
        /// Registered function name.
        function: String,
    },
    /// A task finished executing on a node.
    TaskFinished {
        /// Task ID bytes.
        task: [u8; 16],
        /// Node that ran it.
        node: u32,
        /// Duration in microseconds.
        micros: u64,
    },
    /// An actor method completed its stateful-edge step.
    MethodFinished {
        /// Actor ID bytes.
        actor: [u8; 16],
        /// Stateful-edge sequence number.
        seq: u64,
        /// Method name.
        method: String,
    },
    /// A node was declared dead.
    NodeDead {
        /// The node.
        node: u32,
    },
}

/// GCS event-log topic the timeline is appended under.
pub const TIMELINE_TOPIC: &str = "__timeline__";

impl Cluster {
    /// Assembles a point-in-time snapshot of the cluster (every datum
    /// comes from the GCS or component gauges — the stateless-components
    /// property at work).
    pub fn snapshot(&self) -> RayResult<ClusterSnapshot> {
        let gcs = self.gcs().client();
        let mut nodes = Vec::new();
        for node in gcs.all_nodes()? {
            let alive = gcs.node_alive(node)?;
            let store = self.object_store(node);
            let (in_mem, resident, spilled) = match &store {
                Some(s) => (s.len(), s.resident_bytes(), s.spill().len()),
                None => (0, 0, 0),
            };
            nodes.push(NodeSnapshot {
                node,
                alive,
                objects_in_memory: in_mem,
                resident_bytes: resident,
                objects_spilled: spilled,
                queue_len: self.queue_len_hint(node),
            });
        }
        nodes.sort_by_key(|n| n.node.0);
        let m = self.metrics();
        Ok(ClusterSnapshot {
            nodes,
            inflight_tasks: self.inflight_tasks(),
            cancel_tokens: self.cancel_tokens(),
            gcs_resident_bytes: self.gcs().resident_bytes(),
            gcs_entries_flushed: self.gcs().entries_flushed(),
            gcs_reconfigurations: (0..self.gcs().num_shards() as u32)
                .map(|i| self.gcs().shard(ShardId(i)).reconfigurations())
                .collect(),
            tasks: (
                m.counter("tasks_submitted").get(),
                m.counter("tasks_executed").get(),
                m.counter("tasks_reexecuted").get(),
            ),
        })
    }

    /// Appends a timeline event to the GCS event log (used internally when
    /// the timeline is enabled; public so applications can add their own
    /// markers).
    pub fn log_timeline(&self, event: &TimelineEvent) -> RayResult<()> {
        let payload = ray_codec::encode(event).map_err(ray_common::RayError::from)?;
        self.gcs().client().log_event(TIMELINE_TOPIC, bytes::Bytes::from(payload))
    }

    /// Reads the timeline back, oldest first. Undecodable entries (from
    /// foreign writers) are skipped.
    pub fn timeline(&self) -> RayResult<Vec<TimelineEvent>> {
        let raw = self.gcs().client().get_events(TIMELINE_TOPIC)?;
        Ok(raw.iter().filter_map(|b| ray_codec::decode(b).ok()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Arg;
    use ray_common::RayConfig;

    #[test]
    fn snapshot_reflects_cluster_state() {
        let cluster = Cluster::start(
            RayConfig::builder().nodes(2).workers_per_node(1).build(),
        )
        .unwrap();
        cluster.register_fn1("echo", |x: u64| x);
        let ctx = cluster.driver();
        let futs: Vec<crate::ObjectRef<u64>> = (0..5u64)
            .map(|i| ctx.call("echo", vec![Arg::value(&i).unwrap()]).unwrap())
            .collect();
        ctx.get_all(&futs).unwrap();

        // Results become visible before the executing worker bumps its
        // counter, so give the last increment a moment to land.
        let t0 = std::time::Instant::now();
        while cluster.metrics().counter("tasks_executed").get() < 5
            && t0.elapsed() < std::time::Duration::from_secs(5)
        {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = cluster.snapshot().unwrap();
        assert_eq!(snap.nodes.len(), 2);
        assert!(snap.nodes.iter().all(|n| n.alive));
        assert!(snap.tasks.0 >= 5 && snap.tasks.1 >= 5);
        // The result objects are resident somewhere.
        let total_objects: usize = snap.nodes.iter().map(|n| n.objects_in_memory).sum();
        assert!(total_objects >= 5);
        assert_eq!(snap.gcs_reconfigurations, vec![0; cluster.gcs().num_shards()]);
        let rendered = snap.render();
        assert!(rendered.contains("2 node(s)"));
        assert!(rendered.contains("reconfigurations per shard [0, 0, 0, 0]"));

        cluster.kill_node(ray_common::NodeId(1));
        let snap = cluster.snapshot().unwrap();
        assert!(snap.nodes.iter().any(|n| !n.alive));
        assert!(snap.render().contains("[down]"));
        cluster.shutdown();
    }

    #[test]
    fn timeline_round_trips_events() {
        let cluster = Cluster::start(
            RayConfig::builder().nodes(1).workers_per_node(1).build(),
        )
        .unwrap();
        let events = vec![
            TimelineEvent::TaskSubmitted { task: [1; 16], function: "rollout".into() },
            TimelineEvent::TaskFinished { task: [1; 16], node: 0, micros: 1500 },
            TimelineEvent::MethodFinished { actor: [2; 16], seq: 3, method: "step".into() },
            TimelineEvent::NodeDead { node: 1 },
        ];
        for e in &events {
            cluster.log_timeline(e).unwrap();
        }
        assert_eq!(cluster.timeline().unwrap(), events);
        cluster.shutdown();
    }
}
