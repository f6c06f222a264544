//! Cluster configuration.
//!
//! A [`RayConfig`] describes one simulated cluster: its topology (nodes,
//! workers, resources), the transport model standing in for the paper's
//! 25Gbps AWS network, the GCS layout (shards, chain length, flushing), and
//! the scheduling policy. Benchmarks reproduce the paper's figures by
//! sweeping these knobs.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::resources::Resources;

/// Which placement policy the cluster runs.
///
/// The paper's contribution is [`BottomUp`](SchedulerPolicy::BottomUp); the
/// others are the baselines/ablations its evaluation contrasts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Paper §4.2.2: schedule locally unless overloaded or infeasible, then
    /// spill to a global scheduler that minimizes estimated waiting time.
    BottomUp,
    /// Every task goes through the global scheduler (Spark/CIEL-style
    /// centralized scheduling baseline).
    Centralized,
    /// Bottom-up forwarding, but the global scheduler ignores input
    /// locations when placing (Fig. 8a "unaware" baseline).
    LocalityUnaware,
    /// Spilled tasks are placed on a uniformly random feasible node.
    Random,
}

/// Transport (simulated network) parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportConfig {
    /// One-way message latency between distinct nodes.
    pub latency: Duration,
    /// Per-connection bandwidth in bytes/second for inter-node transfers.
    pub bandwidth_bytes_per_sec: u64,
    /// Number of parallel connections a large transfer is striped across
    /// (paper §4.2.4: "we stripe the object across multiple TCP
    /// connections"). `1` reproduces the "Ray*" single-threaded ablation.
    pub connections_per_transfer: usize,
    /// Largest piece a transfer delivers at once: a fetch materialises
    /// piece `k` in the receiver's store while piece `k + 1` is in flight.
    pub chunk_bytes: usize,
    /// Seeded fault injection applied to every message on the fabric.
    pub chaos: ChaosConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            // Intra-datacenter-ish defaults scaled for an in-process cluster.
            latency: Duration::from_micros(50),
            // Stands in for the paper's 25Gbps links; per-connection share.
            bandwidth_bytes_per_sec: 2 * 1024 * 1024 * 1024,
            connections_per_transfer: 8,
            chunk_bytes: 512 * 1024,
            chaos: ChaosConfig::default(),
        }
    }
}

/// Seeded fault injection on the fabric: per-message drop probability and
/// extra-delay injection. Disabled by default (all probabilities zero);
/// chaos tests turn it on to exercise the retry and failure-detection
/// paths deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Probability in `[0, 1]` that any single message (transfer, control
    /// hop, or heartbeat) is dropped on the wire.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a message is delayed by `extra_delay`
    /// on top of its modeled cost.
    pub delay_probability: f64,
    /// The extra delay injected when the delay coin comes up.
    pub extra_delay: Duration,
    /// Seed for the injection RNG; the same seed yields the same
    /// drop/delay sequence.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_probability: 0.0,
            delay_probability: 0.0,
            extra_delay: Duration::ZERO,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// Whether any injection is configured at all (fast path check).
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0 || self.delay_probability > 0.0
    }
}

/// Global Control Store parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcsConfig {
    /// Number of shards the tables are hash-partitioned across.
    pub num_shards: usize,
    /// Replicas per shard chain (1 disables replication).
    pub chain_length: usize,
    /// Whether the flusher thread moves cold lineage entries to disk,
    /// bounding GCS memory (paper Fig. 10b).
    pub flush_enabled: bool,
    /// Entry-count high-water mark per shard above which flushing kicks in.
    pub flush_threshold_entries: usize,
    /// How often the flusher scans shards.
    pub flush_interval: Duration,
    /// Consecutive all-probes-dead reconfiguration rounds before the chain
    /// master treats a shard as wholly lost and rebuilds it from the
    /// flushed disk log. Low values recover fast; higher values tolerate
    /// longer scheduling stalls before declaring whole-shard loss.
    pub recovery_threshold: usize,
    /// Client-side retry budget (beyond the chain's internal retries)
    /// before a timed-out or shard-unavailable GCS operation is surfaced
    /// to the caller.
    pub client_retry_limit: u32,
}

impl Default for GcsConfig {
    fn default() -> Self {
        GcsConfig {
            num_shards: 4,
            chain_length: 2,
            flush_enabled: false,
            flush_threshold_entries: 100_000,
            flush_interval: Duration::from_millis(50),
            recovery_threshold: 3,
            client_retry_limit: 3,
        }
    }
}

/// Scheduler parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Placement policy.
    pub policy: SchedulerPolicy,
    /// Local queue length above which a local scheduler forwards new tasks
    /// to the global scheduler (paper §4.2.2 "predefined threshold").
    pub spillover_threshold: usize,
    /// Interval at which local schedulers send load/resource heartbeats.
    pub heartbeat_interval: Duration,
    /// Artificial latency added to every global scheduling decision
    /// (Fig. 12b ablation).
    pub added_decision_delay: Duration,
    /// EWMA smoothing factor for task-duration and bandwidth estimates.
    pub ewma_alpha: f64,
    /// Admission-control watermark: when a node's local queue holds this
    /// many tasks, new non-critical submissions there are shed with
    /// `RayError::Overloaded`.
    /// `None` disables admission control (the seed behaviour).
    pub admission_watermark: Option<usize>,
    /// Bounded-retry budget a submitting context spends on
    /// `RayError::Overloaded` before surfacing it to the caller (mirrors
    /// the GCS client retry pattern).
    pub admission_retry_limit: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: SchedulerPolicy::BottomUp,
            spillover_threshold: 32,
            heartbeat_interval: Duration::from_millis(10),
            added_decision_delay: Duration::ZERO,
            ewma_alpha: 0.2,
            admission_watermark: None,
            admission_retry_limit: 5,
        }
    }
}

/// Object store parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectStoreConfig {
    /// In-memory capacity per node, in bytes; LRU-evicted to spill beyond it.
    pub capacity_bytes: usize,
    /// Whether evicted objects are spilled (recoverable) or dropped
    /// (recoverable only via lineage).
    pub spill_enabled: bool,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig { capacity_bytes: 512 * 1024 * 1024, spill_enabled: true }
    }
}

/// Fault-tolerance parameters for the core runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Whether lineage is recorded and reconstruction attempted at all.
    pub lineage_enabled: bool,
    /// Max times one object reconstruction is retried before reporting loss.
    pub max_reconstruction_attempts: usize,
    /// Checkpoint an actor every N method calls (`None` = never), bounding
    /// replay on failure (paper Fig. 11b).
    pub actor_checkpoint_interval: Option<u64>,
    /// Suspicion threshold of the heartbeat failure detector (paper
    /// §4.2.2: node failure is *discovered* via missed heartbeats, not
    /// declared by an omniscient test harness): a live node whose last
    /// heartbeat is older than this is declared dead by the monitor. Must
    /// comfortably exceed `scheduler.heartbeat_interval`; the generous
    /// default avoids false positives on heavily loaded CI machines, chaos
    /// tests tighten it.
    pub heartbeat_timeout: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            lineage_enabled: true,
            max_reconstruction_attempts: 3,
            actor_checkpoint_interval: None,
            heartbeat_timeout: Duration::from_secs(2),
        }
    }
}

/// Lifecycle-tracing parameters (see `ray_common::trace`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Whether lifecycle events are collected at all. Off by default:
    /// disabled tracing is one relaxed atomic load per would-be event.
    pub enabled: bool,
    /// Per-node ring-buffer capacity in events; oldest events are dropped
    /// (and counted) on overflow between flushes.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, ring_capacity: 65_536 }
    }
}

/// Top-level configuration for one simulated cluster.
///
/// # Examples
///
/// ```
/// use ray_common::RayConfig;
/// let cfg = RayConfig::builder().nodes(4).workers_per_node(2).build();
/// assert_eq!(cfg.num_nodes, 4);
/// assert_eq!(cfg.node_resources.cpu(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RayConfig {
    /// Number of simulated nodes.
    pub num_nodes: usize,
    /// Worker processes per node (each executes one task at a time).
    pub workers_per_node: usize,
    /// Resource capacity advertised by each node.
    pub node_resources: Resources,
    /// Transport model.
    pub transport: TransportConfig,
    /// GCS layout.
    pub gcs: GcsConfig,
    /// Scheduler behaviour.
    pub scheduler: SchedulerConfig,
    /// Per-node object store.
    pub object_store: ObjectStoreConfig,
    /// Fault-tolerance behaviour.
    pub fault: FaultConfig,
    /// Lifecycle tracing.
    pub trace: TraceConfig,
    /// Seed for deterministic components (workload generators, policies).
    pub seed: u64,
}

impl Default for RayConfig {
    fn default() -> Self {
        RayConfig::builder().build()
    }
}

impl RayConfig {
    /// Starts a builder with laptop-scale defaults (2 nodes × 2 workers).
    pub fn builder() -> RayConfigBuilder {
        RayConfigBuilder::default()
    }

    /// Total worker count across the cluster.
    pub fn total_workers(&self) -> usize {
        self.num_nodes * self.workers_per_node
    }

    /// Validates cross-field invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 {
            return Err("num_nodes must be >= 1".into());
        }
        if self.workers_per_node == 0 {
            return Err("workers_per_node must be >= 1".into());
        }
        if self.gcs.num_shards == 0 {
            return Err("gcs.num_shards must be >= 1".into());
        }
        if self.gcs.chain_length == 0 {
            return Err("gcs.chain_length must be >= 1".into());
        }
        if self.gcs.recovery_threshold == 0 {
            return Err("gcs.recovery_threshold must be >= 1".into());
        }
        if !(self.scheduler.ewma_alpha > 0.0 && self.scheduler.ewma_alpha <= 1.0) {
            return Err("scheduler.ewma_alpha must be in (0, 1]".into());
        }
        if self.scheduler.admission_watermark == Some(0) {
            return Err("scheduler.admission_watermark must be >= 1 when set".into());
        }
        if self.transport.connections_per_transfer == 0 {
            return Err("transport.connections_per_transfer must be >= 1".into());
        }
        if self.transport.chunk_bytes == 0 {
            return Err("transport.chunk_bytes must be >= 1".into());
        }
        let chaos = &self.transport.chaos;
        if !(0.0..=1.0).contains(&chaos.drop_probability) {
            return Err("transport.chaos.drop_probability must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&chaos.delay_probability) {
            return Err("transport.chaos.delay_probability must be in [0, 1]".into());
        }
        if self.trace.enabled && self.trace.ring_capacity == 0 {
            return Err("trace.ring_capacity must be >= 1 when tracing is enabled".into());
        }
        if self.fault.heartbeat_timeout < self.scheduler.heartbeat_interval * 2 {
            return Err(
                "fault.heartbeat_timeout must be at least 2x scheduler.heartbeat_interval".into(),
            );
        }
        Ok(())
    }
}

/// Builder for [`RayConfig`].
#[derive(Debug, Clone)]
pub struct RayConfigBuilder {
    cfg: RayConfig,
    explicit_resources: bool,
}

impl Default for RayConfigBuilder {
    fn default() -> Self {
        RayConfigBuilder {
            cfg: RayConfig {
                num_nodes: 2,
                workers_per_node: 2,
                node_resources: Resources::cpus(2.0),
                transport: TransportConfig::default(),
                gcs: GcsConfig::default(),
                scheduler: SchedulerConfig::default(),
                object_store: ObjectStoreConfig::default(),
                fault: FaultConfig::default(),
                trace: TraceConfig::default(),
                seed: 0,
            },
            explicit_resources: false,
        }
    }
}

impl RayConfigBuilder {
    /// Sets the node count.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.num_nodes = n;
        self
    }

    /// Sets workers per node. Unless resources were set explicitly, node CPU
    /// capacity tracks the worker count.
    pub fn workers_per_node(mut self, n: usize) -> Self {
        self.cfg.workers_per_node = n;
        if !self.explicit_resources {
            let gpus = self.cfg.node_resources.gpu();
            self.cfg.node_resources = Resources::new(n as f64, gpus);
        }
        self
    }

    /// Sets each node's advertised resource capacity explicitly.
    pub fn node_resources(mut self, r: Resources) -> Self {
        self.cfg.node_resources = r;
        self.explicit_resources = true;
        self
    }

    /// Sets the transport model.
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.cfg.transport = t;
        self
    }

    /// Sets the GCS layout.
    pub fn gcs(mut self, g: GcsConfig) -> Self {
        self.cfg.gcs = g;
        self
    }

    /// Sets the scheduler behaviour.
    pub fn scheduler(mut self, s: SchedulerConfig) -> Self {
        self.cfg.scheduler = s;
        self
    }

    /// Sets the scheduling policy, keeping other scheduler defaults.
    pub fn policy(mut self, p: SchedulerPolicy) -> Self {
        self.cfg.scheduler.policy = p;
        self
    }

    /// Sets the per-node object store parameters.
    pub fn object_store(mut self, o: ObjectStoreConfig) -> Self {
        self.cfg.object_store = o;
        self
    }

    /// Sets fault-tolerance behaviour.
    pub fn fault(mut self, f: FaultConfig) -> Self {
        self.cfg.fault = f;
        self
    }

    /// Enables or disables lifecycle tracing, keeping other trace
    /// defaults.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.cfg.trace.enabled = enabled;
        self
    }

    /// Sets the full tracing configuration.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.cfg.trace = t;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates an invariant; builders are used
    /// at setup time where failing fast is the right behaviour.
    pub fn build(self) -> RayConfig {
        if let Err(msg) = self.cfg.validate() {
            panic!("invalid RayConfig: {msg}");
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(RayConfig::default().validate().is_ok());
    }

    #[test]
    fn workers_drive_cpu_capacity() {
        let cfg = RayConfig::builder().workers_per_node(8).build();
        assert_eq!(cfg.node_resources.cpu(), 8.0);
    }

    #[test]
    fn explicit_resources_stick() {
        let cfg = RayConfig::builder()
            .node_resources(Resources::new(4.0, 1.0))
            .workers_per_node(8)
            .build();
        assert_eq!(cfg.node_resources.cpu(), 4.0);
        assert_eq!(cfg.node_resources.gpu(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid RayConfig")]
    fn zero_nodes_rejected() {
        let _ = RayConfig::builder().nodes(0).build();
    }

    #[test]
    fn validation_catches_bad_ewma() {
        let mut cfg = RayConfig::default();
        cfg.scheduler.ewma_alpha = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn total_workers() {
        let cfg = RayConfig::builder().nodes(3).workers_per_node(4).build();
        assert_eq!(cfg.total_workers(), 12);
    }

    #[test]
    fn chaos_defaults_are_inert() {
        let chaos = ChaosConfig::default();
        assert!(!chaos.is_active());
        let mut active = chaos.clone();
        active.drop_probability = 0.1;
        assert!(active.is_active());
    }

    #[test]
    fn validation_catches_bad_chaos_probability() {
        let mut cfg = RayConfig::default();
        cfg.transport.chaos.drop_probability = 1.5;
        assert!(cfg.validate().is_err());
        cfg.transport.chaos.drop_probability = 0.5;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_tight_heartbeat_timeout() {
        let mut cfg = RayConfig::default();
        cfg.fault.heartbeat_timeout = cfg.scheduler.heartbeat_interval;
        assert!(cfg.validate().is_err());
        cfg.fault.heartbeat_timeout = cfg.scheduler.heartbeat_interval * 2;
        assert!(cfg.validate().is_ok());
    }
}
