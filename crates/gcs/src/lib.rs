//! `ray-gcs`: the Global Control Store.
//!
//! The GCS is "a key-value store with pub-sub functionality", sharded for
//! scale, with "per-shard chain replication to provide fault tolerance"
//! (paper §4.2.1). It holds the *entire* control state of the cluster —
//! object locations, task lineage, function/actor/client tables — so every
//! other component (schedulers, object stores) is stateless and can simply
//! restart and re-read its state. The paper's event log lives in the GCS
//! because Ray's components are separate processes; here they are threads
//! of one process, and the lifecycle log is the process-wide trace
//! collector (`ray_common::trace`), so no GCS table holds events.
//!
//! Layout of this crate:
//!
//! - [`kv`]: the replicated state machine of one shard — tables, entries
//!   (blobs / location sets), update operations — and the
//!   pub-sub watcher table a chain keeps beside it, unreplicated.
//! - [`replica`]: one chain member: a shard state behind its own lock,
//!   which the calling client applies updates to (no thread of its own).
//!   Replicas can be "crashed" (they stop applying and answering) to
//!   exercise failure handling.
//! - [`chain`]: the chain itself: the client's write path (apply at every
//!   member head → tail, commit at the tail, notify from the chain's
//!   watcher table), read path (the tail only), subscribe and unsubscribe
//!   (the watcher table, no commit), with timeout and retry; the master's
//!   failure detection (probe on report) and reconfiguration (drop dead
//!   members, splice a fresh replica in via state transfer) — the
//!   mechanism behind paper Fig. 10a.
//! - [`flush`]: the flusher that moves cold lineage entries to an
//!   append-only disk file, bounding GCS memory (paper Fig. 10b), with a
//!   read-through path for reconstruction after flushing.
//! - [`tables`]: the typed client façade ([`tables::GcsClient`]) the rest
//!   of the system uses: object table, task table, client (node) table,
//!   actor table, and function table.
//! - [`check`]: a consistency checker that journals acknowledged lineage
//!   writes and re-reads them after chaos, proving read-your-writes and
//!   no-lost-lineage across reconfigurations and shard recoveries.
//!
//! # Examples
//!
//! ```
//! use ray_common::config::GcsConfig;
//! use ray_common::{NodeId, ObjectId};
//! use ray_gcs::Gcs;
//!
//! let gcs = Gcs::start(&GcsConfig::default()).unwrap();
//! let client = gcs.client();
//! let id = ObjectId::random();
//! client.add_object_location(id, NodeId(1), 64).unwrap();
//! let locs = client.get_object_locations(id).unwrap();
//! assert_eq!(locs.len(), 1);
//! assert_eq!(locs[0].node, NodeId(1));
//! gcs.shutdown();
//! ```

pub mod chain;
pub mod check;
pub mod flush;
pub mod kv;
pub mod replica;
pub mod tables;

use std::sync::Arc;

use ray_common::config::GcsConfig;
use ray_common::metrics::MetricsRegistry;
use ray_common::trace::TraceCollector;
use ray_common::{RayResult, ShardId};

use chain::Chain;
use tables::GcsClient;

/// The Global Control Store: a set of chain-replicated shards plus the
/// typed client façade.
pub struct Gcs {
    shards: Arc<Vec<Chain>>,
    metrics: MetricsRegistry,
    flusher: Option<flush::Flusher>,
}

impl Gcs {
    /// Starts a GCS with the given layout (shards, chain length, flushing).
    pub fn start(cfg: &GcsConfig) -> RayResult<Gcs> {
        Gcs::start_traced(cfg, MetricsRegistry::new(), TraceCollector::disabled())
    }

    /// Starts a GCS that emits lifecycle trace events (replica crashes,
    /// reconfigurations, shard recoveries, flushes) into `trace`.
    pub fn start_traced(
        cfg: &GcsConfig,
        metrics: MetricsRegistry,
        trace: TraceCollector,
    ) -> RayResult<Gcs> {
        let mut shards = Vec::with_capacity(cfg.num_shards);
        for i in 0..cfg.num_shards {
            shards.push(Chain::start(ShardId(i as u32), cfg, metrics.clone(), trace.clone())?);
        }
        let shards = Arc::new(shards);
        let flusher = if cfg.flush_enabled {
            Some(flush::Flusher::start(shards.clone(), cfg.clone(), trace))
        } else {
            None
        };
        Ok(Gcs { shards, metrics, flusher })
    }

    /// Returns a cheap-clone typed client (reporting retries into this
    /// GCS's metrics registry).
    pub fn client(&self) -> GcsClient {
        GcsClient::new(self.shards.clone()).with_metrics(self.metrics.clone())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's chain (failure-injection in tests and
    /// the Fig. 10a benchmark).
    pub fn shard(&self, id: ShardId) -> &Chain {
        &self.shards[id.0 as usize]
    }

    /// Bytes of table data currently resident in memory across all shards
    /// (head replica's view; all replicas track the same committed state).
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Total entries flushed to disk across shards.
    pub fn entries_flushed(&self) -> u64 {
        self.metrics.counter(ray_common::metrics::names::GCS_ENTRIES_FLUSHED).get()
    }

    /// The metrics registry this GCS reports into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Crashes every replica of one shard (chaos: whole-shard failure).
    pub fn crash_shard(&self, id: ShardId) {
        self.shards[id.0 as usize].crash_all();
    }

    /// Pauses the background flusher, if one is running (chaos fault).
    pub fn stall_flusher(&self) {
        if let Some(f) = &self.flusher {
            f.stall();
        }
    }

    /// Resumes a stalled flusher.
    pub fn resume_flusher(&self) {
        if let Some(f) = &self.flusher {
            f.resume();
        }
    }

    /// Whether the background flusher is currently stalled.
    pub fn flusher_stalled(&self) -> bool {
        self.flusher.as_ref().is_some_and(|f| f.is_stalled())
    }

    /// Synchronously flushes every shard's flushable tables down to `keep`
    /// in-memory entries (tests pin durable state before injecting
    /// crashes).
    pub fn flush_all_to_disk(&self, keep: usize) -> RayResult<()> {
        for c in self.shards.iter() {
            c.flush_to_disk(keep)?;
        }
        Ok(())
    }

    /// Forces recovery of any shard whose chain is entirely dead (chaos
    /// repair: a healed cluster must not end with a wedged shard).
    pub fn heal_all(&self) {
        for c in self.shards.iter() {
            c.heal();
        }
    }

    /// Stops the flusher and drops every shard's replicas.
    pub fn shutdown(&self) {
        if let Some(f) = &self.flusher {
            f.stop();
        }
        for c in self.shards.iter() {
            c.shutdown();
        }
    }
}

impl Drop for Gcs {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::{NodeId, ObjectId};

    #[test]
    fn start_and_shutdown_all_shard_counts() {
        for shards in [1usize, 2, 7] {
            let cfg = GcsConfig { num_shards: shards, ..GcsConfig::default() };
            let gcs = Gcs::start(&cfg).unwrap();
            assert_eq!(gcs.num_shards(), shards);
            gcs.shutdown();
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let cfg = GcsConfig { num_shards: 4, chain_length: 1, ..GcsConfig::default() };
        let gcs = Gcs::start(&cfg).unwrap();
        let client = gcs.client();
        // Write many object locations; every shard should see some traffic.
        for _ in 0..200 {
            client.add_object_location(ObjectId::random(), NodeId(0), 1).unwrap();
        }
        let counts: Vec<u64> = (0..4).map(|i| gcs.shard(ShardId(i)).committed_updates()).collect();
        assert!(counts.iter().all(|&c| c > 10), "unbalanced shards: {counts:?}");
    }

    #[test]
    fn resident_bytes_grows_with_writes() {
        let gcs = Gcs::start(&GcsConfig { num_shards: 1, ..GcsConfig::default() }).unwrap();
        let before = gcs.resident_bytes();
        let client = gcs.client();
        for _ in 0..50 {
            client.add_object_location(ObjectId::random(), NodeId(0), 1).unwrap();
        }
        assert!(gcs.resident_bytes() > before);
    }
}
