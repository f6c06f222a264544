//! Chain replication for one shard (van Renesse & Schneider, OSDI'04).
//!
//! Writes enter at the head, propagate member-to-member, and are
//! acknowledged by the tail (the commit point); reads are served by the
//! tail. The paper builds "a lightweight chain replication layer on top of
//! Redis" and shows (Fig. 10a) that a member kill plus rejoin keeps the
//! maximum client-observed latency under 30ms. This module reproduces that
//! protocol and that experiment's mechanics:
//!
//! - failure *reporting*: clients time out and call [`Chain::reconfigure`];
//! - failure *detection*: the master probes all members in parallel and
//!   drops those that do not answer;
//! - *recovery*: a fresh replica is spawned, receives a state-transfer
//!   snapshot from the current tail, and is spliced in as the new tail;
//! - retries: update operations are idempotent (`Put`/`SetAdd`/`SetRemove`;
//!   `ListAppend` is at-least-once, documented for event logs), so client
//!   retry after timeout is safe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crossbeam_channel::bounded;

use ray_common::config::GcsConfig;
use ray_common::id::NodeId;
use ray_common::metrics::MetricsRegistry;
use ray_common::sync::{classes, OrderedMutex, OrderedRwLock};
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::{RayError, RayResult, ShardId};

use crate::flush::DiskStore;
use crate::kv::{Entry, Key, Table, UpdateOp};
use crate::replica::{ReplicaHandle, ReplicaMsg};

use std::sync::Arc;

/// How long a client waits for a write ack / read reply before reporting a
/// failure to the master. Tuned with [`PROBE_TIMEOUT`] so that detection +
/// reconfiguration + retry stays under the paper's 30ms client-observed
/// bound (Fig. 10a); false positives from slow ops are harmless (the
/// master's probe finds everyone alive and the client just retries).
pub(crate) const OP_TIMEOUT: Duration = Duration::from_millis(10);
/// How long the master waits for a probe reply before declaring a member
/// dead.
const PROBE_TIMEOUT: Duration = Duration::from_millis(5);
/// How long the master waits for a state-transfer snapshot while splicing
/// in a replacement replica. Generous: a large shard takes a while to
/// clone, and failing here would leave the chain under-replicated.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(5);
/// Client retry budget across reconfigurations.
const MAX_RETRIES: usize = 8;

/// One chain-replicated shard.
pub struct Chain {
    shard_id: ShardId,
    cfg: GcsConfig,
    metrics: MetricsRegistry,
    trace: TraceCollector,
    members: OrderedRwLock<Vec<ReplicaHandle>>,
    reconfig: OrderedMutex<()>,
    next_replica_id: AtomicU64,
    committed: AtomicU64,
    reconfigurations: AtomicU64,
    /// Consecutive reconfiguration rounds in which *every* probe failed.
    /// Crossing `cfg.recovery_threshold` escalates to whole-shard recovery
    /// from the disk log instead of waiting forever for a transient stall
    /// to clear.
    all_dead_streak: AtomicUsize,
    disk: Arc<DiskStore>,
}

impl Chain {
    /// Starts a chain of `cfg.chain_length` replicas for `shard_id`.
    pub fn start(
        shard_id: ShardId,
        cfg: &GcsConfig,
        metrics: MetricsRegistry,
        trace: TraceCollector,
    ) -> RayResult<Chain> {
        let disk = Arc::new(DiskStore::in_memory());
        let chain = Chain {
            shard_id,
            cfg: cfg.clone(),
            metrics,
            trace,
            members: OrderedRwLock::new(&classes::GCS_MEMBERS, Vec::new()),
            reconfig: OrderedMutex::new(&classes::GCS_RECONFIG, ()),
            next_replica_id: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            reconfigurations: AtomicU64::new(0),
            all_dead_streak: AtomicUsize::new(0),
            disk,
        };
        {
            let mut members = chain.members.write();
            for _ in 0..cfg.chain_length {
                members.push(chain.spawn_replica());
            }
            relink(&members);
        }
        Ok(chain)
    }

    fn spawn_replica(&self) -> ReplicaHandle {
        let id = self.next_replica_id.fetch_add(1, Ordering::SeqCst);
        ReplicaHandle::spawn(id, self.disk.clone(), self.metrics.clone(), self.cfg.op_delay)
    }

    /// This shard's ID.
    pub fn shard_id(&self) -> ShardId {
        self.shard_id
    }

    /// Current chain length.
    pub fn replica_count(&self) -> usize {
        self.members.read().len()
    }

    /// Writes acknowledged by the tail so far.
    pub fn committed_updates(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Number of reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations.load(Ordering::Relaxed)
    }

    /// Bytes resident in the head replica's memory (all live replicas hold
    /// the same committed state).
    pub fn resident_bytes(&self) -> u64 {
        self.members
            .read()
            .first()
            .map(|m| m.resident.load(Ordering::Relaxed).max(0) as u64)
            .unwrap_or(0)
    }

    /// The shard's disk tier (shared by all replicas).
    pub fn disk(&self) -> &DiskStore {
        &self.disk
    }

    /// Distinct keys flushed to this shard's disk tier.
    pub fn keys_on_disk(&self) -> usize {
        self.disk.keys_on_disk()
    }

    /// Crashes the `idx`-th chain member (failure injection for tests and
    /// the Fig. 10a benchmark). The member stops responding; the next
    /// client operation will time out and trigger reconfiguration.
    pub fn crash_member(&self, idx: usize) {
        let members = self.members.read();
        if let Some(m) = members.get(idx) {
            m.crash();
            self.trace.emit(
                NodeId(0),
                TraceEventKind::GcsReplicaCrashed,
                TraceEntity::Shard(self.shard_id),
                format!("replica={idx}"),
            );
        }
    }

    /// Crashes every chain member at once (whole-shard fault injection).
    /// Clients stall until the all-dead streak crosses
    /// `cfg.recovery_threshold` and recovery rebuilds the chain from the
    /// disk log; unflushed in-memory state is lost.
    pub fn crash_all(&self) {
        let members = self.members.read();
        for m in members.iter() {
            m.crash();
        }
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsReplicaCrashed,
            TraceEntity::Shard(self.shard_id),
            format!("all={}", members.len()),
        );
    }

    /// Flushes every flushable table down to `keep` in-memory entries
    /// (synchronous; tests and the chaos harness use this to pin what is
    /// durable before injecting a shard crash).
    pub fn flush_to_disk(&self, keep: usize) -> RayResult<()> {
        for table in [Table::Task, Table::Lineage, Table::Event] {
            self.write(UpdateOp::Flush { table, keep_entries: keep })?;
        }
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsFlush,
            TraceEntity::Shard(self.shard_id),
            format!("keys_on_disk={}", self.disk.keys_on_disk()),
        );
        Ok(())
    }

    /// Applies an update through the chain (head → ... → tail → ack).
    pub fn write(&self, op: UpdateOp) -> RayResult<()> {
        for _ in 0..MAX_RETRIES {
            let head = match self.members.read().first() {
                Some(h) => h.tx.clone(),
                None => return Err(RayError::Shutdown(format!("shard {} lost", self.shard_id))),
            };
            let (ack_tx, ack_rx) = bounded(1);
            if head.send(ReplicaMsg::Update { op: clone_op(&op), reply: Some(ack_tx) }).is_err() {
                self.reconfigure();
                continue;
            }
            match ack_rx.recv_timeout(OP_TIMEOUT) {
                Ok(()) => {
                    self.committed.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(_) => {
                    // Timeout despite a healthy-looking send: report to the
                    // master (paper: "Failures are reported to the chain
                    // master ... from the client").
                    self.reconfigure();
                }
            }
        }
        Err(RayError::GcsUnavailable(self.shard_id))
    }

    /// Reads a key from the tail (the commit point).
    pub fn read(&self, key: &Key) -> RayResult<Option<Entry>> {
        for _ in 0..MAX_RETRIES {
            let tail = match self.members.read().last() {
                Some(t) => t.tx.clone(),
                None => return Err(RayError::Shutdown(format!("shard {} lost", self.shard_id))),
            };
            let (tx, rx) = bounded(1);
            if tail.send(ReplicaMsg::Read { key: key.clone(), reply: tx }).is_err() {
                self.reconfigure();
                continue;
            }
            match rx.recv_timeout(OP_TIMEOUT) {
                Ok(e) => return Ok(e),
                Err(_) => self.reconfigure(),
            }
        }
        Err(RayError::GcsUnavailable(self.shard_id))
    }

    /// Master logic: probe all members, drop the dead, splice in a
    /// replacement via state transfer, and restore chain links.
    ///
    /// Serialized by the master lock; concurrent reporters coalesce (the
    /// second caller finds a healthy chain and does nothing). When every
    /// probe fails for `cfg.recovery_threshold` consecutive rounds, the
    /// whole chain is declared lost and rebuilt from the disk log.
    pub fn reconfigure(&self) {
        self.reconfigure_inner(false);
    }

    /// Forces whole-shard recovery if no member answers a probe, bypassing
    /// the all-dead streak threshold (chaos repair uses this so a healed
    /// cluster never ends with a wedged shard).
    pub fn heal(&self) {
        self.reconfigure_inner(true);
    }

    fn reconfigure_inner(&self, force_recover: bool) {
        let _master = self.reconfig.lock();
        // Probe in parallel: send all pings first, then collect.
        let probes: Vec<_> = {
            let members = self.members.read();
            members
                .iter()
                .map(|m| {
                    let (tx, rx) = bounded(1);
                    let sent = m.tx.send(ReplicaMsg::Ping { reply: tx }).is_ok();
                    (sent, rx)
                })
                .collect()
        };
        if probes.is_empty() {
            // Shut down (members cleared); nothing to probe or rebuild.
            return;
        }
        let clock = self.trace.clock().clone();
        let deadline = clock.now() + PROBE_TIMEOUT;
        let alive: Vec<bool> = probes
            .into_iter()
            .map(|(sent, rx)| {
                if !sent {
                    return false;
                }
                let now = clock.now();
                let remaining = deadline.saturating_duration_since(now).max(Duration::from_millis(1));
                rx.recv_timeout(remaining).is_ok()
            })
            .collect();
        if alive.iter().all(|&a| a) {
            // False alarm (e.g. slow op); nothing to do.
            self.all_dead_streak.store(0, Ordering::Relaxed);
            return;
        }
        if !alive.iter().any(|&a| a) {
            // Every probe timed out at once. A single occurrence is more
            // likely a scheduling stall than a simultaneous whole-chain
            // failure, and removing all members on a fluke would discard
            // committed state. But when it keeps happening the chain really
            // is gone, so count consecutive all-dead rounds and escalate to
            // recovery from the disk log.
            let streak = self.all_dead_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if force_recover || streak >= self.cfg.recovery_threshold {
                self.recover_from_disk();
            }
            return;
        }
        self.all_dead_streak.store(0, Ordering::Relaxed);

        let mut members = self.members.write();
        let mut idx = 0;
        members.retain(|_| {
            let keep = alive.get(idx).copied().unwrap_or(false);
            idx += 1;
            keep
        });

        // Respawn replacements up to the configured chain length, each
        // initialized by state transfer from the current tail.
        while !members.is_empty() && members.len() < self.cfg.chain_length {
            let snapshot = {
                let tail = members.last().expect("invariant: chain membership is never empty");
                let (tx, rx) = bounded(1);
                if tail.tx.send(ReplicaMsg::Snapshot { reply: tx }).is_err() {
                    break;
                }
                match rx.recv_timeout(SNAPSHOT_TIMEOUT) {
                    Ok(s) => s,
                    Err(_) => break,
                }
            };
            let replacement = self.spawn_replica();
            let _ = replacement.tx.send(ReplicaMsg::Install { snap: snapshot });
            members.push(replacement);
        }
        relink(&members);
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsReconfigured,
            TraceEntity::Shard(self.shard_id),
            format!("members={}", members.len()),
        );
    }

    /// Whole-shard recovery: every replica is gone, so spawn a fresh chain
    /// over the surviving disk log. Flushed entries (the lineage tables —
    /// paper Fig. 10b) are replayed through the disk tier's index and stay
    /// readable via read-through; unflushed in-memory entries and live
    /// subscriptions are lost (callers recover those through lineage
    /// reconstruction and re-subscription).
    ///
    /// Caller must hold the reconfig (master) lock.
    fn recover_from_disk(&self) {
        let mut members = self.members.write();
        // Dropping the old handles joins the crashed replica threads.
        members.clear();
        // Validate the log end-to-end before serving from it: every record
        // must decode (reopen already truncated any torn tail for
        // file-backed stores).
        let replayed = self.disk.replay().len();
        for _ in 0..self.cfg.chain_length {
            members.push(self.spawn_replica());
        }
        relink(&members);
        drop(members);
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        self.all_dead_streak.store(0, Ordering::Relaxed);
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsReconfigured,
            TraceEntity::Shard(self.shard_id),
            "rebuilt".to_string(),
        );
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsShardRecovered,
            TraceEntity::Shard(self.shard_id),
            format!("replayed={replayed}"),
        );
    }

    /// Stops all replica threads.
    pub fn shutdown(&self) {
        let mut members = self.members.write();
        for m in members.iter_mut() {
            m.shutdown();
        }
        members.clear();
    }
}

fn relink(members: &[ReplicaHandle]) {
    for i in 0..members.len() {
        let next = members.get(i + 1).map(|m| m.tx.clone());
        let _ = members[i].tx.send(ReplicaMsg::SetNext { next });
    }
}

// `UpdateOp` derives `Clone`, but retry loops make the intent worth naming.
fn clone_op(op: &UpdateOp) -> UpdateOp {
    op.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crate::kv::Table;

    fn start_chain(len: usize) -> Chain {
        let cfg = GcsConfig { chain_length: len, ..GcsConfig::default() };
        Chain::start(ShardId(0), &cfg, MetricsRegistry::new(), TraceCollector::disabled()).unwrap()
    }

    fn put(chain: &Chain, id: u8, val: &'static [u8]) -> RayResult<()> {
        chain.write(UpdateOp::Put {
            key: Key::new(Table::Task, vec![id]),
            value: Bytes::from_static(val),
        })
    }

    fn get(chain: &Chain, id: u8) -> Option<Entry> {
        chain.read(&Key::new(Table::Task, vec![id])).unwrap()
    }

    #[test]
    fn write_then_read_through_chain() {
        for len in [1, 2, 3] {
            let chain = start_chain(len);
            put(&chain, 1, b"v").unwrap();
            assert_eq!(get(&chain, 1), Some(Entry::Blob(Bytes::from_static(b"v"))));
            chain.shutdown();
        }
    }

    #[test]
    fn head_failure_recovers_with_no_data_loss() {
        let chain = start_chain(2);
        for i in 0..10 {
            put(&chain, i, b"before").unwrap();
        }
        chain.crash_member(0);
        // Next write times out, reconfigures, retries, succeeds.
        put(&chain, 100, b"after").unwrap();
        assert_eq!(chain.replica_count(), 2, "replacement should have joined");
        for i in 0..10 {
            assert_eq!(get(&chain, i), Some(Entry::Blob(Bytes::from_static(b"before"))));
        }
        assert_eq!(get(&chain, 100), Some(Entry::Blob(Bytes::from_static(b"after"))));
        assert!(chain.reconfigurations() >= 1);
        chain.shutdown();
    }

    #[test]
    fn tail_failure_recovers_reads() {
        let chain = start_chain(2);
        put(&chain, 1, b"x").unwrap();
        chain.crash_member(1);
        // Read hits the dead tail, reconfigures, then succeeds.
        assert_eq!(get(&chain, 1), Some(Entry::Blob(Bytes::from_static(b"x"))));
        assert_eq!(chain.replica_count(), 2);
        chain.shutdown();
    }

    #[test]
    fn sole_replica_crash_recovers_empty_after_threshold() {
        // Nothing was flushed, so whole-shard recovery comes back empty —
        // but it *does* come back: the write that drives the all-dead
        // streak past the threshold succeeds within its retry budget.
        let chain = start_chain(1);
        put(&chain, 1, b"x").unwrap();
        chain.crash_member(0);
        put(&chain, 2, b"y").unwrap();
        assert_eq!(get(&chain, 1), None, "unflushed entry should be gone");
        assert_eq!(get(&chain, 2), Some(Entry::Blob(Bytes::from_static(b"y"))));
        assert_eq!(chain.replica_count(), 1);
        chain.shutdown();
    }

    #[test]
    fn flushed_state_survives_whole_shard_crash() {
        let chain = start_chain(2);
        for i in 0..10 {
            put(&chain, i, b"durable").unwrap();
        }
        chain.flush_to_disk(0).unwrap();
        chain.crash_all();
        // The next write stalls through the recovery threshold, then lands
        // on the rebuilt chain.
        put(&chain, 100, b"after").unwrap();
        for i in 0..10 {
            assert_eq!(
                get(&chain, i),
                Some(Entry::Blob(Bytes::from_static(b"durable"))),
                "flushed entry {i} lost across whole-shard crash"
            );
        }
        assert_eq!(get(&chain, 100), Some(Entry::Blob(Bytes::from_static(b"after"))));
        assert_eq!(chain.replica_count(), 2);
        chain.shutdown();
    }

    #[test]
    fn unreachable_recovery_threshold_surfaces_gcs_unavailable() {
        let cfg = GcsConfig { chain_length: 1, recovery_threshold: 100, ..GcsConfig::default() };
        let chain =
            Chain::start(ShardId(7), &cfg, MetricsRegistry::new(), TraceCollector::disabled())
                .unwrap();
        put(&chain, 1, b"x").unwrap();
        chain.crash_member(0);
        assert_eq!(put(&chain, 2, b"y"), Err(RayError::GcsUnavailable(ShardId(7))));
        chain.shutdown();
    }

    #[test]
    fn recovery_emits_ordered_trace_events() {
        use ray_common::trace::TraceLog;

        let cfg = GcsConfig { chain_length: 1, ..GcsConfig::default() };
        let trace = TraceCollector::new(1024);
        let chain =
            Chain::start(ShardId(0), &cfg, MetricsRegistry::new(), trace.clone()).unwrap();
        put(&chain, 1, b"x").unwrap();
        chain.flush_to_disk(0).unwrap();
        chain.crash_all();
        put(&chain, 2, b"y").unwrap();
        let log = TraceLog::from_events(trace.drain_node(NodeId(0)));
        log.assert().ordered(
            TraceEntity::Shard(ShardId(0)),
            &[
                TraceEventKind::GcsReplicaCrashed,
                TraceEventKind::GcsReconfigured,
                TraceEventKind::GcsShardRecovered,
            ],
        );
        chain.shutdown();
    }

    #[test]
    fn subscription_survives_tail_failover() {
        let chain = start_chain(2);
        let keys: Vec<Key> = (5..9u8).map(|i| Key::new(Table::Object, vec![i])).collect();
        let (tx, rx) = crossbeam_channel::unbounded();
        let (other_tx, other_rx) = crossbeam_channel::unbounded();
        chain.write(UpdateOp::Subscribe { keys: keys.clone(), sub_id: 1, sender: tx }).unwrap();
        chain
            .write(UpdateOp::Subscribe { keys: keys[..1].to_vec(), sub_id: 2, sender: other_tx })
            .unwrap();
        chain.crash_member(1); // Tail dies; subscription state must survive.
        for key in &keys {
            chain.write(UpdateOp::SetAdd { key: key.clone(), member: vec![9] }).unwrap();
            // Every attempt of an acknowledged write has been applied, and
            // a retried one notifies again: read up to the expected key.
            while rx.recv_timeout(Duration::from_secs(2)).expect("notification after failover").key
                != *key
            {}
        }
        assert_eq!(other_rx.recv_timeout(Duration::from_secs(2)).unwrap().key, keys[0]);
        // State transfer carried the subscription → keys index too: the
        // replacement tail, now the one that notifies, drops all four keys
        // of subscription 1 on one unsubscribe and leaves subscription 2.
        chain.write(UpdateOp::Unsubscribe { sub_id: 1 }).unwrap();
        while rx.try_recv().is_ok() {}
        while other_rx.try_recv().is_ok() {}
        for key in &keys {
            chain.write(UpdateOp::SetAdd { key: key.clone(), member: vec![10] }).unwrap();
        }
        assert!(rx.try_recv().is_err(), "unsubscribed keys still notify after failover");
        assert_eq!(other_rx.try_recv().unwrap().key, keys[0]);
        chain.shutdown();
    }

    #[test]
    fn writes_under_churn_all_survive() {
        let chain = start_chain(3);
        for i in 0..50u8 {
            put(&chain, i, b"d").unwrap();
            if i == 20 {
                chain.crash_member(1);
            }
            if i == 40 {
                chain.crash_member(0);
            }
        }
        for i in 0..50u8 {
            assert!(get(&chain, i).is_some(), "entry {i} lost under churn");
        }
        chain.shutdown();
    }
}
