//! Chain replication for one shard (van Renesse & Schneider, OSDI'04).
//!
//! Writes enter at the head, propagate member-to-member, and are
//! acknowledged by the tail (the commit point); reads are served by the
//! tail. The paper builds "a lightweight chain replication layer on top of
//! Redis" and shows (Fig. 10a) that a member kill plus rejoin keeps the
//! maximum client-observed latency under 30ms. This module reproduces that
//! protocol and that experiment's mechanics, with the members as values
//! the client drives (`replica.rs`) — a write is the caller's thread
//! applying the update at each member from head to tail, one writer per
//! chain at a time, not a message relayed between member threads:
//!
//! - failure *reporting*: a client that meets a crashed member gets no
//!   answer, waits out [`OP_TIMEOUT`] and calls [`Chain::reconfigure`];
//! - failure *detection*: the master probes all members and drops those
//!   that do not answer within [`PROBE_TIMEOUT`];
//! - *recovery*: a fresh replica receives a state-transfer snapshot from
//!   the current tail and is spliced in as the new tail;
//! - retries: update operations are idempotent (`Put`/`SetAdd`/`SetRemove`;
//!   `ListAppend` is at-least-once, documented for event logs), so client
//!   retry after timeout is safe — the head may have applied what the
//!   tail never saw.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ray_common::config::GcsConfig;
use ray_common::id::NodeId;
use ray_common::metrics::{names, Counter, MetricsRegistry};
use ray_common::sync::{classes, OrderedMutex, OrderedRwLock};
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::util::{retry, Backoff};
use ray_common::{RayError, RayResult, ShardId};

use crate::flush::DiskStore;
use crate::kv::{Entry, Key, Table, UpdateOp};
use crate::replica::Replica;

/// How long a client waits on a member that does not answer before
/// reporting a failure to the master. With [`PROBE_TIMEOUT`] it is half
/// of the paper's 30ms client-observed bound (Fig. 10a); the state
/// transfer and the retry have the other half. Only a crashed member
/// costs it: a live one answers however long its apply takes.
pub(crate) const OP_TIMEOUT: Duration = Duration::from_millis(10);
/// How long the master waits for a probe reply before declaring a member
/// dead.
const PROBE_TIMEOUT: Duration = Duration::from_millis(5);
/// Client attempts across reconfigurations.
const MAX_RETRIES: u32 = 8;

/// One chain-replicated shard.
pub struct Chain {
    shard_id: ShardId,
    cfg: GcsConfig,
    trace: TraceCollector,
    members: OrderedRwLock<Vec<Replica>>,
    /// Held by the one writer walking an update down the chain, so every
    /// member applies the same sequence (the rank rule forbids holding two
    /// members' state locks hand over hand).
    order: OrderedMutex<()>,
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
    entries_flushed: Arc<Counter>,
    /// `reconfigurations`, summed over the shards of one registry.
    reconfigurations_total: Arc<Counter>,
}

impl Chain {
    /// Starts a chain of `cfg.chain_length` replicas for `shard_id`.
    pub fn start(
        shard_id: ShardId,
        cfg: &GcsConfig,
        metrics: MetricsRegistry,
        trace: TraceCollector,
    ) -> RayResult<Chain> {
        let chain = Chain {
            shard_id,
            cfg: cfg.clone(),
            trace,
            members: OrderedRwLock::new(&classes::GCS_MEMBERS, Vec::new()),
            order: OrderedMutex::new(&classes::GCS_CHAIN_ORDER, ()),
            reconfig: OrderedMutex::new(&classes::GCS_RECONFIG, ()),
            next_replica_id: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            reconfigurations: AtomicU64::new(0),
            all_dead_streak: AtomicUsize::new(0),
            disk: Arc::new(DiskStore::in_memory()),
            entries_flushed: metrics.counter(names::GCS_ENTRIES_FLUSHED),
            reconfigurations_total: metrics.counter(names::GCS_RECONFIGURATIONS),
        };
        chain.members.write().extend((0..cfg.chain_length).map(|_| chain.new_replica()));
        Ok(chain)
    }

    fn new_replica(&self) -> Replica {
        let id = self.next_replica_id.fetch_add(1, Ordering::SeqCst);
        Replica::new(id, self.disk.clone())
    }

    /// This shard's ID.
    pub fn shard_id(&self) -> ShardId {
        self.shard_id
    }

    /// Current chain length.
    pub fn replica_count(&self) -> usize {
        self.members.read().len()
    }

    /// Writes committed at the tail so far.
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

    /// Applies an update through the chain (head → ... → tail), on the
    /// caller's thread. The tail is the commit point: its apply is the one
    /// that is counted (under its state lock, so the count never trails
    /// what a read can see) and the one subscribers hear about.
    pub fn write(&self, op: UpdateOp) -> RayResult<()> {
        self.attempt(|members| {
            let _order = self.order.lock();
            let (tail, upstream) = members.split_last()?;
            for member in upstream {
                member.live_state()?.apply(&op);
            }
            let mut state = tail.live_state()?;
            let (notifications, flushed) = state.apply(&op);
            self.committed.fetch_add(1, Ordering::Relaxed);
            drop(state);
            if flushed > 0 {
                self.entries_flushed.add(flushed);
            }
            for (subscriber, notification) in notifications {
                let _ = subscriber.send(notification);
            }
            Some(())
        })
    }

    /// Reads a key from the tail (the commit point); only the tail's state
    /// is locked, so a read never waits for a write still at the head.
    pub fn read(&self, key: &Key) -> RayResult<Option<Entry>> {
        self.attempt(|members| Some(members.last()?.live_state()?.get(key)))
    }

    /// The client side of the protocol. `op` runs under the membership
    /// read lock and returns `None`, holding no other lock, when a member
    /// it needs is crashed: such a member never answers, so the client
    /// waits out [`OP_TIMEOUT`] (`retry`'s sleep), reports to the master
    /// (paper: "Failures are reported to the chain master ... from the
    /// client") and tries again, [`MAX_RETRIES`] attempts in all.
    fn attempt<T>(&self, op: impl Fn(&[Replica]) -> Option<T>) -> RayResult<T> {
        let unanswered = RayError::GcsUnavailable(self.shard_id);
        let mut timed_out = false;
        let outcome = retry(
            Backoff::fixed(OP_TIMEOUT),
            MAX_RETRIES - 1,
            |e, _| *e == unanswered,
            || {
                if std::mem::replace(&mut timed_out, true) {
                    self.reconfigure();
                }
                let members = self.members.read();
                if members.is_empty() {
                    return Err(RayError::Shutdown(format!("shard {} lost", self.shard_id)));
                }
                op(&members).ok_or_else(|| unanswered.clone())
            },
        );
        if outcome.as_ref().err() == Some(&unanswered) {
            // The last attempt's failure is reported like the others, so
            // a caller's own retry meets a chain the master has seen.
            self.reconfigure();
        }
        outcome
    }

    /// Master logic: probe all members, drop the dead, and splice in a
    /// replacement via state transfer.
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
        let alive: Vec<bool> = self.members.read().iter().map(|m| !m.is_crashed()).collect();
        if alive.is_empty() {
            // Shut down (members cleared); nothing to probe or rebuild.
            return;
        }
        if alive.iter().all(|&a| a) {
            // Everyone answered: the failure was already repaired by an
            // earlier reporter.
            self.all_dead_streak.store(0, Ordering::Relaxed);
            return;
        }
        // The probes go out in parallel and a dead member never answers
        // its own, so finding one dead costs the master one full timeout.
        std::thread::sleep(PROBE_TIMEOUT);
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
        let mut answered = alive.iter();
        members.retain(|_| answered.next().copied().unwrap_or(false));

        // Add replacements up to the configured chain length, each
        // initialized by state transfer from the current tail. The
        // membership write lock keeps every writer out meanwhile.
        while !members.is_empty() && members.len() < self.cfg.chain_length {
            let Some(snapshot) = members.last().and_then(Replica::live_state).map(|s| s.snapshot())
            else {
                break; // The tail died after its probe; the next report sees it.
            };
            let joiner = self.new_replica();
            joiner.live_state().expect("invariant: a new member has not crashed").install(snapshot);
            members.push(joiner);
        }
        self.count_reconfiguration();
        self.trace.emit(
            NodeId(0),
            TraceEventKind::GcsReconfigured,
            TraceEntity::Shard(self.shard_id),
            format!("members={}", members.len()),
        );
    }

    fn count_reconfiguration(&self) {
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        self.reconfigurations_total.inc();
    }

    /// Whole-shard recovery: every replica is gone, so start a fresh chain
    /// over the surviving disk log. Flushed entries (the lineage tables —
    /// paper Fig. 10b) are replayed through the disk tier's index and stay
    /// readable via read-through; unflushed in-memory entries and live
    /// subscriptions are lost (callers recover those through lineage
    /// reconstruction and re-subscription).
    ///
    /// Caller must hold the reconfig (master) lock.
    fn recover_from_disk(&self) {
        let mut members = self.members.write();
        members.clear();
        // Validate the log end-to-end before serving from it: every record
        // must decode (reopen already truncated any torn tail for
        // file-backed stores).
        let replayed = self.disk.replay().len();
        members.extend((0..self.cfg.chain_length).map(|_| self.new_replica()));
        drop(members);
        self.count_reconfiguration();
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

    /// Drops every member; later operations fail with `Shutdown`.
    pub fn shutdown(&self) {
        self.members.write().clear();
    }
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

    // --- the member as a value the client drives ---

    fn residents(chain: &Chain) -> Vec<i64> {
        chain.members.read().iter().map(|m| m.resident.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn a_write_is_applied_at_every_member_and_committed_once() {
        for len in [1, 2, 3] {
            let chain = start_chain(len);
            put(&chain, 1, b"v").unwrap();
            assert_eq!(chain.committed_updates(), 1);
            for member in chain.members.read().iter() {
                let held = member.live_state().unwrap().get(&Key::new(Table::Task, vec![1]));
                assert_eq!(held, Some(Entry::Blob(Bytes::from_static(b"v"))), "{}", member.id);
            }
            assert_eq!(get(&chain, 1), Some(Entry::Blob(Bytes::from_static(b"v"))));
            assert_eq!(chain.reconfigurations(), 0);
            chain.shutdown();
        }
    }

    #[test]
    fn a_crashed_member_is_never_applied_to() {
        let chain = start_chain(2);
        put(&chain, 1, b"before").unwrap();
        let dead_tail = chain.members.read().last().unwrap().resident.clone();
        let (head_before, tail_before) = (residents(&chain)[0], dead_tail.load(Ordering::Relaxed));
        chain.crash_member(1);
        let start = std::time::Instant::now();
        put(&chain, 2, b"after").unwrap();
        assert!(start.elapsed() >= OP_TIMEOUT, "a dead member costs its client a full timeout");
        // The head applied both attempts' worth of one idempotent put; the
        // dead tail saw neither, and the write committed on its successor.
        assert_eq!(dead_tail.load(Ordering::Relaxed), tail_before);
        assert!(residents(&chain).iter().all(|&r| r > head_before), "{:?}", residents(&chain));
        assert_eq!(get(&chain, 2), Some(Entry::Blob(Bytes::from_static(b"after"))));
        assert_eq!((chain.replica_count(), chain.reconfigurations()), (2, 1));
        assert_eq!(chain.committed_updates(), 2);
        chain.shutdown();
    }

    #[test]
    fn only_the_commit_point_notifies() {
        let chain = start_chain(3);
        let key = Key::new(Table::Object, vec![1]);
        let (tx, rx) = crossbeam_channel::unbounded();
        let subscribe = UpdateOp::Subscribe { keys: vec![key.clone()], sub_id: 1, sender: tx };
        chain.write(subscribe).unwrap();
        for member in 0..4u8 {
            chain.write(UpdateOp::SetAdd { key: key.clone(), member: vec![member] }).unwrap();
            // Three members applied the write; the subscriber hears it once,
            // with the committed entry.
            match rx.try_recv().unwrap().entry {
                Some(Entry::Set(s)) => assert_eq!(s.len(), member as usize + 1),
                other => panic!("expected the location set, got {other:?}"),
            }
            assert!(rx.try_recv().is_err());
        }
        chain.shutdown();
    }

    #[test]
    fn a_read_does_not_wait_for_a_write_in_progress_at_the_head() {
        let chain = start_chain(2);
        put(&chain, 1, b"committed").unwrap();
        let (read_tx, read_rx) = crossbeam_channel::unbounded();
        std::thread::scope(|scope| {
            let members = chain.members.read();
            let head = members.first().unwrap().live_state().unwrap();
            // The writer takes the order lock and stops at the head.
            let writer = scope.spawn(|| put(&chain, 2, b"in flight"));
            scope.spawn(|| read_tx.send((get(&chain, 1), get(&chain, 2))).unwrap());
            let (committed, in_flight) =
                read_rx.recv_timeout(Duration::from_secs(5)).expect("the read waited for the head");
            assert_eq!(committed, Some(Entry::Blob(Bytes::from_static(b"committed"))));
            assert_eq!(in_flight, None, "the tail has not committed it");
            drop(head);
            drop(members);
            writer.join().unwrap().unwrap();
        });
        assert_eq!(get(&chain, 2), Some(Entry::Blob(Bytes::from_static(b"in flight"))));
        chain.shutdown();
    }

    #[test]
    fn growing_a_shard_evicts_no_replica() {
        // 120 000 distinct keys take the shard's hash maps through every
        // growth point up to 114 688 entries, where one apply rehashes the
        // whole table: slow, and nothing a master may mistake for a death.
        let chain = start_chain(2);
        for i in 0..120_000u32 {
            chain
                .write(UpdateOp::Put {
                    key: Key::new(Table::Task, i.to_le_bytes()),
                    value: Bytes::from_static(b"spec"),
                })
                .unwrap();
        }
        assert_eq!(chain.committed_updates(), 120_000);
        assert_eq!((chain.reconfigurations(), chain.replica_count()), (0, 2));
        chain.shutdown();
    }
}
