//! The fabric: liveness, partitions, and lane-contended transfers.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ray_common::config::{ChaosConfig, TransportConfig};
use ray_common::sync::{classes, OrderedMutex, OrderedRwLock};
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::util::DetRng;
use ray_common::{NodeId, RayError, RayResult};

use crate::model::LinkModel;
use crate::sync::Semaphore;

/// The simulated network connecting all nodes of one cluster.
///
/// Cheap to clone (`Arc` inside); every component holds a handle.
///
/// # Examples
///
/// ```
/// use ray_common::config::TransportConfig;
/// use ray_common::NodeId;
/// use ray_transport::Fabric;
///
/// let fabric = Fabric::new(2, &TransportConfig::default());
/// let d = fabric.transfer(NodeId(0), NodeId(1), 1024, 1).unwrap();
/// assert!(d > std::time::Duration::ZERO);
/// ```
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Inner>,
}

struct Inner {
    model: LinkModel,
    /// Largest piece a streamed transfer hands its receiver.
    chunk_bytes: usize,
    alive: Vec<AtomicBool>,
    partitions: OrderedRwLock<HashSet<(u32, u32)>>,
    /// How many links `partitions` holds, written under its write lock: a
    /// check finds the set empty with one atomic load and no lock.
    partitioned: AtomicUsize,
    lanes: OrderedRwLock<HashMap<(u32, u32), Arc<Semaphore>>>,
    bytes_transferred: AtomicU64,
    transfers: AtomicU64,
    /// When `false`, wire time is computed but not slept (pure-model mode
    /// for deterministic unit tests).
    real_time: AtomicBool,
    /// Seeded message drops applied per message.
    chaos: ChaosConfig,
    chaos_rng: OrderedMutex<DetRng>,
    dropped: AtomicU64,
    /// Set once at cluster assembly (after `Fabric::new`): chaos drops
    /// become `message_dropped` trace events.
    tracer: OnceLock<TraceCollector>,
}

impl Fabric {
    /// Creates a fabric for `num_nodes` nodes, all initially alive.
    pub fn new(num_nodes: usize, cfg: &TransportConfig) -> Self {
        Fabric {
            inner: Arc::new(Inner {
                model: LinkModel::from_config(cfg),
                chunk_bytes: cfg.chunk_bytes.max(1),
                alive: (0..num_nodes).map(|_| AtomicBool::new(true)).collect(),
                partitions: OrderedRwLock::new(&classes::FABRIC_PARTITIONS, HashSet::new()),
                partitioned: AtomicUsize::new(0),
                lanes: OrderedRwLock::new(&classes::FABRIC_LANES, HashMap::new()),
                bytes_transferred: AtomicU64::new(0),
                transfers: AtomicU64::new(0),
                real_time: AtomicBool::new(true),
                chaos: cfg.chaos.clone(),
                chaos_rng: OrderedMutex::new(&classes::FABRIC_CHAOS_RNG, DetRng::new(cfg.chaos.seed)),
                dropped: AtomicU64::new(0),
                tracer: OnceLock::new(),
            }),
        }
    }

    /// Attaches the cluster's trace collector; only the first call takes
    /// effect (the fabric is assembled before the collector exists).
    pub fn set_tracer(&self, tracer: TraceCollector) {
        let _ = self.inner.tracer.set(tracer);
    }

    /// The link cost model in use.
    pub fn model(&self) -> &LinkModel {
        &self.inner.model
    }

    /// Number of nodes the fabric was built with.
    pub fn num_nodes(&self) -> usize {
        self.inner.alive.len()
    }

    /// Disables real sleeping: transfers return modeled durations instantly.
    /// Intended for unit tests that assert on the model, not on wall time.
    pub fn set_virtual_time(&self, virtual_time: bool) {
        self.inner.real_time.store(!virtual_time, Ordering::SeqCst);
    }

    /// Marks a node dead; transfers touching it fail until revived.
    pub fn kill_node(&self, node: NodeId) {
        self.liveness(node).store(false, Ordering::SeqCst);
    }

    /// Marks a node alive again.
    pub fn revive_node(&self, node: NodeId) {
        self.liveness(node).store(true, Ordering::SeqCst);
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.liveness(node).load(Ordering::SeqCst)
    }

    fn liveness(&self, node: NodeId) -> &AtomicBool {
        &self.inner.alive[node.index()]
    }

    /// Severs the (bidirectional) link between two nodes.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.write();
        p.insert(ordered(a, b));
        self.inner.partitioned.store(p.len(), Ordering::SeqCst);
    }

    /// Restores the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut p = self.inner.partitions.write();
        p.remove(&ordered(a, b));
        self.inner.partitioned.store(p.len(), Ordering::SeqCst);
    }

    /// Whether two nodes can currently talk.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_alive(a) || !self.is_alive(b) {
            return false;
        }
        !self.is_partitioned(a, b)
    }

    /// Whether the link between two distinct nodes is cut: one atomic load
    /// while no link is, the partition set's read lock otherwise.
    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && self.inner.partitioned.load(Ordering::SeqCst) > 0
            && self.inner.partitions.read().contains(&ordered(a, b))
    }

    /// Total payload bytes moved across the fabric so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.inner.bytes_transferred.load(Ordering::Relaxed)
    }

    /// Total completed transfers.
    pub fn transfer_count(&self) -> u64 {
        self.inner.transfers.load(Ordering::Relaxed)
    }

    /// Messages dropped so far by chaos injection.
    pub fn message_drop_count(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Rolls the chaos drop coin for one message from `src`; counts (and
    /// traces) a drop.
    fn chaos_drop(&self, src: NodeId) -> bool {
        if self.inner.chaos.drop_probability <= 0.0 {
            return false;
        }
        let roll = self.inner.chaos_rng.lock().next_f64();
        if roll < self.inner.chaos.drop_probability {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.inner.tracer.get() {
                t.emit(src, TraceEventKind::MessageDropped, TraceEntity::Node(src), "");
            }
            true
        } else {
            false
        }
    }

    /// Fails with the first dead endpoint, then with a cut link: three
    /// atomic loads while no link is cut, cheap enough for every piece of
    /// a stream.
    fn check_link(&self, src: NodeId, dst: NodeId) -> RayResult<()> {
        if !self.is_alive(src) {
            return Err(RayError::NodeDead(src));
        }
        // A partition is reported as the remote side being unreachable.
        if !self.is_alive(dst) || self.is_partitioned(src, dst) {
            return Err(RayError::NodeDead(dst));
        }
        Ok(())
    }

    fn link_lanes(&self, src: NodeId, dst: NodeId) -> Arc<Semaphore> {
        let key = (src.0, dst.0);
        if let Some(s) = self.inner.lanes.read().get(&key) {
            return s.clone();
        }
        self.inner
            .lanes
            .write()
            .entry(key)
            .or_insert_with(|| Arc::new(Semaphore::new(self.inner.model.max_connections)))
            .clone()
    }

    /// Moves `bytes` payload bytes from `src` to `dst` over `connections`
    /// striped lanes, blocking for the modeled wire time (while holding the
    /// lanes, so concurrent transfers on the link contend).
    ///
    /// Returns the modeled duration. Same-node transfers are free: the
    /// object store shares memory within a node (paper §4.2.3).
    pub fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        connections: usize,
    ) -> RayResult<Duration> {
        self.transfer_streamed(src, dst, bytes, connections, |_| {})
    }

    /// [`Fabric::transfer`], handing `on_piece` each piece `lo..hi` of at
    /// most `transport.chunk_bytes` as it arrives: the pieces tile
    /// `0..bytes` in order (one empty piece when `bytes` is 0) and piece
    /// `lo..hi` is delivered `latency + hi / bandwidth` after the transfer
    /// started. That instant is an absolute deadline, so time the receiver
    /// spends on one piece comes out of the wait for the next, and the last
    /// piece lands when `transfer` would have returned. Virtual time
    /// delivers the pieces back to back.
    ///
    /// An `Err` means the payload did not arrive — dropped before the first
    /// piece, or an endpoint lost while pieces were in flight — and the
    /// receiver must discard what it was handed. The link — both
    /// endpoints' liveness and the partition set — is checked as each
    /// piece lands, before the receiver sees it, so a lost endpoint or a
    /// cut link ends the transfer at its next piece.
    pub fn transfer_streamed(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        connections: usize,
        mut on_piece: impl FnMut(Range<usize>),
    ) -> RayResult<Duration> {
        self.check_link(src, dst)?;
        if src == dst {
            on_piece(0..bytes);
            return Ok(Duration::ZERO);
        }
        if self.chaos_drop(src) {
            return Err(RayError::MessageDropped);
        }
        let lanes = self.link_lanes(src, dst);
        let permit = lanes.acquire(connections);
        let real_time = self.inner.real_time.load(Ordering::Relaxed);
        let (src_up, dst_up) = (self.liveness(src), self.liveness(dst));
        let started = Instant::now();
        let mut lo = 0usize;
        let d = loop {
            let hi = bytes.min(lo.saturating_add(self.inner.chunk_bytes));
            let arrival = self.inner.model.transfer_duration(hi, permit.count());
            if real_time {
                std::thread::sleep((started + arrival).saturating_duration_since(Instant::now()));
            }
            // Either end may have died, or the link been cut, while the
            // piece was in flight: `check_link`, as three atomic loads while
            // no link is cut.
            if !src_up.load(Ordering::SeqCst) {
                return Err(RayError::NodeDead(src));
            }
            let cut = self.inner.partitioned.load(Ordering::SeqCst) > 0;
            if !dst_up.load(Ordering::SeqCst) || cut && self.is_partitioned(src, dst) {
                return Err(RayError::NodeDead(dst));
            }
            on_piece(lo..hi);
            if hi == bytes {
                break arrival;
            }
            lo = hi;
        };
        drop(permit);
        self.inner.bytes_transferred.fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.transfers.fetch_add(1, Ordering::Relaxed);
        Ok(d)
    }

    /// Whether `from` sits on a majority side of the current partition:
    /// its side — itself plus every live peer it can reach directly —
    /// must hold a strict majority of the live nodes. A node cut off from
    /// the majority cannot get its heartbeats into the cluster's shared
    /// view, so from that view it is indistinguishable from a crash —
    /// partition = death from the majority's perspective.
    ///
    /// An exact even split (e.g. either endpoint of a partitioned 2-node
    /// cluster) has no strict majority; to keep such clusters operable the
    /// tie goes to the side containing the lowest-id live node, so exactly
    /// one side stays up.
    pub fn reaches_majority(&self, from: NodeId) -> bool {
        let partitions = self.inner.partitions.read();
        let mut live = 0usize;
        let mut side = 0usize;
        let mut lowest_live = None;
        for (i, alive) in self.inner.alive.iter().enumerate() {
            if !alive.load(Ordering::SeqCst) {
                continue;
            }
            live += 1;
            if lowest_live.is_none() {
                lowest_live = Some(i);
            }
            if i == from.index() || !partitions.contains(&ordered(from, NodeId(i as u32))) {
                side += 1;
            }
        }
        match (side * 2).cmp(&live) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => lowest_live.is_some_and(|l| {
                l == from.index() || !partitions.contains(&ordered(from, NodeId(l as u32)))
            }),
        }
    }

    /// Delivers one heartbeat from `from` into the cluster's shared load
    /// view. Fails — silently suppressing the heartbeat — when the node is
    /// dead, the message is chaos-dropped, or the node is partitioned away
    /// from the majority of its live peers. The failure detector turns
    /// sustained suppression into a death declaration.
    pub fn deliver_heartbeat(&self, from: NodeId) -> RayResult<()> {
        if !self.is_alive(from) {
            return Err(RayError::NodeDead(from));
        }
        if self.chaos_drop(from) {
            return Err(RayError::MessageDropped);
        }
        if !self.reaches_majority(from) {
            return Err(RayError::NodeDead(from));
        }
        Ok(())
    }
}

fn ordered(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn cfg() -> TransportConfig {
        TransportConfig {
            latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: 1_000_000_000,
            connections_per_transfer: 4,
            chunk_bytes: 1024,
            chaos: ChaosConfig::default(),
        }
    }

    fn chaos_cfg(drop_p: f64, seed: u64) -> TransportConfig {
        TransportConfig {
            chaos: ChaosConfig { drop_probability: drop_p, seed },
            ..cfg()
        }
    }

    #[test]
    fn same_node_transfer_is_free() {
        let f = Fabric::new(2, &cfg());
        let d = f.transfer(NodeId(0), NodeId(0), 1 << 30, 8).unwrap();
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn dead_node_rejects_transfers() {
        let f = Fabric::new(2, &cfg());
        f.kill_node(NodeId(1));
        assert_eq!(
            f.transfer(NodeId(0), NodeId(1), 10, 1).unwrap_err(),
            RayError::NodeDead(NodeId(1))
        );
        assert_eq!(
            f.transfer(NodeId(1), NodeId(0), 10, 1).unwrap_err(),
            RayError::NodeDead(NodeId(1))
        );
        f.revive_node(NodeId(1));
        assert!(f.transfer(NodeId(0), NodeId(1), 10, 1).is_ok());
    }

    #[test]
    fn partition_blocks_both_directions() {
        let f = Fabric::new(3, &cfg());
        f.partition(NodeId(0), NodeId(2));
        assert!(!f.connected(NodeId(0), NodeId(2)));
        assert!(!f.connected(NodeId(2), NodeId(0)));
        assert!(f.connected(NodeId(0), NodeId(1)));
        assert!(f.transfer(NodeId(0), NodeId(2), 10, 1).is_err());
        f.heal(NodeId(0), NodeId(2));
        assert!(f.transfer(NodeId(0), NodeId(2), 10, 1).is_ok());
    }

    #[test]
    fn striping_reduces_wall_time() {
        let f = Fabric::new(2, &cfg());
        // 10 MB at 1 GB/s = 10ms on one connection, ~2.5ms on four.
        let start = Instant::now();
        f.transfer(NodeId(0), NodeId(1), 10_000_000, 1).unwrap();
        let one = start.elapsed();
        let start = Instant::now();
        f.transfer(NodeId(0), NodeId(1), 10_000_000, 4).unwrap();
        let four = start.elapsed();
        assert!(
            one.as_secs_f64() > 2.0 * four.as_secs_f64(),
            "striping should cut wall time: 1-lane {one:?}, 4-lane {four:?}"
        );
    }

    #[test]
    fn virtual_time_skips_sleeping() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        let start = Instant::now();
        let d = f.transfer(NodeId(0), NodeId(1), 1_000_000_000, 1).unwrap();
        assert!(d >= Duration::from_millis(900), "modeled time should be ~1s, got {d:?}");
        assert!(start.elapsed() < Duration::from_millis(200), "must not actually sleep");
    }

    #[test]
    fn byte_accounting() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        f.transfer(NodeId(0), NodeId(1), 100, 1).unwrap();
        f.transfer(NodeId(1), NodeId(0), 50, 1).unwrap();
        // Same-node transfers do not count as network traffic.
        f.transfer(NodeId(0), NodeId(0), 999, 1).unwrap();
        assert_eq!(f.bytes_transferred(), 150);
        assert_eq!(f.transfer_count(), 2);
    }

    #[test]
    fn streamed_pieces_tile_the_payload_and_count_as_one_transfer() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        let chunk = cfg().chunk_bytes;
        for bytes in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
            let (moved, count) = (f.bytes_transferred(), f.transfer_count());
            let mut pieces = Vec::new();
            let d = f
                .transfer_streamed(NodeId(0), NodeId(1), bytes, 4, |piece| pieces.push(piece))
                .unwrap();
            assert_eq!(d, f.model().transfer_duration(bytes, 4), "{bytes} bytes");
            assert_eq!(pieces.len(), bytes.div_ceil(chunk).max(1), "{bytes} bytes");
            let mut next = 0;
            for piece in &pieces {
                assert_eq!(piece.start, next, "{bytes} bytes: {pieces:?}");
                assert!(piece.len() <= chunk, "{bytes} bytes: {pieces:?}");
                next = piece.end;
            }
            assert_eq!(next, bytes);
            assert_eq!(f.bytes_transferred() - moved, bytes as u64);
            assert_eq!(f.transfer_count() - count, 1);
        }
    }

    #[test]
    fn a_slow_receiver_overlaps_the_wire() {
        // 16 pieces of 4 ms wire time each on one lane; the receiver sleeps
        // away half of that per piece. Store-and-forward would take 1.5x
        // the wire time; streamed, only the last piece's work is exposed.
        let piece_time = Duration::from_millis(4);
        let config = TransportConfig {
            latency: Duration::from_micros(100),
            bandwidth_bytes_per_sec: 16 << 20,
            chunk_bytes: 64 << 10,
            ..cfg()
        };
        let f = Fabric::new(2, &config);
        let bytes = 16 * config.chunk_bytes;
        let wire = f.model().transfer_duration(bytes, 1);
        let start = Instant::now();
        let mut early = Vec::new();
        let d = f
            .transfer_streamed(NodeId(0), NodeId(1), bytes, 1, |piece| {
                let (at, due) = (start.elapsed(), f.model().transfer_duration(piece.end, 1));
                if at < due {
                    early.push((piece, at, due));
                }
                thread::sleep(piece_time / 2);
            })
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(d, wire);
        assert!(early.is_empty(), "pieces delivered before they arrived: {early:?}");
        assert!(
            elapsed < wire.mul_f64(1.25),
            "16 half-busy pieces took {elapsed:?} against {wire:?} of wire time"
        );
    }

    #[test]
    fn destination_killed_mid_stream_fails_the_transfer() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        let mut pieces = 0;
        let err = f
            .transfer_streamed(NodeId(0), NodeId(1), 4 * cfg().chunk_bytes, 1, |_| {
                pieces += 1;
                f.kill_node(NodeId(1));
            })
            .unwrap_err();
        assert_eq!(err, RayError::NodeDead(NodeId(1)));
        assert_eq!(pieces, 1, "the next piece's liveness check ends the transfer");
        assert_eq!((f.transfer_count(), f.bytes_transferred()), (0, 0));
    }

    #[test]
    fn partition_cut_mid_stream_fails_the_transfer_at_its_next_piece() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        let mut pieces = 0;
        let err = f
            .transfer_streamed(NodeId(0), NodeId(1), 4 * cfg().chunk_bytes, 1, |_| {
                pieces += 1;
                f.partition(NodeId(1), NodeId(0));
            })
            .unwrap_err();
        assert_eq!(err, RayError::NodeDead(NodeId(1)));
        assert_eq!(pieces, 1, "the next piece's link check ends the transfer");
        assert_eq!((f.transfer_count(), f.bytes_transferred()), (0, 0));
        f.heal(NodeId(0), NodeId(1));
        assert_eq!(f.transfer(NodeId(0), NodeId(1), 4 * cfg().chunk_bytes, 1).map(|_| ()), Ok(()));
    }

    #[test]
    fn source_killed_mid_stream_fails_the_transfer() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        let mut pieces = 0;
        let err = f
            .transfer_streamed(NodeId(0), NodeId(1), 4 * cfg().chunk_bytes, 1, |_| {
                pieces += 1;
                f.kill_node(NodeId(0));
            })
            .unwrap_err();
        assert_eq!(err, RayError::NodeDead(NodeId(0)));
        assert_eq!(pieces, 1, "a dead source streams nothing more");
        assert_eq!((f.transfer_count(), f.bytes_transferred()), (0, 0));
    }

    #[test]
    fn concurrent_transfers_contend_for_lanes() {
        // Link has 8 lanes (4 × 2); two 8-lane transfers must serialize.
        let f = Fabric::new(2, &cfg());
        let bytes = 4_000_000; // 4 MB over 8 GB/s effective = 0.5ms each.
        let start = Instant::now();
        thread::scope(|s| {
            for _ in 0..4 {
                let f = f.clone();
                s.spawn(move || {
                    f.transfer(NodeId(0), NodeId(1), bytes, 8).unwrap();
                });
            }
        });
        let elapsed = start.elapsed();
        // Four serialized 0.5ms transfers ≥ 2ms; if lanes didn't contend
        // they'd all finish in ~0.5ms.
        assert!(elapsed >= Duration::from_micros(1800), "expected contention, got {elapsed:?}");
    }

    #[test]
    fn chaos_disabled_never_drops() {
        let f = Fabric::new(2, &cfg());
        f.set_virtual_time(true);
        for _ in 0..200 {
            f.transfer(NodeId(0), NodeId(1), 8, 1).unwrap();
        }
        assert_eq!(f.message_drop_count(), 0);
    }

    #[test]
    fn chaos_drop_sequence_is_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let f = Fabric::new(2, &chaos_cfg(0.3, seed));
            f.set_virtual_time(true);
            (0..64)
                .map(|_| f.transfer(NodeId(0), NodeId(1), 8, 1).is_err())
                .collect()
        };
        let a = outcomes(42);
        let b = outcomes(42);
        let c = outcomes(43);
        assert_eq!(a, b, "same seed must give the same drop sequence");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&d| d), "p=0.3 over 64 messages should drop some");
        assert!(!a.iter().all(|&d| d), "p=0.3 should not drop everything");
    }

    #[test]
    fn chaos_certain_drop_rejects_everything() {
        let f = Fabric::new(2, &chaos_cfg(1.0, 7));
        f.set_virtual_time(true);
        for _ in 0..16 {
            assert_eq!(
                f.transfer(NodeId(0), NodeId(1), 8, 1).unwrap_err(),
                RayError::MessageDropped
            );
        }
        assert_eq!(f.message_drop_count(), 16);
        assert_eq!(f.transfer_count(), 0);
    }

    #[test]
    fn heartbeats_flow_when_healthy() {
        let f = Fabric::new(3, &cfg());
        for n in 0..3 {
            assert!(f.deliver_heartbeat(NodeId(n)).is_ok());
        }
    }

    #[test]
    fn heartbeat_suppressed_for_dead_node() {
        let f = Fabric::new(3, &cfg());
        f.kill_node(NodeId(1));
        assert_eq!(f.deliver_heartbeat(NodeId(1)).unwrap_err(), RayError::NodeDead(NodeId(1)));
    }

    #[test]
    fn heartbeat_suppressed_when_partitioned_from_majority() {
        let f = Fabric::new(4, &cfg());
        // Cut node 3 off from everyone: 0 of 3 peers reachable.
        for n in 0..3 {
            f.partition(NodeId(3), NodeId(n));
        }
        assert!(!f.reaches_majority(NodeId(3)));
        assert!(f.deliver_heartbeat(NodeId(3)).is_err());
        // The majority side still heartbeats fine (each reaches 2 of 3).
        for n in 0..3 {
            assert!(f.reaches_majority(NodeId(n)));
            assert!(f.deliver_heartbeat(NodeId(n)).is_ok());
        }
        // Healing restores the minority node's heartbeat path.
        for n in 0..3 {
            f.heal(NodeId(3), NodeId(n));
        }
        assert!(f.deliver_heartbeat(NodeId(3)).is_ok());
    }

    #[test]
    fn two_node_partition_kills_only_the_higher_id_side() {
        let f = Fabric::new(2, &cfg());
        f.partition(NodeId(0), NodeId(1));
        // An even split has no strict majority; the tie goes to the side
        // holding the lowest live id, so node 0 (the driver's home in
        // generated chaos schedules) stays up and only node 1 goes silent.
        assert!(f.reaches_majority(NodeId(0)));
        assert!(f.deliver_heartbeat(NodeId(0)).is_ok());
        assert!(!f.reaches_majority(NodeId(1)));
        assert!(f.deliver_heartbeat(NodeId(1)).is_err());
    }

    #[test]
    fn three_node_isolation_spares_the_survivors() {
        let f = Fabric::new(3, &cfg());
        f.partition(NodeId(2), NodeId(0));
        f.partition(NodeId(2), NodeId(1));
        // The pair {0, 1} is 2 of 3 live nodes — a strict majority even
        // though each sees only 1 of its 2 peers.
        assert!(f.reaches_majority(NodeId(0)));
        assert!(f.reaches_majority(NodeId(1)));
        assert!(!f.reaches_majority(NodeId(2)));
    }

    #[test]
    fn single_partition_is_not_death() {
        let f = Fabric::new(4, &cfg());
        // Node 3 loses one of three peers: still a majority (2 of 3).
        f.partition(NodeId(3), NodeId(0));
        assert!(f.reaches_majority(NodeId(3)));
        assert!(f.deliver_heartbeat(NodeId(3)).is_ok());
    }
}
