//! Pull-based object replication between nodes.
//!
//! "If a task's inputs are not local, the inputs are replicated to the
//! local object store before execution" (§4.2.3). The transfer manager
//! implements the Fig. 7 protocol: look up locations in the GCS object
//! table (or register a callback and wait if the object does not exist
//! yet), pick a live source, pay the modeled wire time on the fabric with
//! connection striping, and hand each piece of the payload to a sink while
//! the next one is on the wire. One loop serves two sinks: `fetch`
//! materializes a replica and records the new location back in the GCS;
//! `fetch_pieces` hands the pieces to its caller, who consumes them as
//! they land and stores nothing.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ray_common::sync::{classes, OrderedRwLock};

use ray_common::metrics::MetricsRegistry;
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::util::{retry, Backoff};
use ray_common::{NodeId, ObjectId, RayError, RayResult};
use ray_gcs::tables::{GcsClient, ObjectLocation};
use ray_transport::Fabric;

use crate::store::LocalObjectStore;

/// How many times one wire transfer is retried after a transient
/// (chaos-dropped) failure before the fetch moves on to another replica.
const TRANSFER_RETRY_LIMIT: u32 = 6;

/// In-process directory of every node's local store.
///
/// Stands in for each store's network server endpoint: the transfer path
/// uses it to read the source replica's bytes after the fabric has charged
/// the wire time.
#[derive(Clone)]
pub struct StoreDirectory {
    stores: Arc<OrderedRwLock<Vec<Option<Arc<LocalObjectStore>>>>>,
}

impl Default for StoreDirectory {
    fn default() -> Self {
        StoreDirectory {
            stores: Arc::new(OrderedRwLock::new(&classes::STORE_DIRECTORY, Vec::new())),
        }
    }
}

impl StoreDirectory {
    /// Creates an empty directory.
    pub fn new() -> StoreDirectory {
        StoreDirectory::default()
    }

    /// Registers (or replaces, after node restart) a node's store.
    pub fn register(&self, store: Arc<LocalObjectStore>) {
        let node = store.node();
        let mut stores = self.stores.write();
        if stores.len() <= node.index() {
            stores.resize(node.index() + 1, None);
        }
        stores[node.index()] = Some(store);
    }

    /// Removes a node's store (node death).
    pub fn unregister(&self, node: NodeId) {
        let mut stores = self.stores.write();
        if let Some(slot) = stores.get_mut(node.index()) {
            *slot = None;
        }
    }

    /// Looks up a node's store.
    pub fn get(&self, node: NodeId) -> Option<Arc<LocalObjectStore>> {
        self.stores.read().get(node.index()).and_then(|s| s.clone())
    }
}

/// Replicates objects to a node on demand.
#[derive(Clone)]
pub struct TransferManager {
    directory: StoreDirectory,
    fabric: Fabric,
    gcs: GcsClient,
    connections: usize,
    tracer: TraceCollector,
}

impl TransferManager {
    /// Creates a transfer manager; until [`TransferManager::with_tracer`]
    /// it records no events, and counts its retries into `metrics`.
    pub fn new(
        directory: StoreDirectory,
        fabric: Fabric,
        gcs: GcsClient,
        connections: usize,
        metrics: MetricsRegistry,
    ) -> TransferManager {
        TransferManager {
            directory,
            fabric,
            gcs,
            connections,
            tracer: TraceCollector::over(&metrics, false),
        }
    }

    /// Attaches a trace collector: transfers and retries become
    /// `object_transferred`/`transfer_retry` events.
    pub fn with_tracer(mut self, tracer: TraceCollector) -> TransferManager {
        self.tracer = tracer;
        self
    }

    /// The store directory.
    pub fn directory(&self) -> &StoreDirectory {
        &self.directory
    }

    /// Ensures `id` is available in `to`'s local store, pulling a replica
    /// if needed. Blocks up to `timeout` for objects that do not exist
    /// anywhere yet (they may still be computing).
    ///
    /// Returns [`RayError::ObjectLost`] when the object existed but every
    /// replica is gone (the caller escalates to lineage reconstruction) and
    /// [`RayError::Timeout`] when it never appeared.
    pub fn fetch(&self, id: ObjectId, to: NodeId, timeout: Duration) -> RayResult<Bytes> {
        let local = self.directory.get(to).ok_or(RayError::NodeDead(to))?;
        // The replica: each piece appended as it lands, into a buffer
        // sized once; a restart starts it over.
        let mut replica = Vec::new();
        let pulled = self.pull(id, to, &local, timeout, &mut |offset, piece, len| {
            if offset == 0 {
                replica = Vec::with_capacity(len);
            }
            replica.extend_from_slice(piece);
        })?;
        match pulled {
            Pulled::Local(data) => Ok(data),
            Pulled::Wire { src, len } => {
                let data = Bytes::from(replica);
                local.put_listed(id, data.clone(), &self.gcs)?;
                self.landed(id, src, to, len);
                Ok(data)
            }
        }
    }

    /// [`TransferManager::fetch`] without the replica: hands `sink` each
    /// `(offset, piece)` of the payload as it lands off the wire, in order,
    /// and stores and lists nothing. A restart — a retried drop, or
    /// another replica after the source was lost — delivers from offset 0
    /// again; on `Err` the caller must discard what it was handed. An
    /// object `to`'s store already holds is returned whole instead, and
    /// `sink` sees none of it.
    pub fn fetch_pieces(
        &self,
        id: ObjectId,
        to: NodeId,
        timeout: Duration,
        sink: &mut dyn FnMut(usize, &[u8]),
    ) -> RayResult<Option<Bytes>> {
        let local = self.directory.get(to).ok_or(RayError::NodeDead(to))?;
        match self.pull(id, to, &local, timeout, &mut |offset, piece, _| sink(offset, piece))? {
            Pulled::Local(data) => Ok(Some(data)),
            Pulled::Wire { src, len } => {
                self.landed(id, src, to, len);
                Ok(None)
            }
        }
    }

    /// The one pull loop under both sinks: find a live replica through the
    /// object table (repairing stale rows, or subscribing while there is
    /// none) and stream it off the wire into `sink` as
    /// `(offset, piece, len)`, retrying dropped transfers, or find the
    /// object in `local`, `to`'s store, and hand it back whole.
    fn pull(
        &self,
        id: ObjectId,
        to: NodeId,
        local: &LocalObjectStore,
        timeout: Duration,
        sink: &mut dyn FnMut(usize, &[u8], usize),
    ) -> RayResult<Pulled> {
        let clock = self.tracer.clock().clone();
        let deadline = clock.now() + timeout;
        // A copy this node's `put_listed` has sealed but not listed yet is
        // taken once it is listed, so a `free` right after the caller's
        // `get` finds the row. A later look follows the object table's
        // word that a location is listed, and does not wait.
        local.wait_listed(id);

        loop {
            // Re-check the local store every round: the object may have
            // been produced locally (or by a concurrent fetch) after the
            // previous check.
            if let Some(b) = local.get_local(id) {
                return Ok(Pulled::Local(b));
            }
            // A control-plane outage (shard mid-recovery) is transient from
            // the fetch loop's perspective: try again next round until the
            // fetch deadline, same as an object that has no locations yet.
            let locations = match self.gcs.get_object_locations(id) {
                Ok(locs) => locs,
                Err(RayError::GcsUnavailable(_)) => Vec::new(),
                Err(e) => return Err(e),
            };
            let mut knew_of_replicas = false;
            for loc in &locations {
                if loc.node == to {
                    match self.recheck_self_location(local, id, *loc) {
                        Some(b) => return Ok(Pulled::Local(b)),
                        None => continue,
                    }
                }
                knew_of_replicas = true;
                if !self.fabric.is_alive(loc.node) {
                    continue;
                }
                let src_store = match self.directory.get(loc.node) {
                    Some(s) => s,
                    None => continue,
                };
                let data = match src_store.get_local(id) {
                    Some(d) => d,
                    None => {
                        // Stale GCS entry (evicted without spill, or raced
                        // with node cleanup): repair the table and move on.
                        let _ = self.gcs.remove_object_location(id, loc.node, loc.size);
                        continue;
                    }
                };
                // Pay the wire time (striped), handing each piece to the
                // sink while the next is in flight.
                if self.transfer_with_retry(loc.node, to, &data, id, sink).is_ok() {
                    return Ok(Pulled::Wire { src: loc.node, len: data.len() });
                }
            }

            if knew_of_replicas {
                // Locations existed but none were reachable/held the bytes:
                // give failure detection a beat, then decide. Instead of a
                // blind sleep, park on the local store's sealed condvar for
                // a bounded window — a concurrent fetch or local production
                // satisfies the wait immediately, and a timeout just means
                // it's time to re-examine replica liveness.
                if clock.now() >= deadline {
                    return Err(RayError::ObjectLost(id));
                }
                let window = Duration::from_millis(1)
                    .min(deadline.saturating_duration_since(clock.now()));
                if let Ok(b) = local.wait_local(id, window) {
                    return Ok(Pulled::Local(b));
                }
                // Re-check: if every recorded replica is on a dead node the
                // object is lost and only lineage can bring it back.
                let locs = self.gcs.get_object_locations(id)?;
                let any_live = locs
                    .iter()
                    .any(|l| l.node != to && self.fabric.is_alive(l.node));
                if !locs.is_empty() && !any_live {
                    return Err(RayError::ObjectLost(id));
                }
                continue;
            }

            // No locations at all: the object has not been created yet.
            // Register a callback with the object table and wait (Fig. 7b
            // step 2).
            let remaining = deadline.saturating_duration_since(clock.now());
            if remaining.is_zero() {
                return Err(RayError::Timeout);
            }
            let sub = self.gcs.subscribe_object(id)?;
            match sub.wait_for_location(remaining) {
                Ok(_) => continue, // Created somewhere; loop fetches it.
                Err(RayError::Timeout) => return Err(RayError::Timeout),
                Err(e) => return Err(e),
            }
        }
    }

    /// Traces a payload of `size` bytes that landed on `to` (the fabric
    /// counts its bytes).
    fn landed(&self, id: ObjectId, src: NodeId, to: NodeId, size: usize) {
        self.tracer.emit(
            to,
            TraceEventKind::ObjectTransferred,
            TraceEntity::Object(id),
            format_args!("from={src} bytes={size}"),
        );
    }

    /// The object table lists `loc.node`'s own store, which missed a moment
    /// ago. A local put publishes its location only after sealing, so a
    /// second look decides it: a hit is a put that raced the first look; a
    /// second miss proves the row stale (a previous incarnation of the node
    /// wrote it — node death leaves object rows behind) and it is repaired
    /// like any other node's. Left in place, a stale row that is the only
    /// one makes every subscribe deliver it at once and the fetch loop spin.
    fn recheck_self_location(
        &self,
        local: &LocalObjectStore,
        id: ObjectId,
        loc: ObjectLocation,
    ) -> Option<Bytes> {
        let sealed = local.get_local(id);
        if sealed.is_none() {
            let _ = self.gcs.remove_object_location(id, loc.node, loc.size);
        }
        sealed
    }

    /// One wire transfer of `data`, handing `sink` each piece as it
    /// lands, with bounded retry on transient (dropped-message) errors:
    /// exponential backoff with deterministic jitter seeded from the object
    /// ID, so a given fetch retries on the same schedule every run. Hard
    /// failures (dead node, partition) propagate immediately — retrying
    /// those is the failure detector's job, not ours.
    fn transfer_with_retry(
        &self,
        src: NodeId,
        dst: NodeId,
        data: &Bytes,
        id: ObjectId,
        sink: &mut dyn FnMut(usize, &[u8], usize),
    ) -> RayResult<()> {
        let backoff = Backoff::new(
            Duration::from_micros(200),
            Duration::from_millis(20),
            id.digest() ^ u64::from(dst.0),
        );
        let dropped = |e: &RayError, attempt: u32| {
            let again = matches!(e, RayError::MessageDropped);
            if again {
                self.tracer.emit(
                    dst,
                    TraceEventKind::TransferRetry,
                    TraceEntity::Object(id),
                    format_args!("from={src} attempt={attempt}"),
                );
            }
            again
        };
        // A dropped message is rolled before the first piece, so an attempt
        // that gets retried has delivered nothing.
        retry(backoff, TRANSFER_RETRY_LIMIT, dropped, || {
            self.fabric.transfer_streamed(src, dst, data.len(), self.connections, |piece| {
                let offset = piece.start;
                let piece = data.get(piece).expect("invariant: pieces tile 0..data.len()");
                sink(offset, piece, data.len());
            })
        })?;
        Ok(())
    }
}

/// How a pull ended.
enum Pulled {
    /// The destination's store holds the object; nothing was streamed.
    Local(Bytes),
    /// The payload, `len` bytes, was streamed off the wire from `src`.
    Wire { src: NodeId, len: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::config::{ChaosConfig, GcsConfig, ObjectStoreConfig, TransportConfig};
    use ray_common::metrics::names;
    use ray_gcs::Gcs;

    struct Rig {
        _gcs: Gcs,
        tm: TransferManager,
        stores: Vec<Arc<LocalObjectStore>>,
        fabric: Fabric,
        client: GcsClient,
        metrics: MetricsRegistry,
    }

    fn rig(nodes: usize) -> Rig {
        rig_with(nodes, TransportConfig::default())
    }

    fn rig_with(nodes: usize, transport: TransportConfig) -> Rig {
        rig_with_stores(nodes, transport, ObjectStoreConfig::default())
    }

    fn rig_with_stores(nodes: usize, transport: TransportConfig, store: ObjectStoreConfig) -> Rig {
        let gcs = Gcs::start(&GcsConfig { num_shards: 1, chain_length: 1, ..GcsConfig::default() })
            .unwrap();
        let client = gcs.client();
        let metrics = MetricsRegistry::new();
        let fabric = Fabric::new(nodes, &transport);
        let directory = StoreDirectory::new();
        let mut stores = Vec::new();
        for i in 0..nodes {
            let s = Arc::new(LocalObjectStore::new(NodeId(i as u32), &store));
            directory.register(s.clone());
            stores.push(s);
        }
        let tm = TransferManager::new(
            directory,
            fabric.clone(),
            client.clone(),
            4,
            metrics.clone(),
        );
        Rig { _gcs: gcs, tm, stores, fabric, client, metrics }
    }

    fn seed(r: &Rig, node: usize, data: &'static [u8]) -> ObjectId {
        seed_bytes(r, node, Bytes::from_static(data))
    }

    fn seed_bytes(r: &Rig, node: usize, data: Bytes) -> ObjectId {
        let id = ObjectId::random();
        let size = data.len() as u64;
        r.stores[node].put(id, data).unwrap();
        r.client.add_object_location(id, NodeId(node as u32), size).unwrap();
        id
    }

    fn holders(r: &Rig, id: ObjectId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            r.client.get_object_locations(id).unwrap().iter().map(|l| l.node).collect();
        nodes.sort();
        nodes
    }

    #[test]
    fn local_hit_short_circuits() {
        let r = rig(2);
        let id = seed(&r, 0, b"here");
        let got = r.tm.fetch(id, NodeId(0), Duration::from_secs(1)).unwrap();
        assert_eq!(got, Bytes::from_static(b"here"));
        assert_eq!(r.fabric.transfer_count(), 0);
    }

    #[test]
    fn remote_fetch_replicates_and_registers_location() {
        let r = rig(2);
        let id = seed(&r, 0, b"remote-bytes");
        let got = r.tm.fetch(id, NodeId(1), Duration::from_secs(1)).unwrap();
        assert_eq!(got, Bytes::from_static(b"remote-bytes"));
        // Replica now exists on node 1 and the GCS knows it.
        assert!(r.stores[1].contains(id));
        let locs = r.client.get_object_locations(id).unwrap();
        assert_eq!(locs.len(), 2);
        assert_eq!(r.fabric.transfer_count(), 1);
    }

    #[test]
    fn a_payload_fetched_in_pieces_equals_its_source_and_is_one_transfer() {
        let r = rig(2);
        r.fabric.set_virtual_time(true);
        let payload: Vec<u8> = (0..(3 << 20) + 5).map(|i| (i % 251) as u8).collect();
        let pieces = payload.len().div_ceil(TransportConfig::default().chunk_bytes);
        assert!(pieces > 1, "the payload must span several pieces");
        let id = seed_bytes(&r, 0, Bytes::from(payload.clone()));
        let got = r.tm.fetch(id, NodeId(1), Duration::from_secs(5)).unwrap();
        assert!(got.as_ref() == payload.as_slice(), "fetched bytes differ from the source");
        assert!(r.stores[1].get_local(id).unwrap() == got);
        assert_eq!(r.fabric.transfer_count(), 1);
        assert_eq!(r.fabric.bytes_transferred(), payload.len() as u64);
    }

    #[test]
    fn a_replica_is_the_wires_copy_never_the_source_buffer() {
        let r = rig(2);
        r.fabric.set_virtual_time(true);
        let id = seed_bytes(&r, 0, Bytes::from(vec![5u8; 64 << 10]));
        let source = r.stores[0].get_local(id).unwrap();
        let got = r.tm.fetch(id, NodeId(1), Duration::from_secs(5)).unwrap();
        assert!(got == source);
        assert_ne!(got.as_ptr(), source.as_ptr(), "the replica must be a copy");
        assert_eq!(r.stores[1].get_local(id).unwrap().as_ptr(), got.as_ptr());
        assert_eq!(r.fabric.bytes_transferred(), source.len() as u64);
    }

    #[test]
    fn eviction_by_an_incoming_replica_unlists_the_victim() {
        // Node 1 has room for one payload and cannot spill: pulling B in
        // drops A's replica there, and the object table must stop saying
        // node 1 holds A.
        let payload = vec![7u8; 1000];
        let store = ObjectStoreConfig { capacity_bytes: payload.len() + 100, spill_enabled: false };
        let r = rig_with_stores(3, TransportConfig::default(), store);
        let a = seed_bytes(&r, 0, Bytes::from(payload.clone()));
        let b = seed_bytes(&r, 2, Bytes::from(payload));
        r.tm.fetch(a, NodeId(1), Duration::from_secs(5)).unwrap();
        assert_eq!(holders(&r, a), vec![NodeId(0), NodeId(1)]);
        r.tm.fetch(b, NodeId(1), Duration::from_secs(5)).unwrap();
        assert!(!r.stores[1].contains(a) && r.stores[1].contains(b));
        assert_eq!(holders(&r, a), vec![NodeId(0)]);
        assert_eq!(holders(&r, b), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn destination_lost_mid_stream_seals_nothing() {
        // Node 1 dies a few pieces in.
        let r = rig_with(2, slow_link());
        let id = seed_bytes(&r, 0, Bytes::from(vec![9u8; 80 << 10]));
        let fabric = r.fabric.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            fabric.kill_node(NodeId(1));
        });
        let err = r.tm.fetch(id, NodeId(1), Duration::from_millis(200)).unwrap_err();
        killer.join().unwrap();
        assert_eq!(err, RayError::ObjectLost(id));
        assert!(!r.stores[1].contains(id));
        assert_eq!(holders(&r, id), vec![NodeId(0)]);
        assert_eq!(r.fabric.transfer_count(), 0);
    }

    /// `fetch_pieces` into a buffer the way a consumer keeps one: cleared
    /// at every restart. Returns the pieces' offsets too.
    fn fetch_pieces(
        r: &Rig,
        id: ObjectId,
        to: usize,
        timeout: Duration,
    ) -> RayResult<(Vec<u8>, Vec<usize>)> {
        fetch_pieces_killing(r, id, to, timeout, None)
    }

    /// [`fetch_pieces`], killing `victim` (if any) as soon as the first
    /// piece has landed: mid-stream whatever the host's speed.
    fn fetch_pieces_killing(
        r: &Rig,
        id: ObjectId,
        to: usize,
        timeout: Duration,
        victim: Option<NodeId>,
    ) -> RayResult<(Vec<u8>, Vec<usize>)> {
        let (mut bytes, mut offsets) = (Vec::new(), Vec::new());
        let whole = r.tm.fetch_pieces(id, NodeId(to as u32), timeout, &mut |offset, piece| {
            if offset == 0 {
                bytes.clear();
            }
            bytes.extend_from_slice(piece);
            offsets.push(offset);
            if let Some(node) = victim.filter(|_| offsets.len() == 1) {
                r.fabric.kill_node(node);
            }
        })?;
        assert!(whole.is_none() || offsets.is_empty(), "a local object was also streamed");
        Ok((whole.map_or(bytes, |b| b.to_vec()), offsets))
    }

    #[test]
    fn streamed_pieces_tile_the_payload_and_list_no_replica() {
        let r = rig(2);
        r.fabric.set_virtual_time(true);
        let chunk = TransportConfig::default().chunk_bytes;
        let payload: Vec<u8> = (0..2 * chunk + 5).map(|i| (i % 251) as u8).collect();
        let id = seed_bytes(&r, 0, Bytes::from(payload.clone()));
        let (got, offsets) = fetch_pieces(&r, id, 1, Duration::from_secs(5)).unwrap();
        assert!(got == payload, "streamed bytes differ from the source");
        assert_eq!(offsets, vec![0, chunk, 2 * chunk]);
        assert!(!r.stores[1].contains(id));
        assert_eq!(holders(&r, id), vec![NodeId(0)]);
        assert_eq!(r.fabric.transfer_count(), 1);
        assert_eq!(r.fabric.bytes_transferred(), payload.len() as u64);
        // On the holder's own node the object comes back whole, unstreamed.
        let here = r.tm.fetch_pieces(id, NodeId(0), Duration::from_secs(1), &mut |_, _| {
            panic!("a local object was streamed")
        });
        assert!(here.unwrap().is_some_and(|b| b.as_ref() == payload.as_slice()));
        assert_eq!(r.fabric.transfer_count(), 1);
    }

    #[test]
    fn streamed_pieces_retry_through_injected_drops() {
        let r = rig_with(
            2,
            TransportConfig {
                chaos: ChaosConfig { drop_probability: 0.5, seed: 0xC0FFEE },
                ..TransportConfig::default()
            },
        );
        for i in 0..20 {
            let id = seed(&r, 0, b"lossy-link-payload");
            let (got, _) = fetch_pieces(&r, id, 1, Duration::from_secs(10)).unwrap();
            assert_eq!(got, b"lossy-link-payload", "fetch {i}");
            assert!(!r.stores[1].contains(id), "fetch {i}");
        }
        assert!(r.metrics.counter(names::TRANSFER_RETRIES).get() > 0);
        assert!(r.fabric.message_drop_count() > 0);
    }

    /// 8 pieces of 10 ms on one slow lane.
    fn slow_link() -> TransportConfig {
        TransportConfig {
            bandwidth_bytes_per_sec: 1 << 20,
            connections_per_transfer: 1,
            chunk_bytes: 10 << 10,
            ..TransportConfig::default()
        }
    }

    #[test]
    fn streamed_pieces_restart_on_another_replica_when_the_source_is_lost() {
        let r = rig_with(3, slow_link());
        let payload: Vec<u8> = (0..80 << 10).map(|i| (i % 253) as u8).collect();
        let id = seed_bytes(&r, 0, Bytes::from(payload.clone()));
        r.stores[2].put(id, Bytes::from(payload.clone())).unwrap();
        r.client.add_object_location(id, NodeId(2), payload.len() as u64).unwrap();
        assert_eq!(r.client.get_object_locations(id).unwrap()[0].node, NodeId(0));
        let (got, offsets) =
            fetch_pieces_killing(&r, id, 1, Duration::from_secs(5), Some(NodeId(0))).unwrap();
        assert!(got == payload, "streamed bytes differ from the source");
        assert_eq!(offsets.iter().filter(|&&o| o == 0).count(), 2, "{offsets:?}");
        let restart = offsets.iter().rposition(|&o| o == 0).unwrap();
        assert!(restart < 8, "the dead source handed over {restart} of its 8 pieces: {offsets:?}");
        assert_eq!(r.fabric.transfer_count(), 1);
        assert!(!r.stores[1].contains(id));
    }

    #[test]
    fn streamed_pieces_fail_when_the_destination_is_lost() {
        let r = rig_with(2, slow_link());
        let id = seed_bytes(&r, 0, Bytes::from(vec![9u8; 80 << 10]));
        let err = fetch_pieces_killing(&r, id, 1, Duration::from_millis(200), Some(NodeId(1)))
            .unwrap_err();
        assert_eq!(err, RayError::ObjectLost(id));
        assert!(!r.stores[1].contains(id));
        assert_eq!(holders(&r, id), vec![NodeId(0)]);
        assert_eq!(r.fabric.transfer_count(), 0);
    }

    #[test]
    fn fetch_waits_for_object_created_later() {
        let r = rig(2);
        let id = ObjectId::random();
        let store0 = r.stores[0].clone();
        let client = r.client.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            store0.put(id, Bytes::from_static(b"late")).unwrap();
            client.add_object_location(id, NodeId(0), 4).unwrap();
        });
        let got = r.tm.fetch(id, NodeId(1), Duration::from_secs(5)).unwrap();
        assert_eq!(got, Bytes::from_static(b"late"));
        h.join().unwrap();
    }

    #[test]
    fn fetch_times_out_when_object_never_appears() {
        let r = rig(2);
        let err = r
            .tm
            .fetch(ObjectId::random(), NodeId(1), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, RayError::Timeout);
    }

    #[test]
    fn fetch_reports_object_lost_when_all_replicas_dead() {
        let r = rig(2);
        let id = seed(&r, 0, b"gone");
        r.fabric.kill_node(NodeId(0));
        let err = r.tm.fetch(id, NodeId(1), Duration::from_millis(200)).unwrap_err();
        assert_eq!(err, RayError::ObjectLost(id));
    }

    #[test]
    fn fetch_repairs_stale_location_and_uses_other_replica() {
        let r = rig(3);
        let id = seed(&r, 0, b"dup");
        // Also on node 1.
        r.stores[1].put(id, Bytes::from_static(b"dup")).unwrap();
        r.client.add_object_location(id, NodeId(1), 3).unwrap();
        // Node 0's copy silently vanishes (stale GCS entry).
        r.stores[0].delete(id);
        let got = r.tm.fetch(id, NodeId(2), Duration::from_secs(1)).unwrap();
        assert_eq!(got, Bytes::from_static(b"dup"));
    }

    #[test]
    fn stale_self_location_is_repaired_not_spun_on() {
        // What a restarted node finds: the object table says it holds the
        // object (its previous incarnation did), its store is empty, and
        // nobody else has a copy.
        let r = rig(2);
        let id = ObjectId::random();
        r.client.add_object_location(id, NodeId(1), 4).unwrap();
        let shard = r._gcs.shard(ray_common::ShardId(0));
        let before = shard.committed_updates();
        let err = r.tm.fetch(id, NodeId(1), Duration::from_millis(100)).unwrap_err();
        assert_eq!(err, RayError::Timeout);
        // The repair is the one write: then a subscribe and an unsubscribe,
        // which commit nothing — not a read and a write per lap until the
        // deadline.
        let writes = shard.committed_updates() - before;
        assert_eq!(writes, 1, "fetch made {writes} GCS writes waiting on a stale self-location");
        assert!(r.client.get_object_locations(id).unwrap().is_empty());
    }

    #[test]
    fn self_location_of_a_put_that_raced_the_first_look_is_kept() {
        // `fetch` missed in the local store, then read the object table and
        // found its own node there: a local put sealed and published in
        // between. The second look returns the bytes and leaves the row.
        let r = rig(2);
        let id = seed(&r, 1, b"just-sealed");
        let loc = r.client.get_object_locations(id).unwrap()[0];
        let got = r.tm.recheck_self_location(&r.stores[1], id, loc);
        assert_eq!(got, Some(Bytes::from_static(b"just-sealed")));
        assert_eq!(r.client.get_object_locations(id).unwrap(), vec![loc]);
    }

    #[test]
    fn fetch_retries_through_injected_drops() {
        // Half the wire messages are dropped (fixed seed): every fetch must
        // still succeed via bounded retry, and the retry counter must move.
        let r = rig_with(
            2,
            TransportConfig {
                chaos: ChaosConfig {
                    drop_probability: 0.5,
                    seed: 0xC0FFEE,
                },
                ..TransportConfig::default()
            },
        );
        for i in 0..20 {
            let id = seed(&r, 0, b"lossy-link-payload");
            let got = r.tm.fetch(id, NodeId(1), Duration::from_secs(10)).unwrap();
            assert_eq!(got, Bytes::from_static(b"lossy-link-payload"), "fetch {i}");
        }
        assert!(r.metrics.counter(names::TRANSFER_RETRIES).get() > 0);
        assert!(r.fabric.message_drop_count() > 0);
    }
}
