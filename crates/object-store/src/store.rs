//! One node's in-memory object store.
//!
//! Objects are immutable once sealed ("the object store is limited to
//! immutable data", §4.2.3), which is what lets rustray skip consistency
//! protocols entirely: a `put` of an existing ID with identical bytes is
//! idempotent, with different bytes it is an error.
//!
//! Object creation really copies the payload into the store — mirroring
//! the shared-memory write in the original — in one pass on the calling
//! thread. The paper's store "uses 8 threads to copy objects larger than
//! 0.5MB" (Fig. 9 caption); [`copy_into`] keeps that sweep as a
//! measurement, and on the one-CPU reference host it loses to one thread.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use bytes::Bytes;
use ray_common::sync::{classes, OrderedCondvar, OrderedMutex};

use ray_common::config::ObjectStoreConfig;
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::{NodeId, ObjectId, RayError, RayResult};
use ray_gcs::tables::GcsClient;

use crate::spill::SpillStore;

/// What happened during a `put`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// Objects evicted from memory to make room, with their sizes.
    pub evicted: Vec<(ObjectId, u64)>,
    /// Of those, the ones *dropped entirely* (spilling disabled): their GCS
    /// locations must be removed by the caller, with
    /// [`PutOutcome::unlist_dropped`].
    pub dropped: Vec<(ObjectId, u64)>,
}

impl PutOutcome {
    /// Removes `node`'s row for every dropped victim from the object table.
    /// Best effort: a row that outlives a GCS outage is repaired by the
    /// next fetch that trusts it.
    pub fn unlist_dropped(&self, gcs: &GcsClient, node: NodeId) {
        for &(victim, size) in &self.dropped {
            let _ = gcs.remove_object_location(victim, node, size);
        }
    }
}

struct Slot {
    data: Bytes,
    access_seq: u64,
}

struct StoreMap {
    objects: HashMap<ObjectId, Slot>,
    /// access_seq → id; the BTreeMap head is the LRU victim.
    lru: BTreeMap<u64, ObjectId>,
    resident_bytes: usize,
}

/// A per-node object store.
pub struct LocalObjectStore {
    node: NodeId,
    capacity: usize,
    spill_enabled: bool,
    map: OrderedMutex<StoreMap>,
    sealed_cond: OrderedCondvar,
    access_counter: AtomicU64,
    spill: SpillStore,
    puts: AtomicU64,
    evictions: AtomicU64,
    tracer: TraceCollector,
}

impl LocalObjectStore {
    /// Creates an empty store for `node`.
    pub fn new(node: NodeId, cfg: &ObjectStoreConfig) -> LocalObjectStore {
        LocalObjectStore::new_traced(node, cfg, TraceCollector::disabled())
    }

    /// Like [`LocalObjectStore::new`], but emitting object lifecycle
    /// events (put/spill/evict) into the cluster's trace collector.
    pub fn new_traced(
        node: NodeId,
        cfg: &ObjectStoreConfig,
        tracer: TraceCollector,
    ) -> LocalObjectStore {
        keep_freed_heap_mapped();
        LocalObjectStore {
            node,
            capacity: cfg.capacity_bytes,
            spill_enabled: cfg.spill_enabled,
            map: OrderedMutex::new(&classes::STORE_MAP, StoreMap {
                objects: HashMap::new(),
                lru: BTreeMap::new(),
                resident_bytes: 0,
            }),
            sealed_cond: OrderedCondvar::new(),
            access_counter: AtomicU64::new(0),
            spill: SpillStore::in_memory(),
            puts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tracer,
        }
    }

    /// The node this store belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// In-memory capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.map.lock().resident_bytes
    }

    /// Number of objects resident in memory.
    pub fn len(&self) -> usize {
        self.map.lock().objects.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.lock().objects.is_empty()
    }

    /// Total `put` operations served.
    pub fn put_count(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Total evictions performed.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The spill tier.
    pub fn spill(&self) -> &SpillStore {
        &self.spill
    }

    /// Stores an object, copying the payload into the store (like the
    /// shared-memory write in the original system).
    ///
    /// Idempotent for identical contents; rejects a different payload under
    /// the same ID (immutability).
    pub fn put(&self, id: ObjectId, data: Bytes) -> RayResult<PutOutcome> {
        let copied = copy_payload(&data);
        self.put_nocopy(id, copied)
    }

    /// Stores an already-owned buffer without the creation copy. Used by
    /// the transfer path, which has just materialized its own copy of the
    /// bytes off the wire.
    pub fn put_nocopy(&self, id: ObjectId, data: Bytes) -> RayResult<PutOutcome> {
        if data.len() > self.capacity {
            return Err(RayError::StoreFull { requested: data.len(), capacity: self.capacity });
        }
        let mut outcome = PutOutcome::default();
        {
            let mut map = self.map.lock();
            if let Some(slot) = map.objects.get(&id) {
                return if slot.data == data {
                    Ok(outcome) // Idempotent re-put.
                } else {
                    Err(RayError::DuplicateObject(id))
                };
            }
            // Evict LRU objects until the new one fits.
            while map.resident_bytes + data.len() > self.capacity {
                let (&seq, &victim) = match map.lru.iter().next() {
                    Some(v) => v,
                    None => break,
                };
                map.lru.remove(&seq);
                if let Some(slot) = map.objects.remove(&victim) {
                    map.resident_bytes -= slot.data.len();
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if self.spill_enabled {
                        self.spill.write(victim, &slot.data);
                    } else {
                        outcome.dropped.push((victim, slot.data.len() as u64));
                    }
                    outcome.evicted.push((victim, slot.data.len() as u64));
                }
            }
            let seq = self.access_counter.fetch_add(1, Ordering::Relaxed);
            map.resident_bytes += data.len();
            map.lru.insert(seq, id);
            map.objects.insert(id, Slot { data: data.clone(), access_seq: seq });
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            for (victim, size) in &outcome.evicted {
                let kind = if outcome.dropped.iter().any(|(d, _)| d == victim) {
                    TraceEventKind::ObjectEvicted
                } else {
                    TraceEventKind::ObjectSpilled
                };
                self.tracer.emit(
                    self.node,
                    kind,
                    TraceEntity::Object(*victim),
                    format!("bytes={size}"),
                );
            }
            self.tracer.emit(
                self.node,
                TraceEventKind::ObjectPut,
                TraceEntity::Object(id),
                format!("bytes={}", data.len()),
            );
        }
        self.sealed_cond.notify_all();
        Ok(outcome)
    }

    /// Reads an object if present locally (memory, then spill). A spill
    /// hit is re-admitted to memory when it fits (standard cache
    /// promotion), which may evict others; those spills stay recoverable.
    pub fn get_local(&self, id: ObjectId) -> Option<Bytes> {
        {
            let mut map = self.map.lock();
            if let Some(slot) = map.objects.get_mut(&id) {
                let seq = self.access_counter.fetch_add(1, Ordering::Relaxed);
                let old = slot.access_seq;
                slot.access_seq = seq;
                let data = slot.data.clone();
                map.lru.remove(&old);
                map.lru.insert(seq, id);
                return Some(data);
            }
        }
        self.spill.read(id)
    }

    /// Whether the object is available locally (memory or spill).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.lock().objects.contains_key(&id) || self.spill.contains(id)
    }

    /// Blocks until the object is available locally or the timeout expires.
    pub fn wait_local(&self, id: ObjectId, timeout: std::time::Duration) -> RayResult<Bytes> {
        let deadline = self.tracer.clock().now() + timeout;
        let mut map = self.map.lock();
        loop {
            if let Some(slot) = map.objects.get(&id) {
                return Ok(slot.data.clone());
            }
            // Check spill without holding the map lock ordering hostage:
            // spill has its own locks and never takes `map`.
            if let Some(b) = self.spill.read(id) {
                return Ok(b);
            }
            if self.sealed_cond.wait_until(&mut map, deadline).timed_out() {
                return Err(RayError::Timeout);
            }
        }
    }

    /// Removes one object from memory and spill (explicit `free` of
    /// consumed intermediates, lineage-reconstruction resets, tests).
    pub fn delete(&self, id: ObjectId) -> bool {
        let from_memory = {
            let mut map = self.map.lock();
            if let Some(slot) = map.objects.remove(&id) {
                map.resident_bytes -= slot.data.len();
                map.lru.remove(&slot.access_seq);
                true
            } else {
                false
            }
        };
        let from_spill = self.spill.forget(id);
        from_memory || from_spill
    }

    /// Drops everything — the node died (paper Fig. 11: reconstruction
    /// re-creates whatever was lost).
    pub fn clear(&self) {
        let mut map = self.map.lock();
        map.objects.clear();
        map.lru.clear();
        map.resident_bytes = 0;
        self.spill.clear();
    }
}

/// Tells the allocator, once per process, that multi-megabyte buffers are
/// this process's steady state.
///
/// glibc hands the top of a heap back to the kernel once it exceeds twice
/// the largest mmapped block it has seen freed (`mallopt(3)`, the dynamic
/// `M_MMAP_THRESHOLD`). After the first 4 MiB object dies that is 8 MiB, so
/// a store cycling 4 MiB objects has its heap trimmed whenever two freed
/// buffers meet at the top, and the next `put` or fetch pays a thousand page
/// faults to grow it back: 0.5–0.6 M faults in 5 s of the `object_flow`
/// benchmark and a fifth of its throughput, in three runs of ten (which
/// three depends on how small allocations happen to fence the buffers off
/// from the top). Freeing one block just under the 32 MiB that rule stops
/// adapting at — never touched, so never resident — moves the threshold
/// past what the runtime keeps in flight: under 0.05 M faults in every run.
/// Under another allocator this frees a block and nothing else happens.
fn keep_freed_heap_mapped() {
    const LARGEST_ADAPTIVE_BLOCK: usize = (32 << 20) - (64 << 10);
    static ONCE: Once = Once::new();
    ONCE.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(LARGEST_ADAPTIVE_BLOCK))));
}

/// Copies a payload into a fresh buffer: one pass on the calling thread,
/// whatever the size.
pub fn copy_payload(data: &Bytes) -> Bytes {
    Bytes::copy_from_slice(data)
}

/// Copies a payload with `threads` copy threads — the Fig. 9 thread-sweep
/// instrument. Nothing in the runtime calls it: on the one-CPU reference
/// host eight threads copy 4 MiB slower than one.
pub fn copy_payload_with_threads(data: &Bytes, threads: usize) -> Bytes {
    // One thread needs no destination zeroed ahead of it.
    if threads <= 1 {
        return copy_payload(data);
    }
    let mut dst = vec![0u8; data.len()];
    copy_into(data, &mut dst, threads);
    Bytes::from(dst)
}

/// Copies `src` into a caller-provided (already mapped) buffer with
/// `threads` scoped threads on disjoint stripes — the plasma-style write
/// path where the destination is a pre-mapped shared-memory segment, so the
/// measurement excludes allocation and first-touch page faults (paper
/// Fig. 9).
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn copy_into(src: &[u8], dst: &mut [u8], threads: usize) {
    assert_eq!(src.len(), dst.len(), "copy_into requires equal-length buffers");
    let stripe = src.len().div_ceil(threads.max(1)).max(1);
    let mut stripes = dst.chunks_mut(stripe).zip(src.chunks(stripe));
    let own = stripes.next();
    std::thread::scope(|s| {
        for (d, c) in stripes {
            s.spawn(move || d.copy_from_slice(c));
        }
        if let Some((d, c)) = own {
            d.copy_from_slice(c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn store(capacity: usize, spill: bool) -> LocalObjectStore {
        LocalObjectStore::new(
            NodeId(0),
            &ObjectStoreConfig { capacity_bytes: capacity, spill_enabled: spill },
        )
    }

    #[test]
    fn put_get_round_trip() {
        let s = store(1024, true);
        let id = ObjectId::random();
        s.put(id, Bytes::from_static(b"data")).unwrap();
        assert_eq!(s.get_local(id), Some(Bytes::from_static(b"data")));
        assert_eq!(s.resident_bytes(), 4);
    }

    #[test]
    fn put_is_idempotent_for_identical_bytes() {
        let s = store(1024, true);
        let id = ObjectId::random();
        s.put(id, Bytes::from_static(b"same")).unwrap();
        s.put(id, Bytes::from_static(b"same")).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn immutability_violation_rejected() {
        let s = store(1024, true);
        let id = ObjectId::random();
        s.put(id, Bytes::from_static(b"one")).unwrap();
        assert_eq!(
            s.put(id, Bytes::from_static(b"two")).unwrap_err(),
            RayError::DuplicateObject(id)
        );
    }

    #[test]
    fn oversized_object_rejected() {
        let s = store(10, true);
        assert!(matches!(
            s.put(ObjectId::random(), Bytes::from(vec![0u8; 11])),
            Err(RayError::StoreFull { .. })
        ));
    }

    #[test]
    fn lru_evicts_oldest_to_spill() {
        let s = store(100, true);
        let ids: Vec<ObjectId> = (0..4).map(|_| ObjectId::random()).collect();
        // Three 30-byte objects fit; the fourth evicts the least recent.
        for &id in &ids[..3] {
            s.put(id, Bytes::from(vec![1u8; 30])).unwrap();
        }
        // Touch ids[0] so ids[1] becomes LRU.
        s.get_local(ids[0]).unwrap();
        let outcome = s.put(ids[3], Bytes::from(vec![1u8; 30])).unwrap();
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].0, ids[1]);
        assert!(outcome.dropped.is_empty(), "spill enabled: nothing dropped");
        // The evicted object is still readable (from spill).
        assert_eq!(s.get_local(ids[1]), Some(Bytes::from(vec![1u8; 30])));
        assert!(s.spill().contains(ids[1]));
    }

    #[test]
    fn eviction_without_spill_drops_objects() {
        let s = store(50, false);
        let a = ObjectId::random();
        let b = ObjectId::random();
        s.put(a, Bytes::from(vec![0u8; 40])).unwrap();
        let outcome = s.put(b, Bytes::from(vec![0u8; 40])).unwrap();
        assert_eq!(outcome.dropped, vec![(a, 40)]);
        assert_eq!(s.get_local(a), None);
    }

    #[test]
    fn resident_bytes_accounting_is_exact() {
        let s = store(1000, true);
        let ids: Vec<ObjectId> = (0..5).map(|_| ObjectId::random()).collect();
        for (i, &id) in ids.iter().enumerate() {
            s.put(id, Bytes::from(vec![0u8; (i + 1) * 10])).unwrap();
        }
        assert_eq!(s.resident_bytes(), 10 + 20 + 30 + 40 + 50);
        s.delete(ids[2]);
        assert_eq!(s.resident_bytes(), 10 + 20 + 40 + 50);
    }

    #[test]
    fn wait_local_blocks_until_put() {
        let s = std::sync::Arc::new(store(1024, true));
        let id = ObjectId::random();
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            s2.put(id, Bytes::from_static(b"late")).unwrap();
        });
        let got = s.wait_local(id, Duration::from_secs(2)).unwrap();
        assert_eq!(got, Bytes::from_static(b"late"));
        h.join().unwrap();
    }

    #[test]
    fn wait_local_times_out() {
        let s = store(1024, true);
        assert_eq!(
            s.wait_local(ObjectId::random(), Duration::from_millis(20)).unwrap_err(),
            RayError::Timeout
        );
    }

    #[test]
    fn clear_simulates_node_death() {
        let s = store(100, true);
        let a = ObjectId::random();
        let b = ObjectId::random();
        s.put(a, Bytes::from(vec![0u8; 60])).unwrap();
        s.put(b, Bytes::from(vec![0u8; 60])).unwrap(); // Evicts `a` to spill.
        s.clear();
        assert_eq!(s.get_local(a), None);
        assert_eq!(s.get_local(b), None);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn parallel_copy_matches_input() {
        for size in [0usize, 1, 4095, 4096 * 8, 3_000_000] {
            let src = Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            for threads in [1, 2, 8] {
                let dst = copy_payload_with_threads(&src, threads);
                assert_eq!(dst, src, "size {size} threads {threads}");
            }
        }
    }

    #[test]
    fn copy_into_matches_input_across_thread_counts() {
        let src: Vec<u8> = (0..2_000_000).map(|i| (i % 199) as u8).collect();
        for threads in [1usize, 3, 8, 16] {
            let mut dst = vec![0u8; src.len()];
            copy_into(&src, &mut dst, threads);
            assert_eq!(dst, src, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn copy_into_rejects_length_mismatch() {
        let mut dst = vec![0u8; 3];
        copy_into(&[1, 2], &mut dst, 1);
    }

    #[test]
    fn spill_hit_survives_multiple_reads() {
        let s = store(50, true);
        let a = ObjectId::random();
        let b = ObjectId::random();
        s.put(a, Bytes::from(vec![1u8; 40])).unwrap();
        s.put(b, Bytes::from(vec![2u8; 40])).unwrap(); // Evicts a.
        for _ in 0..3 {
            assert_eq!(s.get_local(a), Some(Bytes::from(vec![1u8; 40])));
        }
    }
}
