//! One node's in-memory object store.
//!
//! Objects are immutable once sealed ("the object store is limited to
//! immutable data", §4.2.3), which is what lets rustray skip consistency
//! protocols entirely: a `put` of an existing ID with identical bytes is
//! idempotent, with different bytes it is an error.
//!
//! A `put` seals the caller's buffer: the store keeps the `Bytes` it is
//! given, so creating an object copies nothing. `Bytes` offers no mutable
//! access, so a payload shared with its producer is as immutable as a
//! copy. The bytes a producer wrote are then the bytes every co-located
//! reader gets, and the one copy an object's data takes is the wire's,
//! when [`crate::transfer`] replicates it to another node. The original
//! system writes the payload into shared memory instead, with "8 threads
//! to copy objects larger than 0.5MB" (Fig. 9 caption); [`copy_into`]
//! keeps that sweep as a measurement, and on the one-CPU reference host
//! it loses to one thread.
//!
//! `resident_bytes` counts each entry's length. A `put` of a view into a
//! larger buffer keeps the whole buffer alive, and a freed object's bytes
//! live on while anyone still holds them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use bytes::Bytes;
use ray_common::sync::{classes, OrderedCondvar, OrderedMutex};

use ray_common::config::ObjectStoreConfig;
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::{IdMap, NodeId, ObjectId, RayError, RayResult};
use ray_gcs::flush::DiskStore;
use ray_gcs::kv::{Entry, Key, Table};
use ray_gcs::tables::GcsClient;

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
    /// When the object was last sealed or read here: its place in the LRU
    /// order (`StoreMap::lru`).
    stamp: u64,
    /// Sealed by [`LocalObjectStore::put_listed`], which has not listed
    /// the location yet: `wait_local` and `wait_listed` wait until it has.
    unlisted: bool,
}

struct StoreMap {
    objects: IdMap<ObjectId, Slot>,
    /// `(stamp, id)` for every seal and local read, oldest first. An entry
    /// whose stamp is no longer its object's is stale and skipped, so the
    /// first live entry is the least recently used object.
    lru: VecDeque<(u64, ObjectId)>,
    /// The next stamp.
    clock: u64,
    resident_bytes: usize,
    /// Threads parked in [`LocalObjectStore::wait_local`]: a `put` signals
    /// the condvar only when one is, so a seal nobody waits for costs no
    /// futex call.
    waiters: usize,
}

/// A per-node object store.
pub struct LocalObjectStore {
    node: NodeId,
    capacity: usize,
    spill_enabled: bool,
    map: OrderedMutex<StoreMap>,
    sealed_cond: OrderedCondvar,
    /// Where LRU-evicted objects go, one record per object ID (written
    /// once: objects are immutable).
    spill: DiskStore,
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
                objects: IdMap::default(),
                lru: VecDeque::new(),
                clock: 0,
                resident_bytes: 0,
                waiters: 0,
            }),
            sealed_cond: OrderedCondvar::new(),
            spill: DiskStore::in_memory(),
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

    /// Number of objects in the spill tier.
    pub fn spilled(&self) -> usize {
        self.spill.keys_on_disk()
    }

    /// Seals `data` as object `id`, without copying it: the store holds
    /// the caller's buffer, and [`LocalObjectStore::get_local`] hands out
    /// that same buffer.
    ///
    /// Idempotent for identical contents; rejects a different payload under
    /// the same ID (immutability).
    pub fn put(&self, id: ObjectId, data: Bytes) -> RayResult<PutOutcome> {
        let (outcome, wake) = self.seal(id, data, false)?;
        if wake {
            self.sealed_cond.notify_all();
        }
        Ok(outcome)
    }

    /// [`LocalObjectStore::put`] of an object the cluster can see: seals
    /// `data`, unlists the victims it dropped, lists this node as a
    /// location of `id` in `gcs`, and only then wakes the threads parked
    /// in [`LocalObjectStore::wait_local`]; until then `wait_local` does
    /// not return it, to a getter parked before the seal or arriving after
    /// it. A getter thus finds the object listed, and a `free` right after
    /// its `get` finds the row to clear. The location is published even
    /// when it was already sealed here with the same bytes.
    pub fn put_listed(&self, id: ObjectId, data: Bytes, gcs: &GcsClient) -> RayResult<()> {
        let size = data.len() as u64;
        let (outcome, _) = self.seal(id, data, true)?;
        outcome.unlist_dropped(gcs, self.node);
        let listed = gcs.add_object_location(id, self.node, size);
        let wake = {
            let mut map = self.map.lock();
            if let Some(slot) = map.objects.get_mut(&id) {
                slot.unlisted = false;
            }
            map.waiters > 0
        };
        if wake {
            self.sealed_cond.notify_all();
        }
        listed
    }

    /// The map half of a put: also answers whether a thread is parked in
    /// [`LocalObjectStore::wait_local`], which the caller must then wake.
    fn seal(&self, id: ObjectId, data: Bytes, unlisted: bool) -> RayResult<(PutOutcome, bool)> {
        if data.len() > self.capacity {
            return Err(RayError::StoreFull { requested: data.len(), capacity: self.capacity });
        }
        let mut outcome = PutOutcome::default();
        let wake = {
            let mut map = self.map.lock();
            if let Some(slot) = map.objects.get(&id) {
                return if slot.data == data {
                    Ok((outcome, false)) // Idempotent re-put.
                } else {
                    Err(RayError::DuplicateObject(id))
                };
            }
            // Evict LRU objects until the new one fits.
            while map.resident_bytes + data.len() > self.capacity {
                let Some((stamp, victim)) = map.lru.pop_front() else { break };
                if map.objects.get(&victim).is_some_and(|slot| slot.stamp == stamp) {
                    let Some(slot) = map.objects.remove(&victim) else { break };
                    let size = slot.data.len();
                    map.resident_bytes -= size;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if self.spill_enabled {
                        // A lineage replay can re-put an object spilled
                        // before; its record is already there.
                        let key = spill_key(victim);
                        if !self.spill.contains(&key) {
                            self.spill.write(&key, &Entry::Blob(slot.data));
                        }
                    } else {
                        outcome.dropped.push((victim, size as u64));
                    }
                    outcome.evicted.push((victim, size as u64));
                }
            }
            map.resident_bytes += data.len();
            let stamp = map.touch(id);
            map.objects.insert(id, Slot { data: data.clone(), stamp, unlisted });
            map.waiters > 0
        };
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
        Ok((outcome, wake))
    }

    /// Reads an object if present locally (memory, then spill). A spill
    /// hit is read from the log on every call and stays out of memory.
    pub fn get_local(&self, id: ObjectId) -> Option<Bytes> {
        {
            let mut map = self.map.lock();
            if map.objects.contains_key(&id) {
                let stamp = map.touch(id);
                let slot = map.objects.get_mut(&id)?;
                slot.stamp = stamp;
                return Some(slot.data.clone());
            }
        }
        self.read_spilled(id)
    }

    /// Whether the object is available locally (memory or spill).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.lock().objects.contains_key(&id) || self.spill.contains(&spill_key(id))
    }

    fn read_spilled(&self, id: ObjectId) -> Option<Bytes> {
        match self.spill.read(&spill_key(id))? {
            Entry::Blob(data) => Some(data),
            Entry::Set(_) => None,
        }
    }

    /// Blocks while `id` is sealed here by a [`LocalObjectStore::put_listed`]
    /// that has not listed its location yet; returns at once otherwise.
    pub fn wait_listed(&self, id: ObjectId) {
        let mut map = self.map.lock();
        while map.objects.get(&id).is_some_and(|slot| slot.unlisted) {
            map.waiters += 1;
            self.sealed_cond.wait(&mut map);
            map.waiters -= 1;
        }
    }

    /// Blocks until the object is available locally (and listed, if
    /// [`LocalObjectStore::put_listed`] sealed it) or the timeout expires.
    pub fn wait_local(&self, id: ObjectId, timeout: std::time::Duration) -> RayResult<Bytes> {
        let deadline = self.tracer.clock().now() + timeout;
        let mut map = self.map.lock();
        loop {
            if let Some(slot) = map.objects.get(&id).filter(|slot| !slot.unlisted) {
                return Ok(slot.data.clone());
            }
            // The spill tier's locks rank after `map` and never take it.
            if let Some(b) = self.read_spilled(id) {
                return Ok(b);
            }
            // Counted under the lock the put checks it under, so a put
            // either sees this waiter or made the object visible before
            // the look above.
            map.waiters += 1;
            let timed_out = self.sealed_cond.wait_until(&mut map, deadline).timed_out();
            map.waiters -= 1;
            if timed_out {
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
                true
            } else {
                false
            }
        };
        let from_spill = self.spill.forget(&spill_key(id));
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

impl StoreMap {
    /// Queues `id` at the back of the LRU order and returns its new stamp,
    /// which the caller stores in its slot. Once stale entries outnumber
    /// the objects, the queue is compacted to the live ones.
    fn touch(&mut self, id: ObjectId) -> u64 {
        let stamp = self.clock;
        self.clock += 1;
        if self.lru.len() >= 2 * self.objects.len() + 64 {
            let objects = &self.objects;
            self.lru.retain(|(stamp, id)| objects.get(id).is_some_and(|s| s.stamp == *stamp));
        }
        self.lru.push_back((stamp, id));
        stamp
    }
}

fn spill_key(id: ObjectId) -> Key {
    Key::fixed(Table::Object, id.0.as_bytes())
}

/// Tells the allocator, once per process, that multi-megabyte buffers are
/// this process's steady state.
///
/// glibc hands the top of a heap back to the kernel once it exceeds twice
/// the largest mmapped block it has seen freed (`mallopt(3)`, the dynamic
/// `M_MMAP_THRESHOLD`). After the first 4 MiB object dies that is 8 MiB, so
/// a store cycling 4 MiB objects has its heap trimmed whenever two freed
/// buffers meet at the top, and the next fetch pays a thousand page faults
/// to grow it back: 0.20–0.45 M faults in 5 s of the `object_flow`
/// benchmark and a sixth more CPU per op, in every run of ten (a `put`
/// allocates nothing, so the buffers that cycle are the fetches' copies).
/// Freeing one block just under the 32 MiB that rule stops adapting at —
/// never touched, so never resident — moves the threshold past what the
/// runtime keeps in flight: under 0.05 M faults in every run.
/// Under another allocator this frees a block and nothing else happens.
fn keep_freed_heap_mapped() {
    const LARGEST_ADAPTIVE_BLOCK: usize = (32 << 20) - (64 << 10);
    static ONCE: Once = Once::new();
    ONCE.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(LARGEST_ADAPTIVE_BLOCK))));
}

/// Copies a payload with `threads` copy threads — the Fig. 9 thread-sweep
/// instrument. Nothing in the runtime calls it: on the one-CPU reference
/// host eight threads copy 4 MiB slower than one.
pub fn copy_payload_with_threads(data: &Bytes, threads: usize) -> Bytes {
    // One thread needs no destination zeroed ahead of it.
    if threads <= 1 {
        return Bytes::copy_from_slice(data);
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
    fn a_put_seals_the_callers_buffer() {
        let s = store(1 << 20, true);
        let (id, data) = (ObjectId::random(), Bytes::from(vec![7u8; 4096]));
        s.put(id, data.clone()).unwrap();
        assert_eq!(s.get_local(id).unwrap().as_ptr(), data.as_ptr());
        let waited = s.wait_local(id, Duration::from_millis(10)).unwrap();
        assert_eq!(waited.as_ptr(), data.as_ptr());
    }

    #[test]
    fn a_view_is_charged_its_own_length() {
        let s = store(100, true);
        let whole = Bytes::from(vec![3u8; 1000]);
        let id = ObjectId::random();
        s.put(id, whole.slice(10..50)).unwrap();
        assert_eq!(s.resident_bytes(), 40);
        assert_eq!(s.get_local(id).unwrap().as_ptr(), whole[10..].as_ptr());
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
        assert_eq!(s.spilled(), 1);
    }

    #[test]
    fn many_reads_keep_the_lru_order_exact_and_its_queue_bounded() {
        let s = store(100, true);
        let ids: Vec<ObjectId> = (0..4).map(|_| ObjectId::random()).collect();
        for &id in &ids[..3] {
            s.put(id, Bytes::from(vec![1u8; 30])).unwrap();
        }
        // Read order ends 1, 0, 2: ids[1] is the least recently used.
        for round in 0..1_000 {
            s.get_local(ids[round % 3]).unwrap();
        }
        for i in [1, 0, 2] {
            s.get_local(ids[i]).unwrap();
        }
        assert!(s.map.lock().lru.len() <= 2 * 3 + 64 + 1, "stale entries pile up");
        let outcome = s.put(ids[3], Bytes::from(vec![1u8; 30])).unwrap();
        assert_eq!(outcome.evicted, vec![(ids[1], 30)]);
        let outcome = s.put(ObjectId::random(), Bytes::from(vec![1u8; 30])).unwrap();
        assert_eq!(outcome.evicted, vec![(ids[0], 30)]);
    }

    #[test]
    fn an_object_evicted_twice_is_spilled_once() {
        let s = store(50, true);
        let (a, b, c) = (ObjectId::random(), ObjectId::random(), ObjectId::random());
        let bytes_a = Bytes::from(vec![1u8; 40]);
        s.put(a, bytes_a.clone()).unwrap();
        s.put(b, Bytes::from(vec![2u8; 40])).unwrap(); // Evicts `a`.
        assert_eq!(s.spilled(), 1);
        let written = s.spill.bytes_written();
        // A lineage replay re-puts `a`, and a later put evicts it again.
        assert!(s.delete(b));
        s.put(a, bytes_a.clone()).unwrap();
        let outcome = s.put(c, Bytes::from(vec![3u8; 40])).unwrap();
        assert_eq!(outcome.evicted, vec![(a, 40)]);
        assert_eq!(s.spilled(), 1);
        assert_eq!(s.spill.bytes_written(), written, "the second eviction appended a record");
        assert_eq!(s.get_local(a), Some(bytes_a));
        // `delete` forgets the spilled copy too.
        assert!(s.delete(a));
        assert_eq!((s.spilled(), s.get_local(a)), (0, None));
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
    fn a_put_wakes_a_parked_waiter_and_seals_with_none() {
        let s = std::sync::Arc::new(store(1024, true));
        // No one waits: the put signals nobody and the object is sealed.
        let quiet = ObjectId::random();
        s.put(quiet, Bytes::from_static(b"quiet")).unwrap();
        assert_eq!(s.map.lock().waiters, 0);
        assert_eq!(s.get_local(quiet), Some(Bytes::from_static(b"quiet")));

        // The put lands only once the waiter is counted, i.e. parked (the
        // count changes under the lock the wait releases), and the waiter
        // returns on that signal, far inside its own timeout.
        let id = ObjectId::random();
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            (s2.wait_local(id, Duration::from_secs(30)), start.elapsed())
        });
        while s.map.lock().waiters == 0 {
            std::thread::yield_now();
        }
        s.put(id, Bytes::from_static(b"woken")).unwrap();
        let (got, waited) = waiter.join().unwrap();
        assert_eq!(got.unwrap(), Bytes::from_static(b"woken"));
        assert!(waited < Duration::from_secs(10), "woken by its timeout after {waited:?}");
        assert_eq!(s.map.lock().waiters, 0);
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
