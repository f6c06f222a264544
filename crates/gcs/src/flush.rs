//! The disk tier and the GCS's periodic flusher.
//!
//! "Ray is equipped to periodically flush the contents of GCS to disk"
//! (paper §5.1, Fig. 10b): without flushing, lineage accumulates until the
//! store exhausts memory and the workload stalls; with it, memory stays
//! capped at a configurable level and flushed lineage remains readable for
//! reconstruction.
//!
//! [`DiskStore`] is an append-only log with an in-memory offset index;
//! entries are written once per flush and deduplicated by the index (last
//! write wins). [`Flusher`] is the background thread that periodically asks
//! every shard chain to flush its flushable tables down to the configured
//! high-water mark.
//!
//! The log has a second user: a node's object store spills LRU-evicted
//! objects into one, keyed by object ID ("evict them as needed to disk
//! using an LRU policy", §4.2.3). A running cluster keeps both logs in
//! memory ([`DiskStore::in_memory`]): flushing and spilling move bytes out
//! of the accounted tier, not out of the process.
//!
//! # On-disk record format
//!
//! Each append is a self-describing record so a later [`DiskStore::reopen`]
//! can rebuild the index (and whole-shard recovery can replay the log)
//! without any sidecar metadata:
//!
//! ```text
//! [table_tag u8][key_len u32 LE][key bytes][payload_len u32 LE][payload]
//! ```
//!
//! `table_tag` is [`Table::to_tag`]; `payload` is the entry encoding
//! produced by `encode_entry`, whose first byte tags the entry's shape: 0
//! a blob, 1 a set. Table tag 7 (the event table) and entry tag 2 (the
//! append-only list) are retired and never reused: a reopen stops at a
//! record carrying either, as at a torn one. The index
//! maps `Key → (payload offset, payload len)` so reads skip the header. A
//! torn final record (crash mid-append) is detected during the reopen scan
//! and truncated away rather than treated as corruption.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;

use ray_common::config::GcsConfig;
use ray_common::id::NodeId;
use ray_common::sync::{classes, OrderedMutex};
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};

use crate::chain::Chain;
use crate::kv::{Entry, Key, Member, MemberSet, Table};

/// A disk tier: an append-only log plus an offset index. Each GCS shard
/// has one, and so does each node's object store.
///
/// All replicas of a shard share one `DiskStore`; duplicate appends from
/// different replicas are harmless because the index keeps only the latest
/// offset per key.
pub struct DiskStore {
    backing: OrderedMutex<Backing>,
    index: OrderedMutex<BTreeMap<Key, (u64, u32)>>,
    bytes_written: AtomicU64,
}

enum Backing {
    /// A file (only tests open one).
    File { file: File, len: u64, path: PathBuf },
    /// A buffer in the process's memory (what a running cluster uses).
    Memory(Vec<u8>),
}

impl Backing {
    /// Appends `record`, answering the offset it starts at.
    fn append(&mut self, record: &[u8]) -> std::io::Result<u64> {
        match self {
            Backing::File { file, len, path } => {
                let offset = *len;
                file.write_all(record).map_err(|e| {
                    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
                })?;
                *len += record.len() as u64;
                Ok(offset)
            }
            Backing::Memory(buf) => {
                let offset = buf.len() as u64;
                buf.extend_from_slice(record);
                Ok(offset)
            }
        }
    }
}

impl DiskStore {
    /// Creates a fresh disk store at `path`, truncating any previous run's
    /// file. Use [`DiskStore::reopen`] to recover an existing log instead.
    pub fn create(path: PathBuf) -> std::io::Result<DiskStore> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(DiskStore {
            backing: OrderedMutex::new(&classes::GCS_DISK_BACKING, Backing::File { file, len: 0, path }),
            index: OrderedMutex::new(&classes::GCS_DISK_INDEX, BTreeMap::new()),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// Reopens an existing log at `path` without truncating, rebuilding the
    /// index by scanning the records. A torn final record (from a crash
    /// mid-append) is truncated away; everything before it is recovered.
    pub fn reopen(path: PathBuf) -> std::io::Result<DiskStore> {
        let mut file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let (index, valid_len) = rebuild_index(&data);
        if valid_len < data.len() as u64 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(DiskStore {
            backing: OrderedMutex::new(
                &classes::GCS_DISK_BACKING,
                Backing::File { file, len: valid_len, path },
            ),
            index: OrderedMutex::new(&classes::GCS_DISK_INDEX, index),
            bytes_written: AtomicU64::new(valid_len),
        })
    }

    /// Creates a store whose log is a buffer in memory: what every GCS
    /// shard and every object store of a running cluster uses.
    pub fn in_memory() -> DiskStore {
        DiskStore {
            backing: OrderedMutex::new(&classes::GCS_DISK_BACKING, Backing::Memory(Vec::new())),
            index: OrderedMutex::new(&classes::GCS_DISK_INDEX, BTreeMap::new()),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Appends `entry` under `key`, superseding any previous version.
    ///
    /// # Panics
    ///
    /// When the append fails, or the entry encodes to more than the 4 GiB
    /// a record's length frames: the caller has already dropped its own
    /// copy, so continuing would lose the entry silently (fail-stop).
    pub fn write(&self, key: &Key, entry: &Entry) {
        let id = key.id.as_slice();
        let mut record = vec![key.table.to_tag()];
        record.extend_from_slice(&(id.len() as u32).to_le_bytes());
        record.extend_from_slice(id);
        // The payload is encoded in place; its length field is filled in
        // once that length is known.
        let header_len = record.len() + 4;
        record.extend_from_slice(&[0; 4]);
        encode_entry(entry, &mut record);
        let payload_len = record.len() - header_len;
        let appended = frame_len(payload_len).and_then(|framed| {
            record.splice(header_len - 4..header_len, framed);
            self.backing.lock().append(&record)
        });
        let offset = match appended {
            Ok(offset) => offset,
            Err(e) => panic!("disk log append failed: {e}"),
        };
        self.bytes_written.fetch_add(record.len() as u64, Ordering::Relaxed);
        self.index.lock().insert(*key, (offset + header_len as u64, payload_len as u32));
    }

    /// Reads the latest flushed version of `key`, if any.
    pub fn read(&self, key: &Key) -> Option<Entry> {
        let (offset, len) = *self.index.lock().get(key)?;
        let mut buf = vec![0u8; len as usize];
        {
            let backing = self.backing.lock();
            match &*backing {
                Backing::File { file, .. } => {
                    file.read_exact_at(&mut buf, offset).ok()?;
                }
                Backing::Memory(mem) => {
                    let start = offset as usize;
                    buf.copy_from_slice(mem.get(start..start + len as usize)?);
                }
            }
        }
        decode_entry(&buf)
    }

    /// Number of distinct keys on disk.
    pub fn keys_on_disk(&self) -> usize {
        self.index.lock().len()
    }

    /// Whether `key` has a record in the log.
    pub fn contains(&self, key: &Key) -> bool {
        self.index.lock().contains_key(key)
    }

    /// Drops `key` from the index: its record stays in the log,
    /// unreachable (the log is never compacted). Returns whether it was
    /// there.
    pub fn forget(&self, key: &Key) -> bool {
        self.index.lock().remove(key).is_some()
    }

    /// Forgets every key, and empties an in-memory log (a node's death
    /// takes its disk tier with it). A file keeps its bytes.
    pub fn clear(&self) {
        self.index.lock().clear();
        if let Backing::Memory(buf) = &mut *self.backing.lock() {
            buf.clear();
        }
    }

    /// Total bytes appended (including superseded versions).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Returns the latest version of every key on disk, in key order (for
    /// deterministic whole-shard recovery replay).
    pub fn replay(&self) -> Vec<(Key, Entry)> {
        // The index is a BTreeMap, so key order falls out of iteration —
        // no post-hoc sort needed for byte-stable replay.
        let keys: Vec<Key> = self.index.lock().keys().copied().collect();
        keys.into_iter()
            .filter_map(|k| {
                let e = self.read(&k)?;
                Some((k, e))
            })
            .collect()
    }
}

/// Scans a raw log buffer, returning the rebuilt index and the byte length
/// of the valid prefix. Scanning stops at the first record that does not
/// parse ([`split_record`]) — that prefix boundary is where a torn append
/// (or trailing garbage) begins.
fn rebuild_index(data: &[u8]) -> (BTreeMap<Key, (u64, u32)>, u64) {
    let mut index = BTreeMap::new();
    let mut rest = data;
    while !rest.is_empty() {
        let at = (data.len() - rest.len()) as u64;
        let Some((key, header_len, payload, next)) = split_record(rest) else {
            return (index, at);
        };
        index.insert(key, (at + header_len as u64, payload.len() as u32));
        rest = next;
    }
    (index, data.len() as u64)
}

/// Splits the record at the front of `log` into its key, its header length
/// (where the payload starts), its payload and what follows it. `None` when
/// the framing or the payload does not parse, and when the key is longer
/// than [`crate::kv::KEY_CAP`]: no writer makes such a record, so it is torn
/// or garbage like the others.
fn split_record(log: &[u8]) -> Option<(Key, usize, &[u8], &[u8])> {
    fn split_len(buf: &[u8]) -> Option<(usize, &[u8])> {
        let (len, rest) = buf.split_first_chunk::<4>()?;
        Some((u32::from_le_bytes(*len) as usize, rest))
    }
    let (&tag, rest) = log.split_first()?;
    let (key_len, rest) = split_len(rest)?;
    let (id, rest) = rest.split_at_checked(key_len)?;
    let key = Key::try_new(Table::from_tag(tag)?, id).ok()?;
    let (payload_len, rest) = split_len(rest)?;
    let (payload, rest) = rest.split_at_checked(payload_len)?;
    decode_entry(payload)?;
    Some((key, log.len() - rest.len() - payload.len(), payload, rest))
}

// Entry wire format: tag byte, then length-prefixed payloads. Kept local to
// the disk tier; the GCS never sends entries across the (simulated) network
// in this form.
fn encode_entry(entry: &Entry, out: &mut Vec<u8>) {
    match entry {
        Entry::Blob(b) => {
            out.push(0);
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(b);
        }
        Entry::Set(members) => {
            out.push(1);
            out.extend_from_slice(&(members.len() as u64).to_le_bytes());
            for m in members.iter().map(Member::as_slice) {
                out.extend_from_slice(&(m.len() as u64).to_le_bytes());
                out.extend_from_slice(m);
            }
        }
    }
}

/// A payload length as a record frames it: refused past `u32::MAX`, never
/// truncated.
fn frame_len(len: usize) -> std::io::Result<[u8; 4]> {
    u32::try_from(len).map(u32::to_le_bytes).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {len}-byte entry is over the 4 GiB a record frames"),
        )
    })
}

fn decode_entry(buf: &[u8]) -> Option<Entry> {
    let (&tag, mut rest) = buf.split_first()?;
    let read_len = |rest: &mut &[u8]| -> Option<usize> {
        if rest.len() < 8 {
            return None;
        }
        let (head, tail) = rest.split_at(8);
        *rest = tail;
        Some(u64::from_le_bytes(head.try_into().ok()?) as usize)
    };
    match tag {
        0 => {
            let n = read_len(&mut rest)?;
            if rest.len() != n {
                return None;
            }
            Some(Entry::Blob(Bytes::copy_from_slice(rest)))
        }
        1 => {
            let count = read_len(&mut rest)?;
            let mut set = MemberSet::new();
            for _ in 0..count {
                let n = read_len(&mut rest)?;
                if rest.len() < n {
                    return None;
                }
                let (head, tail) = rest.split_at(n);
                set.insert(Member::from_slice(head)?);
                rest = tail;
            }
            Some(Entry::Set(set))
        }
        _ => None,
    }
}

/// Background thread that keeps every shard's flushable tables below the
/// configured in-memory high-water mark.
pub struct Flusher {
    stop: Arc<AtomicBool>,
    stalled: Arc<AtomicBool>,
    handle: OrderedMutex<Option<JoinHandle<()>>>,
}

impl Flusher {
    /// Starts the flusher over the given shards.
    pub fn start(shards: Arc<Vec<Chain>>, cfg: GcsConfig, trace: TraceCollector) -> Flusher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let stalled = Arc::new(AtomicBool::new(false));
        let stalled2 = stalled.clone();
        let handle = std::thread::Builder::new()
            .name("gcs-flusher".into())
            .spawn(move || {
                let mut keys_seen = vec![0usize; shards.len()];
                while !stop2.load(Ordering::Relaxed) {
                    if !stalled2.load(Ordering::Relaxed) {
                        for (i, shard) in shards.iter().enumerate() {
                            // Per-shard budget: global threshold split evenly.
                            let keep =
                                (cfg.flush_threshold_entries / shards.len().max(1)).max(1);
                            let _ = shard.flush(keep);
                            let on_disk = shard.keys_on_disk();
                            if on_disk > keys_seen[i] {
                                trace.emit(
                                    NodeId(0),
                                    TraceEventKind::GcsFlush,
                                    TraceEntity::Shard(shard.shard_id()),
                                    format!("keys_on_disk={on_disk}"),
                                );
                                keys_seen[i] = on_disk;
                            }
                        }
                    }
                    std::thread::sleep(cfg.flush_interval);
                }
            })
            .expect("invariant: thread spawn only fails on OS resource exhaustion");
        Flusher {
            stop,
            stalled,
            handle: OrderedMutex::new(&classes::GCS_FLUSHER_JOIN, Some(handle)),
        }
    }

    /// Pauses flushing (chaos fault: a stuck flusher must not wedge the
    /// shard; writes keep accumulating in memory until resumed).
    pub fn stall(&self) {
        self.stalled.store(true, Ordering::Relaxed);
    }

    /// Resumes flushing after [`Flusher::stall`].
    pub fn resume(&self) {
        self.stalled.store(false, Ordering::Relaxed);
    }

    /// Whether the flusher is currently stalled.
    pub fn is_stalled(&self) -> bool {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Stops the flusher thread (idempotent).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trips_through_memory_store() {
        let d = DiskStore::in_memory();
        let k = Key::new(Table::Task, vec![1]);
        let e = Entry::Blob(Bytes::from_static(b"task-spec"));
        d.write(&k, &e);
        assert_eq!(d.read(&k), Some(e));
        assert_eq!(d.keys_on_disk(), 1);
    }

    #[test]
    fn set_round_trips() {
        let d = DiskStore::in_memory();
        let k1 = Key::new(Table::Object, vec![1]);
        let mut set = MemberSet::new();
        set.insert(Member::from_array([1, 2]));
        set.insert(Member::from_array([]));
        d.write(&k1, &Entry::Set(set.clone()));
        assert_eq!(d.read(&k1), Some(Entry::Set(set)));
    }

    #[test]
    fn rewrite_supersedes_old_version() {
        let d = DiskStore::in_memory();
        let k = Key::new(Table::Task, vec![1]);
        d.write(&k, &Entry::Blob(Bytes::from_static(b"old")));
        d.write(&k, &Entry::Blob(Bytes::from_static(b"new")));
        assert_eq!(d.read(&k), Some(Entry::Blob(Bytes::from_static(b"new"))));
        assert_eq!(d.keys_on_disk(), 1);
        // Both versions were appended.
        assert!(d.bytes_written() > 12);
    }

    /// `contains`, `forget` and `clear` on `store`, which starts empty: a
    /// forgotten key reads `None` and leaves replay, and `clear` forgets
    /// everything.
    fn index_operations(d: &DiskStore) {
        let (k1, k2) = (Key::new(Table::Object, [1; 16]), Key::new(Table::Object, [2; 16]));
        let e = Entry::Blob(Bytes::from_static(b"spilled"));
        assert!(!d.contains(&k1));
        d.write(&k1, &e);
        d.write(&k2, &e);
        assert!(d.contains(&k1) && d.contains(&k2));
        let written = d.bytes_written();
        assert!(d.forget(&k1));
        assert!(!d.forget(&k1), "a second forget finds nothing");
        assert!(!d.contains(&k1));
        assert_eq!(d.read(&k1), None);
        assert_eq!(d.replay(), vec![(k2, e.clone())]);
        assert_eq!(d.bytes_written(), written, "forgetting appends nothing");
        d.clear();
        assert!(!d.contains(&k2));
        assert_eq!(d.read(&k2), None);
        assert_eq!(d.keys_on_disk(), 0);
        assert!(d.replay().is_empty());
        // The log still takes writes after a clear.
        d.write(&k2, &e);
        assert_eq!(d.read(&k2), Some(e));
    }

    #[test]
    fn index_operations_on_a_memory_store() {
        let d = DiskStore::in_memory();
        index_operations(&d);
        let Backing::Memory(buf) = &*d.backing.lock() else { unreachable!() };
        let one_record = 1 + 4 + 16 + 4 + 1 + 8 + b"spilled".len();
        assert_eq!(buf.len(), one_record, "clear emptied the buffer");
    }

    #[test]
    fn index_operations_on_a_file_store() {
        let path =
            std::env::temp_dir().join(format!("rustray-index-ops-{}.log", std::process::id()));
        index_operations(&DiskStore::create(path.clone()).unwrap());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_payload_over_four_gib_is_refused_not_truncated() {
        let max = u32::MAX as usize;
        assert_eq!(frame_len(max).unwrap(), u32::MAX.to_le_bytes());
        assert!(frame_len(max + 1).is_err());
    }

    #[test]
    fn missing_key_reads_none() {
        let d = DiskStore::in_memory();
        assert_eq!(d.read(&Key::new(Table::Task, vec![9])), None);
    }

    #[test]
    fn file_backed_store_round_trips() {
        let path = std::env::temp_dir().join(format!("rustray-flush-test-{}.log", std::process::id()));
        let d = DiskStore::create(path.clone()).unwrap();
        let k = Key::new(Table::Task, vec![42]);
        let e = Entry::Blob(Bytes::from(vec![7u8; 1000]));
        d.write(&k, &e);
        assert_eq!(d.read(&k), Some(e));
        drop(d);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reopen_rebuilds_index_from_log() {
        let path = std::env::temp_dir()
            .join(format!("rustray-reopen-test-{}.log", std::process::id()));
        let k1 = Key::new(Table::Task, vec![1]);
        let k2 = Key::new(Table::Lineage, b"ln");
        let mut set = MemberSet::new();
        set.insert(Member::from_array(*b"x"));
        set.insert(Member::from_array(*b"yy"));
        {
            let d = DiskStore::create(path.clone()).unwrap();
            d.write(&k1, &Entry::Blob(Bytes::from_static(b"old")));
            d.write(&k1, &Entry::Blob(Bytes::from_static(b"new")));
            d.write(&k2, &Entry::Set(set.clone()));
        }
        let d = DiskStore::reopen(path.clone()).unwrap();
        assert_eq!(d.keys_on_disk(), 2);
        assert_eq!(d.read(&k1), Some(Entry::Blob(Bytes::from_static(b"new"))));
        assert_eq!(d.read(&k2), Some(Entry::Set(set.clone())));
        // Replay yields every key once, in key order, latest version.
        let replayed = d.replay();
        assert_eq!(replayed.len(), 2);
        assert!(replayed.windows(2).all(|w| w[0].0 < w[1].0));
        // Writes after reopen append and remain readable.
        d.write(&k1, &Entry::Blob(Bytes::from_static(b"newer")));
        assert_eq!(d.read(&k1), Some(Entry::Blob(Bytes::from_static(b"newer"))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reopen_truncates_torn_final_record() {
        let path =
            std::env::temp_dir().join(format!("rustray-torn-test-{}.log", std::process::id()));
        let k = Key::new(Table::Lineage, vec![9]);
        {
            let d = DiskStore::create(path.clone()).unwrap();
            d.write(&k, &Entry::Blob(Bytes::from_static(b"kept")));
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: a valid record followed by the first
        // half of another.
        let mut torn = full.clone();
        torn.extend_from_slice(&full[..full.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        let d = DiskStore::reopen(path.clone()).unwrap();
        assert_eq!(d.keys_on_disk(), 1);
        assert_eq!(d.read(&k), Some(Entry::Blob(Bytes::from_static(b"kept"))));
        drop(d);
        // The torn tail was physically truncated.
        assert_eq!(std::fs::read(&path).unwrap().len(), full.len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reopen_truncates_at_a_record_whose_key_is_over_the_cap() {
        let path =
            std::env::temp_dir().join(format!("rustray-long-key-test-{}.log", std::process::id()));
        let k = Key::new(Table::Task, vec![3]);
        {
            let d = DiskStore::create(path.clone()).unwrap();
            d.write(&k, &Entry::Blob(Bytes::from_static(b"kept")));
        }
        let good = std::fs::read(&path).unwrap();
        // A record framed like any other, whole, but with a 40-byte key: no
        // key can be that long, so a reopen must not index (or truncate) it.
        let mut payload = Vec::new();
        encode_entry(&Entry::Blob(Bytes::from_static(b"long")), &mut payload);
        let mut log = good.clone();
        log.push(Table::Task.to_tag());
        log.extend_from_slice(&40u32.to_le_bytes());
        log.extend_from_slice(&[7u8; 40]);
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&payload);
        std::fs::write(&path, &log).unwrap();
        let d = DiskStore::reopen(path.clone()).unwrap();
        assert_eq!(d.keys_on_disk(), 1);
        assert_eq!(d.read(&k), Some(Entry::Blob(Bytes::from_static(b"kept"))));
        drop(d);
        assert_eq!(std::fs::read(&path).unwrap(), good, "the long-key record is the torn tail");
        let _ = std::fs::remove_file(path);
    }

    /// Regression for the index container: it used to be a `HashMap`, so
    /// `replay()` needed a manual sort and any iteration that skipped it
    /// leaked hash order into recovery. With a `BTreeMap` the replayed
    /// sequence is a pure function of the stored keys — scrambled insertion
    /// order, repeated calls, and a reopen all yield the same sequence.
    #[test]
    fn replay_order_is_byte_stable() {
        let path = std::env::temp_dir()
            .join(format!("rustray-replay-stable-{}.log", std::process::id()));
        let keys: Vec<Key> = [9u8, 2, 7, 0, 5, 3]
            .iter()
            .map(|b| Key::new(Table::Task, vec![*b]))
            .collect();
        {
            let d = DiskStore::create(path.clone()).unwrap();
            for k in &keys {
                d.write(k, &Entry::Blob(Bytes::from(vec![k.id.as_slice()[0]; 8])));
            }
            let first = d.replay();
            let second = d.replay();
            assert_eq!(first, second, "repeated replays must match byte for byte");
            assert!(
                first.windows(2).all(|w| w[0].0 < w[1].0),
                "replay must be in sorted key order regardless of insertion order"
            );
            assert_eq!(first.len(), keys.len());
        }
        let d = DiskStore::reopen(path.clone()).unwrap();
        let recovered = d.replay();
        assert!(recovered.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(recovered.len(), keys.len());
        for (k, e) in &recovered {
            assert_eq!(*e, Entry::Blob(Bytes::from(vec![k.id.as_slice()[0]; 8])));
        }
        drop(d);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reopen_of_missing_file_starts_empty() {
        let path = std::env::temp_dir()
            .join(format!("rustray-reopen-missing-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let d = DiskStore::reopen(path.clone()).unwrap();
        assert_eq!(d.keys_on_disk(), 0);
        let _ = std::fs::remove_file(path);
    }
}
