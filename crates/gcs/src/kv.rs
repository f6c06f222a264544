//! The replicated state machine of one GCS shard.
//!
//! Each shard stores entries for every control-state table, applies
//! [`UpdateOp`]s deterministically (so replicas stay identical), tracks
//! pub-sub subscribers, and accounts resident memory so flushing decisions
//! (paper Fig. 10b) can be made.
//!
//! Entries come in three shapes matching what Ray keeps in the GCS:
//! blobs (task specs, checkpoints), sets (object locations), and append
//! logs (event logs, actor method logs).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam_channel::Sender;

use crate::flush::DiskStore;

/// The control-state tables the GCS maintains (paper Fig. 5 lists the
/// object table, task table, function table, and event logs; the client and
/// actor tables appear in §4.2 and §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Table {
    /// Object ID → set of (node, size) locations.
    Object,
    /// Task ID → serialized task spec: the lineage.
    Task,
    /// Function ID → registered name/metadata.
    Function,
    /// Node ID → client (node membership/heartbeat) record.
    Client,
    /// Actor ID → actor record (owner node, state, method count).
    Actor,
    /// Actor ID → latest checkpoint blob.
    Checkpoint,
    /// Object ID → the task that creates it. The runtime neither writes
    /// nor reads it (a return object's ID names its producer); why the
    /// table and its disk tag are still here is told at its accessors in
    /// `tables.rs`.
    Lineage,
    /// Free-form event log entries for debugging/profiling tools.
    Event,
}

impl Table {
    /// Whether the flusher may move this table's cold entries to disk.
    ///
    /// Only lineage-like, append-mostly tables are flushable; object
    /// locations and membership must stay hot.
    pub fn flushable(self) -> bool {
        matches!(self, Table::Task | Table::Lineage | Table::Event)
    }

    /// Stable one-byte tag identifying this table in disk log records.
    ///
    /// Part of the on-disk format (see `flush.rs`): changing an existing
    /// mapping invalidates previously written logs.
    pub fn to_tag(self) -> u8 {
        match self {
            Table::Object => 0,
            Table::Task => 1,
            Table::Function => 2,
            Table::Client => 3,
            Table::Actor => 4,
            Table::Checkpoint => 5,
            Table::Lineage => 6,
            Table::Event => 7,
        }
    }

    /// Inverse of [`Table::to_tag`]; `None` for unknown tags (corrupt or
    /// torn disk records).
    pub fn from_tag(tag: u8) -> Option<Table> {
        Some(match tag {
            0 => Table::Object,
            1 => Table::Task,
            2 => Table::Function,
            3 => Table::Client,
            4 => Table::Actor,
            5 => Table::Checkpoint,
            6 => Table::Lineage,
            7 => Table::Event,
            _ => return None,
        })
    }
}

/// A key within a shard: table plus raw ID bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Which table the entry lives in.
    pub table: Table,
    /// Raw ID bytes (object/task/actor/... ID).
    pub id: Vec<u8>,
}

impl Key {
    /// Builds a key.
    pub fn new(table: Table, id: impl Into<Vec<u8>>) -> Self {
        Key { table, id: id.into() }
    }

    fn weight(&self) -> usize {
        self.id.len() + std::mem::size_of::<Table>()
    }
}

/// A stored entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// An opaque value (overwritten by `Put`).
    Blob(Bytes),
    /// A set of members (object locations).
    Set(BTreeSet<Vec<u8>>),
    /// An append-only list (event/method logs).
    List(Vec<Bytes>),
}

impl Entry {
    fn weight(&self) -> usize {
        match self {
            Entry::Blob(b) => b.len(),
            Entry::Set(s) => s.iter().map(|m| m.len()).sum(),
            Entry::List(l) => l.iter().map(|b| b.len()).sum(),
        }
    }
}

/// A pub-sub notification: the key that changed and a snapshot of its entry
/// after the change (`None` on delete).
#[derive(Debug, Clone)]
pub struct Notification {
    /// The key whose entry changed.
    pub key: Key,
    /// Entry contents after the update.
    pub entry: Option<Entry>,
}

/// Channel end that receives [`Notification`]s for a subscription.
pub type NotifySender = Sender<Notification>;

/// Most keys one [`UpdateOp::Subscribe`] may carry; a larger set is split
/// into several ops under one `sub_id`. An op is applied on every replica
/// in turn while its writer holds the chain's order lock, which every other
/// writer of the shard waits for, and a key costs a few allocations there
/// (index entries, plus a notification when the entry exists). At 256 keys,
/// every entry present, one apply takes 0.3 ms in a debug build — a
/// thirtieth of `chain::OP_TIMEOUT`, the yardstick for "a stall a client
/// would notice"; 0.6 ms at 512 — which
/// `subscribe_apply_at_the_cap_is_far_under_the_op_timeout` keeps checked.
pub const MAX_SUBSCRIBE_KEYS: usize = 256;

/// A deterministic state-machine update. Replicas apply the same sequence
/// of these, so chains stay consistent.
#[derive(Clone)]
pub enum UpdateOp {
    /// Overwrite (or create) a blob entry.
    Put {
        /// Target key.
        key: Key,
        /// New value.
        value: Bytes,
    },
    /// Add a member to a set entry (creating the set if absent).
    SetAdd {
        /// Target key.
        key: Key,
        /// Member to insert.
        member: Vec<u8>,
    },
    /// Remove a member from a set entry.
    SetRemove {
        /// Target key.
        key: Key,
        /// Member to remove.
        member: Vec<u8>,
    },
    /// Append an item to a list entry (creating the list if absent).
    ListAppend {
        /// Target key.
        key: Key,
        /// Item to append.
        item: Bytes,
    },
    /// Remove an entry entirely.
    Delete {
        /// Target key.
        key: Key,
    },
    /// Register a subscriber for changes to a set of keys. Subscriptions
    /// are part of the replicated state so the commit point (tail) always
    /// has them. Several ops may share a `sub_id` (their key sets add up);
    /// a key is registered once per `(key, sub_id)` however often the op is
    /// applied, because a writer that met a crashed member re-issues it.
    Subscribe {
        /// Keys to watch, at most [`MAX_SUBSCRIBE_KEYS`].
        keys: Vec<Key>,
        /// Caller-chosen subscription ID (for unsubscribe).
        sub_id: u64,
        /// Where notifications are delivered.
        sender: NotifySender,
    },
    /// Remove a subscriber from every key it watches on this shard.
    Unsubscribe {
        /// Subscription ID used at subscribe time.
        sub_id: u64,
    },
    /// Move the oldest entries of a flushable table to disk until at most
    /// `keep_entries` remain in memory.
    Flush {
        /// Table to flush (must be [`Table::flushable`]).
        table: Table,
        /// In-memory entry count to keep.
        keep_entries: usize,
    },
}

impl std::fmt::Debug for UpdateOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateOp::Put { key, value } => write!(f, "Put({key:?}, {}B)", value.len()),
            UpdateOp::SetAdd { key, .. } => write!(f, "SetAdd({key:?})"),
            UpdateOp::SetRemove { key, .. } => write!(f, "SetRemove({key:?})"),
            UpdateOp::ListAppend { key, item } => {
                write!(f, "ListAppend({key:?}, {}B)", item.len())
            }
            UpdateOp::Delete { key } => write!(f, "Delete({key:?})"),
            UpdateOp::Subscribe { keys, sub_id, .. } => {
                write!(f, "Subscribe({} keys, {sub_id})", keys.len())
            }
            UpdateOp::Unsubscribe { sub_id } => write!(f, "Unsubscribe({sub_id})"),
            UpdateOp::Flush { table, keep_entries } => {
                write!(f, "Flush({table:?}, keep {keep_entries})")
            }
        }
    }
}

/// Snapshot used for chain state transfer.
#[derive(Clone)]
pub struct ShardSnapshot {
    entries: HashMap<Key, Entry>,
    subs: HashMap<Key, Vec<(u64, NotifySender)>>,
    sub_keys: BTreeMap<u64, Vec<Key>>,
    insert_order: BTreeMap<u64, Key>,
    key_order_seq: HashMap<Key, u64>,
    next_order_seq: u64,
}

/// In-memory state of one shard replica.
pub struct ShardState {
    entries: HashMap<Key, Entry>,
    /// Key → its watchers, in registration order.
    subs: HashMap<Key, Vec<(u64, NotifySender)>>,
    /// Subscription → the keys it is registered under in `subs`: what an
    /// `Unsubscribe` has to visit.
    sub_keys: BTreeMap<u64, Vec<Key>>,
    /// Insertion order of entries in flushable tables (order seq → key).
    insert_order: BTreeMap<u64, Key>,
    key_order_seq: HashMap<Key, u64>,
    next_order_seq: u64,
    /// Bytes resident in memory, shared with the chain for observability.
    resident: Arc<AtomicI64>,
    /// Disk tier shared by all replicas of the shard.
    disk: Arc<DiskStore>,
}

impl ShardState {
    /// Creates an empty shard state backed by the given disk tier.
    pub fn new(resident: Arc<AtomicI64>, disk: Arc<DiskStore>) -> Self {
        ShardState {
            entries: HashMap::new(),
            subs: HashMap::new(),
            sub_keys: BTreeMap::new(),
            insert_order: BTreeMap::new(),
            key_order_seq: HashMap::new(),
            next_order_seq: 0,
            resident,
            disk,
        }
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads an entry: memory first, then the disk tier (for flushed
    /// lineage — paper Fig. 10b keeps flushed entries readable).
    pub fn get(&self, key: &Key) -> Option<Entry> {
        if let Some(e) = self.entries.get(key) {
            return Some(e.clone());
        }
        self.disk.read(key)
    }

    fn track_order(&mut self, key: &Key) {
        if !key.table.flushable() {
            return;
        }
        if let Some(old) = self.key_order_seq.get(key) {
            self.insert_order.remove(old);
        }
        let seq = self.next_order_seq;
        self.next_order_seq += 1;
        self.insert_order.insert(seq, key.clone());
        self.key_order_seq.insert(key.clone(), seq);
    }

    fn charge(&self, delta: i64) {
        self.resident.fetch_add(delta, Ordering::Relaxed);
    }

    /// Applies one update, returning notifications to deliver if this
    /// replica is the commit point. Returns the number of entries flushed
    /// (non-zero only for `Flush`).
    pub fn apply(&mut self, op: &UpdateOp) -> (Vec<(NotifySender, Notification)>, u64) {
        match op {
            UpdateOp::Put { key, value } => {
                let new = Entry::Blob(value.clone());
                let added = new.weight() as i64 + key.weight() as i64;
                let removed = self.entries.insert(key.clone(), new).map_or(
                    0,
                    |old| old.weight() as i64 + key.weight() as i64,
                );
                self.charge(added - removed);
                self.track_order(key);
                (self.notifications_for(key), 0)
            }
            UpdateOp::SetAdd { key, member } => {
                let mut added = 0;
                let entry = self.entries.entry(key.clone()).or_insert_with(|| {
                    added += key.weight() as i64;
                    Entry::Set(BTreeSet::new())
                });
                if let Entry::Set(s) = entry {
                    if s.insert(member.clone()) {
                        added += member.len() as i64;
                    }
                }
                self.charge(added);
                // Type mismatch (blob under a set op) is ignored: ops are
                // generated by the typed client so this cannot happen in a
                // well-formed system; dropping keeps replicas deterministic.
                self.track_order(key);
                (self.notifications_for(key), 0)
            }
            UpdateOp::SetRemove { key, member } => {
                let mut emptied = false;
                let mut removed_member = false;
                if let Some(Entry::Set(s)) = self.entries.get_mut(key) {
                    removed_member = s.remove(member);
                    emptied = s.is_empty();
                }
                if removed_member {
                    self.charge(-(member.len() as i64));
                }
                if emptied {
                    self.entries.remove(key);
                    self.charge(-(key.weight() as i64));
                }
                (self.notifications_for(key), 0)
            }
            UpdateOp::ListAppend { key, item } => {
                // A list that was flushed to disk must be pulled back into
                // memory before appending; otherwise a fresh empty list
                // would shadow the disk version on reads and the flushed
                // items would silently disappear.
                if !self.entries.contains_key(key) {
                    if let Some(prev) = self.disk.read(key) {
                        self.charge(prev.weight() as i64 + key.weight() as i64);
                        self.entries.insert(key.clone(), prev);
                    }
                }
                let mut added = 0;
                let entry = self.entries.entry(key.clone()).or_insert_with(|| {
                    added += key.weight() as i64;
                    Entry::List(Vec::new())
                });
                if let Entry::List(l) = entry {
                    l.push(item.clone());
                    added += item.len() as i64;
                }
                self.charge(added);
                self.track_order(key);
                (self.notifications_for(key), 0)
            }
            UpdateOp::Delete { key } => {
                if let Some(old) = self.entries.remove(key) {
                    self.charge(-(old.weight() as i64 + key.weight() as i64));
                }
                if let Some(seq) = self.key_order_seq.remove(key) {
                    self.insert_order.remove(&seq);
                }
                (self.notifications_for(key), 0)
            }
            UpdateOp::Subscribe { keys, sub_id, sender } => {
                let watched = self.sub_keys.entry(*sub_id).or_default();
                let mut notifs = Vec::new();
                for key in keys {
                    let watchers = self.subs.entry(key.clone()).or_default();
                    if !watchers.iter().any(|(id, _)| id == sub_id) {
                        watchers.push((*sub_id, sender.clone()));
                        watched.push(key.clone());
                    }
                    // If the entry already exists, notify immediately so the
                    // subscriber never misses a creation that beat the
                    // subscription (paper Fig. 7b step 2 registers a callback
                    // only when the entry is absent; delivering current state
                    // on subscribe closes the race).
                    if let Some(e) = self.entries.get(key) {
                        let current = Notification { key: key.clone(), entry: Some(e.clone()) };
                        notifs.push((sender.clone(), current));
                    }
                }
                (notifs, 0)
            }
            UpdateOp::Unsubscribe { sub_id } => {
                for key in self.sub_keys.remove(sub_id).unwrap_or_default() {
                    if let Some(watchers) = self.subs.get_mut(&key) {
                        watchers.retain(|(id, _)| id != sub_id);
                        if watchers.is_empty() {
                            self.subs.remove(&key);
                        }
                    }
                }
                (Vec::new(), 0)
            }
            UpdateOp::Flush { table, keep_entries } => {
                let flushed = self.flush_table(*table, *keep_entries);
                (Vec::new(), flushed)
            }
        }
    }

    fn flush_table(&mut self, table: Table, keep_entries: usize) -> u64 {
        if !table.flushable() {
            return 0;
        }
        let in_table: Vec<u64> = self
            .insert_order
            .iter()
            .filter(|(_, k)| k.table == table)
            .map(|(&seq, _)| seq)
            .collect();
        if in_table.len() <= keep_entries {
            return 0;
        }
        let to_flush = in_table.len() - keep_entries;
        let mut flushed = 0u64;
        for seq in in_table.into_iter().take(to_flush) {
            let key = match self.insert_order.remove(&seq) {
                Some(k) => k,
                None => continue,
            };
            self.key_order_seq.remove(&key);
            if let Some(entry) = self.entries.remove(&key) {
                self.charge(-(entry.weight() as i64 + key.weight() as i64));
                self.disk.write(&key, &entry);
                flushed += 1;
            }
        }
        flushed
    }

    fn notifications_for(&self, key: &Key) -> Vec<(NotifySender, Notification)> {
        match self.subs.get(key) {
            None => Vec::new(),
            Some(watchers) => {
                let entry = self.entries.get(key).cloned();
                watchers
                    .iter()
                    .map(|(_, tx)| {
                        (tx.clone(), Notification { key: key.clone(), entry: entry.clone() })
                    })
                    .collect()
            }
        }
    }

    /// Produces a snapshot for state transfer to a joining replica.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            entries: self.entries.clone(),
            subs: self.subs.clone(),
            sub_keys: self.sub_keys.clone(),
            insert_order: self.insert_order.clone(),
            key_order_seq: self.key_order_seq.clone(),
            next_order_seq: self.next_order_seq,
        }
    }

    /// Installs a snapshot received during state transfer.
    pub fn install(&mut self, snap: ShardSnapshot) {
        let new_weight: i64 = snap
            .entries
            .iter()
            .map(|(k, e)| (k.weight() + e.weight()) as i64)
            .sum();
        let old_weight: i64 = self
            .entries
            .iter()
            .map(|(k, e)| (k.weight() + e.weight()) as i64)
            .sum();
        self.charge(new_weight - old_weight);
        self.entries = snap.entries;
        self.subs = snap.subs;
        self.sub_keys = snap.sub_keys;
        self.insert_order = snap.insert_order;
        self.key_order_seq = snap.key_order_seq;
        self.next_order_seq = snap.next_order_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn state() -> ShardState {
        ShardState::new(Arc::new(AtomicI64::new(0)), Arc::new(DiskStore::in_memory()))
    }

    fn key(id: u8) -> Key {
        Key::new(Table::Object, vec![id])
    }

    #[test]
    fn put_get_overwrite() {
        let mut s = state();
        let k = Key::new(Table::Task, vec![1]);
        s.apply(&UpdateOp::Put { key: k.clone(), value: Bytes::from_static(b"v1") });
        assert_eq!(s.get(&k), Some(Entry::Blob(Bytes::from_static(b"v1"))));
        s.apply(&UpdateOp::Put { key: k.clone(), value: Bytes::from_static(b"v2") });
        assert_eq!(s.get(&k), Some(Entry::Blob(Bytes::from_static(b"v2"))));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_add_remove_lifecycle() {
        let mut s = state();
        let k = key(1);
        s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![10] });
        s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![20] });
        s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![10] }); // Duplicate.
        match s.get(&k) {
            Some(Entry::Set(m)) => assert_eq!(m.len(), 2),
            other => panic!("expected set, got {other:?}"),
        }
        s.apply(&UpdateOp::SetRemove { key: k.clone(), member: vec![10] });
        s.apply(&UpdateOp::SetRemove { key: k.clone(), member: vec![20] });
        // Empty sets are removed entirely.
        assert_eq!(s.get(&k), None);
        assert!(s.is_empty());
    }

    #[test]
    fn list_append_accumulates() {
        let mut s = state();
        let k = Key::new(Table::Event, vec![1]);
        for i in 0..3u8 {
            s.apply(&UpdateOp::ListAppend { key: k.clone(), item: Bytes::from(vec![i]) });
        }
        match s.get(&k) {
            Some(Entry::List(l)) => assert_eq!(l.len(), 3),
            other => panic!("expected list, got {other:?}"),
        }
    }

    fn subscribe(keys: &[Key], sub_id: u64, sender: &NotifySender) -> UpdateOp {
        UpdateOp::Subscribe { keys: keys.to_vec(), sub_id, sender: sender.clone() }
    }

    /// What a receiver holds right now, by key (the stand-in crossbeam used
    /// for offline builds has no `try_iter`).
    fn drain_keys(rx: &crossbeam_channel::Receiver<Notification>) -> Vec<Key> {
        std::iter::from_fn(|| rx.try_recv().ok()).map(|n| n.key).collect()
    }

    /// Delivers what an apply returned (the tail's job) and reports how many.
    fn deliver(notifs: Vec<(NotifySender, Notification)>) -> usize {
        let n = notifs.len();
        for (tx, notification) in notifs {
            tx.send(notification).unwrap();
        }
        n
    }

    #[test]
    fn subscribe_notifies_on_update_and_on_existing_entry() {
        let mut s = state();
        let k = key(1);
        let (tx, rx) = unbounded();
        // Subscribe before creation: no immediate notification.
        let (notifs, _) = s.apply(&subscribe(std::slice::from_ref(&k), 1, &tx));
        assert!(notifs.is_empty());
        // Update fires a notification.
        let (notifs, _) = s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![9] });
        assert_eq!(deliver(notifs), 1);
        let n = rx.try_recv().unwrap();
        assert_eq!(n.key, k);
        assert!(matches!(n.entry, Some(Entry::Set(_))));
        // Subscribing after creation delivers current state immediately.
        let (tx2, rx2) = unbounded();
        let (notifs, _) = s.apply(&subscribe(std::slice::from_ref(&k), 2, &tx2));
        assert_eq!(deliver(notifs), 1);
        assert!(rx2.try_recv().is_ok());
    }

    #[test]
    fn key_set_subscribe_covers_existing_and_future_keys() {
        let mut s = state();
        let keys: Vec<Key> = (0..6u8).map(key).collect();
        for k in &keys[..3] {
            s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![1] });
        }
        let (tx, rx) = unbounded();
        // The three entries that exist are delivered by the subscribe itself,
        // in key order of the op.
        let (notifs, _) = s.apply(&subscribe(&keys, 1, &tx));
        assert_eq!(deliver(notifs), 3);
        assert_eq!(drain_keys(&rx), keys[..3]);
        // The other three fire as they are created.
        for k in &keys[3..] {
            let (notifs, _) = s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![1] });
            assert_eq!(deliver(notifs), 1);
            assert_eq!(rx.try_recv().unwrap().key, *k);
        }
        // A key outside the set stays silent.
        let (notifs, _) = s.apply(&UpdateOp::SetAdd { key: key(9), member: vec![1] });
        assert!(notifs.is_empty());
    }

    #[test]
    fn replayed_subscribe_registers_once() {
        let mut s = state();
        let keys: Vec<Key> = (0..4u8).map(key).collect();
        let (tx, _rx) = unbounded();
        // A writer that met a crashed member re-issues the op; a second op of
        // the same subscription overlaps the first.
        s.apply(&subscribe(&keys, 1, &tx));
        s.apply(&subscribe(&keys, 1, &tx));
        s.apply(&subscribe(&keys[2..], 1, &tx));
        for k in &keys {
            let (notifs, _) = s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![1] });
            assert_eq!(notifs.len(), 1, "{k:?} notifies once per write");
        }
        assert_eq!(s.sub_keys.get(&1).map(Vec::len), Some(keys.len()));
    }

    #[test]
    fn unsubscribe_silences_the_whole_subscription_and_no_other() {
        let mut s = state();
        let keys: Vec<Key> = (0..4u8).map(key).collect();
        let (tx, _rx) = unbounded();
        let (other_tx, other_rx) = unbounded();
        // Subscription 7 is built from two ops; 8 shares one of its keys.
        s.apply(&subscribe(&keys[..2], 7, &tx));
        s.apply(&subscribe(&keys[2..], 7, &tx));
        s.apply(&subscribe(&keys[1..2], 8, &other_tx));
        s.apply(&UpdateOp::Unsubscribe { sub_id: 7 });
        for k in &keys {
            let (notifs, _) = s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![1] });
            deliver(notifs);
        }
        assert_eq!(drain_keys(&other_rx), keys[1..2], "only subscription 8 is still registered");
        // Nothing of 7 is left behind; unsubscribing again is a no-op.
        assert!(!s.sub_keys.contains_key(&7));
        assert_eq!(s.subs.len(), 1);
        s.apply(&UpdateOp::Unsubscribe { sub_id: 7 });
        s.apply(&UpdateOp::Unsubscribe { sub_id: 8 });
        assert!(s.subs.is_empty() && s.sub_keys.is_empty());
    }

    #[test]
    fn subscribe_apply_at_the_cap_is_far_under_the_op_timeout() {
        // The costly shape: every entry exists, so every key also clones its
        // entry into a notification. Best of five keeps a descheduled
        // test thread from deciding the result.
        let mut s = state();
        let keys: Vec<Key> =
            (0..MAX_SUBSCRIBE_KEYS as u64).map(|i| Key::new(Table::Object, i.to_le_bytes())).collect();
        for k in &keys {
            s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![0; 12] });
        }
        let (tx, _rx) = unbounded();
        let best = (0..5u64)
            .map(|sub_id| {
                let op = subscribe(&keys, sub_id, &tx);
                let start = std::time::Instant::now();
                let (notifs, _) = s.apply(&op);
                let took = start.elapsed();
                assert_eq!(notifs.len(), keys.len());
                took
            })
            .min()
            .unwrap();
        assert!(
            best * 8 < crate::chain::OP_TIMEOUT,
            "a {MAX_SUBSCRIBE_KEYS}-key subscribe took {best:?} to apply"
        );
    }

    #[test]
    fn delete_notifies_with_none() {
        let mut s = state();
        let k = key(3);
        s.apply(&UpdateOp::SetAdd { key: k.clone(), member: vec![1] });
        let (tx, rx) = unbounded();
        s.apply(&subscribe(std::slice::from_ref(&k), 1, &tx));
        rx.try_recv().ok(); // Drain the subscribe-time snapshot (delivered by caller normally).
        let (notifs, _) = s.apply(&UpdateOp::Delete { key: k.clone() });
        assert_eq!(notifs.len(), 1);
        assert!(notifs[0].1.entry.is_none());
    }

    #[test]
    fn resident_accounting_returns_to_zero() {
        let resident = Arc::new(AtomicI64::new(0));
        let mut s = ShardState::new(resident.clone(), Arc::new(DiskStore::in_memory()));
        let k = Key::new(Table::Task, vec![1, 2, 3]);
        s.apply(&UpdateOp::Put { key: k.clone(), value: Bytes::from(vec![0u8; 100]) });
        assert!(resident.load(Ordering::Relaxed) >= 100);
        s.apply(&UpdateOp::Delete { key: k });
        assert_eq!(resident.load(Ordering::Relaxed), 0);
        // An entry a `SetAdd` or `ListAppend` creates pays for its key
        // like one a `Put` creates, because removing it refunds the key.
        let set = key(7);
        s.apply(&UpdateOp::SetAdd { key: set.clone(), member: vec![1, 2] });
        assert_eq!(resident.load(Ordering::Relaxed), (set.weight() + 2) as i64);
        s.apply(&UpdateOp::SetRemove { key: set, member: vec![1, 2] });
        assert_eq!(resident.load(Ordering::Relaxed), 0);
        let list = Key::new(Table::Event, vec![9; 16]);
        s.apply(&UpdateOp::ListAppend { key: list.clone(), item: Bytes::from_static(b"evt") });
        s.apply(&UpdateOp::ListAppend { key: list.clone(), item: Bytes::from_static(b"evt") });
        assert_eq!(resident.load(Ordering::Relaxed), (list.weight() + 6) as i64);
        s.apply(&UpdateOp::Delete { key: list });
        assert_eq!(resident.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn flush_moves_oldest_task_entries_to_disk_and_keeps_them_readable() {
        let resident = Arc::new(AtomicI64::new(0));
        let mut s = ShardState::new(resident.clone(), Arc::new(DiskStore::in_memory()));
        let keys: Vec<Key> = (0..10u8).map(|i| Key::new(Table::Task, vec![i])).collect();
        for k in &keys {
            s.apply(&UpdateOp::Put { key: k.clone(), value: Bytes::from(vec![0u8; 50]) });
        }
        let before = resident.load(Ordering::Relaxed);
        let (_, flushed) = s.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 3 });
        assert_eq!(flushed, 7);
        assert_eq!(s.len(), 3);
        assert!(resident.load(Ordering::Relaxed) < before);
        // Flushed entries stay readable through the disk tier.
        for k in &keys {
            assert!(s.get(k).is_some(), "entry {k:?} lost by flush");
        }
        // The *newest* entries remain in memory.
        assert!(s.entries.contains_key(&keys[9]));
        assert!(!s.entries.contains_key(&keys[0]));
    }

    #[test]
    fn flush_ignores_non_flushable_tables() {
        let mut s = state();
        for i in 0..5u8 {
            s.apply(&UpdateOp::SetAdd { key: key(i), member: vec![1] });
        }
        let (_, flushed) = s.apply(&UpdateOp::Flush { table: Table::Object, keep_entries: 0 });
        assert_eq!(flushed, 0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn snapshot_install_round_trips() {
        let mut a = state();
        let k1 = Key::new(Table::Task, vec![1]);
        let k2 = key(2);
        a.apply(&UpdateOp::Put { key: k1.clone(), value: Bytes::from_static(b"spec") });
        a.apply(&UpdateOp::SetAdd { key: k2.clone(), member: vec![5] });
        let snap = a.snapshot();
        let resident_b = Arc::new(AtomicI64::new(0));
        let mut b = ShardState::new(resident_b.clone(), Arc::new(DiskStore::in_memory()));
        b.install(snap);
        assert_eq!(b.get(&k1), a.get(&k1));
        assert_eq!(b.get(&k2), a.get(&k2));
        assert!(resident_b.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn table_tags_round_trip() {
        let all = [
            Table::Object,
            Table::Task,
            Table::Function,
            Table::Client,
            Table::Actor,
            Table::Checkpoint,
            Table::Lineage,
            Table::Event,
        ];
        for t in all {
            assert_eq!(Table::from_tag(t.to_tag()), Some(t));
        }
        assert_eq!(Table::from_tag(200), None);
    }

    #[test]
    fn list_append_after_flush_pulls_disk_version_back_in() {
        let mut s = state();
        let k = Key::new(Table::Event, vec![1]);
        s.apply(&UpdateOp::ListAppend { key: k.clone(), item: Bytes::from_static(b"a") });
        s.apply(&UpdateOp::Flush { table: Table::Event, keep_entries: 0 });
        assert!(!s.entries.contains_key(&k), "flush should evict the list");
        // Appending after the flush must not shadow the flushed items.
        s.apply(&UpdateOp::ListAppend { key: k.clone(), item: Bytes::from_static(b"b") });
        match s.get(&k) {
            Some(Entry::List(l)) => {
                assert_eq!(l, vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]);
            }
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn rewrite_updates_flush_order() {
        let mut s = state();
        let k0 = Key::new(Table::Task, vec![0]);
        let k1 = Key::new(Table::Task, vec![1]);
        s.apply(&UpdateOp::Put { key: k0.clone(), value: Bytes::from_static(b"a") });
        s.apply(&UpdateOp::Put { key: k1.clone(), value: Bytes::from_static(b"b") });
        // Rewriting k0 makes it the newest; flushing to 1 should evict k1.
        s.apply(&UpdateOp::Put { key: k0.clone(), value: Bytes::from_static(b"a2") });
        s.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 1 });
        assert!(s.entries.contains_key(&k0));
        assert!(!s.entries.contains_key(&k1));
    }
}
