//! The replicated state machine of one GCS shard.
//!
//! Each shard stores entries for every control-state table, applies
//! [`UpdateOp`]s deterministically (so replicas stay identical), and
//! accounts resident memory so flushing decisions (paper Fig. 10b) can be
//! made. Who watches which key is not replicated state: one `Watchers`
//! table per chain, consulted at the commit point.
//!
//! Entries come in two shapes matching what Ray keeps in the GCS: blobs
//! (task specs, checkpoints, actor method logs, one key per method) and
//! sets (object locations). The paper's third, the append-only event log,
//! is the runtime's in-process trace collector (`ray_common::trace`).
//!
//! # Layout
//!
//! An entry costs what it stores. A [`Key`] is a `Copy` value, its id held
//! inline ([`KEY_CAP`] bytes), so no update allocates for a key, and the
//! shard hashes it with one folded multiply per word (`KeyHasher`). The
//! entries live in an arena of cells, each holding a key and its `Slot`:
//! the entry and its place in the flush order. An index of 16-byte
//! buckets maps a key's hash to the first cell of its chain (`Entries`),
//! so a growing shard rehashes buckets, never entries, and a `Flush`
//! finds a table's oldest entries by scanning the arena: no other map
//! holds an entry. A set's members are inline too ([`MEMBER_CAP`] bytes
//! each), and a set of one member — almost every object's location set —
//! is held in the slot itself ([`MemberSet`]). `resident` charges an entry
//! its cell and bucket as well as its payload ([`ShardState`]).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use bytes::Bytes;
use ray_common::id::IdHasher;
use ray_common::{RayError, RayResult};

use crate::flush::DiskStore;

/// The control-state tables the GCS maintains (paper Fig. 5 lists the
/// object table, task table, function table, and event logs; the client and
/// actor tables appear in §4.2 and §4.3). The event logs are not here:
/// the lifecycle log is the in-process trace collector.
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
}

impl Table {
    /// The tables whose cold entries a flush may move to disk.
    ///
    /// Only lineage-like, append-mostly tables are flushable; object
    /// locations and membership must stay hot.
    pub const FLUSHABLE: [Table; 2] = [Table::Task, Table::Lineage];

    /// Whether this table is one of [`Table::FLUSHABLE`].
    pub fn flushable(self) -> bool {
        Table::FLUSHABLE.contains(&self)
    }

    /// Stable one-byte tag identifying this table in disk log records.
    ///
    /// Part of the on-disk format (see `flush.rs`): changing an existing
    /// mapping invalidates previously written logs. Tag 7 (the retired
    /// event table) is never reused.
    pub fn to_tag(self) -> u8 {
        match self {
            Table::Object => 0,
            Table::Task => 1,
            Table::Function => 2,
            Table::Client => 3,
            Table::Actor => 4,
            Table::Checkpoint => 5,
            Table::Lineage => 6,
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
            _ => return None,
        })
    }
}

/// The longest id a [`Key`] holds. Every id the client builds is at most
/// 24 bytes (a method-log key: 16-byte actor id + 8-byte sequence number);
/// 32 leaves room for the paper's 25-byte keys that the Fig. 10a benchmark
/// writes. A longer id is refused ([`Key::try_new`]), never truncated.
pub const KEY_CAP: usize = 32;

/// The longest set member: an object location is 12 bytes (node id +
/// size), the cancelled mark 13.
pub const MEMBER_CAP: usize = 16;

/// Up to `CAP` bytes stored in place, zero-padded: a key's id or a set
/// member. Compares as the byte string it holds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineBytes<const CAP: usize> {
    len: u8,
    bytes: [u8; CAP],
}

impl<const CAP: usize> InlineBytes<CAP> {
    /// Holds a fixed-width value; cannot fail, because the width is
    /// checked when the call compiles.
    pub const fn from_array<const N: usize>(value: [u8; N]) -> Self {
        const { assert!(N <= CAP && CAP <= u8::MAX as usize, "value wider than the inline cap") };
        let mut bytes = [0u8; CAP];
        bytes.split_at_mut(N).0.copy_from_slice(&value);
        InlineBytes { len: N as u8, bytes }
    }

    /// Holds `value`, or `None` if it is longer than `CAP`.
    pub fn from_slice(value: &[u8]) -> Option<Self> {
        let mut bytes = [0u8; CAP];
        bytes.get_mut(..value.len())?.copy_from_slice(value);
        Some(InlineBytes { len: u8::try_from(value.len()).ok()?, bytes })
    }

    /// The bytes held.
    pub fn as_slice(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl<const CAP: usize> PartialOrd for InlineBytes<CAP> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<const CAP: usize> Ord for InlineBytes<CAP> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<const CAP: usize> std::fmt::Debug for InlineBytes<CAP> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One member of a [`MemberSet`].
pub type Member = InlineBytes<MEMBER_CAP>;

/// A key within a shard: table plus ID bytes, held inline.
///
/// Ordered by table, then by ID bytes as a byte string (a prefix first):
/// the order of the disk index and of whole-shard replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Which table the entry lives in.
    pub table: Table,
    /// Raw ID bytes (object/task/actor/... ID).
    pub id: InlineBytes<KEY_CAP>,
}

impl Key {
    /// A key for a fixed-width ID; cannot fail (see
    /// [`InlineBytes::from_array`]).
    pub const fn fixed<const N: usize>(table: Table, id: [u8; N]) -> Key {
        Key { table, id: InlineBytes::from_array(id) }
    }

    /// A key for an ID of any length: `Invalid` past [`KEY_CAP`] bytes.
    pub fn try_new(table: Table, id: &[u8]) -> RayResult<Key> {
        let id = InlineBytes::from_slice(id).ok_or_else(|| {
            RayError::Invalid(format!(
                "a {table:?} key of {} bytes is over the {KEY_CAP}-byte cap",
                id.len()
            ))
        })?;
        Ok(Key { table, id })
    }

    /// A key for an ID the caller knows fits (tests, benchmarks).
    ///
    /// # Panics
    ///
    /// If `id` is longer than [`KEY_CAP`]; IDs from outside the process go
    /// through [`Key::try_new`].
    pub fn new(table: Table, id: impl AsRef<[u8]>) -> Key {
        Key::try_new(table, id.as_ref()).expect("invariant: the caller's id fits KEY_CAP")
    }
}

/// A key whose id is this long is a 16-byte `UniqueId` whose last two
/// bytes are its slot: zero for a task, an actor or a `put`, `index + 1`
/// for a task's return.
const SLOTTED_ID_LEN: usize = 16;

impl Hash for Key {
    /// A 16-byte id hashes as its first 14 bytes plus `slot / 16`, and not
    /// its table: a task's row and its first 15 return rows share one
    /// hash, so one index chain, and no chain holds more than 16 rows of
    /// one task. Every other key hashes its table, length and every word.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let word = |at: usize| {
            let bytes = self.id.bytes.get(at..at + 8).unwrap_or_default();
            u64::from_le_bytes(bytes.try_into().unwrap_or_default())
        };
        if usize::from(self.id.len) == SLOTTED_ID_LEN {
            let group = (word(8) >> 48) / 16;
            state.write_u64(word(0));
            state.write_u64(word(8) & 0xffff_ffff_ffff | group << 48);
            return;
        }
        state.write_u64(u64::from(self.table.to_tag()) << 8 | u64::from(self.id.len));
        for at in (0..KEY_CAP).step_by(8) {
            state.write_u64(word(at));
        }
    }
}

impl Key {
    /// The id with a 16-byte id's slot zeroed: what picks the key's shard
    /// (`GcsClient`), so a task's return rows live on its own shard.
    pub fn shard_bytes(&self) -> InlineBytes<KEY_CAP> {
        let mut id = self.id;
        if let (SLOTTED_ID_LEN, Some(slot)) =
            (usize::from(id.len), id.bytes.get_mut(SLOTTED_ID_LEN - 2..SLOTTED_ID_LEN))
        {
            slot.fill(0);
        }
        id
    }
}

/// The shard maps' hasher: one folded multiply (the 128-bit product's
/// halves xor-ed) per 8-byte word. The program makes every ID itself and
/// they are uniform already — a hash, or a counter through SplitMix64 — so
/// a keyed hash's defence against chosen keys buys nothing here, and
/// SipHash took a fifth of an apply's CPU time.
struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(0x243f_6a88_85a3_08d3)
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// A shard's entries: one cell each in an arena, found through an index
/// from the key's hash to the first cell of its chain. Keys whose 64-bit
/// hashes are equal chain through `Cell::next`. A write that makes an
/// entry appends its cell (or reuses a freed one) and adds a 16-byte
/// bucket to the index, so a growing shard rehashes buckets, never
/// entries.
#[derive(Clone)]
struct Entries {
    /// By the key's `KeyHasher` hash, which the index's hasher passes
    /// through.
    heads: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    /// Cells in allocation order; `None` is a freed cell, listed in `free`.
    cells: Vec<Option<Cell>>,
    free: Vec<u32>,
    /// The hash bits the index keeps: all of them, but four in the model
    /// test, so that every chain holds many keys.
    hash_bits: u64,
}

#[derive(Clone)]
struct Cell {
    key: Key,
    /// The next cell whose key has the same hash.
    next: Option<u32>,
    slot: Slot,
}

impl Default for Entries {
    fn default() -> Self {
        Entries { heads: HashMap::default(), cells: Vec::new(), free: Vec::new(), hash_bits: !0 }
    }
}

impl Entries {
    fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    fn hash(&self, key: &Key) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key) & self.hash_bits
    }

    /// The cell holding `key`, walking its chain from `first`.
    fn find(&self, mut at: Option<u32>, key: &Key) -> Option<u32> {
        loop {
            let cell = self.cells.get(at? as usize)?.as_ref()?;
            if cell.key == *key {
                return at;
            }
            at = cell.next;
        }
    }

    fn cell(&self, key: &Key) -> Option<&Cell> {
        let at = self.find(self.heads.get(&self.hash(key)).copied(), key)?;
        self.cells.get(at as usize)?.as_ref()
    }

    fn get(&self, key: &Key) -> Option<&Slot> {
        self.cell(key).map(|cell| &cell.slot)
    }

    fn get_mut(&mut self, key: &Key) -> Option<&mut Slot> {
        let at = self.find(self.heads.get(&self.hash(key)).copied(), key)?;
        Some(&mut self.cells.get_mut(at as usize)?.as_mut()?.slot)
    }

    /// `key`'s slot, made by `make` if it has none (`true` then). `None`
    /// only if the arena already holds `u32::MAX` cells.
    fn get_or_insert_with(
        &mut self,
        key: Key,
        make: impl FnOnce() -> Slot,
    ) -> Option<(&mut Slot, bool)> {
        let hash = self.hash(&key);
        let first = self.heads.get(&hash).copied();
        let (at, made) = match self.find(first, &key) {
            Some(at) => (at, false),
            None => {
                let at = match self.free.pop() {
                    Some(at) => at,
                    None => {
                        let at = u32::try_from(self.cells.len()).ok()?;
                        self.cells.push(None);
                        at
                    }
                };
                *self.cells.get_mut(at as usize)? =
                    Some(Cell { key, next: first, slot: make() });
                self.heads.insert(hash, at);
                (at, true)
            }
        };
        Some((&mut self.cells.get_mut(at as usize)?.as_mut()?.slot, made))
    }

    fn remove(&mut self, key: &Key) -> Option<Slot> {
        let hash = self.hash(key);
        let mut at = *self.heads.get(&hash)?;
        let mut before = None;
        loop {
            let cell = self.cells.get(at as usize)?.as_ref()?;
            if cell.key == *key {
                break;
            }
            before = Some(at);
            at = cell.next?;
        }
        let cell = self.cells.get_mut(at as usize)?.take()?;
        self.free.push(at);
        match (before, cell.next) {
            (Some(before), next) => {
                if let Some(Some(before)) = self.cells.get_mut(before as usize) {
                    before.next = next;
                }
            }
            (None, Some(next)) => {
                self.heads.insert(hash, next);
            }
            (None, None) => {
                self.heads.remove(&hash);
            }
        }
        Some(cell.slot)
    }

    /// The entries in arena order, each with its cell's place.
    fn iter(&self) -> impl Iterator<Item = (u32, &Key, &Slot)> {
        (0u32..).zip(&self.cells).filter_map(|(at, cell)| {
            let cell = cell.as_ref()?;
            Some((at, &cell.key, &cell.slot))
        })
    }

    /// The key in cell `at`.
    fn key_at(&self, at: u32) -> Option<Key> {
        Some(self.cells.get(at as usize)?.as_ref()?.key)
    }

    /// Every index chain's keys, head first.
    #[cfg(test)]
    fn chains(&self) -> Vec<Vec<Key>> {
        let walk = |mut at: Option<u32>| {
            std::iter::from_fn(move || {
                let cell = self.cells.get(at? as usize)?.as_ref()?;
                at = cell.next;
                Some(cell.key)
            })
        };
        self.heads.values().map(|&first| walk(Some(first)).collect()).collect()
    }
}

/// A set's members, sorted. Zero or one member is held in place; a second
/// moves them to the heap.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MemberSet(Members);

#[derive(Clone, Default, PartialEq, Eq)]
enum Members {
    #[default]
    Empty,
    One(Member),
    /// Two or more, sorted.
    Many(Vec<Member>),
}

impl MemberSet {
    /// An empty set.
    pub fn new() -> MemberSet {
        MemberSet::default()
    }

    /// Adds `member`; `false` if it was there already.
    pub fn insert(&mut self, member: Member) -> bool {
        match &mut self.0 {
            Members::Empty => self.0 = Members::One(member),
            &mut Members::One(first) => match first.cmp(&member) {
                CmpOrdering::Equal => return false,
                CmpOrdering::Less => self.0 = Members::Many(vec![first, member]),
                CmpOrdering::Greater => self.0 = Members::Many(vec![member, first]),
            },
            Members::Many(all) => match all.binary_search(&member) {
                Ok(_) => return false,
                Err(at) => all.insert(at, member),
            },
        }
        true
    }

    /// Removes `member`; `false` if it was not there.
    pub fn remove(&mut self, member: &Member) -> bool {
        match &mut self.0 {
            Members::Empty => return false,
            Members::One(only) if only == member => self.0 = Members::Empty,
            Members::One(_) => return false,
            Members::Many(all) => {
                let Ok(at) = all.binary_search(member) else { return false };
                all.remove(at);
                if let &[last] = all.as_slice() {
                    self.0 = Members::One(last);
                }
            }
        }
        true
    }

    /// The members, in order.
    pub fn as_slice(&self) -> &[Member] {
        match &self.0 {
            Members::Empty => &[],
            Members::One(only) => std::slice::from_ref(only),
            Members::Many(all) => all,
        }
    }

    /// Iterates the members in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Member> {
        self.as_slice().iter()
    }

    /// Whether `member` is in the set.
    pub fn contains(&self, member: &Member) -> bool {
        self.as_slice().binary_search(member).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Heap bytes the set holds (none for zero or one member).
    fn heap_bytes(&self) -> usize {
        match &self.0 {
            Members::Many(all) => all.capacity() * size_of::<Member>(),
            _ => 0,
        }
    }
}

impl std::fmt::Debug for MemberSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A stored entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// An opaque value (overwritten by `Put`).
    Blob(Bytes),
    /// A set of members (object locations).
    Set(MemberSet),
}

impl Entry {
    /// Bytes the entry holds beyond its slot: a blob's payload, a set's
    /// heap members.
    fn weight(&self) -> usize {
        match self {
            Entry::Blob(b) => b.len(),
            Entry::Set(s) => s.heap_bytes(),
        }
    }
}

/// An entry where the shard keeps it: the value, and its place in the
/// flush order (meaningful in a flushable table only).
#[derive(Clone)]
struct Slot {
    entry: Entry,
    order: u64,
}

/// What keeping an entry costs beyond its [`Entry::weight`]; charged when
/// the entry is made, refunded when it goes.
///
/// - Its cell in the arena. The arena grows by doubling, so it holds
///   between one and two cells per entry: 1/ln 2 = 1.44 on average over a
///   doubling.
/// - Its bucket in the index, a `(u64, u32)` and a control byte. A hash
///   table is between 7/16 and 7/8 full, which averages to 1.65 buckets
///   per entry over a doubling ((16/7 − 8/7) / ln 2).
const OVERHEAD: i64 = (size_of::<Option<Cell>>() * 13 / 9
    + (size_of::<(u64, u32)>() + 1) * 33 / 20) as i64;

/// Resident bytes of a whole shard's entries.
fn resident_of(entries: &Entries) -> i64 {
    entries.iter().map(|(_, _, slot)| OVERHEAD + slot.entry.weight() as i64).sum()
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

/// Most keys one [`crate::chain::Chain::subscribe`] may carry; a larger set
/// is split into several calls under one `sub_id`. A call holds the
/// chain's order lock, which every writer of the shard waits for, and the
/// tail's state lock, which every reader waits for; a key costs two map
/// lookups there, a watcher list the first time anyone watches it, and,
/// when the entry exists, a copy of it for the snapshot. At 256 keys,
/// every entry present, the registration under both locks takes
/// 0.28–0.33 ms in a debug build and the whole call, sends included,
/// 0.32–0.37 ms — a thirtieth of `chain::OP_TIMEOUT`, the yardstick for
/// "a stall a client would notice" — which
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
        member: Member,
    },
    /// Remove a member from a set entry.
    SetRemove {
        /// Target key.
        key: Key,
        /// Member to remove.
        member: Member,
    },
    /// Remove an entry entirely.
    Delete {
        /// Target key.
        key: Key,
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
            UpdateOp::Delete { key } => write!(f, "Delete({key:?})"),
            UpdateOp::Flush { table, keep_entries } => {
                write!(f, "Flush({table:?}, keep {keep_entries})")
            }
        }
    }
}

impl UpdateOp {
    /// The key a data op writes; `None` for a `Flush`, which moves
    /// entries without changing what a reader sees.
    pub(crate) fn key(&self) -> Option<&Key> {
        match self {
            UpdateOp::Put { key, .. }
            | UpdateOp::SetAdd { key, .. }
            | UpdateOp::SetRemove { key, .. }
            | UpdateOp::Delete { key } => Some(key),
            UpdateOp::Flush { .. } => None,
        }
    }
}

/// Snapshot used for chain state transfer.
#[derive(Clone)]
pub struct ShardSnapshot {
    entries: Entries,
    next_order: u64,
}

/// In-memory state of one shard replica.
pub struct ShardState {
    entries: Entries,
    /// The next write's place in the flush order (`Slot::order`).
    next_order: u64,
    /// Bytes resident in memory, shared with the chain for observability.
    resident: Arc<AtomicI64>,
    /// Disk tier shared by all replicas of the shard.
    disk: Arc<DiskStore>,
}

impl ShardState {
    /// Creates an empty shard state backed by the given disk tier.
    pub fn new(resident: Arc<AtomicI64>, disk: Arc<DiskStore>) -> Self {
        ShardState { entries: Entries::default(), next_order: 0, resident, disk }
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Reads an entry: memory first, then the disk tier (for flushed
    /// lineage — paper Fig. 10b keeps flushed entries readable).
    pub fn get(&self, key: &Key) -> Option<Entry> {
        match self.entries.get(key) {
            Some(slot) => Some(slot.entry.clone()),
            None => self.disk.read(key),
        }
    }

    fn charge(&self, delta: i64) {
        self.resident.fetch_add(delta, Ordering::Relaxed);
    }

    /// The slot a write to `key` lands in — made from `empty` if the key
    /// has none — moved to the newest place in its table's flush order.
    /// `None` if the key has no slot and the shard can hold no more.
    fn slot_for_write(&mut self, key: Key, empty: impl FnOnce() -> Entry) -> Option<&mut Slot> {
        let order = self.next_order;
        let (slot, made) =
            self.entries.get_or_insert_with(key, || Slot { entry: empty(), order })?;
        if made {
            self.resident.fetch_add(OVERHEAD + slot.entry.weight() as i64, Ordering::Relaxed);
        }
        if key.table.flushable() {
            slot.order = order;
            self.next_order += 1;
        }
        Some(slot)
    }

    /// Drops `key`'s entry, refunding it.
    fn remove_slot(&mut self, key: &Key) -> Option<Entry> {
        let slot = self.entries.remove(key)?;
        self.charge(-(OVERHEAD + slot.entry.weight() as i64));
        Some(slot.entry)
    }

    /// Applies one update, returning the number of entries flushed
    /// (non-zero only for `Flush`).
    pub fn apply(&mut self, op: &UpdateOp) -> u64 {
        match op {
            UpdateOp::Put { key, value } => {
                if let Some(slot) = self.slot_for_write(*key, || Entry::Blob(Bytes::new())) {
                    let old = std::mem::replace(&mut slot.entry, Entry::Blob(value.clone()));
                    self.charge(value.len() as i64 - old.weight() as i64);
                }
            }
            UpdateOp::SetAdd { key, member } => {
                // Type mismatch (blob under a set op) is ignored: ops are
                // generated by the typed client so this cannot happen in a
                // well-formed system; dropping keeps replicas deterministic.
                let grown = match self.slot_for_write(*key, || Entry::Set(MemberSet::new())) {
                    Some(Slot { entry: Entry::Set(s), .. }) => {
                        let before = s.heap_bytes();
                        s.insert(*member);
                        s.heap_bytes() - before
                    }
                    _ => 0,
                };
                self.charge(grown as i64);
            }
            UpdateOp::SetRemove { key, member } => {
                let mut emptied = false;
                if let Some(Slot { entry: Entry::Set(s), .. }) = self.entries.get_mut(key) {
                    let before = s.heap_bytes();
                    s.remove(member);
                    emptied = s.is_empty();
                    let freed = before - s.heap_bytes();
                    self.charge(-(freed as i64));
                }
                if emptied {
                    self.remove_slot(key);
                }
            }
            UpdateOp::Delete { key } => {
                self.remove_slot(key);
            }
            UpdateOp::Flush { table, keep_entries } => {
                return self.flush_table(*table, *keep_entries);
            }
        }
        0
    }

    /// Moves `table`'s oldest entries past the newest `keep_entries` to
    /// disk, oldest first: one scan of the arena picks them by
    /// `Slot::order`.
    fn flush_table(&mut self, table: Table, keep_entries: usize) -> u64 {
        if !table.flushable() {
            return 0;
        }
        let mut in_table: Vec<(u64, u32)> = self
            .entries
            .iter()
            .filter(|(_, key, _)| key.table == table)
            .map(|(at, _, slot)| (slot.order, at))
            .collect();
        let excess = in_table.len().saturating_sub(keep_entries);
        if excess == 0 {
            return 0;
        }
        if excess < in_table.len() {
            in_table.select_nth_unstable(excess);
            in_table.truncate(excess);
        }
        in_table.sort_unstable();
        let mut flushed = 0u64;
        for (_, at) in in_table {
            let Some(key) = self.entries.key_at(at) else { continue };
            if let Some(entry) = self.remove_slot(&key) {
                self.disk.write(&key, &entry);
                flushed += 1;
            }
        }
        flushed
    }

    /// Produces a snapshot for state transfer to a joining replica.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot { entries: self.entries.clone(), next_order: self.next_order }
    }

    /// Installs a snapshot received during state transfer.
    pub fn install(&mut self, snap: ShardSnapshot) {
        self.charge(resident_of(&snap.entries) - resident_of(&self.entries));
        self.entries = snap.entries;
        self.next_order = snap.next_order;
    }
}

/// Who watches which key of one shard. A subscription is soft state at
/// the commit point, not replicated data: the chain holds one table, under
/// its order lock, and no member holds any, so a member's crash loses no
/// subscription and the tail that replaces it notifies the same watchers.
#[derive(Default)]
pub(crate) struct Watchers {
    /// Key → its watchers, in registration order.
    subs: KeyMap<Vec<(u64, NotifySender)>>,
    /// Subscription → the keys it is registered under in `subs`: what
    /// `unsubscribe` has to visit.
    sub_keys: BTreeMap<u64, Vec<Key>>,
}

impl Watchers {
    /// Registers `sub_id` under each of `keys` and returns the entries that
    /// `tail`, the commit point's state, already holds for them. A key is
    /// registered once per `(key, sub_id)` however often it is asked for:
    /// a client retries a subscribe, and calls of one subscription (their
    /// key sets add up) may overlap. The caller holds `tail`'s lock across
    /// the registration, so no write commits between the existence check
    /// and the registration (paper Fig. 7b step 2 registers a callback only
    /// when the entry is absent; delivering the current state closes the
    /// subscribe-versus-creation race).
    pub(crate) fn subscribe(
        &mut self,
        keys: &[Key],
        sub_id: u64,
        sender: &NotifySender,
        tail: &ShardState,
    ) -> Vec<Notification> {
        let watched = self.sub_keys.entry(sub_id).or_default();
        for key in keys {
            let watchers = self.subs.entry(*key).or_default();
            if !watchers.iter().any(|(id, _)| *id == sub_id) {
                watchers.push((sub_id, sender.clone()));
                watched.push(*key);
            }
        }
        keys.iter()
            .filter_map(|key| Some((*key, tail.entries.get(key)?.entry.clone())))
            .map(|(key, entry)| Notification { key, entry: Some(entry) })
            .collect()
    }

    /// Removes `sub_id` from every key it watches.
    pub(crate) fn unsubscribe(&mut self, sub_id: u64) {
        for key in self.sub_keys.remove(&sub_id).unwrap_or_default() {
            if let Some(watchers) = self.subs.get_mut(&key) {
                watchers.retain(|(id, _)| *id != sub_id);
                if watchers.is_empty() {
                    self.subs.remove(&key);
                }
            }
        }
    }

    /// What a write of `key` just committed at `tail` owes its watchers:
    /// the entry as `tail` now holds it (`None` once deleted), to each.
    pub(crate) fn notifications_for(
        &self,
        key: &Key,
        tail: &ShardState,
    ) -> Vec<(NotifySender, Notification)> {
        let Some(watchers) = self.subs.get(key) else { return Vec::new() };
        let entry = tail.entries.get(key).map(|slot| slot.entry.clone());
        watchers
            .iter()
            .map(|(_, tx)| (tx.clone(), Notification { key: *key, entry: entry.clone() }))
            .collect()
    }

    /// Keys with at least one watcher.
    #[cfg(test)]
    pub(crate) fn watched_keys(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    fn state() -> ShardState {
        ShardState::new(Arc::new(AtomicI64::new(0)), Arc::new(DiskStore::in_memory()))
    }

    fn key(id: u8) -> Key {
        Key::fixed(Table::Object, [id])
    }

    fn member<const N: usize>(bytes: [u8; N]) -> Member {
        Member::from_array(bytes)
    }

    #[test]
    fn put_get_overwrite() {
        let mut s = state();
        let k = Key::new(Table::Task, vec![1]);
        s.apply(&UpdateOp::Put { key: k, value: Bytes::from_static(b"v1") });
        assert_eq!(s.get(&k), Some(Entry::Blob(Bytes::from_static(b"v1"))));
        s.apply(&UpdateOp::Put { key: k, value: Bytes::from_static(b"v2") });
        assert_eq!(s.get(&k), Some(Entry::Blob(Bytes::from_static(b"v2"))));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_add_remove_lifecycle() {
        let mut s = state();
        let k = key(1);
        s.apply(&UpdateOp::SetAdd { key: k, member: member([10]) });
        s.apply(&UpdateOp::SetAdd { key: k, member: member([20]) });
        s.apply(&UpdateOp::SetAdd { key: k, member: member([10]) }); // Duplicate.
        match s.get(&k) {
            Some(Entry::Set(m)) => assert_eq!(m.len(), 2),
            other => panic!("expected set, got {other:?}"),
        }
        s.apply(&UpdateOp::SetRemove { key: k, member: member([10]) });
        s.apply(&UpdateOp::SetRemove { key: k, member: member([20]) });
        // Empty sets are removed entirely.
        assert_eq!(s.get(&k), None);
        assert!(s.is_empty());
    }

    #[test]
    fn keys_order_by_table_then_id_bytes_and_refuse_long_ids() {
        // The order a `Vec<u8>` id had: a prefix sorts first, padding is
        // not a byte of the id.
        let sorted = [
            Key::new(Table::Object, [9, 9]),
            Key::new(Table::Task, []),
            Key::new(Table::Task, [1]),
            Key::new(Table::Task, [1, 0]),
            Key::new(Table::Task, [2]),
        ];
        assert!(sorted.windows(2).all(|w| w[0] < w[1] && w[0] != w[1]), "{sorted:?}");
        assert_eq!(Key::new(Table::Task, [1, 0]).id.as_slice(), [1, 0]);
        assert_eq!(Key::fixed(Table::Task, [7; KEY_CAP]), Key::new(Table::Task, [7; KEY_CAP]));
        let long = Key::try_new(Table::Task, &[b'x'; KEY_CAP + 1]);
        assert!(matches!(long, Err(RayError::Invalid(_))), "{long:?}");
        assert_eq!(Member::from_slice(&[0; MEMBER_CAP + 1]), None);
    }

    #[test]
    fn a_set_of_one_member_holds_no_heap() {
        let mut set = MemberSet::new();
        assert!(set.insert(member([5; 12])));
        assert_eq!(set.heap_bytes(), 0, "one member lives in the slot");
        assert!(set.insert(member([1])));
        assert!(set.insert(member([9, 9])));
        assert!(!set.insert(member([1])));
        assert_eq!(set.as_slice(), [member([1]), member([5; 12]), member([9, 9])]);
        assert!(set.heap_bytes() > 0 && set.contains(&member([9, 9])));
        assert!(set.remove(&member([1])) && set.remove(&member([5; 12])));
        assert!(!set.remove(&member([1])));
        assert_eq!((set.as_slice(), set.heap_bytes()), ([member([9, 9])].as_slice(), 0));
        // Equal sets compare equal however they were built.
        let mut one = MemberSet::new();
        one.insert(member([9, 9]));
        assert_eq!(set, one);
        assert!(set.remove(&member([9, 9])) && set.is_empty());
    }

    /// Subscribes as the chain does, delivering the entries that exist at
    /// once; reports how many it delivered.
    fn subscribe(
        w: &mut Watchers,
        s: &ShardState,
        keys: &[Key],
        sub_id: u64,
        tx: &NotifySender,
    ) -> usize {
        let current = w.subscribe(keys, sub_id, tx, s);
        let n = current.len();
        for notification in current {
            tx.send(notification).unwrap();
        }
        n
    }

    /// What a receiver holds right now, by key.
    fn drain_keys(rx: &Receiver<Notification>) -> Vec<Key> {
        rx.try_iter().map(|n| n.key).collect()
    }

    /// Delivers what a commit owes its watchers (the chain's job) and
    /// reports how many.
    fn deliver(notifs: Vec<(NotifySender, Notification)>) -> usize {
        let n = notifs.len();
        for (tx, notification) in notifs {
            tx.send(notification).unwrap();
        }
        n
    }

    /// Applies `op` as the commit point and delivers its notifications.
    fn commit(w: &Watchers, s: &mut ShardState, op: UpdateOp) -> usize {
        s.apply(&op);
        deliver(op.key().map(|key| w.notifications_for(key, s)).unwrap_or_default())
    }

    #[test]
    fn subscribe_notifies_on_update_and_on_existing_entry() {
        let (mut s, mut w) = (state(), Watchers::default());
        let k = key(1);
        let (tx, rx) = channel();
        // Subscribe before creation: no immediate notification.
        assert_eq!(subscribe(&mut w, &s, std::slice::from_ref(&k), 1, &tx), 0);
        // Update fires a notification.
        assert_eq!(commit(&w, &mut s, UpdateOp::SetAdd { key: k, member: member([9]) }), 1);
        let n = rx.try_recv().unwrap();
        assert_eq!(n.key, k);
        assert!(matches!(n.entry, Some(Entry::Set(_))));
        // Subscribing after creation delivers current state immediately.
        let (tx2, rx2) = channel();
        assert_eq!(subscribe(&mut w, &s, std::slice::from_ref(&k), 2, &tx2), 1);
        assert!(rx2.try_recv().is_ok());
    }

    #[test]
    fn key_set_subscribe_covers_existing_and_future_keys() {
        let (mut s, mut w) = (state(), Watchers::default());
        let keys: Vec<Key> = (0..6u8).map(key).collect();
        for &k in &keys[..3] {
            s.apply(&UpdateOp::SetAdd { key: k, member: member([1]) });
        }
        let (tx, rx) = channel();
        // The three entries that exist are delivered by the subscribe itself,
        // in key order of the call.
        assert_eq!(subscribe(&mut w, &s, &keys, 1, &tx), 3);
        assert_eq!(drain_keys(&rx), keys[..3]);
        // The other three fire as they are created.
        for &k in &keys[3..] {
            assert_eq!(commit(&w, &mut s, UpdateOp::SetAdd { key: k, member: member([1]) }), 1);
            assert_eq!(rx.try_recv().unwrap().key, k);
        }
        // A key outside the set stays silent.
        assert_eq!(commit(&w, &mut s, UpdateOp::SetAdd { key: key(9), member: member([1]) }), 0);
    }

    #[test]
    fn replayed_subscribe_registers_once() {
        let (mut s, mut w) = (state(), Watchers::default());
        let keys: Vec<Key> = (0..4u8).map(key).collect();
        let (tx, _rx) = channel();
        // A client retries a subscribe; a second call of the same
        // subscription overlaps the first.
        subscribe(&mut w, &s, &keys, 1, &tx);
        subscribe(&mut w, &s, &keys, 1, &tx);
        subscribe(&mut w, &s, &keys[2..], 1, &tx);
        for &k in &keys {
            s.apply(&UpdateOp::SetAdd { key: k, member: member([1]) });
            assert_eq!(w.notifications_for(&k, &s).len(), 1, "{k:?} notifies once per write");
        }
        assert_eq!(w.sub_keys.get(&1).map(Vec::len), Some(keys.len()));
    }

    #[test]
    fn unsubscribe_silences_the_whole_subscription_and_no_other() {
        let (mut s, mut w) = (state(), Watchers::default());
        let keys: Vec<Key> = (0..4u8).map(key).collect();
        let (tx, _rx) = channel();
        let (other_tx, other_rx) = channel();
        // Subscription 7 is built from two calls; 8 shares one of its keys.
        subscribe(&mut w, &s, &keys[..2], 7, &tx);
        subscribe(&mut w, &s, &keys[2..], 7, &tx);
        subscribe(&mut w, &s, &keys[1..2], 8, &other_tx);
        w.unsubscribe(7);
        for &k in &keys {
            commit(&w, &mut s, UpdateOp::SetAdd { key: k, member: member([1]) });
        }
        assert_eq!(drain_keys(&other_rx), keys[1..2], "only subscription 8 is still registered");
        // Nothing of 7 is left behind; unsubscribing again is a no-op.
        assert!(!w.sub_keys.contains_key(&7));
        assert_eq!(w.subs.len(), 1);
        w.unsubscribe(7);
        w.unsubscribe(8);
        assert!(w.subs.is_empty() && w.sub_keys.is_empty());
    }

    #[test]
    fn subscribe_apply_at_the_cap_is_far_under_the_op_timeout() {
        // The costly shape: every entry exists, so every key also clones its
        // entry into the snapshot. Best of five keeps a descheduled test
        // thread from deciding the result.
        let (mut s, mut w) = (state(), Watchers::default());
        let keys: Vec<Key> = (0..MAX_SUBSCRIBE_KEYS as u64)
            .map(|i| Key::fixed(Table::Object, i.to_le_bytes()))
            .collect();
        for &k in &keys {
            s.apply(&UpdateOp::SetAdd { key: k, member: member([0; 12]) });
        }
        let (tx, _rx) = channel();
        let best = (0..5u64)
            .map(|sub_id| {
                let start = std::time::Instant::now();
                let current = w.subscribe(&keys, sub_id, &tx, &s);
                let took = start.elapsed();
                assert_eq!(current.len(), keys.len());
                took
            })
            .min()
            .unwrap();
        assert!(
            best * 8 < crate::chain::OP_TIMEOUT,
            "a {MAX_SUBSCRIBE_KEYS}-key subscribe took {best:?}"
        );
    }

    #[test]
    fn delete_notifies_with_none() {
        let (mut s, mut w) = (state(), Watchers::default());
        let k = key(3);
        s.apply(&UpdateOp::SetAdd { key: k, member: member([1]) });
        let (tx, _rx) = channel();
        subscribe(&mut w, &s, std::slice::from_ref(&k), 1, &tx);
        s.apply(&UpdateOp::Delete { key: k });
        let notifs = w.notifications_for(&k, &s);
        assert_eq!(notifs.len(), 1);
        assert!(notifs[0].1.entry.is_none());
    }

    #[test]
    fn resident_accounting_returns_to_zero() {
        let resident = Arc::new(AtomicI64::new(0));
        let mut s = ShardState::new(resident.clone(), Arc::new(DiskStore::in_memory()));
        let k = Key::new(Table::Task, vec![1, 2, 3]);
        s.apply(&UpdateOp::Put { key: k, value: Bytes::from(vec![0u8; 100]) });
        assert_eq!(resident.load(Ordering::Relaxed), OVERHEAD + 100);
        s.apply(&UpdateOp::Delete { key: k });
        assert_eq!(resident.load(Ordering::Relaxed), 0);
        // An entry a `SetAdd` creates pays for its slot like one a `Put`
        // creates, because removing it refunds the slot.
        let set = key(7);
        s.apply(&UpdateOp::SetAdd { key: set, member: member([1, 2]) });
        assert_eq!(resident.load(Ordering::Relaxed), OVERHEAD);
        s.apply(&UpdateOp::SetAdd { key: set, member: member([3]) });
        let two = OVERHEAD + 2 * size_of::<Member>() as i64;
        assert_eq!(resident.load(Ordering::Relaxed), two, "a second member moves both to the heap");
        s.apply(&UpdateOp::SetRemove { key: set, member: member([3]) });
        s.apply(&UpdateOp::SetRemove { key: set, member: member([1, 2]) });
        assert_eq!(resident.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn flush_moves_oldest_task_entries_to_disk_and_keeps_them_readable() {
        let resident = Arc::new(AtomicI64::new(0));
        let mut s = ShardState::new(resident.clone(), Arc::new(DiskStore::in_memory()));
        let keys: Vec<Key> = (0..10u8).map(|i| Key::new(Table::Task, vec![i])).collect();
        for &k in &keys {
            s.apply(&UpdateOp::Put { key: k, value: Bytes::from(vec![0u8; 50]) });
        }
        let before = resident.load(Ordering::Relaxed);
        let flushed = s.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 3 });
        assert_eq!(flushed, 7);
        assert_eq!(s.len(), 3);
        assert!(resident.load(Ordering::Relaxed) < before);
        // Flushed entries stay readable through the disk tier.
        for k in &keys {
            assert!(s.get(k).is_some(), "entry {k:?} lost by flush");
        }
        // The *newest* entries remain in memory.
        assert!(s.entries.get(&keys[9]).is_some());
        assert!(s.entries.get(&keys[0]).is_none());
    }

    #[test]
    fn flush_ignores_non_flushable_tables() {
        let mut s = state();
        for i in 0..5u8 {
            s.apply(&UpdateOp::SetAdd { key: key(i), member: member([1]) });
        }
        let flushed = s.apply(&UpdateOp::Flush { table: Table::Object, keep_entries: 0 });
        assert_eq!(flushed, 0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn snapshot_install_round_trips() {
        let mut a = state();
        let k1 = Key::new(Table::Task, vec![1]);
        let k2 = key(2);
        a.apply(&UpdateOp::Put { key: k1, value: Bytes::from_static(b"spec") });
        a.apply(&UpdateOp::SetAdd { key: k2, member: member([5]) });
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
        ];
        for t in all {
            assert_eq!(Table::from_tag(t.to_tag()), Some(t));
        }
        assert_eq!(Table::from_tag(7), None, "the retired event table's tag");
        assert_eq!(Table::from_tag(200), None);
    }

    fn task_and_returns(returns: u64) -> (Key, Vec<Key>) {
        use ray_common::{ObjectId, TaskId};
        let task = TaskId::random();
        let rows = (0..returns)
            .map(|i| Key::fixed(Table::Object, ObjectId::for_task_return(task, i).0.as_bytes()))
            .collect();
        (Key::fixed(Table::Task, task.0.as_bytes()), rows)
    }

    fn write_rows(s: &mut ShardState, task: Key, returns: &[Key]) {
        s.apply(&UpdateOp::Put { key: task, value: Bytes::from_static(b"spec") });
        for &key in returns {
            s.apply(&UpdateOp::SetAdd { key, member: member([1]) });
        }
    }

    #[test]
    fn a_tasks_return_rows_share_its_index_chain() {
        let mut s = state();
        let (task, returns) = task_and_returns(3);
        let (other, other_returns) = task_and_returns(3);
        write_rows(&mut s, task, &returns);
        write_rows(&mut s, other, &other_returns);
        let chains = s.entries.chains();
        let chain = chains.iter().find(|c| c.contains(&task)).expect("the task's chain");
        // Newest first: the last return written heads it, the task ends it.
        let want: Vec<Key> = returns.iter().rev().copied().chain([task]).collect();
        assert_eq!(chain, &want);
        for key in [task].iter().chain(&returns) {
            assert!(s.get(key).is_some());
        }
        assert_eq!(chains.len(), 2, "one chain per task");
    }

    #[test]
    fn no_chain_holds_more_than_sixteen_rows_of_one_task() {
        let mut s = state();
        let (task, returns) = task_and_returns(100);
        write_rows(&mut s, task, &returns);
        let chains = s.entries.chains();
        assert_eq!(chains.iter().map(Vec::len).sum::<usize>(), 101);
        assert_eq!(chains.iter().map(Vec::len).max(), Some(16));
        assert!(returns.iter().chain([&task]).all(|key| s.entries.get(key).is_some()));
    }

    #[test]
    fn rewrite_updates_flush_order() {
        let mut s = state();
        let k0 = Key::new(Table::Task, vec![0]);
        let k1 = Key::new(Table::Task, vec![1]);
        s.apply(&UpdateOp::Put { key: k0, value: Bytes::from_static(b"a") });
        s.apply(&UpdateOp::Put { key: k1, value: Bytes::from_static(b"b") });
        // Rewriting k0 makes it the newest; flushing to 1 should evict k1.
        s.apply(&UpdateOp::Put { key: k0, value: Bytes::from_static(b"a2") });
        s.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 1 });
        assert!(s.entries.get(&k0).is_some());
        assert!(s.entries.get(&k1).is_none());
        // A second flush moves k0 as well, and nothing else remains.
        let flushed = s.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 0 });
        assert_eq!((flushed, s.len()), (1, 0));
    }

    /// A shard whose index keeps four bits of each key's hash, so that
    /// every chain holds many keys.
    fn colliding_state(resident: &Arc<AtomicI64>) -> ShardState {
        let mut s = ShardState::new(resident.clone(), Arc::new(DiskStore::in_memory()));
        s.entries.hash_bits = 0xf;
        s
    }

    #[test]
    fn entries_match_a_map_model_when_every_chain_holds_many_keys() {
        // 200 keys in 16 chains: cells are made, found and unlinked at the
        // head, inside and at the end of a chain, and freed cells reused.
        let resident = Arc::new(AtomicI64::new(0));
        let mut s = colliding_state(&resident);
        let mut model: HashMap<Key, Entry> = HashMap::new();
        let keys: Vec<Key> = (0..200u16)
            .map(|i| Key::fixed(if i % 2 == 0 { Table::Task } else { Table::Object }, i.to_le_bytes()))
            .collect();
        let mut rng = ray_common::util::DetRng::new(34);
        for step in 0..20_000u64 {
            let key = keys[rng.next_below(keys.len() as u64) as usize];
            let m = member([rng.next_below(3) as u8]);
            match rng.next_below(5) {
                0 => {
                    let value = Bytes::from(step.to_le_bytes().to_vec());
                    s.apply(&UpdateOp::Put { key, value: value.clone() });
                    model.insert(key, Entry::Blob(value));
                }
                1 => {
                    s.apply(&UpdateOp::SetAdd { key, member: m });
                    // A set op on a blob is ignored, as in the shard.
                    if let Entry::Set(set) =
                        model.entry(key).or_insert_with(|| Entry::Set(MemberSet::new()))
                    {
                        set.insert(m);
                    }
                }
                2 => {
                    s.apply(&UpdateOp::SetRemove { key, member: m });
                    if let Some(Entry::Set(set)) = model.get_mut(&key) {
                        set.remove(&m);
                        if set.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                3 => {
                    s.apply(&UpdateOp::Delete { key });
                    model.remove(&key);
                }
                _ => assert_eq!(s.get(&key), model.get(&key).cloned(), "step {step}: {key:?}"),
            }
            assert_eq!(s.len(), model.len(), "step {step}");
        }
        assert_eq!(resident.load(Ordering::Relaxed), resident_of(&s.entries));
        let mut copy = colliding_state(&Arc::new(AtomicI64::new(0)));
        copy.install(s.snapshot());
        assert_eq!(copy.len(), model.len());
        for key in &keys {
            assert_eq!(copy.get(key), model.get(key).cloned(), "{key:?} after install");
        }
    }
}
