//! Strongly-typed identifiers.
//!
//! Ray names every object, task, actor, and function with an opaque unique
//! ID; the GCS shards its tables by these IDs (paper §4.2.4: "GCS tables are
//! sharded by object and task IDs to scale"). We reproduce that scheme with
//! 16-byte IDs wrapped in distinct newtypes so the type system prevents, say,
//! passing a `TaskId` where an `ObjectId` is expected.
//!
//! Derived IDs are deterministic: the i-th return value of task `T` has
//! `ObjectId::for_task_return(T, i)`, so any node can compute an object's ID
//! from lineage alone — the property that makes lineage-based reconstruction
//! (paper §4.2.3) possible without coordination.
//!
//! # The slot
//!
//! The last two bytes of an ID are its *slot*. Every constructor leaves it
//! zero except [`ObjectId::for_task_return`], which copies the task's ID and
//! writes `index + 1` there: a return object names its producer, and
//! [`ObjectId::producer`] reads it back by zeroing the slot again — no
//! object → task table, no GCS read (the original system's
//! `ComputeReturnId`/`ComputeTaskId` pair). `producer()` is therefore
//! `Some(task)` for a task return and `None` for a `put` object, a random
//! ID, a task ID reinterpreted as an object, and `NIL`. Sixteen bits bound a
//! task at [`MAX_TASK_RETURNS`] returns and leave 112 hashed bits; a `put`
//! counter is unbounded, which is why `put` IDs stay hashes and carry no
//! producer. [`UniqueId::digest`] reads the first eight bytes only, so an
//! object and its producer share a digest (and the short hex `Debug` prints).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::util::fnv1a_128;

/// Number of bytes in a raw unique ID.
pub const ID_LEN: usize = 16;

/// The most return objects one task may declare: `index + 1` must fit the
/// 16-bit slot.
pub const MAX_TASK_RETURNS: u64 = u16::MAX as u64;

/// An opaque 16-byte identifier, the common representation behind every
/// typed ID in the system.
///
/// # Examples
///
/// ```
/// use ray_common::id::UniqueId;
/// let a = UniqueId::random();
/// let b = UniqueId::random();
/// assert_ne!(a, b);
/// assert_eq!(a, UniqueId::from_bytes(a.as_bytes()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UniqueId([u8; ID_LEN]);

/// Process-wide counter mixed into freshly generated IDs.
static ID_COUNTER: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

impl UniqueId {
    /// The all-zero ID, used as a sentinel (e.g. "no parent task").
    pub const NIL: UniqueId = UniqueId([0u8; ID_LEN]);

    /// Generates a fresh, unique ID.
    ///
    /// Uniqueness comes from a process-wide atomic counter mixed through a
    /// SplitMix64 finalizer; this is cheap enough for the hot task-submission
    /// path (the paper targets millions of tasks per second).
    pub fn random() -> Self {
        let c = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
        let lo = splitmix64(c);
        let hi = splitmix64(c ^ 0xdead_beef_cafe_f00d);
        let mut bytes = [0u8; ID_LEN];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes());
        UniqueId(bytes).with_slot(0)
    }

    /// Builds an ID from raw bytes.
    pub const fn from_bytes(bytes: [u8; ID_LEN]) -> Self {
        UniqueId(bytes)
    }

    /// Returns the raw bytes of the ID.
    pub const fn as_bytes(&self) -> [u8; ID_LEN] {
        self.0
    }

    /// Deterministically derives a new ID by hashing this ID with a domain
    /// tag and an index. The result's slot is zero.
    pub fn derive(&self, domain: &str, index: u64) -> Self {
        let mut buf = Vec::with_capacity(ID_LEN + domain.len() + 8);
        buf.extend_from_slice(&self.0);
        buf.extend_from_slice(domain.as_bytes());
        buf.extend_from_slice(&index.to_le_bytes());
        UniqueId(fnv1a_128(&buf)).with_slot(0)
    }

    fn slot(&self) -> u16 {
        u16::from_le_bytes([self.0[ID_LEN - 2], self.0[ID_LEN - 1]])
    }

    fn with_slot(mut self, slot: u16) -> Self {
        self.0[ID_LEN - 2..].copy_from_slice(&slot.to_le_bytes());
        self
    }

    /// Returns `true` for the all-zero sentinel ID.
    pub fn is_nil(&self) -> bool {
        self.0 == [0u8; ID_LEN]
    }

    /// A stable 64-bit digest of the ID, used for sharding and hashing.
    pub fn digest(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("ID_LEN >= 8"))
    }
}

impl fmt::Debug for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short hex form: first six bytes are enough to tell IDs apart in logs.
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer; spreads a counter into a well-distributed word.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

macro_rules! typed_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub UniqueId);

        impl $name {
            /// The all-zero sentinel value.
            pub const NIL: $name = $name(UniqueId::NIL);

            /// Generates a fresh, unique ID of this type.
            pub fn random() -> Self {
                $name(UniqueId::random())
            }

            /// Builds an ID of this type from raw bytes.
            pub const fn from_bytes(bytes: [u8; ID_LEN]) -> Self {
                $name(UniqueId::from_bytes(bytes))
            }

            /// Returns `true` for the all-zero sentinel.
            pub fn is_nil(&self) -> bool {
                self.0.is_nil()
            }

            /// A stable 64-bit digest, used for sharding.
            pub fn digest(&self) -> u64 {
                self.0.digest()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?}", self)
            }
        }
    };
}

typed_id!(
    /// Identifies an immutable data object in the distributed object store.
    ObjectId
);
typed_id!(
    /// Identifies a task (a remote function invocation or actor method call).
    TaskId
);
typed_id!(
    /// Identifies an actor (a stateful worker process).
    ActorId
);
typed_id!(
    /// Identifies a worker process on some node.
    WorkerId
);

impl ObjectId {
    /// The ID of the `index`-th return value of task `task`: the task's own
    /// bytes with `index + 1` in the slot.
    ///
    /// Deterministic so that lineage reconstruction can recompute which
    /// objects a re-executed task will produce, and invertible
    /// ([`Self::producer`]) so that it can find the task from the object.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_TASK_RETURNS`: a wrapped slot would alias
    /// another return (or claim to be no return at all). Submission rejects
    /// such a task before any ID is computed.
    pub fn for_task_return(task: TaskId, index: u64) -> Self {
        assert!(index < MAX_TASK_RETURNS, "return index {index} does not fit the ID slot");
        ObjectId(task.0.with_slot(index as u16 + 1))
    }

    /// The ID of an object created by `put` from a driver/worker.
    pub fn for_put(task: TaskId, put_index: u64) -> Self {
        ObjectId(task.0.derive("put", put_index))
    }

    /// The task that creates this object: `Some` exactly for IDs made by
    /// [`Self::for_task_return`], `None` for `put` objects (no lineage).
    pub fn producer(&self) -> Option<TaskId> {
        match self.0.slot() {
            0 => None,
            _ => Some(TaskId(self.0.with_slot(0))),
        }
    }
}

impl TaskId {
    /// The ID of the `index`-th task submitted by parent task `parent`.
    ///
    /// Like object IDs, task IDs are derived deterministically from the
    /// submitting task so that replayed drivers/actors regenerate the same
    /// graph.
    pub fn for_child(parent: TaskId, index: u64) -> Self {
        TaskId(parent.0.derive("child", index))
    }
}

/// Identifies a node (machine) in the cluster.
///
/// Nodes are dense small integers because the simulated cluster addresses
/// them as array indices; this mirrors Ray's client table entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as `usize` for table addressing.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifies a registered remote function or actor method.
///
/// Function IDs are stable hashes of the function's registered name, so every
/// node resolves the same ID to the same function (paper Fig. 7: the function
/// table maps IDs to definitions on every worker).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u64);

impl FunctionId {
    /// Derives the function ID for a registered name.
    ///
    /// # Examples
    ///
    /// ```
    /// use ray_common::id::FunctionId;
    /// assert_eq!(FunctionId::for_name("add"), FunctionId::for_name("add"));
    /// assert_ne!(FunctionId::for_name("add"), FunctionId::for_name("sub"));
    /// ```
    pub fn for_name(name: &str) -> Self {
        FunctionId(crate::util::fnv1a_64(name.as_bytes()))
    }
}

impl fmt::Debug for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{:08x}", self.0 as u32)
    }
}

/// Identifies a GCS shard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard responsible for a 64-bit key digest given `num_shards`.
    pub fn for_digest(digest: u64, num_shards: usize) -> Self {
        debug_assert!(num_shards > 0, "GCS must have at least one shard");
        ShardId((digest % num_shards as u64) as u32)
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn random_ids_are_unique() {
        let ids: HashSet<UniqueId> = (0..10_000).map(|_| UniqueId::random()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn nil_is_nil() {
        assert!(UniqueId::NIL.is_nil());
        assert!(!UniqueId::random().is_nil());
        assert!(TaskId::NIL.is_nil());
    }

    #[test]
    fn derive_is_deterministic() {
        let id = UniqueId::random();
        assert_eq!(id.derive("x", 1), id.derive("x", 1));
        assert_ne!(id.derive("x", 1), id.derive("x", 2));
        assert_ne!(id.derive("x", 1), id.derive("y", 1));
    }

    #[test]
    fn task_return_object_ids_are_deterministic_and_distinct() {
        let t = TaskId::random();
        assert_eq!(ObjectId::for_task_return(t, 0), ObjectId::for_task_return(t, 0));
        assert_ne!(ObjectId::for_task_return(t, 0), ObjectId::for_task_return(t, 1));
        let u = TaskId::random();
        assert_ne!(ObjectId::for_task_return(t, 0), ObjectId::for_task_return(u, 0));
    }

    #[test]
    fn put_and_return_namespaces_do_not_collide() {
        let t = TaskId::random();
        assert_ne!(ObjectId::for_put(t, 0), ObjectId::for_task_return(t, 0));
    }

    #[test]
    fn only_task_returns_name_a_producer() {
        let mut rng = crate::util::DetRng::new(0x5107);
        // The ends of the slot's range, its byte boundary, and a seeded
        // spread in between.
        let mut indices = vec![0, 1, 254, 255, 256, 257, MAX_TASK_RETURNS - 2, MAX_TASK_RETURNS - 1];
        indices.extend((0..56).map(|_| rng.next_below(MAX_TASK_RETURNS)));
        for _ in 0..64 {
            let mut bytes = [0u8; ID_LEN];
            bytes[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            bytes[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            // A task as the runtime makes one: some parent's child.
            let t = TaskId::for_child(TaskId::from_bytes(bytes), rng.next_u64());
            let returns: HashSet<ObjectId> =
                indices.iter().map(|&i| ObjectId::for_task_return(t, i)).collect();
            let distinct: HashSet<u64> = indices.iter().copied().collect();
            assert_eq!(returns.len(), distinct.len(), "returns of one task collide");
            for r in &returns {
                assert_eq!(r.producer(), Some(t));
            }
            for n in [0, 1, u64::MAX] {
                let put = ObjectId::for_put(t, n);
                assert_eq!(put.producer(), None);
                assert!(!returns.contains(&put), "put {n} collides with a return");
            }
            assert_eq!(ObjectId(t.0).producer(), None, "a task id is nobody's return");
        }
        assert_eq!(ObjectId::random().producer(), None);
        assert_eq!(ObjectId::NIL.producer(), None);
    }

    #[test]
    #[should_panic(expected = "does not fit the ID slot")]
    fn return_index_past_the_slot_is_refused_not_wrapped() {
        ObjectId::for_task_return(TaskId::random(), MAX_TASK_RETURNS);
    }

    #[test]
    fn child_task_ids_replay_identically() {
        let parent = TaskId::random();
        let first: Vec<TaskId> = (0..100).map(|i| TaskId::for_child(parent, i)).collect();
        let second: Vec<TaskId> = (0..100).map(|i| TaskId::for_child(parent, i)).collect();
        assert_eq!(first, second);
        let unique: HashSet<_> = first.iter().collect();
        assert_eq!(unique.len(), 100);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in 1..16 {
            for _ in 0..100 {
                let id = ObjectId::random();
                let s = ShardId::for_digest(id.digest(), shards);
                assert!(s.0 < shards as u32);
                assert_eq!(s, ShardId::for_digest(id.digest(), shards));
            }
        }
    }

    #[test]
    fn display_round_trips_hex() {
        let id = UniqueId::random();
        let hex = id.to_string();
        assert_eq!(hex.len(), ID_LEN * 2);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
