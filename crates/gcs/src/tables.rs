//! Typed client façade over the sharded GCS.
//!
//! Components never touch shards directly; they use a [`GcsClient`] whose
//! methods mirror the tables in paper Fig. 5: the object table (locations +
//! sizes), the task table (lineage), the client table (node membership),
//! the actor and checkpoint tables, the function table, and the event log.
//! Keys are routed to shards by ID digest, exactly like "GCS tables are
//! sharded by object and task IDs" (§4.2.4).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver};
use serde::{Deserialize, Serialize};

use ray_common::metrics::{names, MetricsRegistry};
use ray_common::util::{fnv1a_64, retry, Backoff};
use ray_common::{ActorId, FunctionId, NodeId, ObjectId, RayError, RayResult, TaskId};

use crate::chain::Chain;
use crate::kv::{Entry, Key, Notification, Table, UpdateOp, MAX_SUBSCRIBE_KEYS};

/// A recorded object replica: which node holds it and how large it is.
///
/// The size rides along with every location ("the location of the task's
/// inputs and their sizes from GCS", §4.2.2) so the global scheduler can
/// estimate transfer times without another lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectLocation {
    /// Node holding a copy of the object.
    pub node: NodeId,
    /// Object size in bytes.
    pub size: u64,
}

impl ObjectLocation {
    fn to_member(self) -> Vec<u8> {
        let mut m = Vec::with_capacity(12);
        m.extend_from_slice(&self.node.0.to_le_bytes());
        m.extend_from_slice(&self.size.to_le_bytes());
        m
    }

    fn from_member(m: &[u8]) -> Option<ObjectLocation> {
        if m.len() != 12 {
            return None;
        }
        Some(ObjectLocation {
            node: NodeId(u32::from_le_bytes(m[..4].try_into().ok()?)),
            size: u64::from_le_bytes(m[4..].try_into().ok()?),
        })
    }
}

/// Sentinel member in an object's location set marking the object as
/// cancelled. 13 bytes long, so [`ObjectLocation::from_member`] (which
/// requires exactly 12) can never confuse it with a real replica.
const CANCELLED_MEMBER: &[u8] = b"__CANCELLED__";

/// Node-membership record (client table).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The node this record describes.
    pub node: NodeId,
    /// Whether the node is believed alive.
    pub alive: bool,
}

/// Actor-table record. Written when the actor is created and again when a
/// rebuild places it on another node, never per method: how far the actor
/// has got is the length of its method log
/// ([`GcsClient::log_actor_method`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActorRecord {
    /// The actor.
    pub actor: ActorId,
    /// Node currently hosting the actor.
    pub node: NodeId,
    /// Function ID of the actor's registered constructor.
    pub constructor: FunctionId,
    /// The actor-creation task (its spec in the task table carries the
    /// resource demand a respawn must honor).
    pub creation_task: TaskId,
    /// Constructor arguments as *resolved* payloads (codec-encoded
    /// `Vec<Blob>`): a respawn must not depend on the original argument
    /// objects, which may themselves be lost.
    pub init_args: ray_codec::Blob,
    /// Lifecycle state.
    pub state: ActorState,
}

/// Actor lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActorState {
    /// Actor is running on its recorded node.
    Alive,
    /// Actor lost its node; replay in progress.
    Reconstructing,
    /// Actor is permanently gone.
    Dead,
}

/// Checkpoint-table record: actor state as of a method sequence number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Stateful-edge sequence number the checkpoint covers (methods
    /// `0..seq` are folded into the state).
    pub seq: u64,
    /// Serialized actor state.
    pub data: ray_codec::Blob,
}

/// Function-table record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// Registered name (the ID is its hash).
    pub name: String,
}

/// Key under which the set of all registered nodes lives.
const ALL_NODES_KEY: &[u8] = b"__all_nodes__";

/// Composite key for one entry of an actor's method log: actor ID bytes
/// followed by the little-endian sequence number (distinct by length from
/// the 16-byte actor-record key).
fn method_log_key(actor: ActorId, seq: u64) -> Vec<u8> {
    let mut k = actor.0.as_bytes().to_vec();
    k.extend_from_slice(&seq.to_le_bytes());
    k
}

/// Source of subscription IDs. Process-wide, not per client: an
/// `Unsubscribe` names nothing but the ID, so two clients of one GCS (every
/// [`crate::Gcs::client`] call makes a new one) must never share one.
static NEXT_SUB_ID: AtomicU64 = AtomicU64::new(1);

/// Cheap-clone typed handle to the GCS.
#[derive(Clone)]
pub struct GcsClient {
    shards: Arc<Vec<Chain>>,
    metrics: MetricsRegistry,
    retry_limit: u32,
}

/// Extra client-side attempts (beyond the chain's own internal retries)
/// before a GCS operation's timeout is surfaced to the caller. Chain ops
/// are idempotent (`Put`/`SetAdd`/`SetRemove`), so re-issuing is safe;
/// `ListAppend` logs tolerate at-least-once delivery by sequence number.
/// Overridden per deployment by `GcsConfig::client_retry_limit`.
const GCS_RETRY_LIMIT: u32 = 3;

impl GcsClient {
    /// Wraps the shard set.
    pub fn new(shards: Arc<Vec<Chain>>) -> GcsClient {
        GcsClient {
            shards,
            metrics: MetricsRegistry::new(),
            retry_limit: GCS_RETRY_LIMIT,
        }
    }

    /// Reports retry counters into an existing registry.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> GcsClient {
        self.metrics = metrics;
        self
    }

    /// Overrides the client-side retry budget (`GcsConfig::client_retry_limit`).
    pub fn with_retry_limit(mut self, limit: u32) -> GcsClient {
        self.retry_limit = limit;
        self
    }

    fn shard_index(&self, key: &Key) -> usize {
        (fnv1a_64(&key.id) % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, key: &Key) -> &Chain {
        &self.shards[self.shard_index(key)]
    }

    /// Whether a chain error is worth a client-side backoff-and-retry:
    /// transient slowness ([`RayError::Timeout`]) or a shard mid-recovery
    /// ([`RayError::GcsUnavailable`] — the chain rebuilds itself from the
    /// disk log once its all-dead streak crosses the threshold, so waiting
    /// out the recovery window usually succeeds).
    fn is_retryable(e: &RayError) -> bool {
        matches!(e, RayError::Timeout | RayError::GcsUnavailable(_))
    }

    /// Runs one chain operation, retrying retryable errors up to the
    /// client's budget and counting each retry; `seed` (the key's hash, or
    /// the subscription's ID) fixes the backoff jitter.
    fn with_retry<T>(&self, seed: u64, op: impl FnMut() -> RayResult<T>) -> RayResult<T> {
        let backoff = Backoff::new(Duration::from_millis(2), Duration::from_millis(25), seed);
        let counted = |e: &RayError, _| {
            let again = Self::is_retryable(e);
            if again {
                self.metrics.counter(names::GCS_RETRIES).inc();
            }
            again
        };
        retry(backoff, self.retry_limit, counted, op)
    }

    /// Issues an update on `key`'s shard with backoff-and-retry.
    fn write(&self, key: Key, op: impl FnOnce(Key) -> UpdateOp) -> RayResult<()> {
        let shard = self.shard_for(&key);
        let seed = fnv1a_64(&key.id);
        let op = op(key);
        self.with_retry(seed, || shard.write(op.clone()))
    }

    /// Issues a subscription op on one shard, with the same retry. A replay
    /// is harmless: the replicas register each `(key, sub_id)` once.
    fn write_subscription(&self, shard: usize, sub_id: u64, op: UpdateOp) -> RayResult<()> {
        let chain = self
            .shards
            .get(shard)
            .ok_or_else(|| RayError::Invalid(format!("no GCS shard {shard}")))?;
        self.with_retry(sub_id, || chain.write(op.clone()))
    }

    fn read(&self, key: &Key) -> RayResult<Option<Entry>> {
        let shard = self.shard_for(key);
        self.with_retry(fnv1a_64(&key.id), || shard.read(key))
    }

    // ------------------------------------------------------------------
    // Object table.
    // ------------------------------------------------------------------

    /// Records that `node` holds a copy of `object` of `size` bytes
    /// (Fig. 7b step 4).
    pub fn add_object_location(
        &self,
        object: ObjectId,
        node: NodeId,
        size: u64,
    ) -> RayResult<()> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::SetAdd {
            key,
            member: ObjectLocation { node, size }.to_member(),
        })
    }

    /// Removes `node` from `object`'s location set (eviction or node
    /// death).
    pub fn remove_object_location(
        &self,
        object: ObjectId,
        node: NodeId,
        size: u64,
    ) -> RayResult<()> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::SetRemove {
            key,
            member: ObjectLocation { node, size }.to_member(),
        })
    }

    /// Current locations of `object` (empty if unknown — the object may not
    /// have been created yet, Fig. 7b step 2).
    pub fn get_object_locations(&self, object: ObjectId) -> RayResult<Vec<ObjectLocation>> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Set(members)) => Ok(members
                .iter()
                .filter_map(|m| ObjectLocation::from_member(m))
                .collect()),
            Some(_) | None => Ok(Vec::new()),
        }
    }

    /// Forgets every location of `object` (an explicit `free`) and returns
    /// what was listed, for one read and one update: a row that holds
    /// nothing but locations is deleted whole, so a freed object leaves no
    /// empty set behind. A row that also carries the cancelled mark keeps
    /// it and loses its locations one by one.
    pub fn clear_object_locations(&self, object: ObjectId) -> RayResult<Vec<ObjectLocation>> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        let Some(Entry::Set(members)) = self.read(&key)? else {
            return Ok(Vec::new());
        };
        let locations: Vec<ObjectLocation> =
            members.iter().filter_map(|m| ObjectLocation::from_member(m)).collect();
        if locations.len() < members.len() {
            for loc in &locations {
                self.remove_object_location(object, loc.node, loc.size)?;
            }
        } else if !members.is_empty() {
            self.write(key, |key| UpdateOp::Delete { key })?;
        }
        Ok(locations)
    }

    /// Marks `object` as cancelled: its producer was torn down and the
    /// object will never be (re)materialized. Stored as a sentinel member
    /// in the object's location set — [`ObjectLocation::from_member`]
    /// rejects it by length, so location readers never see it, and it
    /// survives chain failover like any other object-table write. Lineage
    /// reconstruction consults this before resubmitting a producer.
    pub fn mark_object_cancelled(&self, object: ObjectId) -> RayResult<()> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::SetAdd { key, member: CANCELLED_MEMBER.to_vec() })
    }

    /// Whether `object` has been marked cancelled by
    /// [`Self::mark_object_cancelled`].
    pub fn object_cancelled(&self, object: ObjectId) -> RayResult<bool> {
        let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Set(members)) => Ok(members.iter().any(|m| m == CANCELLED_MEMBER)),
            Some(_) | None => Ok(false),
        }
    }

    /// Subscribes to changes of `object`'s location entry. If the entry
    /// already exists, a notification with the current state is delivered
    /// immediately (closing the create/subscribe race of Fig. 7b).
    pub fn subscribe_object(&self, object: ObjectId) -> RayResult<ObjectSubscription> {
        self.subscribe_objects(&[object])
    }

    /// Subscribes one channel to the location entries of all of `objects`
    /// (the event-driven `ray.wait`): the ids are grouped by shard and each
    /// shard registers its group with one update per
    /// [`MAX_SUBSCRIBE_KEYS`] keys. Entries that already exist are
    /// delivered at once, like [`Self::subscribe_object`]. If a shard's
    /// subscribe fails, the error is returned and the shards already
    /// subscribed are unsubscribed.
    pub fn subscribe_objects(&self, objects: &[ObjectId]) -> RayResult<ObjectSubscription> {
        let mut by_shard: BTreeMap<usize, Vec<Key>> = BTreeMap::new();
        for object in objects {
            let key = Key::new(Table::Object, object.0.as_bytes().to_vec());
            by_shard.entry(self.shard_index(&key)).or_default().push(key);
        }
        let (tx, rx) = unbounded();
        let sub_id = NEXT_SUB_ID.fetch_add(1, Ordering::Relaxed);
        let mut sub =
            ObjectSubscription { client: self.clone(), sub_id, shards: Vec::new(), rx };
        for (shard, keys) in by_shard {
            // Listed before the write: a subscribe that reports failure may
            // still have been applied, and dropping `sub` must undo it.
            sub.shards.push(shard);
            for chunk in keys.chunks(MAX_SUBSCRIBE_KEYS) {
                let op = UpdateOp::Subscribe { keys: chunk.to_vec(), sub_id, sender: tx.clone() };
                self.write_subscription(shard, sub_id, op)?;
            }
        }
        Ok(sub)
    }

    // ------------------------------------------------------------------
    // Task table (lineage).
    // ------------------------------------------------------------------

    /// Records a task spec (opaque to the GCS) — the lineage entry that
    /// makes reconstruction possible.
    pub fn put_task(&self, task: TaskId, spec: Bytes) -> RayResult<()> {
        let key = Key::new(Table::Task, task.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value: spec })
    }

    /// Reads back a task spec (possibly from the flushed disk tier).
    pub fn get_task(&self, task: TaskId) -> RayResult<Option<Bytes>> {
        let key = Key::new(Table::Task, task.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => Ok(Some(b)),
            Some(_) => Err(RayError::Invalid("task entry has wrong shape".into())),
            None => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Lineage table (object → creating task). Plain table accessors: the
    // runtime finds a return object's task with `ObjectId::producer` and
    // calls neither. They stay for the benchmark's
    // `gcs.put_object_lineage_us` probe and `check::ConsistencyChecker`,
    // and go when a benchmark change retires the probe.
    // ------------------------------------------------------------------

    /// Records that `object` is created by `task`.
    pub fn put_object_lineage(&self, object: ObjectId, task: TaskId) -> RayResult<()> {
        let key = Key::new(Table::Lineage, object.0.as_bytes().to_vec());
        let value = Bytes::copy_from_slice(&task.0.as_bytes());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Looks up the task recorded by [`Self::put_object_lineage`].
    pub fn get_object_lineage(&self, object: ObjectId) -> RayResult<Option<TaskId>> {
        let key = Key::new(Table::Lineage, object.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                let bytes: [u8; 16] = b
                    .as_ref()
                    .try_into()
                    .map_err(|_| RayError::Invalid("malformed lineage entry".into()))?;
                Ok(Some(TaskId::from_bytes(bytes)))
            }
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Actor method log (the stateful-edge chain, paper §3.2).
    // ------------------------------------------------------------------

    /// Records that the `seq`-th method executed on `actor` was `task`.
    /// Together with the task table this is the actor's replayable lineage.
    pub fn log_actor_method(&self, actor: ActorId, seq: u64, task: TaskId) -> RayResult<()> {
        let key = Key::new(Table::Actor, method_log_key(actor, seq));
        let value = Bytes::copy_from_slice(&task.0.as_bytes());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Reads the `seq`-th method of `actor`'s stateful-edge chain.
    pub fn get_actor_method(&self, actor: ActorId, seq: u64) -> RayResult<Option<TaskId>> {
        let key = Key::new(Table::Actor, method_log_key(actor, seq));
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                let bytes: [u8; 16] = b
                    .as_ref()
                    .try_into()
                    .map_err(|_| RayError::Invalid("malformed method log entry".into()))?;
                Ok(Some(TaskId::from_bytes(bytes)))
            }
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Client (node) table.
    // ------------------------------------------------------------------

    /// Registers a node as alive.
    pub fn register_node(&self, node: NodeId) -> RayResult<()> {
        let rec = ClientRecord { node, alive: true };
        let value = Bytes::from(ray_codec::encode(&rec).map_err(RayError::from)?);
        let key = Key::new(Table::Client, node.0.to_le_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value })?;
        let all = Key::new(Table::Client, ALL_NODES_KEY.to_vec());
        self.write(all, |key| UpdateOp::SetAdd { key, member: node.0.to_le_bytes().to_vec() })
    }

    /// Marks a node dead (failure detection).
    pub fn mark_node_dead(&self, node: NodeId) -> RayResult<()> {
        let rec = ClientRecord { node, alive: false };
        let value = Bytes::from(ray_codec::encode(&rec).map_err(RayError::from)?);
        let key = Key::new(Table::Client, node.0.to_le_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Whether a node is currently recorded alive.
    pub fn node_alive(&self, node: NodeId) -> RayResult<bool> {
        let key = Key::new(Table::Client, node.0.to_le_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                let rec: ClientRecord = ray_codec::decode(&b).map_err(RayError::from)?;
                Ok(rec.alive)
            }
            _ => Ok(false),
        }
    }

    /// All nodes that ever registered.
    pub fn all_nodes(&self) -> RayResult<Vec<NodeId>> {
        let key = Key::new(Table::Client, ALL_NODES_KEY.to_vec());
        match self.read(&key)? {
            Some(Entry::Set(members)) => Ok(members
                .iter()
                .filter_map(|m| Some(NodeId(u32::from_le_bytes(m.as_slice().try_into().ok()?))))
                .collect()),
            _ => Ok(Vec::new()),
        }
    }

    // ------------------------------------------------------------------
    // Actor + checkpoint tables.
    // ------------------------------------------------------------------

    /// Writes an actor record.
    pub fn put_actor(&self, rec: &ActorRecord) -> RayResult<()> {
        let value = Bytes::from(ray_codec::encode(rec).map_err(RayError::from)?);
        let key = Key::new(Table::Actor, rec.actor.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Reads an actor record.
    pub fn get_actor(&self, actor: ActorId) -> RayResult<Option<ActorRecord>> {
        let key = Key::new(Table::Actor, actor.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                Ok(Some(ray_codec::decode(&b).map_err(RayError::from)?))
            }
            _ => Ok(None),
        }
    }

    /// Stores an actor checkpoint, superseding any previous one.
    pub fn put_checkpoint(&self, actor: ActorId, rec: &CheckpointRecord) -> RayResult<()> {
        let value = Bytes::from(ray_codec::encode(rec).map_err(RayError::from)?);
        let key = Key::new(Table::Checkpoint, actor.0.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Reads the latest checkpoint for an actor.
    pub fn get_checkpoint(&self, actor: ActorId) -> RayResult<Option<CheckpointRecord>> {
        let key = Key::new(Table::Checkpoint, actor.0.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                Ok(Some(ray_codec::decode(&b).map_err(RayError::from)?))
            }
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Function table.
    // ------------------------------------------------------------------

    /// Registers a function name (its body lives in every worker's
    /// in-process registry; the GCS records the name ↔ ID binding, Fig. 7a
    /// step 0).
    pub fn register_function(&self, id: FunctionId, name: &str) -> RayResult<()> {
        let rec = FunctionRecord { name: name.to_string() };
        let value = Bytes::from(ray_codec::encode(&rec).map_err(RayError::from)?);
        let key = Key::new(Table::Function, id.0.to_le_bytes().to_vec());
        self.write(key, |key| UpdateOp::Put { key, value })
    }

    /// Looks up a registered function name.
    pub fn get_function(&self, id: FunctionId) -> RayResult<Option<FunctionRecord>> {
        let key = Key::new(Table::Function, id.0.to_le_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::Blob(b)) => {
                Ok(Some(ray_codec::decode(&b).map_err(RayError::from)?))
            }
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Event log.
    // ------------------------------------------------------------------

    /// Appends an event under a topic (at-least-once across GCS
    /// failovers; used by debugging/profiling tooling).
    pub fn log_event(&self, topic: &str, payload: Bytes) -> RayResult<()> {
        let key = Key::new(Table::Event, topic.as_bytes().to_vec());
        self.write(key, |key| UpdateOp::ListAppend { key, item: payload })
    }

    /// Reads all events logged under a topic.
    pub fn get_events(&self, topic: &str) -> RayResult<Vec<Bytes>> {
        let key = Key::new(Table::Event, topic.as_bytes().to_vec());
        match self.read(&key)? {
            Some(Entry::List(items)) => Ok(items),
            _ => Ok(Vec::new()),
        }
    }

    /// Appends one flushed batch of codec-encoded lifecycle trace events
    /// (`Vec<ray_common::trace::TraceEvent>`) under the system trace
    /// topic. Local schedulers call this on their heartbeat cadence; the
    /// batches are merged, seq-deduped, and ordered at read time, so
    /// at-least-once delivery across GCS failovers is fine.
    pub fn log_trace_batch(&self, payload: Bytes) -> RayResult<()> {
        self.log_event(TRACE_TOPIC, payload)
    }

    /// Reads every flushed trace batch, oldest append first.
    pub fn get_trace_batches(&self) -> RayResult<Vec<Bytes>> {
        self.get_events(TRACE_TOPIC)
    }
}

/// GCS event-log topic the system lifecycle trace is appended under
/// (distinct from the application timeline topic in `rustray::inspect`).
pub const TRACE_TOPIC: &str = "__trace__";

/// Live subscription to the location entries of one or more objects;
/// unsubscribes on drop, with one update per shard it touched.
pub struct ObjectSubscription {
    client: GcsClient,
    sub_id: u64,
    /// Indices of the shards a `Subscribe` was sent to.
    shards: Vec<usize>,
    rx: Receiver<Notification>,
}

impl ObjectSubscription {
    /// The notification stream.
    pub fn receiver(&self) -> &Receiver<Notification> {
        &self.rx
    }

    /// Blocks until a subscribed object has at least one location, or the
    /// timeout expires. Returns the locations seen in the triggering
    /// notification.
    pub fn wait_for_location(
        &self,
        timeout: std::time::Duration,
    ) -> RayResult<Vec<ObjectLocation>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline
                .saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RayError::Timeout);
            }
            let n = self.rx.recv_timeout(remaining).map_err(|_| RayError::Timeout)?;
            if let Some(Entry::Set(members)) = n.entry {
                let locs: Vec<ObjectLocation> = members
                    .iter()
                    .filter_map(|m| ObjectLocation::from_member(m))
                    .collect();
                if !locs.is_empty() {
                    return Ok(locs);
                }
            }
        }
    }
}

impl Drop for ObjectSubscription {
    fn drop(&mut self) {
        for &shard in &self.shards {
            let op = UpdateOp::Unsubscribe { sub_id: self.sub_id };
            let _ = self.client.write_subscription(shard, self.sub_id, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gcs;
    use ray_common::config::GcsConfig;
    use std::time::Duration;

    fn client() -> (Gcs, GcsClient) {
        let gcs = Gcs::start(&GcsConfig { num_shards: 2, ..GcsConfig::default() }).unwrap();
        let c = gcs.client();
        (gcs, c)
    }

    #[test]
    fn object_location_member_round_trip() {
        let loc = ObjectLocation { node: NodeId(7), size: 123456789 };
        assert_eq!(ObjectLocation::from_member(&loc.to_member()), Some(loc));
        assert_eq!(ObjectLocation::from_member(&[1, 2, 3]), None);
    }

    #[test]
    fn object_table_add_remove() {
        let (_gcs, c) = client();
        let id = ObjectId::random();
        c.add_object_location(id, NodeId(0), 100).unwrap();
        c.add_object_location(id, NodeId(1), 100).unwrap();
        let mut locs = c.get_object_locations(id).unwrap();
        locs.sort_by_key(|l| l.node.0);
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].node, NodeId(0));
        c.remove_object_location(id, NodeId(0), 100).unwrap();
        let locs = c.get_object_locations(id).unwrap();
        assert_eq!(locs.len(), 1);
        assert_eq!(locs[0].node, NodeId(1));
    }

    #[test]
    fn unknown_object_has_no_locations() {
        let (_gcs, c) = client();
        assert!(c.get_object_locations(ObjectId::random()).unwrap().is_empty());
    }

    #[test]
    fn cancelled_mark_is_invisible_to_location_readers() {
        let (_gcs, c) = client();
        let id = ObjectId::random();
        assert!(!c.object_cancelled(id).unwrap());
        c.mark_object_cancelled(id).unwrap();
        assert!(c.object_cancelled(id).unwrap());
        // The sentinel shares the location set but never parses as a replica.
        assert!(c.get_object_locations(id).unwrap().is_empty());
        c.add_object_location(id, NodeId(1), 64).unwrap();
        assert_eq!(c.get_object_locations(id).unwrap().len(), 1);
        assert!(c.object_cancelled(id).unwrap());
    }

    #[test]
    fn subscription_fires_on_creation() {
        let (_gcs, c) = client();
        let id = ObjectId::random();
        let sub = c.subscribe_object(id).unwrap();
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.add_object_location(id, NodeId(3), 42).unwrap();
        });
        let locs = sub.wait_for_location(Duration::from_secs(2)).unwrap();
        assert_eq!(locs[0].node, NodeId(3));
        assert_eq!(locs[0].size, 42);
        h.join().unwrap();
    }

    #[test]
    fn subscription_sees_preexisting_entry() {
        let (_gcs, c) = client();
        let id = ObjectId::random();
        c.add_object_location(id, NodeId(1), 8).unwrap();
        let sub = c.subscribe_object(id).unwrap();
        let locs = sub.wait_for_location(Duration::from_secs(1)).unwrap();
        assert_eq!(locs[0].node, NodeId(1));
    }

    /// Object ids that between them land on every shard of `c`, `per_shard`
    /// on each.
    fn ids_on_every_shard(c: &GcsClient, per_shard: usize) -> Vec<ObjectId> {
        let mut by_shard = vec![Vec::new(); c.shards.len()];
        while by_shard.iter().any(|ids| ids.len() < per_shard) {
            let id = ObjectId::random();
            let shard = c.shard_index(&Key::new(Table::Object, id.0.as_bytes().to_vec()));
            if by_shard[shard].len() < per_shard {
                by_shard[shard].push(id);
            }
        }
        by_shard.concat()
    }

    #[test]
    fn one_subscription_covers_ids_on_every_shard() {
        let (gcs, c) = client();
        let ids = ids_on_every_shard(&c, 3);
        // Half exist before the subscribe, half are created after it.
        let (early, late) = ids.split_at(ids.len() / 2);
        for &id in early {
            c.add_object_location(id, NodeId(1), 8).unwrap();
        }
        let before: u64 = (0..2).map(|i| gcs.shard(ray_common::ShardId(i)).committed_updates()).sum();
        let sub = c.subscribe_objects(&ids).unwrap();
        let after: u64 = (0..2).map(|i| gcs.shard(ray_common::ShardId(i)).committed_updates()).sum();
        assert_eq!(after - before, 2, "one subscribe per shard, not one per id");
        for &id in late {
            c.add_object_location(id, NodeId(2), 8).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < ids.len() {
            let n = sub.receiver().recv_timeout(Duration::from_secs(2)).expect("notification");
            seen.insert(n.key.id);
        }
        let want: std::collections::BTreeSet<Vec<u8>> =
            ids.iter().map(|id| id.0.as_bytes().to_vec()).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn dropping_a_subscription_leaves_no_subscriber_on_any_shard() {
        let (_gcs, c) = client();
        let ids = ids_on_every_shard(&c, 2);
        let sub = c.subscribe_objects(&ids).unwrap();
        // A second handle on the channel: a subscriber left behind could
        // still deliver into it after the subscription is gone.
        let rx = sub.receiver().clone();
        drop(sub);
        for &id in &ids {
            // The tail notifies before it acknowledges, so whatever this
            // write delivers is in the channel when it returns.
            c.add_object_location(id, NodeId(1), 8).unwrap();
        }
        assert!(rx.try_recv().is_err(), "a dropped subscription still notifies");
    }

    #[test]
    fn failed_subscribe_undoes_the_shards_already_subscribed() {
        let (gcs, c) = client();
        let ids = ids_on_every_shard(&c, 2);
        // Shard 1 is gone: its subscribe fails outright, after shard 0's
        // has been applied.
        gcs.shard(ray_common::ShardId(1)).shutdown();
        let shard0 = gcs.shard(ray_common::ShardId(0));
        let before = shard0.committed_updates();
        assert!(matches!(c.subscribe_objects(&ids), Err(RayError::Shutdown(_))));
        assert_eq!(shard0.committed_updates() - before, 2, "the subscribe and its undo");
    }

    #[test]
    fn task_table_round_trip() {
        let (_gcs, c) = client();
        let t = TaskId::random();
        assert_eq!(c.get_task(t).unwrap(), None);
        c.put_task(t, Bytes::from_static(b"spec")).unwrap();
        assert_eq!(c.get_task(t).unwrap(), Some(Bytes::from_static(b"spec")));
    }

    #[test]
    fn client_table_lifecycle() {
        let (_gcs, c) = client();
        assert!(!c.node_alive(NodeId(0)).unwrap());
        c.register_node(NodeId(0)).unwrap();
        c.register_node(NodeId(1)).unwrap();
        assert!(c.node_alive(NodeId(0)).unwrap());
        let mut nodes = c.all_nodes().unwrap();
        nodes.sort();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
        c.mark_node_dead(NodeId(0)).unwrap();
        assert!(!c.node_alive(NodeId(0)).unwrap());
        // Still in the registry (dead nodes stay listed).
        assert_eq!(c.all_nodes().unwrap().len(), 2);
    }

    #[test]
    fn actor_and_checkpoint_tables() {
        let (_gcs, c) = client();
        let actor = ActorId::random();
        let rec = ActorRecord {
            actor,
            node: NodeId(2),
            constructor: FunctionId::for_name("Sim"),
            creation_task: TaskId::random(),
            init_args: ray_codec::Blob(vec![1, 2, 3]),
            state: ActorState::Alive,
        };
        c.put_actor(&rec).unwrap();
        assert_eq!(c.get_actor(actor).unwrap(), Some(rec));
        assert_eq!(c.get_checkpoint(actor).unwrap(), None);
        let ck = CheckpointRecord { seq: 10, data: ray_codec::Blob(vec![9; 32]) };
        c.put_checkpoint(actor, &ck).unwrap();
        assert_eq!(c.get_checkpoint(actor).unwrap(), Some(ck));
    }

    #[test]
    fn lineage_table_round_trip() {
        let (_gcs, c) = client();
        let obj = ObjectId::random();
        let task = TaskId::random();
        assert_eq!(c.get_object_lineage(obj).unwrap(), None);
        c.put_object_lineage(obj, task).unwrap();
        assert_eq!(c.get_object_lineage(obj).unwrap(), Some(task));
    }

    #[test]
    fn actor_method_log_is_a_chain() {
        let (_gcs, c) = client();
        let actor = ActorId::random();
        let tasks: Vec<TaskId> = (0..5).map(|_| TaskId::random()).collect();
        for (seq, &t) in tasks.iter().enumerate() {
            c.log_actor_method(actor, seq as u64, t).unwrap();
        }
        for (seq, &t) in tasks.iter().enumerate() {
            assert_eq!(c.get_actor_method(actor, seq as u64).unwrap(), Some(t));
        }
        assert_eq!(c.get_actor_method(actor, 99).unwrap(), None);
        // Logs of different actors do not collide.
        assert_eq!(c.get_actor_method(ActorId::random(), 0).unwrap(), None);
    }

    #[test]
    fn function_table_round_trip() {
        let (_gcs, c) = client();
        let id = FunctionId::for_name("add");
        c.register_function(id, "add").unwrap();
        assert_eq!(c.get_function(id).unwrap().unwrap().name, "add");
        assert!(c.get_function(FunctionId::for_name("missing")).unwrap().is_none());
    }

    #[test]
    fn event_log_appends_in_order() {
        let (_gcs, c) = client();
        for i in 0..5u8 {
            c.log_event("profile", Bytes::from(vec![i])).unwrap();
        }
        let events = c.get_events("profile").unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[4], Bytes::from(vec![4u8]));
    }

    #[test]
    fn trace_batches_ride_their_own_topic() {
        let (_gcs, c) = client();
        c.log_trace_batch(Bytes::from_static(b"batch-a")).unwrap();
        c.log_trace_batch(Bytes::from_static(b"batch-b")).unwrap();
        assert_eq!(
            c.get_trace_batches().unwrap(),
            vec![Bytes::from_static(b"batch-a"), Bytes::from_static(b"batch-b")]
        );
        // The trace topic does not leak into other topics.
        assert!(c.get_events("profile").unwrap().is_empty());
    }
}
