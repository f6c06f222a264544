//! Task specifications, arguments, and typed futures.
//!
//! A [`TaskSpec`] is the unit the whole system moves around: it is what the
//! driver submits, what the schedulers place, what workers execute, and —
//! crucially — what the GCS task table stores as *lineage*, so that any
//! node can re-execute a lost computation (paper §4.2.1).
//!
//! The three task kinds map onto the computation-graph node types of §3.2:
//! plain remote functions, actor creations, and actor method invocations
//! (the latter carrying the stateful-edge sequencing).

use std::marker::PhantomData;

use serde::{Deserialize, Serialize};

use ray_common::{ActorId, FunctionId, ObjectId, RayError, RayResult, Resources, TaskId};

/// An argument to a remote function or actor method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Arg {
    /// An inline value, codec-encoded at submission time. Wrapped in
    /// [`ray_codec::Blob`] so specs carrying large inline payloads
    /// serialize through the bulk bytes path, not element-wise.
    Value(ray_codec::Blob),
    /// A future: resolved to the object's bytes before execution, encoding
    /// a data edge in the task graph.
    ObjectRef(ObjectId),
}

impl Arg {
    /// Encodes a value argument.
    ///
    /// # Examples
    ///
    /// ```
    /// use rustray::task::Arg;
    /// let a = Arg::value(&42u64).unwrap();
    /// assert!(matches!(a, Arg::Value(_)));
    /// ```
    pub fn value<T: Serialize + ?Sized>(v: &T) -> RayResult<Arg> {
        Ok(Arg::Value(ray_codec::Blob(
            ray_codec::encode(v).map_err(RayError::from)?,
        )))
    }

    /// References a typed future.
    pub fn from_ref<T>(r: &ObjectRef<T>) -> Arg {
        Arg::ObjectRef(r.id())
    }

    /// References an untyped object ID.
    pub fn from_id(id: ObjectId) -> Arg {
        Arg::ObjectRef(id)
    }
}

/// What kind of graph node a task is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A stateless remote function (data + control edges only).
    Normal,
    /// Instantiation of an actor: runs the registered constructor on the
    /// placed node and leaves a stateful worker behind.
    ActorCreation {
        /// The actor being created.
        actor: ActorId,
    },
    /// A method invocation on an actor (stateful edge to its predecessor).
    ActorMethod {
        /// Target actor.
        actor: ActorId,
        /// Method name (dispatched against the actor instance).
        method: String,
        /// Caller-declared read-only method: it must not mutate actor
        /// state, so it gets no stateful-edge sequence number, is not
        /// logged, and is skipped during replay — the paper's §5.1
        /// future-work optimization ("allowing users to annotate methods
        /// that do not mutate state") for cheaper actor reconstruction.
        read_only: bool,
    },
}

/// The name a running task's span carries in the timeline: actor methods
/// say whose method they are; everything else is named by its task ID.
impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::ActorMethod { actor, method, .. } => {
                write!(f, "actor={actor} method={method}")
            }
            TaskKind::Normal | TaskKind::ActorCreation { .. } => Ok(()),
        }
    }
}

/// The full, GCS-storable description of one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task ID (deterministically derived for replayed submitters).
    pub task: TaskId,
    /// Graph-node kind.
    pub kind: TaskKind,
    /// Registered function (or constructor) to run.
    pub function: FunctionId,
    /// Human-readable registered name (dispatch + debugging).
    pub function_name: String,
    /// Arguments, inline or by reference.
    pub args: Vec<Arg>,
    /// How many return objects the task produces.
    pub num_returns: u64,
    /// Resource demand (paper §3.1: `@ray.remote(num_gpus=...)`).
    pub demand: Resources,
    /// Absolute deadline on the cluster trace clock, in microseconds since
    /// the clock epoch. Children inherit `min(parent, own)`; every
    /// lifecycle stage may expire the task against it. `None` = no
    /// deadline. Serialized with the spec, so a lineage re-execution of an
    /// expired task expires too instead of resurrecting stale work.
    #[serde(default)]
    pub deadline_micros: Option<u64>,
    /// Critical tasks bypass admission-control shedding (and lineage
    /// resubmissions are always critical — reconstruction must not be
    /// load-shed into a livelock).
    #[serde(default)]
    pub critical: bool,
}

impl TaskSpec {
    /// IDs of the task's return objects (deterministic — anyone holding
    /// the spec can name its outputs, which is how reconstruction finds
    /// them). Panics past `ray_common::id::MAX_TASK_RETURNS` returns, which
    /// submission rejects before it gets here.
    pub fn return_ids(&self) -> Vec<ObjectId> {
        (0..self.num_returns).map(|i| ObjectId::for_task_return(self.task, i)).collect()
    }

    /// The object-reference arguments (the task's data-edge inputs).
    pub fn input_ids(&self) -> Vec<ObjectId> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Arg::ObjectRef(id) => Some(*id),
                Arg::Value(_) => None,
            })
            .collect()
    }

    /// Serializes the spec for the GCS task table.
    pub fn encode(&self) -> RayResult<Vec<u8>> {
        ray_codec::encode(self).map_err(RayError::from)
    }

    /// Deserializes a spec read back from the GCS.
    pub fn decode(bytes: &[u8]) -> RayResult<TaskSpec> {
        ray_codec::decode(bytes).map_err(RayError::from)
    }
}

/// A typed future for one return value of a task (paper Table 1: remote
/// invocations "return one or more futures").
///
/// `ObjectRef` is `Copy`-cheap to clone and can be passed into further
/// remote calls (via [`Arg::from_ref`]) without waiting on the value,
/// which is how the API "express[es] parallelism while capturing data
/// dependencies" (§3.1).
pub struct ObjectRef<T> {
    id: ObjectId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> ObjectRef<T> {
    /// Wraps a raw object ID as a typed future.
    pub fn from_id(id: ObjectId) -> ObjectRef<T> {
        ObjectRef { id, _marker: PhantomData }
    }

    /// The underlying object ID.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Reinterprets the future at a different type (escape hatch for
    /// heterogeneous collections; decoding still checks the bytes).
    pub fn cast<U>(&self) -> ObjectRef<U> {
        ObjectRef::from_id(self.id)
    }
}

impl<T> Clone for ObjectRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ObjectRef<T> {}

impl<T> std::fmt::Debug for ObjectRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectRef({:?})", self.id)
    }
}

impl<T> PartialEq for ObjectRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl<T> Eq for ObjectRef<T> {}

/// Options for a remote submission.
#[derive(Debug, Clone, Default)]
pub struct TaskOptions {
    /// Resource demand; empty means "any node, no accounting".
    pub demand: Resources,
    /// Number of return objects (defaults to 1).
    pub num_returns: Option<u64>,
    /// Relative deadline: the task (and, transitively, its children) must
    /// finish within this much time of submission. Combined with any
    /// inherited parent deadline by taking the earlier of the two.
    pub timeout: Option<std::time::Duration>,
    /// Exempt from admission-control shedding.
    pub critical: bool,
}

impl TaskOptions {
    /// Demand of `n` CPUs.
    pub fn cpus(n: f64) -> TaskOptions {
        TaskOptions { demand: Resources::cpus(n), ..Default::default() }
    }

    /// Demand of `n` GPUs.
    pub fn gpus(n: f64) -> TaskOptions {
        TaskOptions { demand: Resources::gpus(n), ..Default::default() }
    }

    /// Sets the return-count.
    pub fn returns(mut self, n: u64) -> TaskOptions {
        self.num_returns = Some(n);
        self
    }

    /// Sets the demand.
    pub fn with_demand(mut self, r: Resources) -> TaskOptions {
        self.demand = r;
        self
    }

    /// Sets a relative deadline: the task and its descendants expire this
    /// long after submission (absolute deadlines propagate, so a child
    /// inherits whatever budget the parent has left).
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> TaskOptions {
        self.timeout = Some(timeout);
        self
    }

    /// Marks the task critical: admission control never sheds it.
    pub fn critical(mut self) -> TaskOptions {
        self.critical = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            task: TaskId::random(),
            kind: TaskKind::Normal,
            function: FunctionId::for_name("f"),
            function_name: "f".into(),
            args: vec![
                Arg::value(&1u32).unwrap(),
                Arg::ObjectRef(ObjectId::random()),
                Arg::value("hello").unwrap(),
            ],
            num_returns: 2,
            demand: Resources::cpus(1.0),
            deadline_micros: None,
            critical: false,
        }
    }

    #[test]
    fn spec_round_trips_through_codec() {
        let s = spec();
        let bytes = s.encode().unwrap();
        assert_eq!(TaskSpec::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn actor_kinds_round_trip() {
        let mut s = spec();
        s.kind = TaskKind::ActorMethod {
            actor: ActorId::random(),
            method: "rollout".into(),
            read_only: false,
        };
        let bytes = s.encode().unwrap();
        assert_eq!(TaskSpec::decode(&bytes).unwrap(), s);
        s.kind = TaskKind::ActorCreation { actor: ActorId::random() };
        assert_eq!(TaskSpec::decode(&s.encode().unwrap()).unwrap(), s);
    }

    #[test]
    fn return_ids_are_deterministic_and_distinct() {
        let s = spec();
        assert_eq!(s.return_ids(), s.return_ids());
        assert_eq!(s.return_ids().len(), 2);
        assert_ne!(s.return_ids()[0], s.return_ids()[1]);
    }

    #[test]
    fn input_ids_extracts_only_object_refs() {
        let s = spec();
        assert_eq!(s.input_ids().len(), 1);
    }

    #[test]
    fn object_ref_is_copy_and_typed() {
        let id = ObjectId::random();
        let r: ObjectRef<u32> = ObjectRef::from_id(id);
        let r2 = r;
        assert_eq!(r, r2);
        assert_eq!(r.id(), id);
        let as_other: ObjectRef<String> = r.cast();
        assert_eq!(as_other.id(), id);
    }

    #[test]
    fn task_options_builders() {
        let o = TaskOptions::gpus(2.0).returns(3);
        assert_eq!(o.demand.gpu(), 2.0);
        assert_eq!(o.num_returns, Some(3));
        let o = TaskOptions::default()
            .with_timeout(std::time::Duration::from_millis(50))
            .critical();
        assert_eq!(o.timeout, Some(std::time::Duration::from_millis(50)));
        assert!(o.critical);
    }

    #[test]
    fn deadline_and_criticality_survive_the_codec() {
        let mut s = spec();
        s.deadline_micros = Some(123_456_789);
        s.critical = true;
        assert_eq!(TaskSpec::decode(&s.encode().unwrap()).unwrap(), s);
    }
}
