//! Workspace-wide error type.
//!
//! Every fallible cross-component operation in the system layer returns
//! [`RayResult`]. The variants mirror the failure modes the paper's design
//! must handle: lost objects (reconstructed via lineage), dead nodes and
//! actors, store pressure, codec failures, and shutdown races.

use std::fmt;

use crate::id::{ActorId, NodeId, ObjectId, ShardId, TaskId};

/// Result alias used across the workspace.
pub type RayResult<T> = Result<T, RayError>;

/// All error conditions surfaced by the rustray system layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RayError {
    /// An object is not (or no longer) available anywhere in the cluster and
    /// cannot be reconstructed (e.g. its lineage was produced by `put`).
    ObjectLost(ObjectId),
    /// A task's function raised an application-level error.
    TaskFailed { task: TaskId, message: String },
    /// An actor died and could not (or was not configured to) be restarted.
    ActorDied(ActorId),
    /// The referenced node is not alive.
    NodeDead(NodeId),
    /// A blocking call exceeded its timeout.
    Timeout,
    /// A GCS shard exhausted its client retry budget without reaching a
    /// live chain (whole-shard failure). Unlike [`RayError::Timeout`] this
    /// is a control-plane outage: the caller should back off and retry
    /// (shard recovery replays the flushed log) rather than assume a slow
    /// replica.
    GcsUnavailable(ShardId),
    /// Serialization or deserialization failed.
    Codec(String),
    /// No function registered under the requested name/ID.
    FunctionNotFound(String),
    /// The object store cannot admit an object (over capacity even after
    /// eviction).
    StoreFull { requested: usize, capacity: usize },
    /// An object was put twice with different contents, violating
    /// immutability.
    DuplicateObject(ObjectId),
    /// A component was asked to operate after shutdown, or a peer channel
    /// closed underneath a request.
    Shutdown(String),
    /// A message was dropped on the wire by fault injection (or simulated
    /// congestion). Transient: the sender may retry.
    MessageDropped,
    /// Invalid argument or configuration.
    Invalid(String),
    /// An I/O error (GCS flushing, spill files).
    Io(String),
    /// The task was cancelled (`ray.cancel` on its output, or a cancelled
    /// parent propagating its token). The task's missing outputs are marked
    /// cancelled in the GCS object table so lineage will not resurrect them.
    Cancelled(TaskId),
    /// The task's absolute deadline (set at submit, inherited by children)
    /// expired before it produced its results.
    DeadlineExceeded(TaskId),
    /// A serve pool shed the request at its door: the requests in flight
    /// were past the pool's `shed_watermark`. The node is the caller's.
    /// Transient — the caller may retry later.
    Overloaded(NodeId),
}

impl fmt::Display for RayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RayError::ObjectLost(id) => write!(f, "object {id} lost and not reconstructable"),
            RayError::TaskFailed { task, message } => {
                write!(f, "task {task} failed: {message}")
            }
            RayError::ActorDied(id) => write!(f, "actor {id} died"),
            RayError::NodeDead(id) => write!(f, "node {id} is dead"),
            RayError::Timeout => write!(f, "operation timed out"),
            RayError::GcsUnavailable(shard) => {
                write!(f, "GCS shard {shard} unavailable (retries exhausted)")
            }
            RayError::Codec(msg) => write!(f, "codec error: {msg}"),
            RayError::FunctionNotFound(name) => write!(f, "function not registered: {name}"),
            RayError::StoreFull { requested, capacity } => write!(
                f,
                "object store full: requested {requested} bytes, capacity {capacity} bytes"
            ),
            RayError::DuplicateObject(id) => {
                write!(f, "object {id} already exists with different contents")
            }
            RayError::Shutdown(what) => write!(f, "component shut down: {what}"),
            RayError::MessageDropped => write!(f, "message dropped on the wire"),
            RayError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
            RayError::Io(msg) => write!(f, "io error: {msg}"),
            RayError::Cancelled(task) => write!(f, "task {task} cancelled"),
            RayError::DeadlineExceeded(task) => write!(f, "task {task} deadline exceeded"),
            RayError::Overloaded(node) => {
                write!(f, "node {node} overloaded: serve pool past its shed watermark")
            }
        }
    }
}

impl std::error::Error for RayError {}

impl From<std::io::Error> for RayError {
    fn from(e: std::io::Error) -> Self {
        RayError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let id = ObjectId::random();
        let msg = RayError::ObjectLost(id).to_string();
        assert!(msg.contains("lost"));
        assert!(msg.contains(&format!("{id}")));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: RayError = io.into();
        assert!(matches!(e, RayError::Io(_)));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RayError::Timeout, RayError::Timeout);
        assert_ne!(RayError::Timeout, RayError::Codec("x".into()));
        assert_ne!(RayError::GcsUnavailable(ShardId(0)), RayError::Timeout);
    }

    #[test]
    fn cancellation_errors_name_the_task() {
        let t = TaskId::random();
        let msg = RayError::Cancelled(t).to_string();
        assert!(msg.contains("cancelled"), "{msg}");
        assert!(msg.contains(&format!("{t}")), "{msg}");
        let msg = RayError::DeadlineExceeded(t).to_string();
        assert!(msg.contains("deadline"), "{msg}");
        assert_ne!(RayError::Cancelled(t), RayError::DeadlineExceeded(t));
    }

    #[test]
    fn overloaded_names_the_node() {
        let msg = RayError::Overloaded(NodeId(2)).to_string();
        assert!(msg.contains("overloaded"), "{msg}");
        assert!(msg.contains("N2"), "{msg}");
    }

    #[test]
    fn gcs_unavailable_names_the_shard() {
        let msg = RayError::GcsUnavailable(ShardId(3)).to_string();
        assert!(msg.contains("S3"), "{msg}");
        assert!(msg.contains("unavailable"), "{msg}");
    }
}
