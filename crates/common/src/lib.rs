//! Shared foundation for the `rustray` workspace.
//!
//! This crate contains the vocabulary types used by every other crate in the
//! reproduction of *Ray: A Distributed Framework for Emerging AI
//! Applications* (OSDI 2018):
//!
//! - [`id`]: strongly-typed identifiers for objects, tasks, actors, nodes,
//!   workers, and functions, mirroring Ray's ID scheme.
//! - [`resources`]: resource demand/capacity vectors (CPU, GPU, custom),
//!   used by the scheduler for placement (paper §3.1, §4.2.2).
//! - [`error`]: the workspace-wide error type.
//! - [`config`]: the knobs of the simulated cluster (node count, transport
//!   model, GCS replication, flushing, scheduler policy, ...).
//! - [`metrics`]: lightweight atomic counters used by benchmarks and tests.
//! - [`sync`]: ranked lock wrappers ([`sync::OrderedMutex`],
//!   [`sync::OrderedRwLock`]) enforcing the workspace-wide lock order: a
//!   rank check on every acquire in debug builds.
//! - [`trace`]: the task-lifecycle event log (the per-node logs of one
//!   process-wide collector, the deterministic `TraceAssert` query API,
//!   and the Chrome `trace_event` exporter) backing the paper's §4.1
//!   replay/debugging story.
//! - [`util`]: small helpers (FNV hashing, EWMA estimators) shared across
//!   the system layer.

pub mod config;
pub mod error;
pub mod id;
pub mod metrics;
pub mod resources;
pub mod sync;
pub mod trace;
pub mod util;

pub use config::RayConfig;
pub use error::{RayError, RayResult};
pub use id::{
    ActorId, FunctionId, IdMap, NodeId, ObjectId, ShardId, TaskId, UniqueId, WorkerId,
};
pub use resources::Resources;
