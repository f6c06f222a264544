//! `rustray`: a Rust reproduction of *Ray: A Distributed Framework for
//! Emerging AI Applications* (OSDI 2018).
//!
//! rustray unifies **tasks** (stateless remote functions) and **actors**
//! (stateful workers) on a dynamic task-graph execution engine, backed by
//! the three horizontally-scalable components of the paper's system layer:
//!
//! - a **Global Control Store** holding all control state (sharded,
//!   chain-replicated, flushable) — [`ray_gcs`];
//! - a **bottom-up distributed scheduler** (per-node local schedulers
//!   spilling to replicated global schedulers) — [`ray_scheduler`] plus
//!   the execution plumbing in this crate;
//! - an **in-memory distributed object store** with LRU spill and striped
//!   transfers — [`ray_object_store`].
//!
//! The cluster is simulated inside one process: each node is a set of OS
//! threads, the network is a calibrated cost model that really sleeps and
//! really copies payload bytes. All control-plane protocols (Fig. 6 and
//! Fig. 7 of the paper) execute the same message sequences as the original
//! system.
//!
//! # Quickstart
//!
//! ```
//! use rustray::{Cluster, task::Arg};
//! use ray_common::RayConfig;
//!
//! let cluster = Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build()).unwrap();
//!
//! // Remote function (paper Table 1: futures = f.remote(args)).
//! cluster.register_fn2("mul", |a: f64, b: f64| a * b);
//! let ctx = cluster.driver();
//! let fut = ctx
//!     .call::<f64>("mul", vec![Arg::value(&6.0f64).unwrap(), Arg::value(&7.0f64).unwrap()])
//!     .unwrap();
//! assert_eq!(ctx.get(&fut).unwrap(), 42.0);
//! cluster.shutdown();
//! ```
//!
//! # Fault tolerance
//!
//! Task outputs are reconstructed through lineage stored in the GCS;
//! actors are rebuilt from checkpoints plus replay of the stateful-edge
//! method chain; the GCS itself survives replica failures through chain
//! replication. Node death is *discovered* by a heartbeat failure
//! detector (see [`chaos`] and DESIGN.md §6): silent crashes and
//! partitions suppress heartbeats, the monitor declares the node dead,
//! and the same recovery machinery runs. See `tests/` at the workspace
//! root for end-to-end recovery scenarios reproducing paper Fig. 11.

pub mod actor;
pub mod cancel;
pub mod chaos;
pub mod cluster;
pub mod context;
mod failure;
pub mod global_loop;
pub mod inspect;
pub mod lineage;
pub mod node;
pub mod registry;
pub mod runtime;
pub mod task;
pub mod worker;

pub use cluster::Cluster;
pub use context::{ActorHandle, RayContext};
pub use node::node_affinity;
pub use registry::{
    decode_arg, encode_return, encode_return_f64s, encode_returns, f64s_arg, ActorInstance,
    FunctionRegistry,
};
pub use task::{Arg, ObjectRef, TaskOptions};

pub use ray_common::{NodeId, ObjectId, RayConfig, RayError, RayResult, Resources};
