//! `ray-scheduler`: the bottom-up distributed scheduler.
//!
//! Paper §4.2.2: "we design a two-level hierarchical scheduler consisting
//! of a global scheduler and per-node local schedulers. To avoid
//! overloading the global scheduler, the tasks created at a node are
//! submitted first to the node's local scheduler," which schedules locally
//! unless the node is overloaded or cannot satisfy the task's resource
//! demand — only then does the task spill upward.
//!
//! This crate holds the *decision logic* and shared state; the execution
//! plumbing (node run queues, worker threads, channels) lives in the core
//! runtime, which is what lets these policies be unit-tested and swapped
//! wholesale for the paper's baselines:
//!
//! - [`ledger::ResourceLedger`] — per-node resource accounting with
//!   conservation invariants.
//! - [`load::LoadTable`] — the heartbeat-fed view of every node's queue
//!   length, available resources, and task-duration estimate that global
//!   scheduler replicas share (in Ray this state flows through the GCS;
//!   here it is the shared table those heartbeats would populate).
//! - [`local::LocalDecision`] / [`local::decide_local`] — the spillover
//!   rule a local scheduler applies on submission.
//! - [`global::GlobalScheduler`] — placement by minimum estimated waiting
//!   time (queue delay + input-transfer delay), plus the paper's baselines
//!   (centralized, locality-unaware, random) and the Fig. 12b delay
//!   injection.

pub mod global;
pub mod ledger;
pub mod load;
pub mod local;

pub use global::{GlobalScheduler, TaskDescriptor};
pub use ledger::ResourceLedger;
pub use load::{LiveNode, LoadTable, NodeLoad};
pub use local::{decide_local, decide_local_reason, LocalDecision, LocalDecisionReason};
