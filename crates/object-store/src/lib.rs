//! `ray-object-store`: the in-memory distributed object store.
//!
//! Paper §4.2.3: every task's inputs and outputs live in a per-node,
//! immutable, in-memory store (shared memory + Apache Arrow in the
//! original). Remote inputs are *replicated* to the local store before
//! execution, eliminating hot-object bottlenecks; objects are evicted to
//! a disk tier by LRU when memory fills (a log held in memory, like the
//! GCS's); large transfers are striped across multiple connections
//! (§4.2.4).
//!
//! - [`store::LocalObjectStore`] — one node's store: `put`/`get`/waiters,
//!   LRU eviction into a [`ray_gcs::flush::DiskStore`], the same log the
//!   GCS flushes into, keyed by object ID; a `put` seals the caller's
//!   `Bytes` without copying them (Fig. 9's multi-threaded copy is kept
//!   as a measurement only).
//! - [`transfer::TransferManager`] — pull-based replication between nodes:
//!   looks up locations in the GCS, pays modeled wire time on the
//!   [`ray_transport::Fabric`], copies the payload, and registers the new
//!   location (the Fig. 7 end-to-end path).
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use ray_common::config::ObjectStoreConfig;
//! use ray_common::{NodeId, ObjectId};
//! use ray_object_store::store::LocalObjectStore;
//!
//! let store = LocalObjectStore::new(NodeId(0), &ObjectStoreConfig::default());
//! let id = ObjectId::random();
//! store.put(id, Bytes::from_static(b"hello")).unwrap();
//! assert_eq!(store.get_local(id).unwrap(), Bytes::from_static(b"hello"));
//! ```

pub mod store;
pub mod transfer;

pub use store::{LocalObjectStore, PutOutcome};
pub use transfer::{StoreDirectory, TransferManager};
