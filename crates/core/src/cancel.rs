//! Cancellation tokens and the task cancellation registry.
//!
//! Every scheduled task gets a [`CancelToken`] registered here at submit;
//! child submissions link to their parent's entry so `ray.cancel` on a
//! root propagates down the live task tree. The token is one atomic byte:
//! lifecycle stages (queue scans, the worker pre/post-run checks, blocking
//! fetch rounds) poll it without taking any lock. The registry's sharded
//! maps (rank `core.cancel_shard`, between the inflight table and the
//! stalled ledger) are touched only on register / link / cancel /
//! deregister.
//!
//! Deadlines deliberately do *not* live here: an absolute deadline rides
//! inside the serialized [`crate::task::TaskSpec`], so it survives the GCS
//! lineage table and a lineage re-execution of an expired task expires
//! again instead of resurrecting stale work. Tokens are runtime-only state
//! and die with the process — durability for cancellation comes from the
//! GCS object table's `Cancelled` mark, not from this registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use ray_common::sync::{classes, OrderedMutex};
use ray_common::TaskId;

/// Why a task was torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// `ray.cancel` was called on one of the task's outputs.
    User,
    /// A cancelled parent propagated its token.
    Parent,
}

impl CancelReason {
    /// Stable label used in trace-event details.
    pub fn label(&self) -> &'static str {
        match self {
            CancelReason::User => "user",
            CancelReason::Parent => "parent",
        }
    }
}

const STATE_LIVE: u8 = 0;
const STATE_CANCELLED_USER: u8 = 1;
const STATE_CANCELLED_PARENT: u8 = 2;

/// A shareable, lock-free cancellation flag for one task.
#[derive(Clone)]
pub struct CancelToken(Arc<AtomicU8>);

impl CancelToken {
    fn new() -> CancelToken {
        CancelToken(Arc::new(AtomicU8::new(STATE_LIVE)))
    }

    /// Marks the token cancelled; returns `true` if this call flipped it
    /// (the first cancel wins — the recorded reason never changes).
    fn cancel(&self, reason: CancelReason) -> bool {
        let state = match reason {
            CancelReason::User => STATE_CANCELLED_USER,
            CancelReason::Parent => STATE_CANCELLED_PARENT,
        };
        self.0
            .compare_exchange(STATE_LIVE, state, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The cancellation reason, if the token has been cancelled.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.0.load(Ordering::Acquire) {
            STATE_CANCELLED_USER => Some(CancelReason::User),
            STATE_CANCELLED_PARENT => Some(CancelReason::Parent),
            _ => None,
        }
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) != STATE_LIVE
    }
}

struct CancelEntry {
    token: CancelToken,
    /// Children registered under this task, for downward propagation.
    /// Entries may name already-completed (deregistered) tasks; cancelling
    /// those is a no-op.
    children: Vec<TaskId>,
}

/// Sharded task → (token, children) map.
pub(crate) struct CancelRegistry {
    shards: Vec<OrderedMutex<HashMap<TaskId, CancelEntry>>>,
}

impl CancelRegistry {
    pub fn new() -> CancelRegistry {
        CancelRegistry {
            shards: (0..16)
                .map(|_| OrderedMutex::new(&classes::CANCEL_SHARD, HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, task: TaskId) -> &OrderedMutex<HashMap<TaskId, CancelEntry>> {
        &self.shards[(task.digest() % 16) as usize]
    }

    /// Ensures `task` has an entry and returns its token.
    pub fn ensure(&self, task: TaskId) -> CancelToken {
        self.shard(task)
            .lock()
            .entry(task)
            .or_insert_with(|| CancelEntry { token: CancelToken::new(), children: Vec::new() })
            .token
            .clone()
    }

    /// Links `child` under `parent` for propagation. If the parent is
    /// unregistered (a driver root, or already completed) this is a no-op;
    /// if the parent is already cancelled the child is cancelled on the
    /// spot and `true` is returned.
    pub fn link(&self, parent: TaskId, child: TaskId) -> bool {
        let parent_cancelled = {
            let mut shard = self.shard(parent).lock();
            match shard.get_mut(&parent) {
                Some(entry) => {
                    entry.children.push(child);
                    entry.token.is_cancelled()
                }
                None => return false,
            }
        };
        if parent_cancelled {
            self.cancel(child, CancelReason::Parent);
        }
        parent_cancelled
    }

    /// The token for `task`, if registered.
    pub fn token_of(&self, task: TaskId) -> Option<CancelToken> {
        self.shard(task).lock().get(&task).map(|e| e.token.clone())
    }

    /// Whether `task` is registered and cancelled.
    pub fn is_cancelled(&self, task: TaskId) -> bool {
        self.token_of(task).is_some_and(|t| t.is_cancelled())
    }

    /// Cancels `task` and every registered descendant, breadth-first.
    /// Returns the descendants that this call newly cancelled (excluding
    /// `task` itself), or `None` if `task` was unregistered or already
    /// cancelled. Only one shard lock is held at a time, so same-rank
    /// acquisition never nests.
    pub fn cancel(&self, task: TaskId, reason: CancelReason) -> Option<Vec<TaskId>> {
        let mut frontier = {
            let shard = self.shard(task).lock();
            let entry = shard.get(&task)?;
            if !entry.token.cancel(reason) {
                return None;
            }
            entry.children.clone()
        };
        let mut propagated = Vec::new();
        while let Some(child) = frontier.pop() {
            let next = {
                let shard = self.shard(child).lock();
                match shard.get(&child) {
                    Some(entry) if entry.token.cancel(CancelReason::Parent) => {
                        entry.children.clone()
                    }
                    _ => continue, // completed, or already cancelled
                }
            };
            propagated.push(child);
            frontier.extend(next);
        }
        Some(propagated)
    }

    /// Drops `task`'s entry (called when the task completes or is torn
    /// down). Stale child links in the parent are harmless: cancelling an
    /// unregistered task is a no-op.
    pub fn remove(&self, task: TaskId) {
        self.shard(task).lock().remove(&task);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_marks_token_once() {
        let r = CancelRegistry::new();
        let t = TaskId::random();
        let tok = r.ensure(t);
        assert!(!tok.is_cancelled());
        assert_eq!(r.cancel(t, CancelReason::User), Some(vec![]));
        assert!(tok.is_cancelled());
        assert_eq!(tok.reason(), Some(CancelReason::User));
        // Second cancel is a no-op and the original reason sticks.
        assert_eq!(r.cancel(t, CancelReason::Parent), None);
        assert_eq!(tok.reason(), Some(CancelReason::User));
    }

    #[test]
    fn cancel_propagates_to_registered_descendants() {
        let r = CancelRegistry::new();
        let (root, mid, leaf, done) =
            (TaskId::random(), TaskId::random(), TaskId::random(), TaskId::random());
        for t in [root, mid, leaf, done] {
            r.ensure(t);
        }
        r.link(root, mid);
        r.link(mid, leaf);
        r.link(root, done);
        r.remove(done); // completed before the cancel: must not resurrect
        let mut hit = r.cancel(root, CancelReason::User).unwrap();
        hit.sort_by_key(|t| t.digest());
        let mut want = vec![mid, leaf];
        want.sort_by_key(|t| t.digest());
        assert_eq!(hit, want);
        assert!(r.is_cancelled(mid));
        assert!(r.is_cancelled(leaf));
        assert!(!r.is_cancelled(done));
    }

    #[test]
    fn linking_under_a_cancelled_parent_cancels_the_child() {
        let r = CancelRegistry::new();
        let (parent, child) = (TaskId::random(), TaskId::random());
        r.ensure(parent);
        r.cancel(parent, CancelReason::User);
        r.ensure(child);
        assert!(r.link(parent, child));
        assert!(r.is_cancelled(child));
        assert_eq!(r.token_of(child).unwrap().reason(), Some(CancelReason::Parent));
    }

    #[test]
    fn unregistered_tasks_are_never_cancelled() {
        let r = CancelRegistry::new();
        let t = TaskId::random();
        assert_eq!(r.cancel(t, CancelReason::User), None);
        assert!(!r.is_cancelled(t));
        assert!(!r.link(t, TaskId::random()));
        r.remove(t);
        assert_eq!(r.len(), 0);
    }
}
