//! One chain member: a shard state behind its own lock, and a crash flag.
//!
//! A member is a value, not a thread. The client that issues an operation
//! drives it through the chain on its own thread (`chain.rs`): it takes
//! each member's state lock in turn and applies the update there, so the
//! state transitions are as deterministic as those of the paper's
//! "event-driven, single-threaded processes" (§4.2.4) without a wake-up
//! per member. A member can be *crashed* for failure injection: from then
//! on [`Replica::live_state`] hands its state to nobody, so it neither
//! applies nor answers — to a client, which learns nothing from it and can
//! only wait out its timeout, that is a hung process, and it is what drives
//! the timeout-based failure reporting of paper Fig. 10a. A member that is
//! merely busy holds its lock and the caller waits for it: slow is no
//! longer the same observation as dead.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use ray_common::sync::{classes, OrderedMutex, OrderedMutexGuard};

use crate::flush::DiskStore;
use crate::kv::ShardState;

/// One member of a shard's chain.
pub struct Replica {
    /// Unique ID within the chain (monotonic across replacements).
    pub id: u64,
    /// Failure-injection flag; see [`Replica::crash`].
    crashed: AtomicBool,
    /// Bytes of table data resident in this replica's memory.
    pub resident: Arc<AtomicI64>,
    state: OrderedMutex<ShardState>,
}

impl Replica {
    /// A member with empty state over the shard's disk tier.
    pub fn new(id: u64, disk: Arc<DiskStore>) -> Replica {
        let resident = Arc::new(AtomicI64::new(0));
        let state = ShardState::new(resident.clone(), disk);
        Replica {
            id,
            crashed: AtomicBool::new(false),
            resident,
            state: OrderedMutex::new(&classes::GCS_REPLICA_STATE, state),
        }
    }

    /// Simulates a crash: the member stops applying and answering.
    /// Irreversible (a recovered member joins as a *new* replica via state
    /// transfer, as in chain replication).
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// Whether the crash flag is set: what the chain master's probe learns
    /// (after its timeout) from a member that does not answer.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Locks this member's state; `None` from a crashed member. The flag is
    /// read under the lock, so once `crash` has returned no operation that
    /// starts afterwards touches the state.
    pub fn live_state(&self) -> Option<OrderedMutexGuard<'_, ShardState>> {
        let state = self.state.lock();
        (!self.is_crashed()).then_some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Entry, Key, Table, UpdateOp};
    use bytes::Bytes;

    fn replica(id: u64) -> Replica {
        Replica::new(id, Arc::new(DiskStore::in_memory()))
    }

    #[test]
    fn a_crashed_member_hands_its_state_to_nobody() {
        let r = replica(0);
        let key = Key::new(Table::Task, vec![1]);
        let put = UpdateOp::Put { key: key.clone(), value: Bytes::from_static(b"x") };
        r.live_state().unwrap().apply(&put);
        assert!(r.resident.load(Ordering::Relaxed) > 0);
        r.crash();
        assert!(r.is_crashed());
        assert!(r.live_state().is_none());
        // The state is still there (nothing was applied or dropped); no
        // caller can reach it any more.
        assert_eq!(r.state.lock().get(&key), Some(Entry::Blob(Bytes::from_static(b"x"))));
    }

    #[test]
    fn snapshot_install_carries_entries_and_subscriptions() {
        let a = replica(0);
        let blob = Key::new(Table::Task, vec![3]);
        let watched = Key::new(Table::Object, vec![4]);
        let (tx, rx) = crossbeam_channel::unbounded();
        {
            let mut state = a.live_state().unwrap();
            state.apply(&UpdateOp::Put { key: blob.clone(), value: Bytes::from_static(b"s") });
            let keys = vec![watched.clone()];
            state.apply(&UpdateOp::Subscribe { keys, sub_id: 1, sender: tx });
        }
        let snap = a.live_state().unwrap().snapshot();

        let b = replica(1);
        b.live_state().unwrap().install(snap);
        assert_eq!(
            b.live_state().unwrap().get(&blob),
            Some(Entry::Blob(Bytes::from_static(b"s")))
        );
        assert_eq!(b.resident.load(Ordering::Relaxed), a.resident.load(Ordering::Relaxed));
        // The joiner notifies the subscriber it has never been told about.
        let add = UpdateOp::SetAdd { key: watched.clone(), member: vec![7] };
        let (notifs, _) = b.live_state().unwrap().apply(&add);
        assert_eq!(notifs.len(), 1);
        for (sender, n) in notifs {
            sender.send(n).unwrap();
        }
        assert_eq!(rx.try_recv().unwrap().key, watched);
    }
}
