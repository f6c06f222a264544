//! In-flight records: a task's cancellation token, deadline and children.
//!
//! A task's runtime-only state is one [`Record`]: its cancel state, its
//! absolute deadline, the children it submitted and, by where the record
//! lives, its node. A node's run queue keeps the records of the tasks
//! queued or running there ([`InFlight`], keyed by task), taken at enqueue
//! under the queue lock that enqueue already holds; an actor's mailbox
//! keeps those of its calls from push to completion. A [`Token`] names one
//! record: its holder and its task. The record is freed when the task
//! completes, before its results appear, so `ray.cancel` on a finished
//! task's return finds nothing to stop, and its child links go with it. A
//! task that is torn down keeps its record until its outputs are marked
//! and its envelopes stored: until then it still counts as in flight, so
//! lineage does not take it for a lost producer and run it again.
//! Lifecycle stages (queue scans, the worker pre/post-run checks) read the
//! token under the holder's lock. A poll of [`Token::is_cancelled`] — a
//! task body's, or a blocking fetch round's — is one atomic load while no
//! cancel has flipped a record since the token last found its task live.
//!
//! Deadlines also ride inside the serialized [`crate::task::TaskSpec`], so
//! they survive the GCS lineage table and a lineage re-execution of an
//! expired task expires again instead of resurrecting stale work. Records
//! die with the process — durability for cancellation comes from the GCS
//! object table's `Cancelled` mark, not from here.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ray_common::{IdMap, TaskId};

use crate::actor::Mailbox;
use crate::node::NodeHandle;
use crate::runtime::TeardownCause;
use crate::task::TaskSpec;

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

/// One in-flight task.
pub(crate) struct Record {
    /// Set once; the first cancel's reason sticks.
    cancelled: Option<CancelReason>,
    deadline_micros: Option<u64>,
    /// Tasks this one submitted while in flight, for a cancel to fan out
    /// to. Entries may name finished children; cancelling those finds
    /// nothing.
    children: Vec<TaskId>,
    /// Takes not yet freed: a task may be in flight twice in one place (a
    /// task waiting for placement in its node's queue and placed there, or
    /// one lineage ran again), and both share the record.
    takes: u32,
    /// Of the takes, those of the task waiting in the global retries
    /// ([`InFlight::park`]): it is neither queued nor running here for them.
    parked: u32,
}

impl Record {
    /// Why the task should be torn down at `now_micros`, if at all: its
    /// token fired, or its deadline passed. Cancellation wins when both
    /// hold (the recorded reason is more specific).
    pub fn cause(&self, now_micros: u64) -> Option<TeardownCause> {
        match self.cancelled {
            Some(reason) => Some(TeardownCause::Cancelled(reason)),
            None => expired(self.deadline_micros, now_micros),
        }
    }

    /// Links `child` under the task, so a cancel fans out to it; answers
    /// whether the task is cancelled already.
    pub fn link(&mut self, child: TaskId) -> bool {
        self.children.push(child);
        self.cancelled.is_some()
    }
}

/// Records flipped to cancelled so far, process-wide; bumped under the
/// flipped record's holder lock.
static CANCELS: AtomicU64 = AtomicU64::new(0);

/// `DeadlineExceeded` once `now_micros` reaches `deadline_micros`.
pub(crate) fn expired(deadline_micros: Option<u64>, now_micros: u64) -> Option<TeardownCause> {
    deadline_micros.filter(|&d| now_micros >= d).map(|_| TeardownCause::DeadlineExceeded)
}

/// The in-flight records of one holder, by task. Every lookup — the
/// worker's checks, a getter asking whether a producer runs here, a cancel
/// — is by task, and an ID's hash is the ID's own bits ([`IdMap`]).
#[derive(Default)]
pub(crate) struct InFlight(IdMap<TaskId, Record>);

impl InFlight {
    /// Takes `spec`'s record (or one more use of it).
    pub fn take(&mut self, spec: &TaskSpec) {
        self.take_as(spec, false);
    }

    /// Takes `spec`'s record for a task that waits in the global retries,
    /// not in this node's queue; [`InFlight::unpark`] frees it.
    pub fn park(&mut self, spec: &TaskSpec) {
        self.take_as(spec, true);
    }

    fn take_as(&mut self, spec: &TaskSpec, parked: bool) {
        let record = self.0.entry(spec.task).or_insert_with(|| Record {
            cancelled: None,
            deadline_micros: spec.deadline_micros,
            children: Vec::new(),
            takes: 0,
            parked: 0,
        });
        record.takes += 1;
        record.parked += u32::from(parked);
    }

    /// Frees a take [`InFlight::park`] made.
    pub fn unpark(&mut self, task: TaskId) {
        if let Some(record) = self.0.get_mut(&task) {
            record.parked = record.parked.saturating_sub(1);
        }
        self.free(task);
    }

    /// [`Record::cause`] of `task`'s record, while it has one.
    pub fn cause(&self, task: TaskId, now_micros: u64) -> Option<TeardownCause> {
        self.0.get(&task)?.cause(now_micros)
    }

    /// Frees `task`'s record unless it is to be torn down at `now_micros`;
    /// then it stays, and the answer is why.
    pub fn settle(&mut self, task: TaskId, now_micros: u64) -> Option<TeardownCause> {
        let cause = self.cause(task, now_micros);
        if cause.is_none() {
            self.free(task);
        }
        cause
    }

    /// Frees one take of `task`'s record; the last frees the record.
    pub fn free(&mut self, task: TaskId) {
        if let Entry::Occupied(mut record) = self.0.entry(task) {
            record.get_mut().takes -= 1;
            if record.get().takes == 0 {
                record.remove();
            }
        }
    }

    /// Whether `task` has a record here.
    pub fn holds(&self, task: TaskId) -> bool {
        self.0.contains_key(&task)
    }

    /// Whether `task` is queued or running here: it has a take that is not
    /// [parked](InFlight::park).
    pub fn queued(&self, task: TaskId) -> bool {
        self.0.get(&task).is_some_and(|record| record.takes > record.parked)
    }

    /// Cancels `task`'s record here; `Some` of its children if this call
    /// flipped it.
    pub fn cancel(&mut self, task: TaskId, reason: CancelReason) -> Option<Vec<TaskId>> {
        let record = self.0.get_mut(&task).filter(|r| r.cancelled.is_none())?;
        record.cancelled = Some(reason);
        CANCELS.fetch_add(1, Ordering::Release);
        Some(record.children.clone())
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Where a record lives.
#[derive(Clone)]
pub(crate) enum Holder {
    /// The run queue of the node a task was queued on.
    Node(Arc<NodeHandle>),
    /// The mailbox of the actor a method call was pushed to.
    Actor(Arc<Mailbox>),
}

/// Names one task's record: a running task's view of its own token.
pub(crate) struct Token {
    holder: Holder,
    task: TaskId,
    /// [`CANCELS`] as read before this token's last look that found the
    /// task live; `u64::MAX` before the first.
    seen: AtomicU64,
}

impl Clone for Token {
    fn clone(&self) -> Token {
        let seen = AtomicU64::new(self.seen.load(Ordering::Relaxed));
        Token { holder: self.holder.clone(), task: self.task, seen }
    }
}

impl Token {
    pub fn new(holder: Holder, task: TaskId) -> Token {
        Token { holder, task, seen: AtomicU64::new(u64::MAX) }
    }

    /// The node whose worker runs the task; `None` for an actor call.
    pub fn worker(&self) -> Option<&Arc<NodeHandle>> {
        match &self.holder {
            Holder::Node(node) => Some(node),
            Holder::Actor(_) => None,
        }
    }

    fn with_records<R>(&self, f: impl FnOnce(&mut InFlight) -> R) -> R {
        match &self.holder {
            Holder::Node(node) => node.with_records(f),
            Holder::Actor(mailbox) => mailbox.with_records(f),
        }
    }

    /// [`InFlight::cause`] of the task's record.
    pub fn cause(&self, now_micros: u64) -> Option<TeardownCause> {
        self.with_records(|records| records.cause(self.task, now_micros))
    }

    /// [`InFlight::settle`] of the task's record.
    pub fn settle(&self, now_micros: u64) -> Option<TeardownCause> {
        self.with_records(|records| records.settle(self.task, now_micros))
    }

    /// Whether the task has been cancelled. With no flip anywhere since
    /// the last look found the task live, the answer is still no and the
    /// holder's lock is not taken: a flip that look missed came after it,
    /// so it bumped [`CANCELS`] past what the look read.
    pub fn is_cancelled(&self) -> bool {
        let cancels = CANCELS.load(Ordering::Acquire);
        if cancels == self.seen.load(Ordering::Relaxed) {
            return false;
        }
        let task = self.task;
        let cancelled =
            self.with_records(|records| records.0.get(&task).is_some_and(|r| r.cancelled.is_some()));
        if !cancelled {
            self.seen.store(cancels, Ordering::Relaxed);
        }
        cancelled
    }

    /// [`Record::link`] on the task's record, while it has one.
    pub fn link(&self, child: TaskId) -> bool {
        self.with_records(|records| records.0.get_mut(&self.task).is_some_and(|r| r.link(child)))
    }

    /// Frees the task's take of its record.
    pub fn free(&self) {
        self.with_records(|records| records.free(self.task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    fn spec(deadline_micros: Option<u64>) -> TaskSpec {
        TaskSpec {
            task: TaskId::random(),
            kind: TaskKind::Normal,
            function: ray_common::FunctionId::for_name("f"),
            function_name: "f".into(),
            args: Vec::new(),
            num_returns: 1,
            demand: ray_common::Resources::none(),
            deadline_micros,
            critical: false,
        }
    }

    fn record(records: &mut InFlight, task: TaskId) -> &mut Record {
        records.0.get_mut(&task).expect("the record is held")
    }

    #[test]
    fn cancel_marks_token_once() {
        let mut records = InFlight::default();
        let s = spec(None);
        records.take(&s);
        assert_eq!(records.cause(s.task, 0), None);
        assert_eq!(records.cancel(s.task, CancelReason::User), Some(vec![]));
        // Second cancel is a no-op and the original reason sticks.
        assert_eq!(records.cancel(s.task, CancelReason::Parent), None);
        assert_eq!(records.cause(s.task, 0), Some(TeardownCause::Cancelled(CancelReason::User)));
    }

    #[test]
    fn cancel_propagates_to_registered_descendants() {
        let mut records = InFlight::default();
        let [root, mid, leaf, done] = [spec(None), spec(None), spec(None), spec(None)];
        [&root, &mid, &leaf, &done].into_iter().for_each(|s| records.take(s));
        record(&mut records, root.task).link(mid.task);
        record(&mut records, mid.task).link(leaf.task);
        record(&mut records, root.task).link(done.task);
        records.free(done.task); // finished before the cancel: must not resurrect
        // Each flip hands back the children to walk next.
        assert_eq!(records.cancel(root.task, CancelReason::User), Some(vec![mid.task, done.task]));
        assert_eq!(records.cancel(mid.task, CancelReason::Parent), Some(vec![leaf.task]));
        assert_eq!(records.cancel(done.task, CancelReason::Parent), None);
        assert_eq!(records.cancel(leaf.task, CancelReason::Parent), Some(vec![]));
        assert!(!records.holds(done.task));
    }

    #[test]
    fn linking_under_a_cancelled_parent_cancels_the_child() {
        let mut records = InFlight::default();
        let (parent, child) = (spec(None), spec(None));
        records.take(&parent);
        assert!(!record(&mut records, parent.task).link(TaskId::random()));
        records.cancel(parent.task, CancelReason::User);
        // The submit path cancels a child its parent's link reports cancelled.
        assert!(record(&mut records, parent.task).link(child.task));
    }

    #[test]
    fn dispatch_node_is_recorded_and_removed() {
        let mut records = InFlight::default();
        let s = spec(None);
        records.take(&s);
        assert!(records.holds(s.task));
        // In flight twice here (waiting for placement, and placed here):
        // one record, freed with its last take.
        records.take(&s);
        assert_eq!(records.len(), 1);
        records.free(s.task);
        assert!(records.holds(s.task));
        records.free(s.task);
        assert!(!records.holds(s.task));
        assert_eq!(records.len(), 0);
    }

    #[test]
    fn a_parked_take_holds_the_record_but_is_not_queued() {
        let mut records = InFlight::default();
        let s = spec(None);
        records.park(&s);
        assert!(records.holds(s.task));
        assert!(!records.queued(s.task));
        // Placed on the node it waited on: queued beside the parked take.
        records.take(&s);
        assert!(records.queued(s.task));
        records.unpark(s.task);
        assert!(records.queued(s.task));
        records.free(s.task);
        assert!(!records.holds(s.task));
    }

    #[test]
    fn cancellation_wins_over_an_expired_deadline() {
        let mut records = InFlight::default();
        let s = spec(Some(100));
        records.take(&s);
        assert_eq!(records.cause(s.task, 99), None);
        assert_eq!(records.cause(s.task, 100), Some(TeardownCause::DeadlineExceeded));
        records.cancel(s.task, CancelReason::Parent);
        let cancelled = Some(TeardownCause::Cancelled(CancelReason::Parent));
        // To be torn down: the record stays until the teardown is done.
        assert_eq!(records.settle(s.task, 100), cancelled);
        assert!(records.holds(s.task));
        assert_eq!(records.settle(s.task, 99), cancelled, "the reason sticks");
        records.free(s.task);
        let late = spec(None);
        records.take(&late);
        assert_eq!(records.settle(late.task, 100), None, "nothing due: freed");
        assert!(!records.holds(late.task));
    }

    #[test]
    fn a_poll_sees_a_cancel_made_after_its_last_look() {
        let mailbox = Arc::new(Mailbox::new());
        let s = spec(None);
        mailbox.with_records(|records| records.take(&s));
        let token = Token::new(Holder::Actor(mailbox.clone()), s.task);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled(), "the second look may skip the lock");
        mailbox.with_records(|records| records.cancel(s.task, CancelReason::User));
        assert!(token.is_cancelled());
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn unregistered_tasks_are_never_cancelled() {
        let mut records = InFlight::default();
        let t = TaskId::random();
        assert_eq!(records.cancel(t, CancelReason::User), None);
        assert!(!records.holds(t));
        records.free(t);
        assert_eq!(records.len(), 0);
    }
}
