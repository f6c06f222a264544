//! Placement of forwarded tasks, and the global scheduler thread.
//!
//! A local scheduler that forwards a task places it itself, on the thread
//! that forwarded it ([`forward`]): it asks the placement engine
//! ([`ray_scheduler::GlobalScheduler`]) for a node and hands the task to
//! that node's local scheduler. Every forwarding thread is thus a replica
//! of the global scheduler, all reading the same load table — the paper's
//! "we can instantiate more replicas all sharing the same information".
//!
//! The global scheduler thread keeps what no submitter can finish on the
//! spot: tasks no live node can hold yet, tasks whose chosen node died
//! before delivery, tasks a node bounced as infeasible, and tasks waiting
//! out an injected decision delay (Fig. 12b). It retries them as
//! heartbeats change the cluster view — this is what lets a task pinned
//! to a dead node run once that node restarts — and it runs the failure
//! detector.

use std::sync::mpsc::{Receiver, RecvTimeoutError, SendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{NodeId, RayError};
use ray_scheduler::TaskDescriptor;

use crate::cancel::expired;
use crate::failure;
use crate::node::Undelivered;
use crate::runtime::{GlobalMsg, RuntimeShared};
use crate::task::TaskSpec;

/// Retry cadence for tasks that could not be placed; also the failure
/// detector's sweep cadence (well under any sane heartbeat timeout).
const RETRY_EVERY: Duration = Duration::from_millis(5);

/// Places a task a local scheduler forwarded, on the calling thread; what
/// cannot be placed now joins the global thread's retries. With injected
/// decision latency (Fig. 12b) the task joins the retries at once, not to
/// be placed before the delay is up, so the submitter never waits for it
/// and concurrent decisions overlap instead of serializing.
pub(crate) fn forward(
    shared: &Arc<RuntimeShared>,
    spec: TaskSpec,
    from: NodeId,
) -> Result<(), Undelivered> {
    let delay = shared.global.decision_delay();
    if !delay.is_zero() {
        return retry_later(shared, spec, from, delay);
    }
    match try_place(shared, spec, from, false) {
        None => Ok(()),
        Some((spec, from)) => retry_later(shared, spec, from, Duration::ZERO),
    }
}

/// Hands a task to the global thread's retries, not to be tried before
/// `delay` has passed. Its in-flight record waits with it in the run queue
/// of the node it came from, so `ray.cancel` finds it, until it is placed
/// or torn down (or the cluster stops).
pub(crate) fn retry_later(
    shared: &RuntimeShared,
    spec: TaskSpec,
    from: NodeId,
    delay: Duration,
) -> Result<(), Undelivered> {
    if let Some(handle) = shared.node(from) {
        handle.with_records(|records| records.park(&spec));
    }
    let not_before = shared.trace.clock().now() + delay;
    match shared.global_tx.send(GlobalMsg::Retry(Box::new(spec), from, not_before)) {
        Err(SendError(GlobalMsg::Retry(spec, ..))) => {
            Err(Box::new((*spec, RayError::Shutdown("global scheduler stopped".into()))))
        }
        _ => Ok(()),
    }
}

/// Spawns the global scheduler thread.
pub(crate) fn start_global(
    shared: Arc<RuntimeShared>,
    rx: Receiver<GlobalMsg>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("global-scheduler".into())
        .spawn(move || global_loop(shared, rx))
        .expect("invariant: thread spawn only fails on OS resource exhaustion")
}

fn global_loop(shared: Arc<RuntimeShared>, rx: Receiver<GlobalMsg>) {
    let clock = shared.trace.clock().clone();
    let mut pending: Vec<(TaskSpec, NodeId, Instant)> = Vec::new();
    let mut last_detect = clock.now();
    loop {
        // Due tasks retry at the cadence; a task not yet due is tried as
        // soon as it is.
        let now = clock.now();
        let next_due = pending.iter().map(|p| p.2).filter(|&t| t > now).min();
        let wait = next_due.map_or(RETRY_EVERY, |t| RETRY_EVERY.min(t - now));
        match rx.recv_timeout(wait) {
            Ok(GlobalMsg::Retry(spec, from, not_before)) => pending.push((*spec, from, not_before)),
            Ok(GlobalMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = clock.now();
        for (spec, from, not_before) in std::mem::take(&mut pending) {
            if not_before > now {
                pending.push((spec, from, not_before));
            } else if let Some((spec, from)) = try_place(&shared, spec, from, true) {
                pending.push((spec, from, not_before));
            }
        }
        // The failure detector rides this thread: sweep heartbeat ages at
        // the retry cadence even when retries keep the loop busy.
        if clock.now().duration_since(last_detect) >= RETRY_EVERY {
            failure::run_detector_pass(&shared);
            last_detect = clock.now();
        }
    }
}

/// Attempts one placement; returns the task back if it could not be placed
/// (to be retried) — either no feasible node exists right now, or the
/// chosen node died between decision and delivery. A task that is
/// `waiting` in the retries has its record in `from`'s run queue, freed
/// once it is placed or torn down.
fn try_place(
    shared: &Arc<RuntimeShared>,
    spec: TaskSpec,
    from: NodeId,
    waiting: bool,
) -> Option<(TaskSpec, NodeId)> {
    let waiting = waiting.then(|| shared.node(from)).flatten();
    // Cancelled or expired while waiting for placement: tear the task down
    // instead of placing it. This is the global half of the "queued tasks
    // are dropped, not run" guarantee; the local half is the
    // heartbeat-tick purge in node.rs.
    let now = shared.trace.clock().now_micros();
    let task = spec.task;
    let settle = || waiting.as_ref().map(|h| h.with_records(|records| records.unpark(task)));
    let record = waiting.as_ref().and_then(|h| h.with_records(|records| records.cause(task, now)));
    let cause = record.or_else(|| expired(spec.deadline_micros, now));
    if let Some(cause) = cause {
        shared.teardown(from, &spec, cause);
        settle();
        return None;
    }
    let desc = TaskDescriptor {
        task: spec.task,
        demand: spec.demand.clone(),
        inputs: spec.input_ids(),
        submitted_from: from,
    };
    match shared.global.place(&desc) {
        Ok(Some(node)) => {
            // Emit the placement decision *before* delivery: once the spec
            // lands in the node's queue the task can run to completion
            // concurrently, and its Running/Finished events must sequence
            // after this one. A failed delivery leaves a stray GlobalPlaced
            // for the retry to follow — harmless, the kind is volatile and
            // ordering queries use first occurrence.
            shared.trace.emit(
                node,
                TraceEventKind::GlobalPlaced,
                TraceEntity::Task(spec.task),
                format_args!("from={from}"),
            );
            match shared.place_on(node, spec) {
                Ok(()) => {
                    settle();
                    None
                }
                // The chosen node died in the decision→delivery window.
                // One failed delivery is suspicion, not a death certificate:
                // discovery (and the death protocol) is the failure
                // detector's; the task retries and places elsewhere once the
                // detector buries the node.
                Err(undelivered) => Some((undelivered.0, from)),
            }
        }
        Ok(None) => Some((spec, from)),
        Err(_) => Some((spec, from)), // GCS hiccup; retry.
    }
}
