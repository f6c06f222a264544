//! The global scheduler thread.
//!
//! Receives tasks spilled by local schedulers, asks the placement engine
//! ([`ray_scheduler::GlobalScheduler`]) for a node, and hands the task to
//! that node's local scheduler. Unplaceable tasks (no live node can
//! satisfy the demand) are retried as heartbeats change the cluster view —
//! this is what lets a GPU task submitted before any GPU node joins
//! eventually run.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError};

use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::NodeId;
use ray_scheduler::TaskDescriptor;

use crate::failure;
use crate::runtime::{GlobalMsg, RuntimeShared};
use crate::task::TaskSpec;

/// Retry cadence for tasks that could not be placed; also the failure
/// detector's sweep cadence (well under any sane heartbeat timeout).
const RETRY_EVERY: Duration = Duration::from_millis(5);

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
    ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
    let clock = shared.trace.clock().clone();
    let mut pending: Vec<(TaskSpec, NodeId)> = Vec::new();
    // With injected decision latency (Fig. 12b), decisions run on spawned
    // threads so concurrent tasks each pay the latency without serializing
    // behind one scheduler thread — the paper's global scheduler is
    // replicated ("we can instantiate more replicas").
    let delayed = !shared.config.scheduler.added_decision_delay.is_zero();
    let mut last_detect = clock.now();
    loop {
        match rx.recv_timeout(RETRY_EVERY) {
            Ok(GlobalMsg::Forward(spec, from)) => {
                if delayed {
                    let shared = shared.clone();
                    std::thread::spawn(move || {
                        ray_common::sync::install_long_hold_metrics(shared.metrics.clone());
                        let mut item = Some((spec, from));
                        while let Some((spec, from)) = item.take() {
                            item = try_place(&shared, spec, from);
                            if item.is_some() {
                                std::thread::sleep(RETRY_EVERY);
                            }
                        }
                    });
                } else if let Some(unplaced) = try_place(&shared, spec, from) {
                    pending.push(unplaced);
                }
            }
            Ok(GlobalMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        if !pending.is_empty() {
            let batch = std::mem::take(&mut pending);
            for (spec, from) in batch {
                if let Some(unplaced) = try_place(&shared, spec, from) {
                    pending.push(unplaced);
                }
            }
        }
        // The failure detector rides this thread: sweep heartbeat ages at
        // the retry cadence even when placements keep the loop busy.
        if clock.now().duration_since(last_detect) >= RETRY_EVERY {
            failure::run_detector_pass(&shared);
            last_detect = clock.now();
        }
    }
}

/// Attempts one placement; returns the task back if it could not be placed
/// (to be retried) — either no feasible node exists right now, or the
/// chosen node died between decision and delivery.
fn try_place(
    shared: &Arc<RuntimeShared>,
    spec: TaskSpec,
    from: NodeId,
) -> Option<(TaskSpec, NodeId)> {
    // Cancelled or expired while waiting in the global queue: tear the
    // task down instead of placing it. This is the global half of the
    // "queued tasks are dropped, not run" guarantee; the local half is the
    // heartbeat-tick purge in node.rs.
    if let Some(cause) = shared.teardown_cause(&spec) {
        shared.teardown(from, &spec, cause);
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
                format!("from={from}"),
            );
            match shared.place_on(node, spec.clone()) {
                Ok(()) => None,
                // The chosen node died in the decision→delivery window.
                // One failed delivery is suspicion, not a death certificate:
                // discovery (and the death protocol) is the failure
                // detector's; the task retries and places elsewhere once the
                // detector buries the node.
                Err(_) => Some((spec, from)),
            }
        }
        Ok(None) => Some((spec, from)),
        Err(_) => Some((spec, from)), // GCS hiccup; retry.
    }
}
