//! Heartbeat failure detection: the paper's monitor (§4.2.2).
//!
//! Local schedulers publish heartbeats *through the fabric*
//! ([`ray_transport::Fabric::deliver_heartbeat`]): a crashed node stops
//! publishing, and a node partitioned from the majority of its peers
//! cannot get its heartbeats through — both go silent the same way. The
//! detector (run from the global-scheduler thread) sweeps the load table's
//! heartbeat ages and declares any node dead whose silence exceeds the
//! configured suspicion threshold (`fault.heartbeat_timeout`).
//!
//! Declaration runs exactly the cleanup an orderly
//! [`crate::Cluster::kill_node`] performs inline: fabric isolation, GCS
//! death mark, store/directory removal, in-flight invalidation, and actor
//! recovery. The difference is *who knows*: an abrupt kill
//! ([`crate::Cluster::kill_node_abrupt`]) or a partition tells nobody, and
//! only this detector brings the cluster's view back in line — which is
//! what lets lineage reconstruction and actor rebuild fire without any
//! cooperation from the failed node.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ray_common::metrics::names;
use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::NodeId;

use crate::actor;
use crate::runtime::RuntimeShared;

/// One detector sweep. Nodes whose heartbeat age exceeds twice the publish
/// interval count a missed heartbeat (suspicion); nodes silent past
/// `fault.heartbeat_timeout` are declared dead. Shutting-down clusters
/// skip the sweep entirely.
pub(crate) fn run_detector_pass(shared: &Arc<RuntimeShared>) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return;
    }
    let suspect_after = shared.config.scheduler.heartbeat_interval * 2;
    let declare_after = shared.config.fault.heartbeat_timeout;
    for load in shared.load.live_nodes() {
        let Some(age) = shared.load.heartbeat_age(load.node) else { continue };
        if age < suspect_after {
            continue;
        }
        shared.metrics.counter(names::HEARTBEATS_MISSED).inc();
        shared.trace.emit(
            load.node,
            TraceEventKind::HeartbeatMissed,
            TraceEntity::Node(load.node),
            format!("age_ms={}", age.as_millis()),
        );
        if age >= declare_after {
            declare_node_dead(shared, load.node);
            // Counted once the death protocol has run: whoever waits on
            // the counter may rely on the node being fenced and marked.
            shared.metrics.counter(names::NODES_DECLARED_DEAD).inc();
        }
    }
}

/// Declares `node` dead and runs the full death protocol. Safe to call for
/// nodes that already vanished abruptly (the handle slot may be empty; the
/// store is then reached through the directory). Idempotent: a second call
/// finds nothing left to clean.
pub(crate) fn declare_node_dead(shared: &Arc<RuntimeShared>, node: NodeId) {
    // Serialize with add_node/restart_node: a declaration must not
    // interleave with a restart re-registering the same slot.
    let _topology = shared.topology.lock();
    let handle = {
        let mut nodes = shared.nodes.write();
        nodes.get_mut(node.index()).and_then(|s| s.take())
    };
    // Mark dead before the idempotency check: a final in-flight heartbeat
    // can race a previous declaration and resurrect the load-table entry,
    // and the next sweep must be able to bury it again even though the
    // handle and store are already gone.
    shared.load.mark_dead(node);
    if handle.is_none() && shared.directory.get(node).is_none() {
        return; // Never started, or already fully cleaned up.
    }
    shared.trace.emit(node, TraceEventKind::NodeDeclaredDead, TraceEntity::Node(node), "");
    if let Some(h) = &handle {
        // Fencing: nothing more is queued or taken; the workers finish the
        // task they hold and stop.
        h.stop();
    }
    shared.fabric.kill_node(node);
    // The store may outlive the handle (abrupt crash): drop its contents
    // so consumers observe the loss, then forget it.
    if let Some(store) = shared.directory.get(node) {
        store.clear();
    }
    shared.directory.unregister(node);
    // Tasks queued or running there are gone; reconstruction may resubmit.
    shared.inflight.remove_node(node);
    let _ = shared.gcs_client.mark_node_dead(node);
    // Hosted actors move elsewhere, replaying from checkpoints (Fig. 11b).
    actor::recover_actors_on(shared, node);
}
