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

use ray_common::config::HEARTBEAT_INTERVAL;
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
    let suspect_after = HEARTBEAT_INTERVAL * 2;
    let declare_after = shared.config.fault.heartbeat_timeout;
    // Suspects are gathered under the load table's read lock and acted on
    // after it: declaring a death writes to the table.
    let mut suspects = Vec::new();
    shared.load.scan_live(|load| {
        let age = load.heartbeat_age();
        if age >= suspect_after {
            suspects.push((load.node(), age));
        }
    });
    for (node, age) in suspects {
        shared.trace.emit(
            node,
            TraceEventKind::HeartbeatMissed,
            TraceEntity::Node(node),
            format!("age_ms={}", age.as_millis()),
        );
        // Counted once the death protocol has run, and only if this pass
        // ran it: whoever waits on the counter may rely on the node being
        // fenced and marked.
        if age >= declare_after && declare_node_dead(shared, node) {
            shared.metrics.counter(names::NODES_DECLARED_DEAD).inc();
        }
    }
}

/// Declares `node` dead and runs the full death protocol. Safe to call for
/// nodes that already vanished abruptly (the handle slot may be empty; the
/// store is then reached through the directory). Idempotent: a second call
/// finds nothing left to clean. Returns whether this call ran the protocol.
pub(crate) fn declare_node_dead(shared: &Arc<RuntimeShared>, node: NodeId) -> bool {
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
        return false; // Never started, or already fully cleaned up.
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
    // Tasks queued or running there are gone with the stopped handle's
    // records; reconstruction may resubmit them.
    let _ = shared.gcs_client.mark_node_dead(node);
    // Hosted actors move elsewhere, replaying from checkpoints (Fig. 11b).
    actor::recover_actors_on(shared, node);
    true
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ray_common::resources::Resources;
    use ray_common::RayConfig;
    use ray_scheduler::NodeLoad;

    use super::*;
    use crate::Cluster;

    /// A heartbeat in flight when `kill_node` ran revives the node's load
    /// entry; the detector then buries it again, but the death protocol
    /// already ran, so it declares nothing.
    #[test]
    fn a_late_heartbeat_after_kill_node_counts_no_declared_death() {
        let mut cfg = RayConfig::builder().nodes(2).workers_per_node(1).build();
        cfg.fault.heartbeat_timeout = Duration::from_millis(50);
        let cluster = Cluster::start(cfg).unwrap();
        cluster.kill_node(NodeId(1));
        cluster.shared.load.heartbeat(NodeLoad {
            node: NodeId(1),
            queue_len: 0,
            available: Resources::none(),
            capacity: Resources::none(),
            alive: true,
        });
        std::thread::sleep(Duration::from_millis(300));
        let mut live = Vec::new();
        cluster.shared.load.scan_live(|l| live.push(l.node()));
        assert!(!live.contains(&NodeId(1)), "{live:?}");
        assert_eq!(cluster.metrics().counter(names::NODES_DECLARED_DEAD).get(), 0);
        cluster.shutdown();
    }
}
