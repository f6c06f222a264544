//! Lineage regression for the stateful-edge chain (paper §4.2.3, Fig. 11b):
//! a `task → actor-method → task` dependency chain loses its mid-chain node,
//! and the event log must *prove* that recovery replayed only the methods
//! after the last checkpoint — not the whole method log.
//!
//! Setup: a normal task seeds the chain; its output feeds the first of 7
//! checkpointed actor methods (interval 3 ⇒ checkpoints at seq 3 and 6); a
//! final normal task consumes the 7th method's output. The actor's node is
//! killed abruptly after all 7 methods applied but with the 7th output
//! replicated nowhere else. Consuming it then forces: detector-driven
//! death declaration → actor rebuild → checkpoint restore at seq 6 →
//! replay of exactly one method → output re-stored → final task runs.

use bytes::Bytes;
use ray_repro::common::config::FaultConfig;
use ray_repro::common::metrics::names;
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{NodeId, RayConfig};
use ray_repro::ray::registry::RemoteResult;
use ray_repro::ray::task::{Arg, ObjectRef, TaskOptions};
use ray_repro::ray::{
    decode_arg, encode_return, node_affinity, ActorInstance, Cluster, RayContext,
};
use std::time::{Duration, Instant};

struct Counter {
    total: i64,
}

impl ActorInstance for Counter {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "add" => {
                let x: i64 = decode_arg(args, 0)?;
                self.total += x;
                encode_return(&self.total)
            }
            "value" => encode_return(&self.total),
            other => Err(format!("no method {other}")),
        }
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.total.to_le_bytes().to_vec())
    }
    fn restore(&mut self, data: &[u8]) -> Result<(), String> {
        self.total = i64::from_le_bytes(data.try_into().map_err(|_| "bad checkpoint")?);
        Ok(())
    }
}

fn wait_for_counter(cluster: &Cluster, name: &str, min: u64, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cluster.metrics().counter(name).get() >= min {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn replay_is_bounded_by_the_last_checkpoint() {
    let mut cfg = RayConfig::builder().nodes(3).workers_per_node(2).seed(13).tracing(true).build();
    cfg.fault = FaultConfig {
        lineage_enabled: true,
        max_reconstruction_attempts: 10,
        actor_checkpoint_interval: Some(3),
        heartbeat_timeout: Duration::from_millis(250),
    };
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("seed_val", |x: i64| x);
    cluster.register_fn1("double", |x: i64| x * 2);
    cluster.register_actor_class("Counter", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Counter { total: start }))
    });
    let ctx = cluster.driver();

    // Head of the chain: a normal task whose output becomes the first
    // method argument (the task → actor-method data edge).
    let head: ObjectRef<i64> = ctx.call("seed_val", vec![Arg::value(&1i64).unwrap()]).unwrap();

    // The actor is pinned to node 1, which will die.
    let pin = TaskOptions::default().with_demand(node_affinity(NodeId(1)));
    let h = ctx.create_actor("Counter", vec![Arg::value(&0i64).unwrap()], pin).unwrap();
    ctx.get_with_timeout(&h.ready(), Duration::from_secs(30)).unwrap();

    // 7 methods; with interval 3 the last checkpoint lands at seq 6, so
    // exactly one method (seq 6, the 7th) sits past it.
    let mut adds: Vec<ObjectRef<i64>> = Vec::new();
    for i in 0..7 {
        let arg = if i == 0 { Arg::from_ref(&head) } else { Arg::value(&1i64).unwrap() };
        adds.push(ctx.call_actor(&h, "add", vec![arg]).unwrap());
    }
    // Sync without fetching any add output (a fetch would replicate it off
    // node 1 and defeat the loss): a read-only call queues behind the 7
    // adds, so its answer proves they all applied and both checkpoints
    // were cut.
    let settled: ObjectRef<i64> = ctx.call_actor_readonly(&h, "value", vec![]).unwrap();
    assert_eq!(ctx.get_with_timeout(&settled, Duration::from_secs(30)).unwrap(), 7);
    assert!(cluster.metrics().counter(names::CHECKPOINTS_TAKEN).get() >= 2);

    // Kill the actor's node with no cleanup; only the detector notices.
    cluster.kill_node_abrupt(NodeId(1));
    assert!(
        wait_for_counter(&cluster, names::NODES_DECLARED_DEAD, 1, Duration::from_secs(15)),
        "detector must declare the actor's node dead"
    );
    cluster.restart_node(NodeId(1)).unwrap();

    // Tail of the chain: a normal task consuming the 7th method's output
    // (the actor-method → task edge). That output died with node 1, so
    // this get can only succeed through rebuild + bounded replay.
    let tail: ObjectRef<i64> =
        ctx.call("double", vec![Arg::from_ref(&adds[6])]).unwrap();
    assert_eq!(
        ctx.get_with_timeout(&tail, Duration::from_secs(120)).unwrap(),
        14,
        "replay must re-store the 7th method's output exactly once"
    );

    let log = cluster.trace_log().unwrap();
    let actor = TraceEntity::Actor(h.id());
    let check = log.assert();
    check
        .happened_on(NodeId(1), TraceEventKind::NodeDeclaredDead)
        // The recovery protocol, in order: checkpoints were cut while the
        // actor lived, the rebuild restored one, replayed the tail, and
        // went live.
        .ordered(
            actor,
            &[
                TraceEventKind::CheckpointTaken,
                TraceEventKind::CheckpointRestored,
                TraceEventKind::MethodReplayed,
                TraceEventKind::ActorRebuilt,
            ],
        )
        .count_eq(actor, TraceEventKind::CheckpointRestored, 1)
        // THE bound under test: one method past the seq-6 checkpoint means
        // exactly one replay — not 7.
        .count_eq(actor, TraceEventKind::MethodReplayed, 1)
        .deps_fetched_before_running();

    // The restore came from the latest checkpoint, not an earlier one.
    let restored: Vec<&str> = log
        .events_for(actor)
        .iter()
        .filter(|e| e.kind == TraceEventKind::CheckpointRestored)
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(restored, vec!["seq=6"], "rebuild must restore the seq-6 checkpoint");

    cluster.shutdown();
}
