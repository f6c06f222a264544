//! Fault tolerance end to end: lineage reconstruction for tasks and
//! checkpoint + replay for actors (paper Fig. 11), with a node killed
//! mid-computation.
//!
//! Run with `cargo run --example fault_tolerance`.

use bytes::Bytes;
use ray_common::config::FaultConfig;
use ray_common::NodeId;
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{decode_arg, encode_return, ActorInstance, Cluster, RayConfig, RayContext};
use std::time::Duration;

struct Tally {
    total: i64,
}

impl ActorInstance for Tally {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "add" => {
                let x: i64 = decode_arg(args, 0)?;
                self.total += x;
                encode_return(&self.total)
            }
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

fn main() {
    let mut config = RayConfig::builder().nodes(3).workers_per_node(2).build();
    config.fault = FaultConfig {
        max_reconstruction_attempts: 3,
        actor_checkpoint_interval: Some(5),
        ..FaultConfig::default()
    };
    let cluster = Cluster::start(config).expect("start cluster");
    cluster.register_fn1("inc", |x: u64| x + 1);
    cluster.register_actor_class("Tally", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Tally { total: start }))
    });

    let ctx = cluster.driver();

    // --- Task lineage: a 40-deep chain with a node killed at step 20 ----
    println!("building a 40-task chain; killing node 1 at step 20...");
    let mut fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
    for i in 0..39 {
        fut = ctx.call("inc", vec![Arg::from_ref(&fut)]).unwrap();
        if i == 19 {
            cluster.kill_node(NodeId(1));
            println!("  node 1 killed (its objects and queued tasks are gone)");
        }
    }
    let value = ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap();
    println!(
        "  chain result = {value} (tasks re-executed via lineage: {})",
        cluster.metrics().counter("tasks_reexecuted").get()
    );

    // --- Actor recovery: checkpoint every 5 methods ---------------------
    cluster.restart_node(NodeId(1)).unwrap();
    println!("restarted node 1; creating a checkpointing Tally actor...");
    let tally = ctx
        .create_actor("Tally", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
        .unwrap();
    for _ in 0..12 {
        let f: ObjectRef<i64> =
            ctx.call_actor(&tally, "add", vec![Arg::value(&1i64).unwrap()]).unwrap();
        ctx.get(&f).unwrap();
    }
    let host = cluster
        .gcs()
        .client()
        .get_actor(tally.id())
        .unwrap()
        .expect("actor record")
        .node;
    println!("  actor lives on {host}; killing that node...");
    cluster.kill_node(host);

    let survivor = (0..3).map(NodeId).find(|&n| n != host).unwrap();
    let ctx = cluster.driver_on(survivor);
    let f: ObjectRef<i64> =
        ctx.call_actor(&tally, "add", vec![Arg::value(&1i64).unwrap()]).unwrap();
    let total = ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap();
    println!(
        "  recovered total = {total} (checkpoints: {}, methods replayed: {})",
        cluster.metrics().counter("checkpoints_taken").get(),
        cluster.metrics().counter("methods_replayed").get()
    );
    assert_eq!(total, 13);

    cluster.shutdown();
    println!("done.");
}
