//! Figure 11b: actor reconstruction from checkpoints.
//!
//! Paper: 2000 actors across 10 nodes; killing 2 nodes forces 400 actors
//! to be recovered on the survivors. "With minimal overhead,
//! checkpointing enables only 500 methods to be re-executed, versus 10k
//! re-executions without checkpointing."

use bytes::Bytes;
use ray_bench::{fmt_duration, quick_mode, Report};
use ray_common::config::FaultConfig;
use ray_common::{NodeId, RayConfig};
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{decode_arg, encode_return, ActorInstance, Cluster, RayContext};
use std::time::{Duration, Instant};

struct Acc {
    total: i64,
}

impl ActorInstance for Acc {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "bump" => {
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

struct Outcome {
    replayed: u64,
    checkpoints: u64,
    recovery: Duration,
}

/// Runs the scenario: `actors` actors × `methods` calls each, kill the
/// two busiest nodes, then verify every actor's state and report replay
/// counts and recovery time.
fn run(actors: usize, methods: usize, nodes: usize, checkpoint: Option<u64>) -> Outcome {
    let mut cfg = RayConfig::builder().nodes(nodes).workers_per_node(2).seed(9).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 3,
        actor_checkpoint_interval: checkpoint,
        ..FaultConfig::default()
    };
    // Spread actor creations across the cluster (the paper's 2000 actors
    // over 10 nodes): route placement through the global scheduler, whose
    // tie-breaking balances equal-load nodes.
    cfg.scheduler.policy = ray_common::config::SchedulerPolicy::Centralized;
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.register_actor_class("Acc", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Acc { total: start }))
    });
    let ctx = cluster.driver();
    let handles: Vec<_> = (0..actors)
        .map(|_| {
            let opts = TaskOptions::default().with_demand(ray_common::Resources::cpus(1.0));
            ctx.create_actor("Acc", vec![Arg::value(&0i64).unwrap()], opts).unwrap()
        })
        .collect();
    // Wait for every actor to be constructed, then check the spread.
    for h in &handles {
        ctx.get(&h.ready()).unwrap();
    }
    let mut per_node = vec![0usize; nodes];
    for h in &handles {
        let rec = cluster.gcs().client().get_actor(h.id()).unwrap().unwrap();
        per_node[rec.node.index()] += 1;
    }
    assert!(
        per_node.iter().filter(|&&c| c > 0).count() >= nodes - 1,
        "actors should spread across nodes, got {per_node:?}"
    );
    // Drive every actor.
    let mut lasts: Vec<ObjectRef<i64>> = Vec::with_capacity(actors);
    for h in &handles {
        let mut last = None;
        for _ in 0..methods {
            last = Some(
                ctx.call_actor::<i64>(h, "bump", vec![Arg::value(&1i64).unwrap()]).unwrap(),
            );
        }
        lasts.push(last.unwrap());
    }
    for l in &lasts {
        assert_eq!(ctx.get(l).unwrap(), methods as i64);
    }

    // Kill two non-driver nodes.
    cluster.kill_node(NodeId((nodes - 1) as u32));
    cluster.kill_node(NodeId((nodes - 2) as u32));

    // Recovery completes when every actor answers one more method with
    // fully recovered state.
    let t0 = Instant::now();
    let probes: Vec<ObjectRef<i64>> = handles
        .iter()
        .map(|h| ctx.call_actor(h, "bump", vec![Arg::value(&1i64).unwrap()]).unwrap())
        .collect();
    for p in &probes {
        assert_eq!(
            ctx.get_with_timeout(p, Duration::from_secs(300)).unwrap(),
            methods as i64 + 1,
            "actor state must be exact after recovery"
        );
    }
    let recovery = t0.elapsed();
    let outcome = Outcome {
        replayed: cluster.metrics().counter("methods_replayed").get(),
        checkpoints: cluster.metrics().counter("checkpoints_taken").get(),
        recovery,
    };
    cluster.shutdown();
    outcome
}

fn main() {
    let quick = quick_mode();
    // Paper: 2000 actors / 10 nodes, 2 killed. Scaled: 60 actors / 5
    // nodes, 2 killed (same ~40% displacement).
    let (actors, methods, nodes) = if quick { (20, 10, 4) } else { (60, 25, 5) };

    let mut report = Report::new(
        "fig11b_actor_reconstruction",
        "Fig. 11b — actor recovery after killing 2 nodes: replay with vs without checkpoints",
        &["checkpointing", "methods replayed", "checkpoints", "recovery time"],
    );
    let without = run(actors, methods, nodes, None);
    report.row(&[
        "off".into(),
        without.replayed.to_string(),
        without.checkpoints.to_string(),
        fmt_duration(without.recovery),
    ]);
    // An interval that does not divide the method count, so recovery
    // replays the (realistic) tail beyond the last checkpoint.
    let every = (methods / 3 + 1) as u64;
    let with = run(actors, methods, nodes, Some(every));
    report.row(&[
        format!("every {every}"),
        with.replayed.to_string(),
        with.checkpoints.to_string(),
        fmt_duration(with.recovery),
    ]);
    report.note(format!(
        "{actors} actors × {methods} methods on {nodes} nodes, 2 nodes killed"
    ));
    report.note(format!(
        "replay reduction: {:.1}x (paper: 10k → 500 method re-executions)",
        without.replayed as f64 / with.replayed.max(1) as f64
    ));
    report.finish();
    assert!(
        with.replayed * 2 < without.replayed,
        "checkpointing must bound replay substantially: {} vs {}",
        with.replayed,
        without.replayed
    );
}
