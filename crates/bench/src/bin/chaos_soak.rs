//! Chaos soak: seeded fault schedules against live task + actor
//! workloads, reporting detector and recovery activity.
//!
//! Robustness companion to the Fig. 11 experiments: instead of one
//! scripted kill, a generated [`ChaosSchedule`] crashes, partitions, and
//! restarts nodes while a task chain and a checkpointing actor keep
//! working, with a little message-level loss on top. Every value is
//! asserted exact — the run measures how much recovery machinery (failure
//! detection, lineage re-execution, method replay, transfer retries) that
//! costs.

use bytes::Bytes;
use ray_bench::{fmt_duration, quick_mode, Report};
use ray_common::config::FaultConfig;
use ray_common::metrics::names;
use ray_common::RayConfig;
use rustray::chaos::{self, ChaosSchedule};
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
    events: usize,
    declared_dead: u64,
    reexecuted: u64,
    replayed: u64,
    dropped: u64,
    retries: u64,
    wall: Duration,
}

fn run_seed(seed: u64, window: Duration, faults: usize, chain: usize, adds: i64) -> Outcome {
    let nodes = 4u32;
    let schedule = ChaosSchedule::generate(seed, nodes, window, faults);

    let mut cfg =
        RayConfig::builder().nodes(nodes as usize).workers_per_node(2).seed(seed).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 10,
        actor_checkpoint_interval: Some(3),
        heartbeat_timeout: Duration::from_millis(200),
    };
    // A little message loss on top of the node faults.
    cfg.transport.chaos.drop_probability = 0.03;
    cfg.transport.chaos.seed = seed;
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.register_fn1("slow_inc", |x: u64| {
        std::thread::sleep(Duration::from_millis(3));
        x + 1
    });
    cluster.register_actor_class("Acc", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Acc { total: start }))
    });

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let cluster = &cluster;
        let schedule = &schedule;
        s.spawn(move || schedule.run(cluster));
        s.spawn(move || {
            let ctx = cluster.driver();
            let mut fut: ObjectRef<u64> =
                ctx.call("slow_inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
            for _ in 1..chain {
                fut = ctx.call("slow_inc", vec![Arg::from_ref(&fut)]).unwrap();
            }
            assert_eq!(
                ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap(),
                chain as u64,
                "seed {seed}: chain value must be exact"
            );
        });
        s.spawn(move || {
            let ctx = cluster.driver();
            let h = ctx
                .create_actor("Acc", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
                .unwrap();
            ctx.get_with_timeout(&h.ready(), Duration::from_secs(120)).unwrap();
            for i in 1..=adds {
                let f: ObjectRef<i64> =
                    ctx.call_actor(&h, "bump", vec![Arg::value(&1i64).unwrap()]).unwrap();
                assert_eq!(
                    ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap(),
                    i,
                    "seed {seed}: methods must apply exactly once, in order"
                );
            }
        });
    });
    chaos::repair(&cluster, nodes);
    assert_eq!(cluster.live_nodes(), nodes as usize);
    let wall = t0.elapsed();

    let outcome = Outcome {
        events: schedule.events().len(),
        declared_dead: cluster.metrics().counter(names::NODES_DECLARED_DEAD).get(),
        reexecuted: cluster.metrics().counter(names::TASKS_REEXECUTED).get(),
        replayed: cluster.metrics().counter(names::METHODS_REPLAYED).get(),
        dropped: cluster.metrics().counter(names::MESSAGES_DROPPED).get(),
        retries: cluster.metrics().counter(names::TRANSFER_RETRIES).get(),
        wall,
    };
    cluster.shutdown();
    outcome
}

fn main() {
    let quick = quick_mode();
    let (seeds, window, faults, chain, adds): (&[u64], _, _, _, _) = if quick {
        (&[11], Duration::from_millis(1500), 2, 40, 15)
    } else {
        (&[11, 42, 1337], Duration::from_millis(2500), 3, 80, 30)
    };

    let mut report = Report::new(
        "chaos_soak",
        "Chaos soak — seeded fault schedules vs task chain + checkpointing actor",
        &["seed", "events", "declared dead", "reexecuted", "replayed", "drops/retries", "wall"],
    );
    for &seed in seeds {
        let o = run_seed(seed, window, faults, chain, adds);
        report.row(&[
            seed.to_string(),
            o.events.to_string(),
            o.declared_dead.to_string(),
            o.reexecuted.to_string(),
            o.replayed.to_string(),
            format!("{}/{}", o.dropped, o.retries),
            fmt_duration(o.wall),
        ]);
    }
    report.note(format!(
        "{faults} faults over {window:?} per seed, {chain}-task chain + {adds} actor methods, \
         p=0.03 message drops; all values asserted exact"
    ));
    report.note(
        "faults are discovered by the heartbeat detector (abrupt kills and partitions), \
         never announced inline"
            .to_string(),
    );
    report.finish();
}
