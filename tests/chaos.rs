//! Seeded chaos harness: fault schedules against live workloads.
//!
//! Unlike the targeted kill tests in `end_to_end.rs`, nothing here runs
//! the death protocol inline: nodes crash abruptly ([`Cluster::
//! kill_node_abrupt`]) or get partitioned off, and recovery happens only
//! because the heartbeat failure detector (paper §4.2.2's monitor)
//! notices the silence and runs the death protocol itself. Invariants
//! checked throughout:
//!
//! - every future resolves to the correct value (or a typed error);
//! - actor methods apply exactly once, in order — no duplicate side
//!   effects from replay;
//! - after `chaos::repair`, the cluster quiesces at full strength;
//! - the trace event log records the recovery protocol itself: death
//!   detected → lineage replay → object rematerialized, checkpoint
//!   restore before bounded method replay, dropped messages retried.
//!
//! Schedules are generated from fixed seeds, so a failure here reproduces
//! by rerunning the same test.

use bytes::Bytes;
use ray_repro::common::config::FaultConfig;
use ray_repro::common::metrics::names;
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{NodeId, RayConfig};
use ray_repro::ray::chaos::{self, ChaosSchedule};
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

fn register_counter(cluster: &Cluster) {
    cluster.register_actor_class("Counter", |_ctx, args| {
        let start: i64 = decode_arg(args, 0)?;
        Ok(Box::new(Counter { total: start }))
    });
}

/// Chaos config: detection tight enough to test (default is a generous
/// 2 s), checkpointing on, tracing on (every test here asserts on the
/// recovery event log), and a generous reconstruction budget — chaos can
/// lose the same producer more than once.
fn chaos_config(nodes: usize, heartbeat_timeout: Duration) -> RayConfig {
    let mut cfg =
        RayConfig::builder().nodes(nodes).workers_per_node(2).seed(7).tracing(true).build();
    cfg.fault = FaultConfig {
        lineage_enabled: true,
        max_reconstruction_attempts: 10,
        actor_checkpoint_interval: Some(3),
        heartbeat_timeout,
    };
    cfg
}

/// Polls a metrics counter until it reaches `min` or `deadline` expires.
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

// ----------------------------------------------------------------------
// Detector-driven recovery from an abrupt crash.
// ----------------------------------------------------------------------

#[test]
fn abrupt_crash_is_discovered_and_recovered() {
    let cluster =
        Cluster::start(chaos_config(4, Duration::from_millis(250))).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    // Chain with a middle segment pinned to node 2, so those outputs live
    // only there. Keep a ref into the middle of the pinned segment.
    let mut fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
    for _ in 0..9 {
        fut = ctx.call("inc", vec![Arg::from_ref(&fut)]).unwrap();
    }
    let pin = TaskOptions::default().with_demand(node_affinity(NodeId(2)));
    let mut mid = None;
    for i in 0..10 {
        fut = ctx.call_opts("inc", vec![Arg::from_ref(&fut)], pin.clone()).unwrap();
        if i == 4 {
            mid = Some(fut);
        }
    }
    let mid: ObjectRef<u64> = mid.unwrap();
    // Force the whole pinned segment to execute (and its outputs to be
    // stored on node 2) before the crash.
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(30)).unwrap(), 20);

    // Crash: no cleanup, no announcement. Only heartbeats stop.
    cluster.kill_node_abrupt(NodeId(2));
    assert!(!cluster.fabric().is_alive(NodeId(2)));

    // Branch off the lost middle object; its reconstruction needs node 2
    // back (the producers are pinned), so it stays pending for now.
    let mut branch: ObjectRef<u64> =
        ctx.call("inc", vec![Arg::from_ref(&mid)]).unwrap();
    for _ in 0..4 {
        branch = ctx.call("inc", vec![Arg::from_ref(&branch)]).unwrap();
    }

    // The monitor must notice the silence on its own.
    assert!(
        wait_for_counter(&cluster, names::NODES_DECLARED_DEAD, 1, Duration::from_secs(15)),
        "detector never declared the crashed node dead"
    );
    assert!(cluster.metrics().counter(names::HEARTBEATS_MISSED).get() >= 1);
    assert!(!cluster.gcs().client().node_alive(NodeId(2)).unwrap());

    // Bring the slot back; pinned producers re-execute through lineage.
    cluster.restart_node(NodeId(2)).unwrap();
    assert_eq!(
        ctx.get_with_timeout(&branch, Duration::from_secs(120)).unwrap(),
        20, // mid = 15, plus 5 more incs
        "branch from the lost object must recover the exact value"
    );
    assert!(cluster.metrics().counter(names::TASKS_REEXECUTED).get() >= 1);
    assert_eq!(cluster.live_nodes(), 4);

    // The event log records the whole recovery arc. The lost mid-chain
    // object materialized, was claimed for reconstruction after the loss,
    // and materialized again; the death was detected (suspicion first,
    // then the declaration on the silent node); lineage resubmitted work;
    // and no task anywhere ran ahead of its inputs.
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::HeartbeatMissed)
        .happened_on(NodeId(2), TraceEventKind::NodeDeclaredDead)
        .ordered(
            TraceEntity::Object(mid.id()),
            &[
                TraceEventKind::ObjectPut,
                TraceEventKind::Reconstructing,
                TraceEventKind::ObjectPut,
            ],
        )
        .happened(TraceEventKind::Resubmitted)
        .never(TraceEventKind::Failed)
        .deps_fetched_before_running();
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Partition = death from the majority's point of view.
// ----------------------------------------------------------------------

#[test]
fn isolated_node_is_declared_dead_and_its_actor_recovers() {
    let cluster =
        Cluster::start(chaos_config(4, Duration::from_millis(250))).unwrap();
    register_counter(&cluster);
    let ctx = cluster.driver();

    // Pin an actor to node 2 and drive some checkpointed state.
    let opts = TaskOptions::default().with_demand(node_affinity(NodeId(2)));
    let h = ctx.create_actor("Counter", vec![Arg::value(&0i64).unwrap()], opts).unwrap();
    ctx.get_with_timeout(&h.ready(), Duration::from_secs(30)).unwrap();
    assert_eq!(
        cluster.gcs().client().get_actor(h.id()).unwrap().unwrap().node,
        NodeId(2),
        "affinity demand must pin the actor"
    );
    for i in 1..=6i64 {
        let f: ObjectRef<i64> =
            ctx.call_actor(&h, "add", vec![Arg::value(&1i64).unwrap()]).unwrap();
        assert_eq!(ctx.get_with_timeout(&f, Duration::from_secs(30)).unwrap(), i);
    }
    assert!(cluster.metrics().counter(names::CHECKPOINTS_TAKEN).get() >= 1);

    // Cut node 2 off from every peer. The node itself is healthy — but it
    // cannot reach the majority, so its heartbeats stop arriving and the
    // majority side declares it dead.
    for peer in [0u32, 1, 3] {
        cluster.fabric().partition(NodeId(2), NodeId(peer));
    }
    assert!(
        wait_for_counter(&cluster, names::NODES_DECLARED_DEAD, 1, Duration::from_secs(15)),
        "detector never declared the isolated node dead"
    );
    // Declaration fences the minority side: from the cluster's view the
    // node is gone, exactly as if it had crashed.
    assert!(!cluster.fabric().is_alive(NodeId(2)));

    // Methods invoked while the actor is down queue at the router.
    let pending: Vec<ObjectRef<i64>> = (0..4)
        .map(|_| ctx.call_actor(&h, "add", vec![Arg::value(&1i64).unwrap()]).unwrap())
        .collect();

    // Heal the links and bring the slot back; the rebuild (pinned to node
    // 2 by the creation task's demand) restores the checkpoint, replays
    // the tail, and flushes the queue.
    for peer in [0u32, 1, 3] {
        cluster.fabric().heal(NodeId(2), NodeId(peer));
    }
    cluster.restart_node(NodeId(2)).unwrap();
    for (k, f) in pending.iter().enumerate() {
        assert_eq!(
            ctx.get_with_timeout(f, Duration::from_secs(120)).unwrap(),
            7 + k as i64,
            "state must continue exactly where the partition left it"
        );
    }
    assert_eq!(cluster.live_nodes(), 4);

    // The rebuild must have gone checkpoint-first: checkpoints cut while
    // the actor lived, exactly one restored, replay bounded by the
    // checkpoint interval (3) rather than the full 6-method log, and the
    // actor back on its feet.
    let log = cluster.trace_log().unwrap();
    let actor = TraceEntity::Actor(h.id());
    log.assert()
        .happened_on(NodeId(2), TraceEventKind::NodeDeclaredDead)
        .ordered(
            actor,
            &[
                TraceEventKind::CheckpointTaken,
                TraceEventKind::CheckpointRestored,
                TraceEventKind::ActorRebuilt,
            ],
        )
        .count_eq(actor, TraceEventKind::CheckpointRestored, 1)
        .count_at_most(actor, TraceEventKind::MethodReplayed, 2)
        .deps_fetched_before_running();
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Generated schedules: 3 fixed seeds, mixed workloads, quiesce.
// ----------------------------------------------------------------------

fn run_seeded_schedule(seed: u64) {
    let nodes = 4u32;
    let window = Duration::from_millis(2500);
    let schedule = ChaosSchedule::generate(seed, nodes, window, 3);
    // Determinism: the same seed must always produce the same schedule.
    assert_eq!(schedule, ChaosSchedule::generate(seed, nodes, window, 3));
    assert!(!schedule.events().is_empty());

    let cluster =
        Cluster::start(chaos_config(nodes as usize, Duration::from_millis(200))).unwrap();
    cluster.register_fn1("slow_inc", |x: u64| {
        std::thread::sleep(Duration::from_millis(3));
        x + 1
    });
    register_counter(&cluster);

    std::thread::scope(|s| {
        let cluster = &cluster;
        let schedule = &schedule;
        s.spawn(move || schedule.run(cluster));

        // Workload 1: a dependency chain of tasks. Every link must carry
        // the exact value across kills, crashes, and partitions.
        s.spawn(move || {
            let ctx = cluster.driver();
            let mut fut: ObjectRef<u64> =
                ctx.call("slow_inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
            for _ in 0..79 {
                fut = ctx.call("slow_inc", vec![Arg::from_ref(&fut)]).unwrap();
            }
            assert_eq!(
                ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap(),
                80,
                "seed {seed}: task chain must survive the schedule"
            );
        });

        // Workload 2: a stateful actor driven synchronously. Exactly-once,
        // in-order application means call i returns exactly i.
        s.spawn(move || {
            let ctx = cluster.driver();
            let h = ctx
                .create_actor("Counter", vec![Arg::value(&0i64).unwrap()], TaskOptions::default())
                .unwrap();
            ctx.get_with_timeout(&h.ready(), Duration::from_secs(120)).unwrap();
            for i in 1..=30i64 {
                let f: ObjectRef<i64> =
                    ctx.call_actor(&h, "add", vec![Arg::value(&1i64).unwrap()]).unwrap();
                assert_eq!(
                    ctx.get_with_timeout(&f, Duration::from_secs(120)).unwrap(),
                    i,
                    "seed {seed}: methods must apply exactly once, in order"
                );
            }
        });
    });

    // Quiesce: restore full strength, then prove every node schedules and
    // serves objects again.
    chaos::repair(&cluster, nodes);
    assert_eq!(cluster.live_nodes(), nodes as usize, "seed {seed}");
    let ctx = cluster.driver();
    for n in 0..nodes {
        let pin = TaskOptions::default().with_demand(node_affinity(NodeId(n)));
        let f: ObjectRef<u64> = ctx
            .call_opts("slow_inc", vec![Arg::value(&u64::from(n)).unwrap()], pin)
            .unwrap();
        assert_eq!(
            ctx.get_with_timeout(&f, Duration::from_secs(30)).unwrap(),
            u64::from(n) + 1,
            "seed {seed}: node {n} must be live after repair"
        );
    }
    // The whole episode — kills, partitions, recovery — must leave the
    // lock acquisition-order graph acyclic (debug builds only; the
    // detector compiles out in release).
    ray_repro::common::sync::assert_acyclic();

    // Whatever the schedule did, the causal invariant holds across every
    // task the run traced: dependencies landed before execution started.
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::Submitted)
        .happened(TraceEventKind::Finished)
        .deps_fetched_before_running();
    cluster.shutdown();
}

#[test]
fn seeded_schedule_11_is_survivable() {
    run_seeded_schedule(11);
}

#[test]
fn seeded_schedule_42_is_survivable() {
    run_seeded_schedule(42);
}

#[test]
fn seeded_schedule_1337_is_survivable() {
    run_seeded_schedule(1337);
}

// ----------------------------------------------------------------------
// Message-level chaos: seeded drops end to end.
// ----------------------------------------------------------------------

#[test]
fn workloads_survive_seeded_message_drops() {
    let mut cfg = chaos_config(3, Duration::from_secs(2));
    // One in five data/heartbeat messages dropped, deterministically.
    cfg.transport.chaos.drop_probability = 0.2;
    cfg.transport.chaos.seed = 0xDECAF;
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("double", |x: u64| x * 2);
    let ctx = cluster.driver();

    // Pin producers off the driver's node so every `get` crosses the
    // lossy wire and exercises the transfer retry path.
    let pin = TaskOptions::default().with_demand(node_affinity(NodeId(1)));
    let futs: Vec<ObjectRef<u64>> = (0..40)
        .map(|i| {
            ctx.call_opts("double", vec![Arg::value(&(i as u64)).unwrap()], pin.clone())
                .unwrap()
        })
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            ctx.get_with_timeout(f, Duration::from_secs(60)).unwrap(),
            2 * i as u64,
            "drops are retried, never surfaced as wrong answers"
        );
    }
    assert!(cluster.fabric().message_drop_count() > 0, "p=0.2 must drop something");
    assert!(cluster.metrics().counter(names::MESSAGES_DROPPED).get() > 0);
    assert!(cluster.metrics().counter(names::TRANSFER_RETRIES).get() > 0);
    // Nothing here should have looked like a node failure.
    assert_eq!(cluster.live_nodes(), 3);

    // The lossy wire shows up in the trace: drops recorded by the fabric,
    // retries by the transfer manager — and not a single declared death
    // or reconstruction, because retries absorbed every drop.
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::MessageDropped)
        .happened(TraceEventKind::TransferRetry)
        .happened(TraceEventKind::ObjectTransferred)
        .never(TraceEventKind::NodeDeclaredDead)
        .never(TraceEventKind::Reconstructing)
        .deps_fetched_before_running();
    cluster.shutdown();
}

/// Soak iteration for the lock-order detector: repeated
/// kill → partition → recover episodes under live workload traffic, with
/// the acquisition-order graph checked for cycles after every episode.
/// A single run only witnesses one interleaving; iterating accumulates
/// edges from many (the graph is process-global and only ever grows), so a
/// latent inversion anywhere on the failure-handling paths shows up here
/// as a cycle even if no run actually deadlocked.
#[test]
fn lock_graph_stays_acyclic_across_chaos_soak() {
    let nodes = 3u32;
    let cluster =
        Cluster::start(chaos_config(nodes as usize, Duration::from_millis(200))).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();

    for episode in 0u32..4 {
        // Rotate the victim among the non-root nodes.
        let victim = NodeId(1 + episode % (nodes - 1));
        let other = NodeId(1 + (episode + 1) % (nodes - 1));

        // Keep tasks flowing while the fault is live so the episode
        // exercises the reconstruction and rerouting lock paths.
        let fut: ObjectRef<u64> =
            ctx.call("inc", vec![Arg::value(&u64::from(episode)).unwrap()]).unwrap();

        chaos::apply(&cluster, chaos::ChaosAction::KillAbrupt(victim));
        chaos::apply(&cluster, chaos::ChaosAction::Partition(NodeId(0), other));
        assert_eq!(
            ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap(),
            u64::from(episode) + 1,
            "episode {episode}: work must survive the fault"
        );

        chaos::apply(&cluster, chaos::ChaosAction::Heal(NodeId(0), other));
        chaos::repair(&cluster, nodes);
        assert_eq!(cluster.live_nodes(), nodes as usize, "episode {episode}");

        // After every kill/partition/recover episode the global
        // acquisition-order graph must still be a DAG.
        ray_repro::common::sync::assert_acyclic();
    }

    cluster.shutdown();
    ray_repro::common::sync::assert_acyclic();
}
