//! Control-plane chaos: the GCS itself is the fault target.
//!
//! The node-level chaos suite (`chaos.rs`) assumes the control plane
//! stays up while nodes die. Here the assumption is inverted: chain
//! replicas crash, whole shards are lost, and the flusher is stalled —
//! all while workloads and journaled control-plane writes keep flowing.
//! Invariants checked throughout:
//!
//! - every write the GCS acknowledged stays readable (read-your-writes,
//!   no lost lineage), verified by [`ConsistencyChecker`];
//! - a whole-shard loss recovers from the flushed disk log, and the trace
//!   (kept outside the GCS, so nothing of it is flushed before the crash)
//!   pins the exact arc: replica crash → reconfiguration → recovery;
//! - two same-seed runs through shard loss produce identical trace
//!   signatures — control-plane recovery is as deterministic as the rest
//!   of the system;
//! - no lock-order violation is recorded across the episode.

use bytes::Bytes;
use ray_repro::common::config::{FaultConfig, GcsConfig};
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{ObjectId, RayConfig, ShardId, TaskId};
use ray_repro::gcs::check::ConsistencyChecker;
use ray_repro::ray::chaos::{self, ChaosAction, ChaosSchedule};
use ray_repro::ray::task::{Arg, ObjectRef};
use ray_repro::ray::Cluster;
use std::time::Duration;

/// Cluster config for control-plane chaos: a single replicated shard so
/// every control write lands on the chain under attack, tracing on, and
/// lineage enabled so recovery has something to lose.
fn gcs_chaos_config(nodes: usize, seed: u64) -> RayConfig {
    let mut cfg =
        RayConfig::builder().nodes(nodes).workers_per_node(2).seed(seed).tracing(true).build();
    cfg.gcs = GcsConfig { num_shards: 1, chain_length: 2, ..GcsConfig::default() };
    cfg.fault = FaultConfig {
        heartbeat_timeout: Duration::from_millis(500),
        ..FaultConfig::default()
    };
    cfg
}

// ----------------------------------------------------------------------
// The acceptance scenario: whole-shard loss mid-workload, recovery from
// the flushed disk log, trace-pinned arc, deterministic signature.
// ----------------------------------------------------------------------

fn run_shard_loss_scenario(seed: u64) -> String {
    let cluster = Cluster::start(gcs_chaos_config(2, seed)).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let checker = ConsistencyChecker::new(cluster.gcs().client());

    // Phase 1: live workload plus journaled control-plane writes. Task
    // IDs are derived from the loop index so the journal is identical
    // across same-seed runs.
    let mut fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
    for _ in 0..9 {
        fut = ctx.call("inc", vec![Arg::from_ref(&fut)]).unwrap();
    }
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(30)).unwrap(), 10);
    let tasks: Vec<TaskId> = (0..20).map(|_| TaskId::random()).collect();
    for (i, t) in tasks.iter().enumerate() {
        checker.put_task(*t, Bytes::from(vec![i as u8; 32])).unwrap();
        checker.put_object_lineage(ObjectId::random(), *t).unwrap();
    }

    // Persist the control state, then kill every replica of the only
    // shard (the trace is not kept in the GCS, so nothing of it is lost).
    // Until the chain master's all-dead streak crosses the recovery
    // threshold, the control plane is simply gone.
    cluster.gcs().flush_all_to_disk(0).unwrap();
    chaos::apply(&cluster, ChaosAction::CrashGcsShard(ShardId(0)));

    // Phase 2: acknowledged-write traffic drives detection; the client
    // retry budget absorbs the outage window. Then the task workload must
    // run to completion against the rebuilt shard.
    for i in 20..30u8 {
        checker.put_task(TaskId::random(), Bytes::from(vec![i; 32])).unwrap();
    }
    let mut fut2: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&100u64).unwrap()]).unwrap();
    for _ in 0..9 {
        fut2 = ctx.call("inc", vec![Arg::from_ref(&fut2)]).unwrap();
    }
    assert_eq!(
        ctx.get_with_timeout(&fut2, Duration::from_secs(60)).unwrap(),
        110,
        "seed {seed}: workload must complete against the recovered shard"
    );

    // The shard came back replicated, and every acknowledged write —
    // including all pre-crash flushed lineage — is still readable.
    assert_eq!(cluster.gcs().shard(ShardId(0)).replica_count(), 2, "seed {seed}");
    assert!(cluster.gcs().shard(ShardId(0)).reconfigurations() >= 1, "seed {seed}");
    let violations = checker.verify().unwrap();
    assert!(violations.is_empty(), "seed {seed}: lost acknowledged writes: {violations:?}");

    // The trace pins the recovery arc on the shard entity, in order:
    // replicas crashed → chain reconfigured → state replayed from disk.
    let log = cluster.trace_log().unwrap();
    log.assert()
        .ordered(
            TraceEntity::Shard(ShardId(0)),
            &[
                TraceEventKind::GcsReplicaCrashed,
                TraceEventKind::GcsReconfigured,
                TraceEventKind::GcsShardRecovered,
            ],
        )
        .happened(TraceEventKind::GcsShardRecovered)
        .deps_fetched_before_running();
    let lock_violations = ray_repro::common::sync::violations();
    assert!(lock_violations.is_empty(), "seed {seed}: {lock_violations:#?}");
    let sig = log.signature();
    assert!(!sig.is_empty());
    cluster.shutdown();
    sig
}

#[test]
fn whole_shard_loss_recovers_from_disk_mid_workload() {
    let first = run_shard_loss_scenario(23);
    let second = run_shard_loss_scenario(23);
    assert_eq!(
        first, second,
        "two same-seed runs through whole-shard loss + disk recovery must \
         produce the same canonical event sequence"
    );
}

// ----------------------------------------------------------------------
// Flusher stall: memory grows unbounded while stalled, drains on resume.
// ----------------------------------------------------------------------

#[test]
fn stalled_flusher_backs_up_memory_until_resumed() {
    let mut cfg = gcs_chaos_config(2, 5);
    cfg.gcs.flush_enabled = true;
    cfg.gcs.flush_threshold_entries = 50;
    cfg.gcs.flush_interval = Duration::from_millis(5);
    let cluster = Cluster::start(cfg).unwrap();
    let client = cluster.gcs().client();

    chaos::apply(&cluster, ChaosAction::StallFlusher);
    assert!(cluster.gcs().flusher_stalled());
    for i in 0..400u32 {
        client.put_task(TaskId::random(), Bytes::from(vec![(i % 251) as u8; 64])).unwrap();
    }
    // Well past the 50-entry high-water mark, yet nothing moved to disk.
    assert_eq!(cluster.gcs().entries_flushed(), 0, "stalled flusher must not flush");
    let stalled_resident = cluster.gcs().resident_bytes();
    assert!(stalled_resident > 400 * 64 / 2, "writes must pile up in memory");

    chaos::apply(&cluster, ChaosAction::ResumeFlusher);
    assert!(!cluster.gcs().flusher_stalled());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.gcs().entries_flushed() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cluster.gcs().entries_flushed() > 0, "resumed flusher must drain the backlog");
    assert!(
        cluster.gcs().resident_bytes() < stalled_resident,
        "flushing must shrink resident control-plane state"
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Seeded soak: mixed node + control-plane faults under live traffic.
// ----------------------------------------------------------------------

fn run_gcs_seeded_schedule(seed: u64) {
    let nodes = 4u32;
    let window = Duration::from_millis(2500);
    // Replica crashes and flusher stalls mix freely with node faults;
    // whole-shard crashes are exercised by the targeted scenario above
    // (they pause the control plane for the recovery threshold, which a
    // soak's unpinned timing would turn into flakes).
    let schedule = ChaosSchedule::generate_with_gcs(seed, nodes, 1, window, 4, false);
    assert_eq!(schedule, ChaosSchedule::generate_with_gcs(seed, nodes, 1, window, 4, false));
    assert!(!schedule.events().is_empty());

    let mut cfg = gcs_chaos_config(nodes as usize, 7);
    cfg.fault.heartbeat_timeout = Duration::from_millis(250);
    cfg.fault.max_reconstruction_attempts = 10;
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("slow_inc", |x: u64| {
        std::thread::sleep(Duration::from_millis(3));
        x + 1
    });
    let checker = ConsistencyChecker::new(cluster.gcs().client());

    std::thread::scope(|s| {
        let cluster = &cluster;
        let schedule = &schedule;
        let checker = &checker;
        s.spawn(move || schedule.run(cluster));

        // Workload 1: a task dependency chain across the fault window.
        s.spawn(move || {
            let ctx = cluster.driver();
            let mut fut: ObjectRef<u64> =
                ctx.call("slow_inc", vec![Arg::value(&0u64).unwrap()]).unwrap();
            for _ in 0..59 {
                fut = ctx.call("slow_inc", vec![Arg::from_ref(&fut)]).unwrap();
            }
            assert_eq!(
                ctx.get_with_timeout(&fut, Duration::from_secs(120)).unwrap(),
                60,
                "seed {seed}: task chain must survive control-plane chaos"
            );
        });

        // Workload 2: journaled control-plane writes through the window.
        s.spawn(move || {
            for i in 0..60u8 {
                let t = TaskId::random();
                checker.put_task(t, Bytes::from(vec![i; 16])).unwrap();
                checker.put_object_lineage(ObjectId::random(), t).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    });

    chaos::repair(&cluster, nodes);
    assert_eq!(cluster.live_nodes(), nodes as usize, "seed {seed}");
    assert!(!cluster.gcs().flusher_stalled(), "repair must resume the flusher");
    for shard in 0..cluster.gcs().num_shards() {
        assert_eq!(
            cluster.gcs().shard(ShardId(shard as u32)).replica_count(),
            2,
            "seed {seed}: shard {shard} must be back at full replication"
        );
    }

    // Every write the GCS acknowledged during the chaos window must still
    // read back exactly — across replica crashes and reconfigurations.
    let violations = checker.verify().unwrap();
    assert!(violations.is_empty(), "seed {seed}: lost acknowledged writes: {violations:?}");
    let lock_violations = ray_repro::common::sync::violations();
    assert!(lock_violations.is_empty(), "seed {seed}: {lock_violations:#?}");

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::Submitted)
        .happened(TraceEventKind::Finished)
        .deps_fetched_before_running();
    cluster.shutdown();
}

#[test]
fn gcs_seeded_schedule_19_is_survivable() {
    run_gcs_seeded_schedule(19);
}

#[test]
fn gcs_seeded_schedule_77_is_survivable() {
    run_gcs_seeded_schedule(77);
}

// ----------------------------------------------------------------------
// Replica crash (not whole-shard): reconfiguration is invisible to
// clients and leaves a trace.
// ----------------------------------------------------------------------

#[test]
fn replica_crash_reconfigures_without_client_visible_errors() {
    let cluster = Cluster::start(gcs_chaos_config(2, 9)).unwrap();
    let checker = ConsistencyChecker::new(cluster.gcs().client());
    for i in 0..10u8 {
        checker.put_task(TaskId::random(), Bytes::from(vec![i; 16])).unwrap();
    }
    chaos::apply(&cluster, ChaosAction::CrashGcsReplica(ShardId(0), 0));
    for i in 10..20u8 {
        checker.put_task(TaskId::random(), Bytes::from(vec![i; 16])).unwrap();
    }
    assert!(checker.verify().unwrap().is_empty());
    // The splice repaired the chain without a disk rebuild.
    assert!(cluster.gcs().shard(ShardId(0)).reconfigurations() >= 1);
    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::GcsReplicaCrashed)
        .never(TraceEventKind::GcsShardRecovered);
    cluster.shutdown();
}
