//! Serving-layer chaos suite: the replica pool under replica and
//! control-plane failures.
//!
//! Exercises the self-healing contract end to end against live clusters:
//! - a seeded soak kills a replica's node *and* a whole GCS shard under
//!   sustained closed-loop load — no admitted request with deadline
//!   budget remaining may fail, the p99 blip must be bounded, and the
//!   killed replica must travel the full recovery arc
//!   (`replica_spawned` → `replica_unhealthy` → `actor_rebuilt` →
//!   re-admission);
//! - the same kill/restart scenario replayed under one seed produces an
//!   identical trace signature;
//! - hedged requests never duplicate side effects: the losing attempt is
//!   cancelled before its method can be logged (seed-swept, with the
//!   replicas' own request counters as the side-effect witness);
//! - SLO violations are traced and scale-down retires a replica.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ray_repro::common::config::FaultConfig;
use ray_repro::common::metrics::names;
use ray_repro::common::trace::{TraceEntity, TraceEventKind};
use ray_repro::common::{NodeId, RayConfig, RayError, ShardId};
use ray_repro::ray::Cluster;
use ray_repro::rl::serving::{pool_config, register, ServingWorkload};
use ray_repro::serve::{AutoscaleConfig, HedgeConfig, ReplicaPool};

/// A small, fixed-cost workload: spin count is a constant (not wall-clock
/// calibrated) so the same seed schedules the same work.
fn tiny_workload() -> ServingWorkload {
    ServingWorkload { state_bytes: 256, batch: 2, eval_spin: 500, rest_text_encoding: false }
}

fn payload(workload: &ServingWorkload, round: u64) -> Vec<u8> {
    let mut p = vec![0u8; workload.state_bytes * workload.batch];
    p.iter_mut().zip(round.to_le_bytes()).for_each(|(b, t)| *b = t);
    p
}

fn wait_until(mut pred: impl FnMut() -> bool, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Aggregated outcome of one closed-loop load phase.
#[derive(Default)]
struct Phase {
    ok: u64,
    shed: u64,
    failed: u64,
    errors: Vec<String>,
    latencies_us: Vec<u64>,
}

impl Phase {
    fn p99(&self) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * 0.99).round() as usize;
        self.latencies_us.get(idx).copied().unwrap_or(0)
    }
}

/// Drives `clients` closed-loop threads at the pool for `window`.
fn run_load(pool: &ReplicaPool, workload: &ServingWorkload, clients: usize, window: Duration) -> Phase {
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let t0 = Instant::now();
                    let mut round = client as u64;
                    while t0.elapsed() < window {
                        let sent = Instant::now();
                        match pool.request(payload(workload, round)) {
                            Ok(_) => {
                                phase.ok += 1;
                                phase.latencies_us.push(sent.elapsed().as_micros() as u64);
                            }
                            Err(RayError::Overloaded(_)) => phase.shed += 1,
                            Err(e) => {
                                phase.failed += 1;
                                phase.errors.push(e.to_string());
                            }
                        }
                        round += clients as u64;
                    }
                    phase
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut total = Phase::default();
    for r in results {
        total.ok += r.ok;
        total.shed += r.shed;
        total.failed += r.failed;
        total.errors.extend(r.errors);
        total.latencies_us.extend(r.latencies_us);
    }
    total.latencies_us.sort_unstable();
    total
}

// ----------------------------------------------------------------------
// Soak: replica-node kill + whole-GCS-shard kill under closed-loop load.
// ----------------------------------------------------------------------

#[test]
fn serve_pool_survives_replica_and_gcs_chaos() {
    let mut cfg =
        RayConfig::builder().nodes(4).workers_per_node(2).seed(0xE57).tracing(true).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 10,
        actor_checkpoint_interval: Some(8),
        ..FaultConfig::default()
    };
    let cluster = Arc::new(Cluster::start(cfg).unwrap());
    register(&cluster);
    let workload = tiny_workload();
    let mut pool_cfg = pool_config(&workload).unwrap();
    pool_cfg.replicas_min = 3;
    pool_cfg.replicas_max = 4;
    // A generous deadline makes the zero-failures assertion sharp: any
    // failure below means the pool gave up with budget left, not that a
    // request ran out of time.
    pool_cfg.request_timeout = Duration::from_secs(10);
    // ...but no single attempt may pin a request for that long: a node
    // death racing the method log can orphan an in-flight attempt, and
    // the router must abandon it and fail over within the budget.
    pool_cfg.attempt_timeout = Some(Duration::from_secs(1));
    pool_cfg.shed_watermark = 256;
    pool_cfg.probe_timeout = Duration::from_millis(100);
    pool_cfg.hedge = Some(HedgeConfig {
        percentile: 0.9,
        min: Duration::from_millis(1),
        max: Duration::from_millis(10),
    });
    pool_cfg.slo = Some(Duration::from_millis(500));
    pool_cfg.autoscale = AutoscaleConfig {
        enabled: true,
        scale_up_depth: 8.0,
        scale_down_depth: 0.0, // never retire: keep the recovery arc clean
        cooldown: Duration::from_millis(100),
    };
    pool_cfg.monitor_interval = Some(Duration::from_millis(10));
    let pool = ReplicaPool::deploy(&cluster, pool_cfg).unwrap();

    let victim =
        pool.replicas().into_iter().find(|r| r.node != NodeId(0)).expect("replica off node 0");

    // Phase A: steady state.
    let steady = run_load(&pool, &workload, 3, Duration::from_millis(400));
    assert!(steady.ok > 0, "steady phase served nothing");
    assert_eq!(steady.failed, 0, "steady phase failed requests");

    // Phase B: kill the victim replica's node, then a whole GCS shard,
    // while the same closed-loop load keeps running.
    let chaos = std::thread::scope(|scope| {
        let loader = scope.spawn(|| run_load(&pool, &workload, 3, Duration::from_millis(900)));
        std::thread::sleep(Duration::from_millis(100));
        cluster.kill_node(victim.node);
        std::thread::sleep(Duration::from_millis(150));
        cluster.gcs().crash_shard(ShardId(0));
        std::thread::sleep(Duration::from_millis(200));
        cluster.gcs().heal_all();
        std::thread::sleep(Duration::from_millis(100));
        cluster.restart_node(victim.node).unwrap();
        loader.join().unwrap()
    });
    assert!(chaos.ok > 0, "chaos phase served nothing");
    assert_eq!(
        chaos.failed, 0,
        "chaos phase failed {} requests that still had deadline budget: {:?}",
        chaos.failed, chaos.errors
    );

    // The monitor's probes must re-admit the rebuilt replica.
    assert!(
        wait_until(|| pool.healthy_count() >= pool.replicas().len().min(3), Duration::from_secs(15)),
        "replicas never returned to healthy after repair: {:?}",
        pool.replicas()
    );

    // Phase C: recovered. The p99 blip is bounded — after recovery the
    // tail returns to the same order of magnitude as steady state.
    let recovered = run_load(&pool, &workload, 3, Duration::from_millis(400));
    assert_eq!(recovered.failed, 0, "recovered phase failed requests");
    let bound = (steady.p99().saturating_mul(20)).max(250_000);
    assert!(
        recovered.p99() <= bound,
        "p99 did not recover: steady={}us recovered={}us",
        steady.p99(),
        recovered.p99()
    );

    let log = cluster.trace_log().unwrap();
    // The killed replica travels the full recovery arc: spawned at
    // deploy, drained when its node died, rebuilt by core (checkpoint +
    // replay), then re-admitted by a health probe.
    log.assert()
        .ordered(
            TraceEntity::Actor(victim.actor),
            &[
                TraceEventKind::ReplicaSpawned,
                TraceEventKind::ReplicaUnhealthy,
                TraceEventKind::ActorRebuilt,
                TraceEventKind::ReplicaSpawned,
            ],
        )
        .happened(TraceEventKind::ReplicaSpawned)
        .happened(TraceEventKind::ReplicaUnhealthy);
    // Failovers and hedges both route around the dead replica; which one
    // catches a given request depends on timing, so only their sum is
    // meaningful — and even it can be zero if no request was in flight at
    // the kill. The hard guarantees asserted above are zero failures and
    // the recovery arc.
    assert!(cluster.metrics().counter(names::SERVE_REQUESTS).get() > 0);

    pool.shutdown();
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Determinism: the same seed replays the same recovery, byte for byte.
// ----------------------------------------------------------------------

/// One fixed kill/rebuild/re-admit scenario with a *fixed* number of
/// submitted calls, so task identities line up run over run. All waiting
/// between steps uses trace-silent registry reads
/// ([`Cluster::actor_node`]), never extra probe calls.
fn recovery_scenario(seed: u64) -> String {
    let mut cfg =
        RayConfig::builder().nodes(3).workers_per_node(2).seed(seed).tracing(true).build();
    cfg.fault = FaultConfig {
        max_reconstruction_attempts: 10,
        actor_checkpoint_interval: Some(3),
        ..FaultConfig::default()
    };
    let cluster = Arc::new(Cluster::start(cfg).unwrap());
    register(&cluster);
    let workload = tiny_workload();
    let mut pool_cfg = pool_config(&workload).unwrap();
    pool_cfg.replicas_max = 2; // min 2: a fixed two-replica set
    pool_cfg.probe_timeout = Duration::from_secs(2);
    let pool = ReplicaPool::deploy(&cluster, pool_cfg).unwrap();
    let victim =
        pool.replicas().into_iter().find(|r| r.node != NodeId(0)).expect("replica off node 0");

    // Six requests round-robin to exactly three per replica; with a
    // checkpoint interval of three, both replicas checkpoint.
    for round in 0..6u64 {
        pool.request(payload(&workload, round)).unwrap();
    }

    cluster.kill_node(victim.node);
    assert!(
        wait_until(|| cluster.actor_node(victim.actor).is_none(), Duration::from_secs(10)),
        "victim never left the Alive state"
    );
    // Exactly one probe round while the node is down: the victim's probe
    // deterministically times out and drains it from routing.
    pool.probe_now();
    assert_eq!(pool.healthy_count(), 1);

    cluster.restart_node(victim.node).unwrap();
    assert!(
        wait_until(|| cluster.actor_node(victim.actor).is_some(), Duration::from_secs(15)),
        "victim was never rebuilt"
    );
    // Exactly one probe round after the rebuild: the victim answers and
    // is re-admitted.
    pool.probe_now();
    assert_eq!(pool.healthy_count(), 2);
    // Re-admission emits `replica_spawned` but spawns nothing: the
    // counter still holds the two deployed replicas. Core rebuilt the
    // victim like any other actor: its creation carries no special option.
    assert_eq!(cluster.metrics().counter(names::SERVE_REPLICAS_SPAWNED).get(), 2);

    // Two post-recovery requests exercise both replicas again.
    for round in 6..8u64 {
        pool.request(payload(&workload, round)).unwrap();
    }

    let log = cluster.trace_log().unwrap();
    log.assert()
        .ordered(
            TraceEntity::Actor(victim.actor),
            &[
                TraceEventKind::ReplicaSpawned,
                TraceEventKind::ReplicaUnhealthy,
                TraceEventKind::ActorRebuilt,
                TraceEventKind::ReplicaSpawned,
            ],
        )
        .happened(TraceEventKind::CheckpointTaken)
        .happened(TraceEventKind::CheckpointRestored)
        .count_eq(TraceEntity::Actor(victim.actor), TraceEventKind::ReplicaUnhealthy, 1);
    let signature = log.signature();
    pool.shutdown();
    cluster.shutdown();
    signature
}

#[test]
fn serve_recovery_signature_is_deterministic() {
    let first = recovery_scenario(7);
    let second = recovery_scenario(7);
    assert_eq!(first, second, "same seed, different serve recovery signatures");
}

// ----------------------------------------------------------------------
// Hedging: the losing attempt is cancelled, never double-counted.
// ----------------------------------------------------------------------

/// Property, swept over seeds: with one replica straggling far past the
/// hedge trigger, every request still yields exactly one result and the
/// replicas' own request counters sum to exactly the number of delivered
/// results — a hedge loser's method is cancelled *before* it is logged,
/// so it can neither execute nor replay.
#[test]
fn hedged_requests_never_duplicate_side_effects() {
    for seed in [11u64, 29, 47] {
        let cfg =
            RayConfig::builder().nodes(3).workers_per_node(2).seed(seed).tracing(true).build();
        let cluster = Arc::new(Cluster::start(cfg).unwrap());
        register(&cluster);
        let workload = tiny_workload();
        let mut pool_cfg = pool_config(&workload).unwrap();
        pool_cfg.replicas_max = 2;
        pool_cfg.request_timeout = Duration::from_secs(10);
        pool_cfg.hedge = Some(HedgeConfig {
            percentile: 0.9,
            min: Duration::from_millis(1),
            max: Duration::from_millis(5),
        });
        let pool = ReplicaPool::deploy(&cluster, pool_cfg).unwrap();
        let straggler =
            pool.replicas().into_iter().find(|r| r.node != NodeId(0)).expect("replica off node 0");

        // The straggler's node pays a delay 10x the hedge ceiling: any
        // request routed there first will hedge, and the loser is
        // cancelled while still inside the injected delay — before its
        // method can be logged.
        cluster.set_worker_delay(straggler.node, Duration::from_millis(60));
        let requests = 8u64;
        for round in 0..requests {
            let out = pool.request(payload(&workload, round)).unwrap();
            assert_eq!(out.len(), workload.batch * 8, "seed {seed}: malformed reply");
        }
        cluster.set_worker_delay(straggler.node, Duration::ZERO);

        // Side-effect witness: each replica counts the requests it
        // actually applied. Exactly-once means the counters sum to the
        // number of results delivered — no lost requests, no duplicates.
        // The pings double as a barrier: actor hosts are serial, so by the
        // time a ping answers, every cancelled loser queued before it has
        // been torn down (and has emitted its trace event).
        let ctx = cluster.driver();
        let mut applied = 0u64;
        for handle in pool.replica_handles() {
            let r = ctx.call_actor_readonly::<u64>(&handle, "ping", Vec::new()).unwrap();
            applied += ctx.get(&r).unwrap();
        }
        assert_eq!(
            applied, requests,
            "seed {seed}: replicas applied {applied} methods for {requests} delivered results"
        );

            let log = cluster.trace_log().unwrap();
        log.assert()
            .happened(TraceEventKind::RequestHedged)
            .happened(TraceEventKind::TaskCancelled);
        assert!(
            cluster.metrics().counter(names::SERVE_HEDGES).get() >= 1,
            "seed {seed}: round-robin routing must have hedged at least once"
        );

        pool.shutdown();
        cluster.shutdown();
    }
}

// ----------------------------------------------------------------------
// SLO enforcement and scale-down retirement.
// ----------------------------------------------------------------------

#[test]
fn slo_violations_are_traced_and_scale_down_retires() {
    let cfg = RayConfig::builder().nodes(3).workers_per_node(2).seed(5).tracing(true).build();
    let cluster = Arc::new(Cluster::start(cfg).unwrap());
    register(&cluster);
    let workload = tiny_workload();
    let mut pool_cfg = pool_config(&workload).unwrap();
    pool_cfg.replicas_min = 1;
    pool_cfg.replicas_max = 3;
    // An SLO no real request can meet: every success is a violation.
    pool_cfg.slo = Some(Duration::from_micros(10));
    pool_cfg.autoscale = AutoscaleConfig {
        enabled: true,
        scale_up_depth: 1000.0, // only exercise the scale-down side here
        scale_down_depth: 0.5,
        cooldown: Duration::ZERO,
    };
    let pool = ReplicaPool::deploy(&cluster, pool_cfg).unwrap();

    // Grow to two replicas, serve a little traffic, then let the (idle)
    // autoscaler retire back down to one.
    pool.scale_up().unwrap();
    assert_eq!(pool.replicas().len(), 2);
    for round in 0..4u64 {
        pool.request(payload(&workload, round)).unwrap();
    }
    pool.autoscale_once().unwrap();
    assert_eq!(pool.replicas().len(), 1, "idle pool should retire down to replicas_min");

    let log = cluster.trace_log().unwrap();
    log.assert()
        .happened(TraceEventKind::SloViolated)
        .happened(TraceEventKind::ReplicaRetired);
    assert!(log.count(TraceEventKind::ReplicaSpawned) >= 2);
    assert!(cluster.metrics().counter(names::SERVE_SLO_VIOLATIONS).get() >= 4);
    assert_eq!(cluster.metrics().counter(names::SERVE_REPLICAS_RETIRED).get(), 1);
    assert_eq!(cluster.metrics().counter(names::SERVE_REPLICAS_SPAWNED).get(), 2);

    pool.shutdown();
    cluster.shutdown();
}
