//! Table 4: simulation throughput — Ray's asynchronous tasks vs a
//! bulk-synchronous MPI driver.
//!
//! Paper: Pendulum-v0 timesteps/second; "an MPI implementation that
//! submits 3n parallel simulation runs on n cores in 3 rounds, with a
//! global barrier between rounds" vs "a Ray program that issues the same
//! 3n tasks while concurrently gathering simulation results back to the
//! driver ... Ray achieves up to 1.8× throughput."
//!
//! Heterogeneity comes from variable episode horizons, so BSP rounds
//! stall on their slowest member while Ray's `ray.wait` keeps every core
//! fed.

use ray_bench::{fmt_rate, quick_mode, Report};
use ray_common::RayConfig;
use ray_rl::envs::{EnvRng, Environment, Pendulum};
use ray_rl::policy::{LinearPolicy, Policy};
use rustray::task::{Arg, ObjectRef};
use rustray::Cluster;
use std::time::{Duration, Instant};

/// Modeled wall time per simulated step. Pendulum's arithmetic is
/// sub-microsecond, but the simulators the paper targets cost real time
/// ("a few ms ... to minutes", §2); charging wall time per episode is what
/// makes utilization (and BSP barrier waste) observable on a shared host.
const SIM_COST_PER_STEP: Duration = Duration::from_micros(10);

/// One simulation batch: episodes with seed-dependent horizons; returns
/// the number of timesteps simulated. Identical work on both systems.
fn simulate_batch(seed: u64, episodes: u64) -> u64 {
    let policy = LinearPolicy::random(3, 1, 2.0, 7);
    let mut rng = EnvRng::new(seed);
    let mut steps = 0u64;
    for _ in 0..episodes {
        // Heterogeneous horizons: 50–400 steps.
        let horizon = 50 + (rng.next_u64() % 351) as u32;
        let mut env = Pendulum::with_horizon(horizon);
        let mut obs = env.reset(rng.next_u64());
        let mut episode_steps = 0u64;
        loop {
            let action = policy.act(&obs);
            let (o, _, done) = env.step(&action);
            obs = o;
            episode_steps += 1;
            if done {
                break;
            }
        }
        std::thread::sleep(SIM_COST_PER_STEP * episode_steps as u32);
        steps += episode_steps;
    }
    steps
}

fn ray_rate(cores: usize, window: Duration, episodes_per_task: u64) -> f64 {
    let nodes = (cores / 2).max(1);
    let workers = cores.div_ceil(nodes);
    let mut cfg = RayConfig::builder().nodes(nodes).workers_per_node(workers).build();
    // Simulation tasks claim one CPU each; a low spillover threshold lets
    // the single driver's burst spread across the cluster bottom-up.
    cfg.scheduler.spillover_threshold = 1;
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.register_fn2("simulate", |seed: u64, episodes: u64| {
        simulate_batch(seed, episodes)
    });
    let ctx = cluster.driver();
    let mut rng = EnvRng::new(99);
    let submit = |rng: &mut EnvRng| -> ObjectRef<u64> {
        let opts = rustray::task::TaskOptions::cpus(1.0);
        ctx.call_opts(
            "simulate",
            vec![Arg::value(&rng.next_u64()).unwrap(), Arg::value(&episodes_per_task).unwrap()],
            opts,
        )
        .unwrap()
    };
    // Keep a deep pipeline in flight; harvest in FIFO order (the pipeline
    // depth absorbs completion-order heterogeneity) and resubmit
    // immediately so every worker stays fed.
    let mut inflight: std::collections::VecDeque<ObjectRef<u64>> =
        (0..cores * 4).map(|_| submit(&mut rng)).collect();
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < window {
        let done = inflight.pop_front().expect("pipeline non-empty");
        steps += ctx.get(&done).unwrap();
        inflight.push_back(submit(&mut rng));
    }
    let rate = steps as f64 / start.elapsed().as_secs_f64();
    cluster.shutdown();
    rate
}

fn bsp_rate(cores: usize, window: Duration, episodes_per_task: u64) -> f64 {
    let world = ray_bsp::BspWorld::new(
        cores,
        &ray_common::config::TransportConfig::default(),
    );
    let start = Instant::now();
    let steps: Vec<u64> = world.run(|rank| {
        let mut rng = EnvRng::new(1000 + rank.rank() as u64);
        let mut steps = 0u64;
        // The ranks decide together whether to go on: a rank that read the
        // clock alone could leave the others waiting in its barrier.
        let every_rank_in_window = || {
            let mut votes = [if start.elapsed() < window { 1.0 } else { 0.0 }];
            rank.allreduce_sum(&mut votes);
            votes[0] == rank.size() as f64
        };
        while every_rank_in_window() {
            // One outer iteration = 3 rounds of one simulation each, with
            // a global barrier between rounds (the paper's BSP driver).
            for _ in 0..3 {
                steps += simulate_batch(rng.next_u64(), episodes_per_task);
                rank.barrier();
            }
        }
        steps
    });
    steps.iter().sum::<u64>() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = quick_mode();
    let window = if quick { Duration::from_secs(1) } else { Duration::from_secs(3) };
    let core_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let episodes_per_task = 4;

    let mut report = Report::new(
        "table4_simulation",
        "Table 4 — Pendulum simulation throughput (timesteps/s)",
        &["cores", "MPI bulk-synchronous", "Ray async tasks", "Ray advantage"],
    );
    for &cores in core_counts {
        let bsp = bsp_rate(cores, window, episodes_per_task);
        let ray = ray_rate(cores, window, episodes_per_task);
        report.row(&[
            cores.to_string(),
            fmt_rate(bsp),
            fmt_rate(ray),
            format!("{:.2}x", ray / bsp.max(1e-9)),
        ]);
    }
    report.note("episodes have heterogeneous 50–400-step horizons; BSP barriers wait on the slowest");
    report.note("paper @256 CPUs: MPI 2.16M vs Ray 4.03M timesteps/s (1.8x)");
    report.finish();
}
