//! Evolution Strategies (Salimans et al. [49]) on rustray — paper §5.3.1.
//!
//! "The algorithm periodically broadcasts a new policy to a pool of
//! workers and aggregates the results of roughly 10000 tasks." The Ray
//! implementation here follows the paper's structure:
//!
//! - the policy parameter vector is **broadcast once per iteration** as an
//!   object (`put`), and every evaluation task takes it by reference;
//! - evaluation tasks use **mirrored sampling**: each task evaluates
//!   `θ + σε` and `θ − σε`, regenerating `ε` from a seed so only
//!   `(seed, r⁺, r⁻)` travels back;
//! - the gradient `Σ wᵢ εᵢ` is combined through an **aggregation tree** of
//!   nested tasks ("performance improvement through hierarchical
//!   aggregation was easy to realize with Ray's support for nested tasks")
//!   instead of serially at the driver;
//! - [`reference_es`] is the special-purpose baseline: the same math, but
//!   every worker result is processed *serially at a single driver*, the
//!   bottleneck that made the paper's reference system fail beyond 1024
//!   cores (Fig. 14a).

use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::Blob;
use ray_common::{RayError, RayResult};
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef};
use rustray::{decode_arg, encode_return, encode_return_f64s, f64s_arg, Cluster, RayContext};
use serde::{Deserialize, Serialize};

use crate::envs::{make_env, EnvRng};
use crate::policy::{LinearPolicy, Policy};
use crate::rollout::evaluate;

/// ES hyperparameters and workload shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EsConfig {
    /// Environment name (see [`make_env`]).
    pub env: String,
    /// Perturbation-evaluation tasks per iteration.
    pub num_workers: usize,
    /// Episodes averaged per perturbation direction.
    pub episodes_per_eval: usize,
    /// Step cap per episode.
    pub max_steps: usize,
    /// Perturbation scale σ.
    pub sigma: f64,
    /// Learning rate α.
    pub lr: f64,
    /// Maximum iterations.
    pub iterations: usize,
    /// Stop early when the evaluation score reaches this.
    pub target_score: Option<f64>,
    /// Episodes in the per-iteration evaluation.
    pub eval_episodes: usize,
    /// Results per partial-gradient (aggregation-tree leaf) task.
    pub agg_leaf: usize,
    /// Fan-in of the aggregation tree's sum tasks.
    pub agg_fan_in: usize,
    /// Base seed.
    pub seed: u64,
}

impl EsConfig {
    /// A small, fast configuration for the light Humanoid task.
    pub fn small() -> EsConfig {
        EsConfig {
            env: "humanoid-light".into(),
            num_workers: 16,
            episodes_per_eval: 1,
            max_steps: 60,
            sigma: 0.3,
            lr: 0.4,
            iterations: 30,
            target_score: None,
            eval_episodes: 3,
            agg_leaf: 4,
            agg_fan_in: 4,
            seed: 1,
        }
    }
}

/// Progress report from a training run.
#[derive(Debug, Clone)]
pub struct EsReport {
    /// Evaluation score after each iteration.
    pub scores: Vec<f64>,
    /// Iteration at which the target was reached, if it was.
    pub solved_at: Option<usize>,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl EsReport {
    /// The best evaluation score seen.
    pub fn best(&self) -> f64 {
        self.scores.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

fn policy_for(env_name: &str) -> Result<LinearPolicy, String> {
    let env = make_env(env_name)?;
    Ok(LinearPolicy::new(env.obs_dim(), env.action_dim(), 2.0))
}

/// Regenerates the noise vector for a seed.
fn noise(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = EnvRng::new(seed ^ 0xe5e5_e5e5_e5e5_e5e5);
    (0..n).map(|_| rng.normal()).collect()
}

/// Centered-rank transform in `[-0.5, 0.5]` (the shaping used by the
/// reference ES implementation; makes updates scale-free).
pub fn centered_ranks(rewards: &[f64]) -> Vec<f64> {
    let n = rewards.len();
    if n <= 1 {
        return vec![0.0; n];
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| rewards[a].partial_cmp(&rewards[b]).expect("no NaN rewards"));
    let mut out = vec![0.0; n];
    for (rank, &i) in idx.iter().enumerate() {
        out[i] = rank as f64 / (n - 1) as f64 - 0.5;
    }
    out
}

/// Registers the ES task functions with a cluster.
pub fn register(cluster: &Cluster) {
    // Mirrored evaluation of one perturbation: (seed, r⁺, r⁻).
    cluster.register_raw("es_eval", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let env_name: String = decode_arg(args, 0)?;
        let sigma: f64 = decode_arg(args, 2)?;
        let noise_seed: u64 = decode_arg(args, 3)?;
        let episodes: u64 = decode_arg(args, 4)?;
        let max_steps: u64 = decode_arg(args, 5)?;
        let base = f64s_arg(args, 1)?.to_vec();
        let mut policy = policy_for(&env_name)?;
        let mut env = make_env(&env_name)?;
        if sigma == 0.0 {
            policy.set_params(&base);
            let score = evaluate(
                &policy,
                env.as_mut(),
                noise_seed,
                episodes as usize,
                max_steps as usize,
            );
            return encode_return(&(score, score));
        }
        let eps = noise(noise_seed, base.len());
        let plus: Vec<f64> = base.iter().zip(&eps).map(|(p, e)| p + sigma * e).collect();
        policy.set_params(&plus);
        let r_plus = evaluate(
            &policy,
            env.as_mut(),
            noise_seed,
            episodes as usize,
            max_steps as usize,
        );
        let minus: Vec<f64> = base.iter().zip(&eps).map(|(p, e)| p - sigma * e).collect();
        policy.set_params(&minus);
        let r_minus = evaluate(
            &policy,
            env.as_mut(),
            noise_seed,
            episodes as usize,
            max_steps as usize,
        );
        encode_return(&(r_plus, r_minus))
    });

    // Aggregation-tree leaf: Σ wᵢ·εᵢ over a chunk of (seed, weight) pairs.
    cluster.register_raw("es_partial_grad", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let dims: u64 = decode_arg(args, 0)?;
        let chunk: Vec<(u64, f64)> = decode_arg(args, 1)?;
        let mut grad = vec![0.0f64; dims as usize];
        for (seed, weight) in chunk {
            let eps = noise(seed, grad.len());
            for (g, e) in grad.iter_mut().zip(eps.iter()) {
                *g += weight * e;
            }
        }
        encode_return_f64s(&grad)
    });

    // Aggregation-tree inner node: sums any number of partial gradients.
    cluster.register_raw("es_sum", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let mut acc: Option<Vec<f64>> = None;
        for i in 0..args.len() {
            let part = f64s_arg(args, i)?;
            match &mut acc {
                None => acc = Some(part.to_vec()),
                Some(a) => part.add_into(a).map_err(|e| format!("partial gradient: {e}"))?,
            }
        }
        encode_return_f64s(&acc.unwrap_or_default())
    });
}

/// Sums partial-gradient objects through a tree of `es_sum` tasks,
/// returning the root future.
fn tree_sum(
    ctx: &RayContext,
    mut level: Vec<ObjectRef<Blob>>,
    fan_in: usize,
) -> RayResult<ObjectRef<Blob>> {
    let fan_in = fan_in.max(2);
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
        for group in level.chunks(fan_in) {
            let args: Vec<Arg> = group.iter().map(Arg::from_ref).collect();
            next.push(ctx.call::<Blob>("es_sum", args)?);
        }
        level = next;
    }
    level.pop().ok_or_else(|| RayError::Invalid("tree_sum of zero gradients".into()))
}

/// Trains with ES on a rustray cluster (the Fig. 14a "Ray ES" system).
pub fn train_es(cluster: &Cluster, cfg: &EsConfig) -> RayResult<EsReport> {
    register(cluster);
    let ctx = cluster.driver();
    let mut policy =
        policy_for(&cfg.env).map_err(RayError::Invalid)?;
    let dims = policy.num_params();
    let mut params = policy.params();
    let mut rng = EnvRng::new(cfg.seed);
    let mut scores = Vec::with_capacity(cfg.iterations);
    let mut solved_at = None;
    let start = Instant::now();

    for iter in 0..cfg.iterations {
        // Broadcast θ once; every task references the same object.
        let params_ref = ctx.put(&Blob::from_f64s(&params))?;

        // Fan out mirrored evaluations.
        let mut seeds = Vec::with_capacity(cfg.num_workers);
        let mut futs: Vec<ObjectRef<(f64, f64)>> = Vec::with_capacity(cfg.num_workers);
        for _ in 0..cfg.num_workers {
            let seed = rng.next_u64();
            seeds.push(seed);
            futs.push(ctx.call(
                "es_eval",
                vec![
                    Arg::value(&cfg.env)?,
                    Arg::from_ref(&params_ref),
                    Arg::value(&cfg.sigma)?,
                    Arg::value(&seed)?,
                    Arg::value(&(cfg.episodes_per_eval as u64))?,
                    Arg::value(&(cfg.max_steps as u64))?,
                ],
            )?);
        }
        let results = ctx.get_all(&futs)?;

        // Shape rewards with centered ranks over the 2n mirrored returns.
        let mut all: Vec<f64> = Vec::with_capacity(2 * results.len());
        for &(p, m) in &results {
            all.push(p);
            all.push(m);
        }
        let ranks = centered_ranks(&all);
        let weights: Vec<(u64, f64)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, ranks[2 * i] - ranks[2 * i + 1]))
            .collect();

        // Aggregation tree: leaves regenerate noise, inner nodes sum.
        let leaves: Vec<ObjectRef<Blob>> = weights
            .chunks(cfg.agg_leaf.max(1))
            .map(|chunk| {
                ctx.call(
                    "es_partial_grad",
                    vec![Arg::value(&(dims as u64))?, Arg::value(&chunk.to_vec())?],
                )
            })
            .collect::<RayResult<_>>()?;
        let root = tree_sum(&ctx, leaves, cfg.agg_fan_in)?;
        let grad = ctx.get(&root)?.f64s().map_err(RayError::from)?.to_vec();

        let scale = cfg.lr / (cfg.num_workers as f64 * cfg.sigma);
        for (p, g) in params.iter_mut().zip(grad.iter()) {
            *p += scale * g;
        }

        // Evaluate the unperturbed policy.
        let eval: ObjectRef<(f64, f64)> = ctx.call(
            "es_eval",
            vec![
                Arg::value(&cfg.env)?,
                Arg::value(&Blob::from_f64s(&params))?,
                Arg::value(&0.0f64)?,
                Arg::value(&(cfg.seed + iter as u64))?,
                Arg::value(&(cfg.eval_episodes as u64))?,
                Arg::value(&(cfg.max_steps as u64))?,
            ],
        )?;
        let (score, _) = ctx.get(&eval)?;
        scores.push(score);
        if let Some(target) = cfg.target_score {
            if score >= target {
                solved_at = Some(iter);
                break;
            }
        }
    }
    policy.set_params(&params);
    Ok(EsReport { scores, solved_at, wall: start.elapsed() })
}

/// The special-purpose reference system of Fig. 14a: identical math, but
/// every worker result is deserialized, noise-regenerated, and folded into
/// the gradient **serially at one driver thread** (their Redis-based
/// design). Workers run in parallel threads; the driver is the bottleneck
/// that grows linearly with the worker count.
pub fn reference_es(cfg: &EsConfig, threads: usize) -> Result<EsReport, String> {
    let mut policy = policy_for(&cfg.env)?;
    let dims = policy.num_params();
    let mut params = policy.params();
    let mut rng = EnvRng::new(cfg.seed);
    let mut scores = Vec::with_capacity(cfg.iterations);
    let mut solved_at = None;
    let start = Instant::now();

    for iter in 0..cfg.iterations {
        let seeds: Vec<u64> = (0..cfg.num_workers).map(|_| rng.next_u64()).collect();
        // Parallel evaluation (their workers were fine; the driver wasn't).
        let results: Vec<(f64, f64)> = parallel_map(threads, &seeds, |&seed| {
            let mut p = policy_for(&cfg.env).expect("env exists");
            let mut env = make_env(&cfg.env).expect("env exists");
            let eps = noise(seed, dims);
            let plus: Vec<f64> =
                params.iter().zip(&eps).map(|(p0, e)| p0 + cfg.sigma * e).collect();
            p.set_params(&plus);
            let r_plus =
                evaluate(&p, env.as_mut(), seed, cfg.episodes_per_eval, cfg.max_steps);
            let minus: Vec<f64> =
                params.iter().zip(&eps).map(|(p0, e)| p0 - cfg.sigma * e).collect();
            p.set_params(&minus);
            let r_minus =
                evaluate(&p, env.as_mut(), seed, cfg.episodes_per_eval, cfg.max_steps);
            (r_plus, r_minus)
        });

        // Serial driver: the saturation point. Every message costs
        // O(dims) work on one thread.
        let mut all = Vec::with_capacity(2 * results.len());
        for &(p, m) in &results {
            all.push(p);
            all.push(m);
        }
        let ranks = centered_ranks(&all);
        let mut grad = vec![0.0; dims];
        for (i, &seed) in seeds.iter().enumerate() {
            let w = ranks[2 * i] - ranks[2 * i + 1];
            let eps = noise(seed, dims);
            for (g, e) in grad.iter_mut().zip(eps.iter()) {
                *g += w * e;
            }
        }
        let scale = cfg.lr / (cfg.num_workers as f64 * cfg.sigma);
        for (p, g) in params.iter_mut().zip(grad.iter()) {
            *p += scale * g;
        }

        policy.set_params(&params);
        let mut env = make_env(&cfg.env)?;
        let score = evaluate(
            &policy,
            env.as_mut(),
            cfg.seed + iter as u64,
            cfg.eval_episodes,
            cfg.max_steps,
        );
        scores.push(score);
        if let Some(target) = cfg.target_score {
            if score >= target {
                solved_at = Some(iter);
                break;
            }
        }
    }
    Ok(EsReport { scores, solved_at, wall: start.elapsed() })
}

/// Simple fork-join map over a fixed thread pool.
fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let out_slots = ray_common::sync::OrderedMutex::new(&ray_common::sync::classes::RL_SCRATCH, &mut out);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= items.len() {
                    return;
                }
                let r = f(&items[i]);
                out_slots.lock()[i] = Some(r);
            });
        }
    });
    out.into_iter().map(|o| o.expect("all slots filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::RayConfig;

    #[test]
    fn centered_ranks_properties() {
        let r = centered_ranks(&[10.0, -5.0, 3.0, 100.0]);
        // Sum to zero, bounded by ±0.5, best gets +0.5.
        assert!(r.iter().sum::<f64>().abs() < 1e-12);
        assert_eq!(r[3], 0.5);
        assert_eq!(r[1], -0.5);
        assert!(r.iter().all(|v| v.abs() <= 0.5));
        assert_eq!(centered_ranks(&[1.0]), vec![0.0]);
    }

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(noise(7, 10), noise(7, 10));
        assert_ne!(noise(7, 10), noise(8, 10));
    }

    #[test]
    fn es_improves_on_humanoid_light() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(2).workers_per_node(4).build()).unwrap();
        let mut cfg = EsConfig::small();
        cfg.iterations = 12;
        let report = train_es(&cluster, &cfg).unwrap();
        let early = report.scores[0];
        let late = report.best();
        assert!(
            late > early + 10.0,
            "ES should improve the score: first {early}, best {late}"
        );
        cluster.shutdown();
    }

    #[test]
    fn reference_es_matches_ray_es_math() {
        // Same seeds, same iterations → closely matching learning curves
        // (both are the same algorithm; only the systems differ).
        let cluster =
            Cluster::start(RayConfig::builder().nodes(2).workers_per_node(4).build()).unwrap();
        let mut cfg = EsConfig::small();
        cfg.iterations = 4;
        let ray = train_es(&cluster, &cfg).unwrap();
        let reference = reference_es(&cfg, 4).unwrap();
        assert_eq!(ray.scores.len(), reference.scores.len());
        for (a, b) in ray.scores.iter().zip(reference.scores.iter()) {
            assert!((a - b).abs() < 1e-6, "diverged: {a} vs {b}");
        }
        cluster.shutdown();
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }
}
