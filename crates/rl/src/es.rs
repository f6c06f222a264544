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

use std::sync::atomic::{AtomicUsize, Ordering};
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
fn centered_ranks(rewards: &[f64]) -> Vec<f64> {
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

/// Each seed's weight: the centered-rank difference of its mirrored pair,
/// ranked over all 2n returns of the iteration.
pub fn rank_weights(seeds: &[u64], results: &[(f64, f64)]) -> Vec<(u64, f64)> {
    let all: Vec<f64> = results.iter().flat_map(|&(plus, minus)| [plus, minus]).collect();
    let ranks = centered_ranks(&all);
    seeds.iter().zip(ranks.chunks_exact(2)).map(|(&seed, r)| (seed, r[0] - r[1])).collect()
}

/// Mirrored evaluation of one perturbation: the mean returns of `θ + σε`
/// and `θ − σε`, with `ε` regenerated from `seed`. With `sigma == 0` the
/// unperturbed `θ` is scored once and returned twice. The body of the
/// `es_eval` task and of the reference system's workers.
pub fn mirrored_eval(
    env_name: &str,
    base: &[f64],
    sigma: f64,
    seed: u64,
    episodes: usize,
    max_steps: usize,
) -> Result<(f64, f64), String> {
    let mut policy = policy_for(env_name)?;
    let mut env = make_env(env_name)?;
    let mut score = |params: &[f64]| {
        policy.set_params(params);
        evaluate(&policy, env.as_mut(), seed, episodes, max_steps)
    };
    if sigma == 0.0 {
        let s = score(base);
        return Ok((s, s));
    }
    let eps = noise(seed, base.len());
    let plus: Vec<f64> = base.iter().zip(&eps).map(|(p, e)| p + sigma * e).collect();
    let minus: Vec<f64> = base.iter().zip(&eps).map(|(p, e)| p - sigma * e).collect();
    Ok((score(&plus), score(&minus)))
}

/// `Σ wᵢ·εᵢ` over `(seed, weight)` pairs, each `εᵢ` regenerated from its
/// seed: an aggregation-tree leaf (`es_partial_grad`) folds one chunk, the
/// reference driver folds every pair itself.
pub fn fold_noise(dims: usize, weighted: &[(u64, f64)]) -> Vec<f64> {
    let mut grad = vec![0.0f64; dims];
    for &(seed, weight) in weighted {
        for (g, e) in grad.iter_mut().zip(noise(seed, dims)) {
            *g += weight * e;
        }
    }
    grad
}

/// Sums encoded partial gradients: the body of an aggregation-tree inner
/// node (`es_sum`).
pub fn sum_partials(parts: &[Bytes]) -> Result<Vec<f64>, String> {
    let mut acc: Option<Vec<f64>> = None;
    for i in 0..parts.len() {
        let part = f64s_arg(parts, i)?;
        match &mut acc {
            None => acc = Some(part.to_vec()),
            Some(a) => part.add_into(a).map_err(|e| format!("partial gradient: {e}"))?,
        }
    }
    Ok(acc.unwrap_or_default())
}

/// Registers the ES task functions with a cluster.
pub fn register(cluster: &Cluster) {
    // args: env, θ, σ, noise seed, episodes, max steps → (r⁺, r⁻).
    cluster.register_raw("es_eval", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let env_name: String = decode_arg(args, 0)?;
        let base = f64s_arg(args, 1)?.to_vec();
        let sigma: f64 = decode_arg(args, 2)?;
        let seed: u64 = decode_arg(args, 3)?;
        let episodes: u64 = decode_arg(args, 4)?;
        let max_steps: u64 = decode_arg(args, 5)?;
        let pair = mirrored_eval(&env_name, &base, sigma, seed, episodes as usize, max_steps as usize)?;
        encode_return(&pair)
    });
    cluster.register_raw("es_partial_grad", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let dims: u64 = decode_arg(args, 0)?;
        let chunk: Vec<(u64, f64)> = decode_arg(args, 1)?;
        encode_return_f64s(&fold_noise(dims as usize, &chunk))
    });
    cluster.register_raw("es_sum", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        encode_return_f64s(&sum_partials(args)?)
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

/// The ES loop both systems run: each iteration draws one noise seed per
/// worker, evaluates the mirrored pairs (`evaluate`), weights the seeds by
/// rank, folds `Σ wᵢεᵢ` (`fold`), steps `θ` by `lr / (nσ)` of it, scores
/// the new `θ` (`score`, given the evaluation seed) and stops at the
/// target. The Ray system and the reference one differ only in these
/// three closures.
fn run_es<E>(
    cfg: &EsConfig,
    mut params: Vec<f64>,
    mut evaluate: impl FnMut(&[f64], &[u64]) -> Result<Vec<(f64, f64)>, E>,
    mut fold: impl FnMut(&[(u64, f64)]) -> Result<Vec<f64>, E>,
    mut score: impl FnMut(&[f64], u64) -> Result<f64, E>,
) -> Result<EsReport, E> {
    let mut rng = EnvRng::new(cfg.seed);
    let mut scores = Vec::with_capacity(cfg.iterations);
    let start = Instant::now();
    for iter in 0..cfg.iterations {
        let seeds: Vec<u64> = (0..cfg.num_workers).map(|_| rng.next_u64()).collect();
        let results = evaluate(&params, &seeds)?;
        let grad = fold(&rank_weights(&seeds, &results))?;
        let scale = cfg.lr / (cfg.num_workers as f64 * cfg.sigma);
        for (p, g) in params.iter_mut().zip(&grad) {
            *p += scale * g;
        }
        let score = score(&params, cfg.seed + iter as u64)?;
        scores.push(score);
        if cfg.target_score.is_some_and(|target| score >= target) {
            return Ok(EsReport { scores, solved_at: Some(iter), wall: start.elapsed() });
        }
    }
    Ok(EsReport { scores, solved_at: None, wall: start.elapsed() })
}

/// Trains with ES on a rustray cluster (the Fig. 14a "Ray ES" system):
/// evaluations are tasks on a broadcast `θ`, the fold is an aggregation
/// tree of nested tasks.
pub fn train_es(cluster: &Cluster, cfg: &EsConfig) -> RayResult<EsReport> {
    register(cluster);
    let ctx = cluster.driver();
    let params = policy_for(&cfg.env).map_err(RayError::Invalid)?.params();
    let dims = params.len() as u64;
    let es_eval = |params: Arg, sigma: f64, seed: u64, episodes: usize| {
        ctx.call::<(f64, f64)>(
            "es_eval",
            vec![
                Arg::value(&cfg.env)?,
                params,
                Arg::value(&sigma)?,
                Arg::value(&seed)?,
                Arg::value(&(episodes as u64))?,
                Arg::value(&(cfg.max_steps as u64))?,
            ],
        )
    };
    run_es(
        cfg,
        params,
        |params, seeds| {
            // Broadcast θ once; every task references the same object.
            let params_ref = ctx.put(&Blob::from_f64s(params))?;
            let futs = seeds
                .iter()
                .map(|&seed| {
                    es_eval(Arg::from_ref(&params_ref), cfg.sigma, seed, cfg.episodes_per_eval)
                })
                .collect::<RayResult<Vec<_>>>()?;
            ctx.get_all(&futs)
        },
        |weights| {
            // Aggregation tree: leaves regenerate noise, inner nodes sum.
            let leaves = weights
                .chunks(cfg.agg_leaf.max(1))
                .map(|chunk| {
                    ctx.call(
                        "es_partial_grad",
                        vec![Arg::value(&dims)?, Arg::value(&chunk.to_vec())?],
                    )
                })
                .collect::<RayResult<_>>()?;
            let root = tree_sum(&ctx, leaves, cfg.agg_fan_in)?;
            Ok(ctx.get(&root)?.f64s().map_err(RayError::from)?.to_vec())
        },
        |params, seed| {
            let eval = es_eval(Arg::value(&Blob::from_f64s(params))?, 0.0, seed, cfg.eval_episodes)?;
            Ok(ctx.get(&eval)?.0)
        },
    )
}

/// The special-purpose reference system of Fig. 14a: the same loop, but
/// worker threads only evaluate, and every result is folded into the
/// gradient **serially at one driver thread** (their Redis-based design),
/// regenerating one O(dims) noise vector per message — the bottleneck
/// that grows linearly with the worker count.
pub fn reference_es(cfg: &EsConfig, threads: usize) -> Result<EsReport, String> {
    let params = policy_for(&cfg.env)?.params();
    let dims = params.len();
    run_es(
        cfg,
        params,
        |params, seeds| {
            parallel_map(threads, seeds, |&seed| {
                mirrored_eval(&cfg.env, params, cfg.sigma, seed, cfg.episodes_per_eval, cfg.max_steps)
            })
            .into_iter()
            .collect()
        },
        |weights| Ok(fold_noise(dims, weights)),
        |params, seed| {
            Ok(mirrored_eval(&cfg.env, params, 0.0, seed, cfg.eval_episodes, cfg.max_steps)?.0)
        },
    )
}

/// Fork-join map over `threads` scoped threads that take items in turn;
/// each returns what it computed through its join handle.
fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { return mine };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
