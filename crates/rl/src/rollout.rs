//! Trajectory generation: the `rollout(policy, environment)` of paper
//! Fig. 2.

use serde::{Deserialize, Serialize};

use crate::envs::Environment;
use crate::policy::Policy;

/// A trajectory: the `(state, reward)` sequence produced by running a
/// policy in an environment (paper §2).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Observations, one per step (the observation the action was chosen
    /// from).
    pub observations: Vec<Vec<f64>>,
    /// Actions taken.
    pub actions: Vec<Vec<f64>>,
    /// Per-step rewards.
    pub rewards: Vec<f64>,
    /// Whether the episode terminated naturally (vs hitting `max_steps`).
    pub terminated: bool,
}

impl Trajectory {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// Undiscounted episode return.
    pub fn total_reward(&self) -> f64 {
        self.rewards.iter().sum()
    }
}

/// Runs one episode: policy evaluation through simulation (Fig. 2's
/// `rollout`). The seed fully determines the episode, which is what makes
/// simulation tasks safely re-executable under lineage reconstruction.
pub fn rollout(
    policy: &dyn Policy,
    env: &mut dyn Environment,
    seed: u64,
    max_steps: usize,
) -> Trajectory {
    let mut traj = Trajectory::default();
    let mut obs = env.reset(seed);
    for _ in 0..max_steps {
        let action = policy.act(&obs);
        let (next_obs, reward, done) = env.step(&action);
        traj.observations.push(obs);
        traj.actions.push(action);
        traj.rewards.push(reward);
        obs = next_obs;
        if done {
            traj.terminated = true;
            break;
        }
    }
    traj
}

/// Average episode return of `policy` over `episodes` seeded episodes.
pub fn evaluate(
    policy: &dyn Policy,
    env: &mut dyn Environment,
    base_seed: u64,
    episodes: usize,
    max_steps: usize,
) -> f64 {
    let mut total = 0.0;
    for e in 0..episodes {
        total += rollout(policy, env, base_seed + e as u64, max_steps).total_reward();
    }
    total / episodes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::{GridWorld, Pendulum};
    use crate::policy::LinearPolicy;

    struct RightPolicy;
    impl Policy for RightPolicy {
        fn act(&self, _obs: &[f64]) -> Vec<f64> {
            vec![1.0, 0.9]
        }
        fn params(&self) -> Vec<f64> {
            vec![]
        }
        fn set_params(&mut self, _: &[f64]) {}
        fn num_params(&self) -> usize {
            0
        }
    }

    struct DownRightPolicy;
    impl Policy for DownRightPolicy {
        fn act(&self, obs: &[f64]) -> Vec<f64> {
            // Move right until x is maxed, then down.
            if obs[0] < 1.0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            }
        }
        fn params(&self) -> Vec<f64> {
            vec![]
        }
        fn set_params(&mut self, _: &[f64]) {}
        fn num_params(&self) -> usize {
            0
        }
    }

    #[test]
    fn rollout_is_deterministic_per_seed() {
        let policy = LinearPolicy::random(3, 1, 2.0, 4);
        let mut env = Pendulum::new();
        let a = rollout(&policy, &mut env, 5, 100);
        let b = rollout(&policy, &mut env, 5, 100);
        assert_eq!(a, b);
        let c = rollout(&policy, &mut env, 6, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn rollout_respects_max_steps() {
        let policy = LinearPolicy::new(3, 1, 2.0);
        let mut env = Pendulum::new(); // 200-step horizon.
        let t = rollout(&policy, &mut env, 1, 50);
        assert_eq!(t.len(), 50);
        assert!(!t.terminated);
    }

    #[test]
    fn good_gridworld_policy_terminates_with_goal_reward() {
        let mut env = GridWorld::new(4);
        let t = rollout(&DownRightPolicy, &mut env, 0, 100);
        assert!(t.terminated);
        assert_eq!(t.rewards.last().copied(), Some(10.0));
        assert_eq!(t.len() as u32, env.optimal_steps());
    }

    #[test]
    fn evaluate_averages_over_episodes() {
        let mut env = GridWorld::new(3);
        let avg = evaluate(&RightPolicy, &mut env, 0, 4, 50);
        // RightPolicy never reaches the goal (needs down moves), so the
        // return is the full horizon of -1s.
        assert!(avg < 0.0);
    }
}
