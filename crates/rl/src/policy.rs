//! Policies: mappings from observations to actions (paper §1: "a policy
//! is a mapping from the state of the environment to a choice of action").
//!
//! Policies expose their parameters as flat vectors because that is the
//! unit the distributed algorithms move: ES perturbs it, the parameter
//! server shards it, allreduce sums gradients over it.

use serde::{Deserialize, Serialize};

use crate::envs::EnvRng;

/// A deterministic policy.
pub trait Policy: Send {
    /// Computes the action for an observation.
    fn act(&self, obs: &[f64]) -> Vec<f64>;

    /// Flat parameter vector.
    fn params(&self) -> Vec<f64>;

    /// Installs a flat parameter vector.
    fn set_params(&mut self, params: &[f64]);

    /// Parameter count.
    fn num_params(&self) -> usize;
}

/// A linear policy `a = tanh(W·obs + b)`, scaled to the action range —
/// small, fast, and sufficient for Pendulum-class tasks (linear policies
/// famously suffice for many MuJoCo benchmarks under ES).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearPolicy {
    w: Vec<f64>,
    b: Vec<f64>,
    obs_dim: usize,
    act_dim: usize,
    action_scale: f64,
}

impl LinearPolicy {
    /// Zero-initialized linear policy.
    pub fn new(obs_dim: usize, act_dim: usize, action_scale: f64) -> LinearPolicy {
        LinearPolicy {
            w: vec![0.0; obs_dim * act_dim],
            b: vec![0.0; act_dim],
            obs_dim,
            act_dim,
            action_scale,
        }
    }

    /// Randomly initialized linear policy (deterministic per seed).
    pub fn random(obs_dim: usize, act_dim: usize, action_scale: f64, seed: u64) -> LinearPolicy {
        let mut p = LinearPolicy::new(obs_dim, act_dim, action_scale);
        let mut rng = EnvRng::new(seed);
        let bound = (1.0 / obs_dim as f64).sqrt();
        for w in &mut p.w {
            *w = rng.uniform(-bound, bound);
        }
        p
    }
}

impl Policy for LinearPolicy {
    fn act(&self, obs: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.act_dim);
        for o in 0..self.act_dim {
            let row = &self.w[o * self.obs_dim..(o + 1) * self.obs_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(obs.iter()) {
                acc += wi * xi;
            }
            out.push(acc.tanh() * self.action_scale);
        }
        out
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.w.clone();
        p.extend_from_slice(&self.b);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter length mismatch");
        let wlen = self.w.len();
        self.w.copy_from_slice(&params[..wlen]);
        self.b.copy_from_slice(&params[wlen..]);
    }

    fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_policy_zero_init_outputs_zero() {
        let p = LinearPolicy::new(3, 2, 2.0);
        assert_eq!(p.act(&[1.0, 2.0, 3.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn linear_policy_respects_action_scale() {
        let mut p = LinearPolicy::new(1, 1, 2.0);
        p.set_params(&[100.0, 0.0]); // Saturates tanh.
        let a = p.act(&[1.0]);
        assert!((a[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn params_round_trip_linear() {
        let mut p = LinearPolicy::random(4, 2, 1.0, 3);
        let flat = p.params();
        assert_eq!(flat.len(), p.num_params());
        let negated: Vec<f64> = flat.iter().map(|x| -x).collect();
        p.set_params(&negated);
        assert_eq!(p.params(), negated);
    }

    #[test]
    fn policies_serialize() {
        let p = LinearPolicy::random(3, 1, 2.0, 7);
        let bytes = ray_codec::encode(&p).unwrap();
        let back: LinearPolicy = ray_codec::decode(&bytes).unwrap();
        assert_eq!(p, back);
    }
}
