//! Environments: the simulators RL evaluates policies against.
//!
//! "Simulations vary widely in complexity. They might take a few ms ...
//! to minutes" (paper §2). These environments give the benchmarks that
//! spectrum: Pendulum's cheap physics step (Table 4's workload), a
//! deterministic GridWorld for exact tests, and the Humanoid-like rollout generator whose episodes span
//! 10–1000 steps (the heterogeneity Fig. 14's algorithms must absorb).

pub mod gridworld;
pub mod humanoid_like;
pub mod pendulum;

pub use gridworld::GridWorld;
pub use humanoid_like::HumanoidLike;
pub use pendulum::Pendulum;

/// A simulatable environment (the Gym-style interface of paper Fig. 3's
/// `self.env`).
pub trait Environment: Send {
    /// Resets to an initial state drawn from `seed`, returning the first
    /// observation.
    fn reset(&mut self, seed: u64) -> Vec<f64>;

    /// Applies an action; returns `(observation, reward, done)`.
    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool);

    /// Observation dimensionality.
    fn obs_dim(&self) -> usize;

    /// Action dimensionality (continuous control).
    fn action_dim(&self) -> usize;
}

/// Wraps an environment with a modeled wall-clock cost per step.
///
/// The paper's premise is that "simulations vary widely in complexity.
/// They might take a few ms ... to minutes" (§2) — simulation *time*
/// dominates, not framework CPU. `SimulatedCost` makes that time real
/// (the thread genuinely waits, so schedulers/barriers see it) without
/// burning host CPU, which is what lets single-host runs exhibit the
/// paper's utilization effects.
pub struct SimulatedCost<E> {
    inner: E,
    per_step: std::time::Duration,
}

impl<E: Environment> SimulatedCost<E> {
    /// Wraps `inner`, charging `per_step` of wall time to every step.
    pub fn new(inner: E, per_step: std::time::Duration) -> SimulatedCost<E> {
        SimulatedCost { inner, per_step }
    }
}

impl<E: Environment> Environment for SimulatedCost<E> {
    fn reset(&mut self, seed: u64) -> Vec<f64> {
        self.inner.reset(seed)
    }

    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        if !self.per_step.is_zero() {
            std::thread::sleep(self.per_step);
        }
        self.inner.step(action)
    }

    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }
}

/// Builds an environment by name — the form environment choices take when
/// they ride inside task arguments (strings serialize; trait objects do
/// not).
///
/// Known names: `pendulum`, `gridworld`, `humanoid`,
/// `humanoid-light` (trivial per-step compute and 30–60-step episodes,
/// for tests), and `humanoid-sim:<micros>` (10–200-step episodes where
/// each step costs `<micros>` of modeled wall time).
pub fn make_env(name: &str) -> Result<Box<dyn Environment>, String> {
    if let Some(micros) = name.strip_prefix("humanoid-sim:") {
        let us: u64 = micros.parse().map_err(|_| format!("bad env spec {name}"))?;
        return Ok(Box::new(SimulatedCost::new(
            HumanoidLike::with_params(10, 200, 1),
            std::time::Duration::from_micros(us),
        )));
    }
    match name {
        "pendulum" => Ok(Box::new(Pendulum::new())),
        "gridworld" => Ok(Box::new(GridWorld::new(5))),
        "humanoid" => Ok(Box::new(HumanoidLike::new())),
        "humanoid-light" => Ok(Box::new(HumanoidLike::with_params(30, 60, 1))),
        other => Err(format!("unknown environment {other}")),
    }
}

/// Deterministic xorshift generator for environment noise: environments
/// must be replayable from a seed (lineage reconstruction re-executes
/// simulation tasks and must get identical results).
#[derive(Debug, Clone)]
pub struct EnvRng(u64);

impl EnvRng {
    /// Seeds the generator (zero is mapped to a fixed non-zero state).
    pub fn new(seed: u64) -> EnvRng {
        EnvRng(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Standard normal sample (Box–Muller). ES noise vectors are generated
    /// from seeds with this, so workers and aggregators can regenerate the
    /// same perturbations without shipping them.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform(f64::MIN_POSITIVE, 1.0);
        let u2 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_rng_is_deterministic() {
        let mut a = EnvRng::new(42);
        let mut b = EnvRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn env_rng_uniform_in_range() {
        let mut r = EnvRng::new(7);
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = EnvRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn simulated_cost_charges_wall_time_not_semantics() {
        let mut plain = GridWorld::new(3);
        let mut costed =
            SimulatedCost::new(GridWorld::new(3), std::time::Duration::from_millis(2));
        assert_eq!(plain.reset(1), costed.reset(1));
        let t = std::time::Instant::now();
        let (o1, r1, d1) = plain.step(&[1.0, 0.0]);
        let (o2, r2, d2) = costed.step(&[1.0, 0.0]);
        assert!((o1, r1, d1) == (o2, r2, d2));
        assert!(t.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn make_env_parses_sim_spec() {
        let env = make_env("humanoid-sim:50").unwrap();
        assert_eq!(env.obs_dim(), 376);
        assert!(make_env("humanoid-sim:abc").is_err());
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = EnvRng::new(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
