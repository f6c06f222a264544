//! Pool configuration: replica class, scaling bounds, SLO knobs.

use std::time::Duration;

use ray_common::{RayError, RayResult, Resources};
use rustray::Arg;

/// Hedged-request policy: when the first attempt is slower than the pool's
/// recent `percentile` latency (clamped to `[min, max]`), race a second
/// attempt on a different replica. First result wins; the loser is
/// cancelled through its task cancel token, which the actor host checks
/// *before* logging the method — so a lost hedge leaves no stateful edge
/// and cannot replay (no duplicate side effects).
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Latency quantile in `(0, 1]` that arms the hedge (e.g. `0.9`).
    pub percentile: f64,
    /// Floor for the hedge trigger, so cold digests don't hedge everything.
    pub min: Duration,
    /// Ceiling for the trigger; also the trigger while the digest is empty.
    pub max: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 0.9,
            min: Duration::from_millis(1),
            max: Duration::from_millis(50),
        }
    }
}

/// Queue-depth-driven autoscaling policy. Depth is measured as admitted
/// in-flight requests per healthy replica; crossing `scale_up_depth` grows
/// the pool (up to `replicas_max`), dropping under `scale_down_depth`
/// shrinks it (down to `replicas_min`), with `cooldown` between decisions
/// so one burst doesn't thrash the scheduler.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Master switch; disabled pools keep exactly their deployed replicas.
    pub enabled: bool,
    /// Scale up when in-flight per healthy replica exceeds this.
    pub scale_up_depth: f64,
    /// Scale down when in-flight per healthy replica falls under this.
    pub scale_down_depth: f64,
    /// Minimum spacing between scaling decisions.
    pub cooldown: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            scale_up_depth: 4.0,
            scale_down_depth: 0.5,
            cooldown: Duration::from_millis(200),
        }
    }
}

/// Everything a [`crate::ReplicaPool`] needs to deploy and run.
///
/// Health probes call the replica class's read-only `"ping"` method, so
/// every class a pool serves must answer it: return a `u64` and touch no
/// state (a read-only call is not logged, so it never slows
/// reconstruction down).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Registered actor class instantiated per replica.
    pub class: String,
    /// Constructor arguments, cloned for every replica spawn.
    pub ctor_args: Vec<Arg>,
    /// Stateful method handling a single request. Contract: one
    /// [`ray_codec::Blob`] argument in, a `Blob` return out.
    pub method: String,
    /// Replica count at deploy and the autoscaler's floor. Must be >= 1.
    pub replicas_min: usize,
    /// The autoscaler's ceiling.
    pub replicas_max: usize,
    /// Per-replica resource demand used for placement feasibility.
    pub replica_demand: Resources,
    /// Per-request end-to-end deadline, propagated to every attempt.
    pub request_timeout: Duration,
    /// Cap on how long the router stays committed to a single replica
    /// attempt before cancelling it and failing over to a survivor.
    /// `None` lets one attempt consume the full remaining budget. A
    /// finite cap bounds the blast radius of an attempt orphaned by a
    /// node death that races the method log: the request retries
    /// elsewhere instead of blocking until its deadline.
    pub attempt_timeout: Option<Duration>,
    /// Admission watermark: requests arriving with this many already
    /// admitted are shed with [`RayError::Overloaded`].
    pub shed_watermark: usize,
    /// Hedging policy; `None` disables hedging (deterministic mode).
    pub hedge: Option<HedgeConfig>,
    /// Latency SLO; completions over it count `serve_slo_violations` and
    /// emit `slo_violated`. `None` disables the accounting.
    pub slo: Option<Duration>,
    /// Autoscaling policy.
    pub autoscale: AutoscaleConfig,
    /// Deadline for one health-probe round trip.
    pub probe_timeout: Duration,
    /// Background monitor cadence (probes + autoscaler). `None` runs no
    /// monitor thread: tests drive `probe_now` / `autoscale_once`
    /// explicitly for determinism.
    pub monitor_interval: Option<Duration>,
}

impl PoolConfig {
    /// A config with everything time-driven off: no hedging, no
    /// autoscaler, no monitor thread. Same seed, same trace.
    pub fn deterministic(class: &str, method: &str) -> PoolConfig {
        PoolConfig {
            class: class.to_string(),
            ctor_args: Vec::new(),
            method: method.to_string(),
            replicas_min: 2,
            replicas_max: 4,
            replica_demand: Resources::cpus(1.0),
            request_timeout: Duration::from_secs(5),
            attempt_timeout: None,
            shed_watermark: 1024,
            hedge: None,
            slo: None,
            autoscale: AutoscaleConfig::default(),
            probe_timeout: Duration::from_millis(500),
            monitor_interval: None,
        }
    }

    /// Rejects configs that cannot work before any replica is spawned.
    pub fn validate(&self) -> RayResult<()> {
        if self.class.is_empty() || self.method.is_empty() {
            return Err(RayError::Invalid("pool needs a class and a method".into()));
        }
        if self.replicas_min == 0 || self.replicas_max < self.replicas_min {
            return Err(RayError::Invalid(format!(
                "replica bounds invalid: min={} max={}",
                self.replicas_min, self.replicas_max
            )));
        }
        if self.shed_watermark == 0 {
            return Err(RayError::Invalid("shed_watermark must be >= 1".into()));
        }
        if self.request_timeout.is_zero() {
            return Err(RayError::Invalid("request_timeout must be positive".into()));
        }
        if self.attempt_timeout.is_some_and(|t| t.is_zero()) {
            return Err(RayError::Invalid("attempt_timeout must be positive when set".into()));
        }
        if let Some(h) = &self.hedge {
            if !(h.percentile > 0.0 && h.percentile <= 1.0) || h.max < h.min {
                return Err(RayError::Invalid("hedge config invalid".into()));
            }
        }
        if self.autoscale.enabled && self.autoscale.scale_up_depth <= self.autoscale.scale_down_depth
        {
            return Err(RayError::Invalid(
                "autoscale up-depth must exceed down-depth".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_config_validates() {
        assert!(PoolConfig::deterministic("PolicyServer", "predict").validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = PoolConfig::deterministic("C", "m");
        c.replicas_min = 0;
        assert!(c.validate().is_err());

        let mut c = PoolConfig::deterministic("C", "m");
        c.replicas_max = 1; // < replicas_min = 2
        assert!(c.validate().is_err());

        let mut c = PoolConfig::deterministic("C", "m");
        c.hedge = Some(HedgeConfig { percentile: 1.5, ..HedgeConfig::default() });
        assert!(c.validate().is_err());

        let mut c = PoolConfig::deterministic("C", "m");
        c.autoscale = AutoscaleConfig {
            enabled: true,
            scale_up_depth: 0.4,
            scale_down_depth: 0.5,
            ..AutoscaleConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = PoolConfig::deterministic("C", "m");
        c.shed_watermark = 0;
        assert!(c.validate().is_err());

        let mut c = PoolConfig::deterministic("C", "m");
        c.attempt_timeout = Some(Duration::ZERO);
        assert!(c.validate().is_err());
    }
}
