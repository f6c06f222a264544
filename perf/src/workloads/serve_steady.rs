//! `serve_steady`: the serving layer, closed loop and latency first.
//!
//! A `ReplicaPool` of two fixed `PolicyServer` replicas (autoscaling off,
//! hedging at p95 clamped to 2–25 ms, shed watermark 64, SLO 100 ms)
//! serves two closed-loop clients. A request is 2 states of 4 KiB; the
//! model is a fixed spin *iteration count* — not a calibrated duration —
//! so every commit does identical work per request. Each response's
//! length and contents are checked against the sum the model must have
//! computed; `Overloaded` counts as shed, which counts as failed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ray_codec::Blob;
use ray_common::RayConfig;
use ray_rl::serving::{self, ServingWorkload};
use ray_serve::{HedgeConfig, ReplicaPool};
use rustray::task::Arg;
use rustray::Cluster;

use super::{Env, Mode, Outcome};
use crate::harness::{run_phase, Budget, OpLog, PhaseClock, Rng};
use crate::span::SpanClock;
use crate::stats;

const STATE_BYTES: usize = 4 << 10;
/// Two states, 8 KiB, per request. Every request's arguments stay in the
/// GCS task table for good, so a request of the 64 KiB first planned
/// took a 20 s run past 1 GiB resident, where this sandbox's page faults
/// slow several-fold and the run splits into two regimes.
const BATCH: usize = 2;
/// Spin iterations per request: about 200 µs on the host the benchmark
/// was defined on (see `calib_spin_ns` in a result file for another's).
pub const MODEL_SPIN: u64 = 56_000;
const CLIENTS: usize = 2;
const WARMUP_REQUESTS: u64 = 100;
const FIXED_REQUESTS: u64 = 3_000;
/// Idle request pairs behind `serve.request_overhead_us`.
const OVERHEAD_CALLS: usize = 300;

pub struct ServeSteady {
    cluster: Arc<Cluster>,
    pool: ReplicaPool,
    seed: u64,
    /// The request body every request starts from, and the sum of its bytes.
    template: Vec<u8>,
    template_sum: u64,
}

pub fn workload() -> ServingWorkload {
    ServingWorkload {
        state_bytes: STATE_BYTES,
        batch: BATCH,
        eval_spin: MODEL_SPIN,
        rest_text_encoding: false,
    }
}

pub fn setup(seed: u64, traced: bool) -> ServeSteady {
    let cfg = RayConfig::builder()
        .nodes(2)
        .workers_per_node(2)
        .seed(seed)
        .tracing(traced)
        .build();
    let cluster = Arc::new(Cluster::start(cfg).expect("start cluster"));
    serving::register(&cluster);
    let mut pool_cfg = serving::pool_config(&workload()).expect("pool config");
    pool_cfg.replicas_min = 2;
    pool_cfg.replicas_max = 2;
    pool_cfg.autoscale.enabled = false;
    pool_cfg.hedge = Some(HedgeConfig {
        percentile: 0.95,
        min: Duration::from_millis(2),
        max: Duration::from_millis(25),
    });
    pool_cfg.shed_watermark = 64;
    pool_cfg.slo = Some(Duration::from_millis(100));
    let pool = ReplicaPool::deploy(&cluster, pool_cfg).expect("deploy pool");
    let mut template = vec![0u8; STATE_BYTES * BATCH];
    Rng::new(seed).fill(&mut template);
    let template_sum = template.iter().map(|&b| b as u64).sum();
    let env = ServeSteady {
        cluster,
        pool,
        seed,
        template,
        template_sum,
    };
    let warm = run_phase(
        CLIENTS,
        Budget::Ops(WARMUP_REQUESTS),
        None,
        |i, clock, log| env.client(i, clock, log),
    );
    assert_eq!(warm.failed, 0, "serve_steady warm-up failed");
    env
}

impl ServeSteady {
    /// The template with its first eight bytes replaced by `tag`, and the
    /// byte sum of the result.
    pub fn request_body(&self, tag: u64) -> (Vec<u8>, u64) {
        let mut body = self.template.clone();
        let tag = tag.to_le_bytes();
        let old: u64 = body[..8].iter().map(|&b| b as u64).sum();
        let new: u64 = tag.iter().map(|&b| b as u64).sum();
        body[..8].copy_from_slice(&tag);
        (body, self.template_sum - old + new)
    }

    /// Whether `reply` is what `PolicyServer` computes for a body whose
    /// bytes sum to `sum`: one `f64` action per state, `sum + index`.
    pub fn reply_is_correct(reply: &[u8], sum: u64) -> bool {
        reply.len() == BATCH * 8
            && reply.chunks_exact(8).enumerate().all(|(i, c)| {
                f64::from_le_bytes(c.try_into().expect("8 bytes")) == sum as f64 + i as f64
            })
    }

    fn client(&self, thread: usize, clock: &PhaseClock, log: &mut OpLog) {
        let mut rng = Rng::new(self.seed ^ (0xc11e07 + thread as u64));
        let mut n = 0;
        while clock.may_start(n) {
            n += 1;
            log.attempted += 1;
            let (body, sum) = self.request_body(rng.next_u64());
            let start = clock.now_ns();
            let span = log.spans.enter("serve.pool_request", n);
            let reply = self.pool.request(body);
            log.spans.exit(span);
            let now = clock.now_ns();
            match reply {
                Ok(r) if Self::reply_is_correct(&r, sum) => {
                    log.bytes += (STATE_BYTES * BATCH) as u64;
                    log.complete_timed(now, now - start);
                }
                // Shed (`Overloaded`), any other error, or a wrong reply.
                _ => log.failed += 1,
            }
        }
    }
}

impl Env for ServeSteady {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn run(&self, mode: Mode, spans: Option<SpanClock>) -> Outcome {
        let budget = match mode {
            Mode::Timed(d) => Budget::Time(d),
            Mode::Fixed => Budget::Ops(FIXED_REQUESTS / CLIENTS as u64),
        };
        Outcome::single(run_phase(CLIENTS, budget, spans, |i, clock, log| {
            self.client(i, clock, log)
        }))
    }

    fn layer_extras(&self, _plain: &Outcome) -> Vec<(&'static str, f64)> {
        // The pool's own cost: a request through the pool against the same
        // body sent straight to a replica, both from one idle client.
        let ctx = self.cluster.driver();
        let replica = &self.pool.replica_handles()[0];
        let mut rng = Rng::new(self.seed ^ 0xd1ec7);
        let (mut pooled, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_CALLS {
            let (body, sum) = self.request_body(rng.next_u64());
            let t = Instant::now();
            let reply = self.pool.request(body.clone());
            pooled.push(t.elapsed().as_nanos() as u64);
            assert!(
                reply.is_ok_and(|r| Self::reply_is_correct(&r, sum)),
                "pooled request failed"
            );
            let t = Instant::now();
            let reply = Arg::value(&Blob(body))
                .and_then(|arg| ctx.call_actor::<Blob>(replica, "predict", vec![arg]))
                .and_then(|r| ctx.get(&r));
            direct.push(t.elapsed().as_nanos() as u64);
            assert!(
                reply.is_ok_and(|r| Self::reply_is_correct(&r.0, sum)),
                "direct call failed"
            );
        }
        let p50_us = |v: &[u64]| stats::percentile(v, 0.5).unwrap_or(0) as f64 / 1e3;
        vec![
            (
                "serve.request_overhead_us",
                p50_us(&pooled) - p50_us(&direct),
            ),
            (
                "serve.pool_p99_us",
                self.pool.latency_percentile(0.99).unwrap_or(0) as f64,
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {
        self.pool.shutdown();
        self.cluster.shutdown();
    }
}
