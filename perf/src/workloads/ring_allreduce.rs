//! `ring_allreduce`: wire-bound, and through actors.
//!
//! Four `RingWorker` actors, one per node, each holding a 4 MiB `f64`
//! buffer, on the fig12a link (100 µs, 16 MiB/s per connection, 8
//! connections, 512 KiB chunks). One op is one `ray_ring_allreduce`
//! iteration, driven closed loop by a single driver: a collective has one
//! caller. Buffers hold small integers scaled by a power of two, so every
//! sum is exact and the reduced buffers can be compared with `==` against
//! the analytic value, however many iterations ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ray_bsp::BspWorld;
use ray_common::config::TransportConfig;
use ray_common::metrics::names;
use ray_common::RayConfig;
use ray_rl::allreduce;
use rustray::{ActorHandle, Cluster, RayContext};

use super::{Env, Mode, Outcome};
use crate::harness::{run_phase, Budget, OpLog, PhaseClock, Rng};
use crate::span::SpanClock;
use crate::stats;

pub const RANKS: usize = 4;
/// 4 MiB of `f64` per rank.
pub const ELEMENTS: usize = (4 << 20) / 8;
const CONNECTIONS: usize = 8;
const WARMUP_ITERS: u64 = 3;
const FIXED_ITERS: u64 = 30;
const BSP_ITERS: usize = 8;
/// Each iteration multiplies the buffers by `RANKS`; starting from
/// `2^START_EXP` they are rescaled after this many iterations, well before
/// the exponent range of `f64` runs out.
const START_EXP: i32 = -1000;
const RESCALE_EVERY: u64 = 400;

/// The fig12a link with `connections` striped lanes per transfer.
pub fn link(connections: usize) -> TransportConfig {
    TransportConfig {
        latency: Duration::from_micros(100),
        bandwidth_bytes_per_sec: 16 << 20,
        connections_per_transfer: connections,
        chunk_bytes: 512 * 1024,
        ..TransportConfig::default()
    }
}

pub struct RingAllreduce {
    cluster: Cluster,
    handles: Vec<ActorHandle>,
    /// Element-wise sum over ranks of the initial buffers, unscaled.
    sum: Vec<f64>,
    initial: Vec<Vec<f64>>,
    /// Growth of the fabric's byte counter and of `tasks_submitted` over the
    /// last pass's iterations, leaving out the checks around them.
    loop_fabric_bytes: AtomicU64,
    loop_calls: AtomicU64,
}

/// Rank buffers of small integers (1..=8) times `2^START_EXP`.
fn initial_buffers(seed: u64) -> Vec<Vec<f64>> {
    let scale = 2f64.powi(START_EXP);
    let mut rng = Rng::new(seed);
    (0..RANKS)
        .map(|_| {
            let offset = rng.below(8);
            (0..ELEMENTS as u64)
                .map(|i| ((i + offset) % 8 + 1) as f64 * scale)
                .collect()
        })
        .collect()
}

pub fn setup(seed: u64, traced: bool) -> RingAllreduce {
    let cfg = RayConfig::builder()
        .nodes(RANKS)
        .workers_per_node(2)
        .transport(link(CONNECTIONS))
        .seed(seed)
        .tracing(traced)
        .build();
    let cluster = Cluster::start(cfg).expect("start cluster");
    allreduce::register(&cluster);
    let initial = initial_buffers(seed);
    let sum = (0..ELEMENTS)
        .map(|i| initial.iter().map(|b| b[i]).sum())
        .collect();
    let handles =
        allreduce::create_ring(&cluster.driver(), RANKS, initial.clone()).expect("create ring");
    let env = RingAllreduce {
        cluster,
        handles,
        sum,
        initial,
        loop_fabric_bytes: AtomicU64::new(0),
        loop_calls: AtomicU64::new(0),
    };
    let warm = run_phase(1, Budget::Ops(WARMUP_ITERS), None, |_, clock, log| {
        env.drive(clock, log)
    });
    assert_eq!(warm.failed, 0, "ring_allreduce warm-up failed");
    env
}

impl RingAllreduce {
    /// Whether every rank holds `sum * RANKS^(iters - 1)` exactly.
    fn buffers_match(&self, ctx: &RayContext, iters: u64) -> bool {
        let factor = (RANKS as f64).powi(iters as i32 - 1);
        match allreduce::read_buffers(ctx, &self.handles) {
            Ok(buffers) => buffers.iter().all(|b| {
                b.len() == ELEMENTS && b.iter().zip(&self.sum).all(|(v, s)| *v == s * factor)
            }),
            Err(_) => false,
        }
    }

    /// Puts the initial buffers back (one `set` call per rank), so the
    /// next iteration starts from `START_EXP` again. Always outside the
    /// measured window: after a pass's last op, or between two ops.
    fn rescale(&self, ctx: &RayContext) -> bool {
        use ray_codec::tensor::TensorF64;
        use ray_codec::Blob;
        use rustray::task::Arg;
        self.handles.iter().zip(&self.initial).all(|(h, buf)| {
            let blob = Blob(TensorF64::from_vec(buf.clone()).to_bytes().to_vec());
            let args = (|| {
                Ok::<_, ray_common::RayError>(vec![
                    Arg::value(&0u64)?,
                    Arg::value(&(ELEMENTS as u64))?,
                    Arg::value(&blob)?,
                ])
            })();
            args.and_then(|a| ctx.call_actor::<u8>(h, "set", a))
                .and_then(|r| ctx.get(&r))
                .is_ok()
        })
    }

    /// The driver loop. Buffers hold their initial values when it begins
    /// and again when it returns, so passes can follow one another.
    fn drive(&self, clock: &PhaseClock, log: &mut OpLog) {
        let ctx = self.cluster.driver();
        let submitted = self.cluster.metrics().counter(names::TASKS_SUBMITTED);
        let counters = || (self.cluster.fabric().bytes_transferred(), submitted.get());
        let before = counters();
        let (mut n, mut since_rescale) = (0u64, 0u64);
        while clock.may_start(n) {
            n += 1;
            log.attempted += 1;
            let iter = log.spans.enter("rl.ray_ring_allreduce", n);
            let took = allreduce::ray_ring_allreduce(&ctx, &self.handles, ELEMENTS);
            log.spans.exit(iter);
            match took {
                Ok(d) => {
                    since_rescale += 1;
                    log.bytes += (RANKS * ELEMENTS * 8) as u64;
                    log.complete_timed(clock.now_ns(), d.as_nanos() as u64);
                }
                Err(_) => log.failed += 1,
            }
            if since_rescale == RESCALE_EVERY {
                if !self.buffers_match(&ctx, since_rescale) || !self.rescale(&ctx) {
                    log.failed += 1;
                }
                since_rescale = 0;
            }
        }
        let after = counters();
        self.loop_fabric_bytes
            .store(after.0 - before.0, Ordering::Relaxed);
        self.loop_calls.store(after.1 - before.1, Ordering::Relaxed);
        // Wrong contents make every iteration since the last check
        // suspect; one failure is enough to fail the run.
        if since_rescale > 0 && !(self.buffers_match(&ctx, since_rescale) && self.rescale(&ctx)) {
            log.failed += 1;
        }
    }

    /// The BSP baseline on the same link with one connection, as fig12a
    /// runs it: median iteration time in ms, after checking its result
    /// against the same analytic sum.
    pub fn bsp_baseline(&self) -> Option<f64> {
        let world = BspWorld::new(RANKS, &link(1));
        let per_rank = world.run(|rank| {
            let mut data = self.initial[rank.rank()].clone();
            rank.allreduce_sum(&mut data);
            let correct = data == self.sum;
            let mut times = Vec::with_capacity(BSP_ITERS);
            for _ in 0..BSP_ITERS {
                let mut data = self.initial[rank.rank()].clone();
                rank.barrier();
                let t = std::time::Instant::now();
                rank.allreduce_sum(&mut data);
                rank.barrier();
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            (correct, stats::median(&times).unwrap_or(0.0))
        });
        per_rank.iter().all(|r| r.0).then(|| per_rank[0].1)
    }
}

impl Env for RingAllreduce {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn run(&self, mode: Mode, spans: Option<SpanClock>) -> Outcome {
        let budget = match mode {
            Mode::Timed(d) => Budget::Time(d),
            Mode::Fixed => Budget::Ops(FIXED_ITERS),
        };
        Outcome::single(run_phase(1, budget, spans, |_, clock, log| {
            self.drive(clock, log)
        }))
    }

    fn layer_extras(&self, plain: &Outcome) -> Vec<(&'static str, f64)> {
        let iters = plain.throughput.completed.max(1) as f64;
        let reduced = iters * (RANKS * ELEMENTS * 8) as f64;
        // A ring moves each rank's chunk 2(n-1) times; nothing moves faster
        // than the link model allows.
        let chunk_bytes = ELEMENTS / RANKS * 8;
        let ideal_ms = self
            .cluster
            .fabric()
            .model()
            .transfer_duration(chunk_bytes, CONNECTIONS)
            .as_secs_f64()
            * (2 * (RANKS - 1)) as f64
            * 1e3;
        let ray_ms = plain.p50_us.median / 1e3;
        let mut out = vec![
            (
                "transport.bytes_moved_per_byte_reduced",
                self.loop_fabric_bytes.load(Ordering::Relaxed) as f64 / reduced,
            ),
            (
                "rl.allreduce_calls_per_iter",
                self.loop_calls.load(Ordering::Relaxed) as f64 / iters,
            ),
            ("rl.allreduce_wire_efficiency", ideal_ms / ray_ms.max(1e-9)),
        ];
        if let Some(bsp_ms) = self.bsp_baseline() {
            out.push(("bsp.allreduce_iter_ms", bsp_ms));
            out.push(("vs_bsp", bsp_ms / ray_ms.max(1e-9)));
        }
        out
    }

    fn shutdown(self: Box<Self>) {
        self.cluster.shutdown();
    }
}
