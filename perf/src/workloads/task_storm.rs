//! `task_storm`: the control plane does all the work.
//!
//! Phase `burst`: two drivers, one on each node, submit rounds of
//! [`ROUND`] empty tasks (so at most that many are outstanding each),
//! `wait` for all of a round, and `get`-check one result in 64. Phase
//! `serial`: one driver does `call` → `get`, one at a time, every value
//! checked. `burst` gives throughput and CPU per task, `serial` gives
//! unloaded latency: a batching change that buys the first by costing the
//! second shows here.

use std::time::Duration;

use ray_common::{NodeId, ObjectId, RayConfig};
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::Cluster;

use super::{Env, Mode, Outcome};
use crate::harness::{run_phase, Budget, OpLog, PhaseClock, Rng};
use crate::span::SpanClock;

/// Tasks a driver keeps outstanding.
const ROUND: u64 = 1024;
/// One result in this many is fetched and compared.
const CHECK_EVERY: usize = 64;
/// Share of a timed run given to the burst phase.
const BURST_SHARE: f64 = 0.5;
/// Fixed-count sizes: rounds per driver, and serial calls.
const FIXED_ROUNDS: u64 = 20;
const FIXED_SERIAL: u64 = 500;
const WAIT: Duration = Duration::from_secs(60);

pub struct TaskStorm {
    cluster: Cluster,
    seed: u64,
}

pub fn setup(seed: u64, traced: bool) -> TaskStorm {
    let cfg = RayConfig::builder()
        .nodes(2)
        .workers_per_node(2)
        .seed(seed)
        .tracing(traced)
        .build();
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.register_fn1("inc", |x: u64| x.wrapping_add(1));
    let env = TaskStorm { cluster, seed };
    // Warm-up: one round per driver and a few serial calls, so worker
    // threads, GCS shards and allocator arenas have all been touched.
    let warm = run_phase(2, Budget::Ops(1), None, |i, clock, log| {
        env.burst(i, clock, log)
    });
    assert_eq!(warm.failed, 0, "task_storm warm-up failed");
    let warm = run_phase(1, Budget::Ops(64), None, |_, clock, log| {
        env.serial(clock, log)
    });
    assert_eq!(warm.failed, 0, "task_storm warm-up failed");
    env
}

impl TaskStorm {
    /// One driver's burst loop; an op budget counts rounds.
    fn burst(&self, thread: usize, clock: &PhaseClock, log: &mut OpLog) {
        let ctx = self.cluster.driver_on(NodeId(thread as u32));
        let mut rng = Rng::new(self.seed ^ (thread as u64 + 1));
        let mut rounds = 0;
        let mut ids: Vec<ObjectId> = Vec::with_capacity(ROUND as usize);
        let mut inputs: Vec<u64> = Vec::with_capacity(ROUND as usize);
        while clock.may_start(rounds) {
            rounds += 1;
            ids.clear();
            inputs.clear();
            log.attempted += ROUND;
            let round = log.spans.enter("task_storm.round", rounds);
            let submit = log.spans.enter("core.submit", rounds);
            for _ in 0..ROUND {
                let x = rng.next_u64();
                let arg = Arg::value(&x).expect("encode u64");
                match ctx.submit("inc", vec![arg], TaskOptions::default()) {
                    Ok(ret) => {
                        ids.push(ret[0]);
                        inputs.push(x);
                    }
                    Err(_) => log.failed += 1,
                }
            }
            log.spans.exit(submit);
            let wait = log.spans.enter("core.wait", rounds);
            let ready = ctx
                .wait(&ids, ids.len(), WAIT)
                .map_or(0, |(ready, _)| ready.len());
            log.spans.exit(wait);
            let get = log.spans.enter("core.get", rounds);
            let mut wrong = 0;
            for (id, x) in ids.iter().zip(&inputs).step_by(CHECK_EVERY) {
                if ctx.get(&ObjectRef::<u64>::from_id(*id)).ok() != Some(x.wrapping_add(1)) {
                    wrong += 1;
                }
            }
            log.spans.exit(get);
            log.spans.exit(round);
            log.failed += (ids.len() - ready) as u64 + wrong;
            log.complete(clock.now_ns(), (ready as u64).saturating_sub(wrong));
        }
    }

    /// The serial loop: one task in flight, every value checked.
    fn serial(&self, clock: &PhaseClock, log: &mut OpLog) {
        let ctx = self.cluster.driver();
        let mut rng = Rng::new(self.seed ^ 0x5e71a1);
        let mut n = 0;
        while clock.may_start(n) {
            n += 1;
            log.attempted += 1;
            let x = rng.next_u64();
            let start = clock.now_ns();
            let op = log.spans.enter("task_storm.serial_op", n);
            let call = log.spans.enter("core.call", n);
            let r = ctx.call::<u64>("inc", vec![Arg::value(&x).expect("encode u64")]);
            log.spans.exit(call);
            let get = log.spans.enter("core.get", n);
            let got = r.and_then(|r| ctx.get(&r));
            log.spans.exit(get);
            log.spans.exit(op);
            let now = clock.now_ns();
            if got.ok() == Some(x.wrapping_add(1)) {
                log.complete_timed(now, now - start);
            } else {
                log.failed += 1;
            }
        }
    }
}

impl Env for TaskStorm {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn run(&self, mode: Mode, spans: Option<SpanClock>) -> Outcome {
        let (burst, serial) = match mode {
            Mode::Timed(d) => (
                Budget::Time(d.mul_f64(BURST_SHARE)),
                Budget::Time(d.mul_f64(1.0 - BURST_SHARE)),
            ),
            Mode::Fixed => (Budget::Ops(FIXED_ROUNDS), Budget::Ops(FIXED_SERIAL)),
        };
        let mut burst = run_phase(2, burst, spans, |i, clock, log| self.burst(i, clock, log));
        let serial = run_phase(1, serial, spans, |_, clock, log| self.serial(clock, log));
        let mut out = Outcome::single(serial);
        out.attempted += burst.attempted;
        out.failed += burst.failed;
        out.completed += burst.completed;
        // The serial driver is a third thread as far as spans go.
        out.spans.iter_mut().for_each(|s| s.thread += 2);
        out.spans.append(&mut burst.spans);
        // Rates and CPU come from the burst, latencies from the serial phase.
        out.slice_values[..2].clone_from_slice(&burst.slice_values[..2]);
        out.throughput = burst;
        out
    }

    fn shutdown(self: Box<Self>) {
        self.cluster.shutdown();
    }
}
