//! `object_flow`: the data plane with the wire removed.
//!
//! The fabric runs in virtual time, so a transfer costs its copies and
//! its bookkeeping but no modelled wire time. Driver 0, on node 0,
//! `put_raw`s a payload (64 KiB and 4 MiB, three to one, order from the
//! seed) and submits `checksum(ref)` pinned to node 1, which pulls the
//! payload across; it keeps [`IN_FLIGHT`] such ops going, verifies each
//! checksum, then frees both objects. Driver 1, on node 1, reads a hot
//! set of already-local 64 KiB objects in paced bursts, so puts and
//! incoming transfers share node 1's store with reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_common::{NodeId, ObjectId, RayConfig};
use rustray::registry::encode_return;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{node_affinity, Cluster};

use super::{Env, Mode, Outcome};
use crate::harness::{run_phase, Budget, OpLog, PhaseClock, Rng};
use crate::span::SpanClock;

const SMALL: usize = 64 << 10;
const LARGE: usize = 4 << 20;
/// Ops in flight from driver 0.
const IN_FLIGHT: usize = 8;
/// Distinct payloads of each size, generated once from the seed.
const SMALL_POOL: usize = 12;
const LARGE_POOL: usize = 4;
/// Already-local objects the reader cycles over, and its pause between
/// bursts of one read each: a steady reader, not one that eats a core.
const HOT_SET: usize = 64;
const READER_PAUSE: Duration = Duration::from_millis(1);
/// The reader verifies length and this prefix: hashing all 64 KiB per read
/// would make it a checksum benchmark.
const HOT_PREFIX: usize = 64;
const FIXED_OPS: u64 = 1200;
const GET: Duration = Duration::from_secs(60);

struct Payload {
    data: Bytes,
    checksum: u64,
}

pub struct ObjectFlow {
    cluster: Cluster,
    seed: u64,
    small: Vec<Payload>,
    large: Vec<Payload>,
    /// Hot objects with the checksum of their first [`HOT_PREFIX`] bytes.
    hot: Vec<(ObjectId, u64)>,
    /// The reader's reads per second over the last pass, as `f64` bits.
    hot_reads_per_s: AtomicU64,
}

/// Order-sensitive, so a payload delivered shuffled or truncated fails.
fn checksum(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    let mut sum = words.by_ref().fold(0u64, |acc, w| {
        acc.rotate_left(1) ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))
    });
    for &b in words.remainder() {
        sum = sum.rotate_left(1) ^ b as u64;
    }
    sum
}

fn payloads(rng: &mut Rng, count: usize, size: usize) -> Vec<Payload> {
    (0..count)
        .map(|_| {
            let mut buf = vec![0u8; size];
            rng.fill(&mut buf);
            Payload {
                checksum: checksum(&buf),
                data: Bytes::from(buf),
            }
        })
        .collect()
}

pub fn setup(seed: u64, traced: bool) -> ObjectFlow {
    let cfg = RayConfig::builder()
        .nodes(2)
        .workers_per_node(2)
        .seed(seed)
        .tracing(traced)
        .build();
    let cluster = Cluster::start(cfg).expect("start cluster");
    cluster.fabric().set_virtual_time(true);
    cluster.register_raw("checksum", |_ctx, args| encode_return(&checksum(&args[0])));
    let mut rng = Rng::new(seed);
    let small = payloads(&mut rng, SMALL_POOL, SMALL);
    let large = payloads(&mut rng, LARGE_POOL, LARGE);
    let reader = cluster.driver_on(NodeId(1));
    let hot = payloads(&mut rng, HOT_SET, SMALL)
        .into_iter()
        .map(|p| {
            let prefix = checksum(&p.data[..HOT_PREFIX]);
            (reader.put_raw(p.data).expect("put hot object"), prefix)
        })
        .collect();
    let env = ObjectFlow {
        cluster,
        seed,
        small,
        large,
        hot,
        hot_reads_per_s: AtomicU64::new(0),
    };
    let warm = env.pass(Budget::Ops(32), None);
    assert_eq!(warm.failed, 0, "object_flow warm-up failed");
    env
}

struct Pending {
    start_ns: u64,
    object: ObjectId,
    result: ObjectRef<u64>,
    expect: u64,
    bytes: u64,
    op: u64,
}

impl ObjectFlow {
    /// Driver 0: put, pinned checksum task, verify, free.
    fn writer(&self, clock: &PhaseClock, log: &mut OpLog) {
        let ctx = self.cluster.driver_on(NodeId(0));
        let pin = TaskOptions::default().with_demand(node_affinity(NodeId(1)));
        let mut rng = Rng::new(self.seed ^ 0xf10e);
        let mut in_flight: std::collections::VecDeque<Pending> = Default::default();
        let mut n = 0u64;
        // Each block of four ops holds one large payload, at a seeded slot.
        let mut large_slot = 0;
        let finish = |p: Pending, log: &mut OpLog| {
            let get = log.spans.enter("core.get", p.op);
            let got = ctx.get(&p.result);
            log.spans.exit(get);
            let now = clock.now_ns();
            let free = log.spans.enter("core.free", p.op);
            let _ = ctx.free(&[p.object, p.result.id()]);
            log.spans.exit(free);
            if got.ok() == Some(p.expect) {
                log.bytes += p.bytes;
                log.complete_timed(now, now - p.start_ns);
            } else {
                log.failed += 1;
            }
        };
        while clock.may_start(n) {
            if n.is_multiple_of(4) {
                large_slot = rng.below(4);
            }
            let payload = if n % 4 == large_slot {
                &self.large[rng.below(LARGE_POOL as u64) as usize]
            } else {
                &self.small[rng.below(SMALL_POOL as u64) as usize]
            };
            n += 1;
            log.attempted += 1;
            let start_ns = clock.now_ns();
            let put = log.spans.enter("core.put_raw", n);
            let object = ctx.put_raw(payload.data.clone());
            log.spans.exit(put);
            let call = log.spans.enter("core.call", n);
            let result = object.and_then(|id| {
                ctx.call_opts::<u64>("checksum", vec![Arg::from_id(id)], pin.clone())
                    .map(|r| (id, r))
            });
            log.spans.exit(call);
            match result {
                Ok((object, result)) => in_flight.push_back(Pending {
                    start_ns,
                    object,
                    result,
                    expect: payload.checksum,
                    bytes: payload.data.len() as u64,
                    op: n,
                }),
                Err(_) => log.failed += 1,
            }
            if in_flight.len() >= IN_FLIGHT {
                let oldest = in_flight.pop_front().expect("non-empty");
                finish(oldest, log);
            }
        }
        for p in in_flight {
            finish(p, log);
        }
    }

    /// Driver 1: one read of each hot object, a pause, again, until the
    /// writer is done. Returns reads per second of time spent reading.
    fn reader(&self, stop: &AtomicBool, log: &mut OpLog) -> f64 {
        let ctx = self.cluster.driver_on(NodeId(1));
        let (mut reads, mut busy) = (0u64, Duration::ZERO);
        while !stop.load(Ordering::Relaxed) {
            let t = Instant::now();
            for &(id, prefix) in &self.hot {
                log.attempted += 1;
                match ctx.get_raw(id, GET) {
                    Ok(data) if data.len() == SMALL && checksum(&data[..HOT_PREFIX]) == prefix => {}
                    _ => log.failed += 1,
                }
            }
            busy += t.elapsed();
            reads += self.hot.len() as u64;
            std::thread::sleep(READER_PAUSE);
        }
        reads as f64 / busy.as_secs_f64().max(1e-9)
    }

    /// The writer's phase with the reader beside it; the reader's checks
    /// count towards the pass's attempted and failed.
    fn pass(&self, budget: Budget, spans: Option<SpanClock>) -> Outcome {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut log = OpLog::default();
                let rate = self.reader(&stop, &mut log);
                (rate, log)
            });
            let mut phase = run_phase(1, budget, spans, |_, clock, log| self.writer(clock, log));
            stop.store(true, Ordering::Relaxed);
            let (rate, reader_log) = reader.join().expect("reader thread panicked");
            self.hot_reads_per_s
                .store(rate.to_bits(), Ordering::Relaxed);
            phase.attempted += reader_log.attempted;
            phase.failed += reader_log.failed;
            Outcome::single(phase)
        })
    }
}

impl Env for ObjectFlow {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn run(&self, mode: Mode, spans: Option<SpanClock>) -> Outcome {
        let budget = match mode {
            Mode::Timed(d) => Budget::Time(d),
            Mode::Fixed => Budget::Ops(FIXED_OPS),
        };
        self.pass(budget, spans)
    }

    fn layer_extras(&self, _plain: &Outcome) -> Vec<(&'static str, f64)> {
        let rate = f64::from_bits(self.hot_reads_per_s.load(Ordering::Relaxed));
        vec![("object_store.hot_reads_per_s", rate)]
    }

    fn shutdown(self: Box<Self>) {
        self.cluster.shutdown();
    }
}
