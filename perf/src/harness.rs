//! Running one measured phase: closed-loop driver threads that each keep
//! their own op log, a CPU sampler on the calling thread, and the fold of
//! both into per-slice statistics after the threads have joined. Nothing
//! is shared while measuring except two atomics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::span::{Span, SpanClock, SpanLog};
use crate::stats::{self, Cumulative, Sliced, SLICES};

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start no op after this much time (the end-to-end runs).
    Time(Duration),
    /// This many ops per driver thread (the traced runs: identical work on
    /// every commit, so counters repeat exactly).
    Ops(u64),
}

/// What a driver thread consults before starting another op.
pub struct PhaseClock {
    start: Instant,
    budget: Budget,
}

impl PhaseClock {
    /// Whether the thread, having started `started` ops, may start one more.
    pub fn may_start(&self, started: u64) -> bool {
        match self.budget {
            Budget::Time(d) => self.start.elapsed() < d,
            Budget::Ops(n) => started < n,
        }
    }

    /// Nanoseconds since the phase began.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// One driver thread's record of what it did.
#[derive(Debug, Default)]
pub struct OpLog {
    /// `(completion time, ops completed)` marks.
    marks: Vec<(u64, f64)>,
    /// `(completion time, latency)` per timed op, in ns.
    latencies: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes delivered and verified.
    pub bytes: u64,
    /// Spans around this thread's calls into the layers.
    pub spans: SpanLog,
}

impl OpLog {
    /// `n` ops completed and verified at `now`.
    pub fn complete(&mut self, now_ns: u64, n: u64) {
        self.marks.push((now_ns, n as f64));
    }

    /// One op completed at `now` having taken `latency_ns`.
    pub fn complete_timed(&mut self, now_ns: u64, latency_ns: u64) {
        self.marks.push((now_ns, 1.0));
        self.latencies.push((now_ns, latency_ns));
    }
}

/// The statistics of one phase.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub ops_per_s: Sliced,
    pub cpu_us_per_op: Sliced,
    /// `None` when the phase timed no individual op.
    pub p50_us: Option<Sliced>,
    pub p99_us: Option<Sliced>,
    pub attempted: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Ops completed and verified, inside the measured window or after it.
    pub completed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Every driver thread's spans, thread after thread.
    pub spans: Vec<Span>,
    /// The per-slice values behind the four statistics, for diagnosis.
    pub slice_values: [Vec<f64>; 4],
}

impl PhaseStats {
    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.window.as_secs_f64().max(1e-9)
    }
}

const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Runs `threads` driver threads over `body(thread index, clock, log)` and
/// samples process CPU time beside them until all have returned. Spans
/// are recorded on `spans`, or not at all.
pub fn run_phase<F>(threads: usize, budget: Budget, spans: Option<SpanClock>, body: F) -> PhaseStats
where
    F: Fn(usize, &PhaseClock, &mut OpLog) + Sync,
{
    let clock = PhaseClock {
        start: Instant::now(),
        budget,
    };
    let running = AtomicUsize::new(threads);
    let sampler = std::thread::current();
    let mut cpu = vec![(0u64, stats::process_cpu_micros().unwrap_or(0) as f64)];
    let mut logs = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (clock, running, body, sampler) = (&clock, &running, &body, &sampler);
                s.spawn(move || {
                    let mut log = OpLog {
                        spans: SpanLog::new(spans, i as u32),
                        ..OpLog::default()
                    };
                    body(i, clock, &mut log);
                    // The last driver out wakes the sampler, so a phase ends
                    // when its work does, not at the next sample.
                    if running.fetch_sub(1, Ordering::Release) == 1 {
                        sampler.unpark();
                    }
                    log
                })
            })
            .collect();
        while running.load(Ordering::Acquire) > 0 {
            std::thread::park_timeout(CPU_SAMPLE_EVERY);
            cpu.push((
                clock.now_ns(),
                stats::process_cpu_micros().unwrap_or(0) as f64,
            ));
        }
        for h in handles {
            logs.push(h.join().expect("driver thread panicked"));
        }
    });
    summarize(logs, cpu, budget)
}

fn summarize(logs: Vec<OpLog>, cpu: Vec<(u64, f64)>, budget: Budget) -> PhaseStats {
    let mut log = OpLog::default();
    let mut spans = Vec::new();
    for l in logs {
        log.marks.extend(l.marks);
        log.latencies.extend(l.latencies);
        log.attempted += l.attempted;
        log.failed += l.failed;
        log.bytes += l.bytes;
        spans.extend(l.spans.into_spans());
    }
    let last_done = log.marks.iter().map(|m| m.0).max().unwrap_or(1);
    // A timed phase is measured over its budget; ops draining after it
    // still count as attempted and verified, not towards the rate.
    let end = match budget {
        Budget::Time(d) => (d.as_nanos() as u64).min(last_done),
        Budget::Ops(_) => last_done,
    }
    .max(1);
    let completed: f64 = log.marks.iter().map(|m| m.1).sum();
    let ops = Cumulative::from_increments(log.marks).slice_deltas(end, SLICES);
    let cpu = Cumulative::from_totals(cpu).slice_deltas(end, SLICES);
    let slice_s = end as f64 / SLICES as f64 / 1e9;
    let rates: Vec<f64> = ops.iter().map(|n| n / slice_s).collect();
    let cpu_per_op: Vec<f64> = ops
        .iter()
        .zip(&cpu)
        .filter(|(n, _)| **n > 0.0)
        .map(|(n, c)| c / n)
        .collect();
    let pct = |q: f64| -> Vec<f64> {
        let per_slice = stats::slice_percentiles(&log.latencies, end, SLICES, q);
        per_slice.iter().map(|ns| ns / 1e3).collect()
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    PhaseStats {
        ops_per_s: Sliced::of(&rates).unwrap_or(Sliced::flat(0.0)),
        cpu_us_per_op: Sliced::of(&cpu_per_op).unwrap_or(Sliced::flat(0.0)),
        p50_us: Sliced::of(&p50),
        p99_us: Sliced::of(&p99),
        attempted: log.attempted,
        failed: log.failed,
        bytes: log.bytes,
        completed: completed as u64,
        window: Duration::from_nanos(end),
        spans,
        slice_values: [rates, cpu_per_op, p50, p99],
    }
}

/// Median wall time of `f` over `reps` runs, keeping the last value: how
/// set-up is timed (several set-ups per run, so one slow start does not
/// decide the number).
pub fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(prev) = kept.take() {
            discard(prev);
        }
        let t = Instant::now();
        kept = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    (kept.expect("at least one set-up"), median)
}

/// A seeded xorshift generator for workload inputs: the same seed gives
/// the same inputs on every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 scramble so neighbouring seeds diverge at once.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_budget_runs_exactly_that_many_ops_per_thread() {
        let stats = run_phase(2, Budget::Ops(50), None, |_, clock, log| {
            let mut started = 0;
            while clock.may_start(started) {
                started += 1;
                log.attempted += 1;
                log.complete_timed(clock.now_ns(), 1_000);
            }
        });
        assert_eq!(stats.attempted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.p50_us.unwrap().median, 1.0);
    }

    #[test]
    fn ops_draining_after_a_time_budget_count_but_not_towards_the_rate() {
        let mut log = OpLog::default();
        for t in 1..=10u64 {
            log.complete(t * 100_000_000, 10);
        }
        // One straggler lands 0.5 s after the 1 s window.
        log.complete(1_500_000_000, 10);
        log.attempted = 110;
        let cpu = vec![
            (0, 0.0),
            (1_000_000_000, 2_000_000.0),
            (1_500_000_000, 2_100_000.0),
        ];
        let s = summarize(vec![log], cpu, Budget::Time(Duration::from_secs(1)));
        assert_eq!(s.completed, 110);
        assert_eq!(s.window, Duration::from_secs(1));
        assert!((s.ops_per_s.median - 100.0).abs() < 1e-6);
        assert!((s.cpu_us_per_op.median - 20_000.0).abs() < 1e-6);
        assert!(s.p50_us.is_none());
    }

    #[test]
    fn median_setup_keeps_the_last_and_discards_the_rest() {
        let mut discarded = Vec::new();
        let mut n = 0;
        let (kept, secs) = median_setup(
            3,
            || {
                n += 1;
                n
            },
            |v| discarded.push(v),
        );
        assert_eq!(kept, 3);
        assert_eq!(discarded, vec![1, 2]);
        assert!(secs >= 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut other = Rng::new(8);
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
        let mut buf = [0u8; 13];
        Rng::new(7).fill(&mut buf);
        assert_eq!(&buf[..8], &a[0].to_le_bytes());
    }
}
