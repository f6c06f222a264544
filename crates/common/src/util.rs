//! Small shared helpers: hashing, online estimators, deterministic RNG,
//! and retry backoff.

use std::time::Duration;

/// FNV-1a 64-bit hash.
///
/// Used for function-name IDs and GCS shard assignment; not cryptographic.
///
/// # Examples
///
/// ```
/// use ray_common::util::fnv1a_64;
/// assert_eq!(fnv1a_64(b"add"), fnv1a_64(b"add"));
/// assert_ne!(fnv1a_64(b"add"), fnv1a_64(b"sub"));
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 128-bit digest built from two independent FNV-1a passes over the
/// concatenation of `parts`, which are hashed where they lie — a caller
/// hashing several fields concatenates nothing.
///
/// Good enough to make deterministic derived IDs collision-free in practice
/// for the workloads in this repository.
pub fn fnv1a_128(parts: &[&[u8]]) -> [u8; 16] {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    // The second pass has a different seed byte prepended, which
    // decorrelates the halves.
    let mut hi: u64 = (0x84222325_cbf29ce4 ^ 0x5a_u64).wrapping_mul(PRIME);
    for &b in parts.iter().flat_map(|part| part.iter()) {
        lo = (lo ^ b as u64).wrapping_mul(PRIME);
        hi = (hi ^ b as u64).wrapping_mul(PRIME);
    }
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

/// An exponentially weighted moving average.
///
/// The global scheduler "computes the average task execution and the average
/// transfer bandwidth using simple exponential averaging" (paper §4.2.2);
/// this is that estimator.
///
/// # Examples
///
/// ```
/// use ray_common::util::Ewma;
/// let mut e = Ewma::new(0.5);
/// e.observe(10.0);
/// e.observe(20.0);
/// assert!(e.value() > 10.0 && e.value() < 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// Larger `alpha` weights recent observations more heavily.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current estimate, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Current estimate; zero before any observation.
    pub fn value(&self) -> f64 {
        self.value_or(0.0)
    }
}

/// Formats a byte count with a binary-unit suffix for human-readable reports.
///
/// # Examples
///
/// ```
/// use ray_common::util::human_bytes;
/// assert_eq!(human_bytes(1536), "1.5KiB");
/// assert_eq!(human_bytes(10), "10B");
/// ```
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

/// A tiny deterministic RNG (xorshift64*), the same generator the global
/// scheduler uses for tie-breaking. Not cryptographic; seeded components
/// use it so runs are reproducible.
///
/// # Examples
///
/// ```
/// use ray_common::util::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator; any seed (including 0) is fine. The seed is
    /// mixed through the splitmix64 finalizer (a bijection, so distinct
    /// seeds yield distinct states) because xorshift64* needs a nonzero,
    /// well-spread state — and so that nearby seeds give uncorrelated
    /// streams.
    pub fn new(seed: u64) -> DetRng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Exactly one seed maps to 0; remap it off the fixed point.
        DetRng { state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`; returns 0 when `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Exponential backoff with deterministic jitter for transient-failure
/// retries (dropped messages, GCS write timeouts during reconfiguration).
///
/// Each call to [`Backoff::next_delay`] returns `base * 2^attempt` capped
/// at `cap`, scaled by a jitter factor in `[0.5, 1.0)` drawn from a seeded
/// RNG — deterministic per seed, decorrelated across callers.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ray_common::util::Backoff;
/// let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 42);
/// let first = b.next_delay();
/// let second = b.next_delay();
/// assert!(first >= Duration::from_micros(500));
/// assert!(second <= Duration::from_millis(8));
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    /// `None` for a [`Backoff::fixed`] wait: no jitter.
    rng: Option<DetRng>,
}

impl Backoff {
    /// Creates a backoff schedule.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, attempt: 0, rng: Some(DetRng::new(seed)) }
    }

    /// The same `wait` before every retry, unjittered: a timeout being
    /// waited out (the GCS chain's `OP_TIMEOUT`), not contention being
    /// spread.
    pub fn fixed(wait: Duration) -> Backoff {
        Backoff { base: wait, cap: wait, attempt: 0, rng: None }
    }

    /// Number of delays handed out so far.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt += 1;
        let raw = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap);
        match &mut self.rng {
            Some(rng) => raw.mul_f64(0.5 + 0.5 * rng.next_f64()),
            None => raw,
        }
    }
}

/// The one retry loop: runs `op` until it succeeds, fails with an error
/// `retryable` turns down, or has been retried `limit` times, sleeping
/// `backoff`'s next delay between attempts.
///
/// `retryable(err, attempt)` is asked only when a retry is still within
/// the limit, so a `true` from it means the retry happens: it doubles as
/// the per-retry hook for counters and trace events (`attempt` counts the
/// retries already made).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ray_common::util::{retry, Backoff};
/// let backoff = Backoff::new(Duration::from_micros(1), Duration::from_micros(4), 7);
/// let mut calls = 0;
/// let out: Result<u32, &str> = retry(backoff, 5, |e, _| *e == "busy", || {
///     calls += 1;
///     if calls < 3 { Err("busy") } else { Ok(calls) }
/// });
/// assert_eq!(out, Ok(3));
/// ```
pub fn retry<T, E>(
    mut backoff: Backoff,
    limit: u32,
    mut retryable: impl FnMut(&E, u32) -> bool,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    loop {
        match op() {
            Err(e) if backoff.attempt() < limit && retryable(&e, backoff.attempt()) => {
                std::thread::sleep(backoff.next_delay());
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_stops_at_the_limit_and_on_a_hard_error() {
        let quick = || Backoff::new(Duration::from_micros(1), Duration::from_micros(2), 3);
        let (mut calls, mut hooks) = (0u32, Vec::new());
        let spent: Result<(), &str> = retry(
            quick(),
            3,
            |_, attempt| {
                hooks.push(attempt);
                true
            },
            || {
                calls += 1;
                Err("busy")
            },
        );
        assert_eq!(spent, Err("busy"));
        // One first attempt plus `limit` retries; the hook saw each retry.
        assert_eq!((calls, hooks), (4, vec![0, 1, 2]));

        let mut calls = 0u32;
        let hard: Result<(), &str> = retry(quick(), 3, |e, _| *e == "busy", || {
            calls += 1;
            Err("dead")
        });
        assert_eq!((hard, calls), (Err("dead"), 1));
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a test vector.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_128_halves_differ() {
        let d = fnv1a_128(&[b"hello"]);
        assert_ne!(&d[..8], &d[8..]);
        assert_eq!(&d[..8], &fnv1a_64(b"hello").to_le_bytes());
    }

    #[test]
    fn fnv_128_hashes_the_concatenation_of_its_parts() {
        let whole = fnv1a_128(&[b"hello, world"]);
        assert_eq!(fnv1a_128(&[b"hello", b", ", b"world"]), whole);
        assert_eq!(fnv1a_128(&[b"", b"hello, world", b""]), whole);
        assert_ne!(fnv1a_128(&[b"hello, world!"]), whole);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.observe(42.0);
        }
        assert!((e.value() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_recent_values_more_with_high_alpha() {
        let mut slow = Ewma::new(0.1);
        let mut fast = Ewma::new(0.9);
        for _ in 0..10 {
            slow.observe(0.0);
            fast.observe(0.0);
        }
        slow.observe(100.0);
        fast.observe(100.0);
        assert!(fast.value() > slow.value());
    }

    #[test]
    fn ewma_unprimed_uses_default() {
        let e = Ewma::new(0.5);
        assert_eq!(e.value_or(7.0), 7.0);
    }

    #[test]
    fn det_rng_is_deterministic_per_seed() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        let mut c = DetRng::new(124);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn det_rng_distinct_seeds_give_distinct_streams() {
        // Regression: `seed | 1` used to collapse every even/odd seed pair
        // (42 and 43 shared a stream). Every seed must get its own stream.
        let firsts: Vec<u64> = (0..256u64).map(|s| DetRng::new(s).next_u64()).collect();
        let mut uniq = firsts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), firsts.len(), "adjacent seeds must diverge");
    }

    #[test]
    fn det_rng_f64_in_unit_interval() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(10), 1);
        let delays: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        // Jittered within [0.5, 1.0) of the raw exponential, capped at 10ms.
        assert!(delays[0] >= Duration::from_micros(500));
        assert!(delays[0] < Duration::from_millis(1));
        assert!(delays[7] <= Duration::from_millis(10));
        assert!(delays[7] >= Duration::from_millis(5));
        assert_eq!(b.attempt(), 8);
        // A fixed wait neither grows nor jitters.
        let mut fixed = Backoff::fixed(Duration::from_millis(10));
        assert!((0..4).all(|_| fixed.next_delay() == Duration::from_millis(10)));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 77);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 77);
        for _ in 0..6 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(1024), "1.0KiB");
        assert_eq!(human_bytes(1024 * 1024), "1.0MiB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0GiB");
    }
}
