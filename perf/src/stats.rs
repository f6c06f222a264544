//! Sample statistics and the `/proc` readers.
//!
//! A measured phase is cut into [`SLICES`] equal consecutive time slices;
//! a rate or percentile is computed per slice and the median slice is the
//! value reported, so one stall moves one slice, not the result.

/// Slices per measured phase: one second each in a 20 s run, short enough
/// that the multi-second slow spells of a shared host stay a minority.
pub const SLICES: usize = 20;

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `q`-quantile of `samples`, sorting a copy.
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A per-slice statistic: the median slice, and the quartile slices as
/// the band the run's own noise spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The `q`-quantile of `sorted` floats, interpolating between ranks.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(next) => sorted[lo] + (next - sorted[lo]) * frac,
        None => sorted[lo],
    }
}

impl Sliced {
    pub fn of(per_slice: &[f64]) -> Option<Sliced> {
        let median = median(per_slice)?;
        let mut sorted = per_slice.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Sliced {
            median,
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
        })
    }

    /// One value standing for every slice (a whole-phase number).
    pub fn flat(value: f64) -> Sliced {
        Sliced {
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// `(q3 - q1) / median`: how far apart the slices of one run lie.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A cumulative curve sampled at increasing times — ops completed, or CPU
/// time used — read at arbitrary times by linear interpolation, so slice
/// boundaries need not coincide with samples.
#[derive(Debug, Default, Clone)]
pub struct Cumulative {
    points: Vec<(u64, f64)>,
}

impl Cumulative {
    /// From `(time, increment)` marks in any order.
    pub fn from_increments(mut marks: Vec<(u64, f64)>) -> Cumulative {
        marks.sort_by_key(|m| m.0);
        let mut total = 0.0;
        let mut points = Vec::with_capacity(marks.len() + 1);
        points.push((0, 0.0));
        for (t, inc) in marks {
            total += inc;
            points.push((t, total));
        }
        Cumulative { points }
    }

    /// From `(time, running total)` samples in time order.
    pub fn from_totals(points: Vec<(u64, f64)>) -> Cumulative {
        Cumulative { points }
    }

    pub fn at(&self, t: u64) -> f64 {
        let idx = self.points.partition_point(|p| p.0 <= t);
        match (
            idx.checked_sub(1).map(|i| self.points[i]),
            self.points.get(idx),
        ) {
            (None, None) => 0.0,
            (None, Some(first)) => first.1,
            (Some(last), None) => last.1,
            (Some((t0, v0)), Some(&(t1, v1))) => {
                v0 + (v1 - v0) * (t - t0) as f64 / (t1 - t0).max(1) as f64
            }
        }
    }

    /// Growth over each of `n` equal slices of `[0, end]`.
    pub fn slice_deltas(&self, end: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let lo = end * i as u64 / n as u64;
                let hi = end * (i as u64 + 1) / n as u64;
                self.at(hi) - self.at(lo)
            })
            .collect()
    }
}

/// Percentile `q` of the latencies completing in each of `n` equal slices
/// of `[0, end]`; slices with no sample are skipped.
pub fn slice_percentiles(samples: &[(u64, u64)], end: u64, n: usize, q: f64) -> Vec<f64> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
    for &(done, lat) in samples {
        if done < end {
            buckets[(done as u128 * n as u128 / end.max(1) as u128) as usize].push(lat);
        }
    }
    buckets
        .iter_mut()
        .filter_map(|b| {
            b.sort_unstable();
            percentile_sorted(b, q).map(|v| v as f64)
        })
        .collect()
}

/// Process CPU time (user + system) in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name may hold spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` times in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`).
const TICK_MICROS: u64 = 10_000;

/// CPU time this process has used, in microseconds.
pub fn process_cpu_micros() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t * TICK_MICROS)
}

/// `(all, stolen)` CPU ticks of the whole host since boot, from the text
/// of `/proc/stat`. Stolen time is what the hypervisor gave to someone
/// else while this guest wanted to run.
pub fn parse_host_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// Share of the host's CPU time since `since` that was stolen: a run with
/// more than a few percent was measured on a disturbed host.
pub fn host_steal_share(since: (u64, u64)) -> Option<f64> {
    let now = host_cpu_ticks()?;
    let all = now.0.saturating_sub(since.0);
    (all > 0).then(|| now.1.saturating_sub(since.1) as f64 / all as f64)
}

pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    parse_host_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn sliced_reports_median_slice_and_quartiles() {
        let s = Sliced::of(&[10.0, 12.0, 11.0, 30.0, 9.0]).unwrap();
        assert_eq!(
            s,
            Sliced {
                median: 11.0,
                q1: 10.0,
                q3: 12.0
            }
        );
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        // Between ranks the quartiles interpolate.
        let even = Sliced::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn cumulative_interpolates_between_marks() {
        // 100 ops at t=10, 100 more at t=20, marks given out of order.
        let c = Cumulative::from_increments(vec![(20, 100.0), (10, 100.0)]);
        assert_eq!(c.at(0), 0.0);
        assert_eq!(c.at(5), 50.0);
        assert_eq!(c.at(15), 150.0);
        assert_eq!(c.at(25), 200.0);
        assert_eq!(c.slice_deltas(20, 4), vec![50.0, 50.0, 50.0, 50.0]);
    }

    #[test]
    fn a_stall_moves_one_slice_not_the_median() {
        // Steady 10 ops per tick except nothing during [40, 60).
        let marks: Vec<(u64, f64)> = (1..=100)
            .filter(|t| !(40..60).contains(t))
            .map(|t| (t, 10.0))
            .collect();
        let per_slice = Cumulative::from_increments(marks).slice_deltas(100, 5);
        let s = Sliced::of(&per_slice).unwrap();
        assert_eq!(s.median, 200.0);
        assert!(s.q1 < s.median);
    }

    #[test]
    fn slice_percentiles_bucket_by_completion_time() {
        let samples: Vec<(u64, u64)> = (0..100).map(|i| (i, if i < 50 { 1 } else { 9 })).collect();
        assert_eq!(slice_percentiles(&samples, 100, 2, 0.5), vec![1.0, 9.0]);
        // Samples at or past the end are outside every slice.
        assert_eq!(
            slice_percentiles(&[(100, 5)], 100, 2, 0.5),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command() {
        let stat = "4242 (perf (x) y) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 9 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn host_stat_parsing_sums_the_first_eight_columns() {
        let stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_host_cpu_ticks(stat), Some((1000, 30)));
        assert_eq!(parse_host_cpu_ticks("cpu0 1 2 3"), None);
    }

    #[test]
    fn status_parsing_finds_the_named_field() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn this_process_has_used_cpu_and_memory() {
        assert!(process_cpu_micros().is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
