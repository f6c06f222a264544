//! `ray-bench`: the reproduction harness.
//!
//! One binary per table/figure of the paper's evaluation (§5); each
//! regenerates the same rows/series the paper reports, prints them as a
//! table, and appends a machine-readable summary under `bench_results/`
//! (consumed by `EXPERIMENTS.md`). Absolute numbers are laptop-scale by
//! design; the claims under reproduction are *shapes*: who wins, by
//! roughly what factor, and where behaviour changes.
//!
//! Every binary supports `--quick` to run a scaled-down version in a few
//! seconds.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Whether the harness should run in quick mode.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Destination for a Chrome `trace_event` timeline, when the binary was
/// invoked with `--trace-out <path>` (or `--trace-out=<path>`). Open the
/// resulting file in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn trace_out() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// A experiment report: a title, column headers, and rows of cells.
pub struct Report {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report. `name` becomes the results file stem
    /// (e.g. `fig12a_allreduce`).
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Report {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one row of cells.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Adds a free-form note printed under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(header, "{h:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Prints the table and appends it to `bench_results/<name>.txt`.
    pub fn finish(&self) {
        let rendered = self.render();
        println!("{rendered}");
        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{}.txt", self.name)))
        {
            let _ = writeln!(
                f,
                "# run at unix {}s{}",
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
                if quick_mode() { " (quick)" } else { "" }
            );
            let _ = f.write_all(rendered.as_bytes());
            let _ = writeln!(f);
        }
    }
}

/// Where result files land (workspace `bench_results/`, overridable with
/// `RAY_BENCH_RESULTS`).
pub fn results_dir() -> PathBuf {
    std::env::var("RAY_BENCH_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results"))
}

/// Formats a duration with sensible units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{:.0}s", s)
    } else if s >= 1.0 {
        format!("{:.2}s", s)
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Formats a rate (per-second quantity).
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}K/s", r / 1e3)
    } else {
        format!("{:.1}/s", r)
    }
}

/// Formats a byte count per second.
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e9 {
        format!("{:.2}GB/s", bytes_per_sec / 1e9)
    } else if bytes_per_sec >= 1e6 {
        format!("{:.1}MB/s", bytes_per_sec / 1e6)
    } else {
        format!("{:.1}KB/s", bytes_per_sec / 1e3)
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_table() {
        let mut r = Report::new("test", "Test Table", &["size", "value"]);
        r.row(&["1KB".into(), "10".into()]);
        r.row(&["100MB".into(), "2000".into()]);
        r.note("laptop scale");
        let s = r.render();
        assert!(s.contains("Test Table"));
        assert!(s.contains("100MB"));
        assert!(s.contains("note: laptop scale"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250µs");
        assert_eq!(fmt_duration(Duration::from_millis(2)), "2.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_rate(1_500_000.0), "1.50M/s");
        assert_eq!(fmt_rate(2_500.0), "2.5K/s");
        assert_eq!(fmt_bandwidth(16e9), "16.00GB/s");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
