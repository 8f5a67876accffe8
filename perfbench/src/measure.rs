//! Timing summaries and the result line.

use std::time::Duration;

/// Median of `values` (empty gives NaN, which the result line rejects).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Index of the nearest-rank quantile `q` in `len` ascending values.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank quantile `q` of ascending `sorted` nanosecond samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(n, q)] as f64,
    }
}

/// Nearest-rank quantile `q` of per-window figures (empty gives NaN).
fn window_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(n, q)],
    }
}

/// Completed operations of a timed phase, bucketed by the window they
/// completed in. Rates and latency quantiles are taken per window and
/// reported as the better quartile over the windows: the upper quartile
/// of rates, the lower quartile of latencies. Every window runs the same
/// mix, so a change to the program moves every window, while host noise
/// (a descheduled vCPU, a slow spell) only ever slows the windows it
/// covers and moves the figure only when it covers more than three
/// quarters of the run.
#[derive(Debug, Clone)]
pub struct Timeline {
    window_ns: u64,
    windows: usize,
    /// `(window, latency ns)` per completion inside the timed windows.
    samples: Vec<(u32, u32)>,
    /// Work units completed per window.
    work: Vec<u64>,
}

/// A timeline's per-window figures, each the better quartile over the
/// windows.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Completions counted.
    pub count: usize,
    /// Completions per second.
    pub ops_per_s: f64,
    /// Per-window p50 latency, µs.
    pub p50_us: f64,
    /// Per-window p95 latency, µs.
    pub p95_us: f64,
    /// Per-window p99 latency, µs.
    pub p99_us: f64,
    /// Work units per second.
    pub work_per_s: f64,
}

impl Timeline {
    /// `seconds` of timing cut into whole windows of `window` seconds
    /// (one window when `seconds < window`).
    pub fn new(seconds: f64, window: f64) -> Timeline {
        let window = window.min(seconds);
        let windows = ((seconds / window) as usize).max(1);
        Timeline {
            window_ns: (window * 1e9) as u64,
            windows,
            samples: Vec::with_capacity(1 << 16),
            work: vec![0; windows],
        }
    }

    /// Record one completion `end` after the common start; completions
    /// after the last whole window are not counted.
    pub fn record(&mut self, end: Duration, latency: Duration, work: u64) {
        let window = (end.as_nanos() / u128::from(self.window_ns)) as usize;
        if window < self.windows {
            let latency = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
            self.samples.push((window as u32, latency));
            self.work[window] += work;
        }
    }

    /// Fold another connection's completions into this one.
    pub fn merge(&mut self, other: Timeline) {
        self.samples.extend(other.samples);
        for (a, b) in self.work.iter_mut().zip(other.work) {
            *a += b;
        }
    }

    /// Per-window figures, each the better quartile over the windows.
    pub fn summary(&mut self) -> Summary {
        self.samples.sort_unstable();
        let secs = self.window_ns as f64 / 1e9;
        let mut rates = Vec::with_capacity(self.windows);
        let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut rest = &self.samples[..];
        for w in 0..self.windows as u32 {
            let n = rest.iter().take_while(|s| s.0 == w).count();
            let latencies: Vec<u64> = rest[..n].iter().map(|s| u64::from(s.1)).collect();
            rest = &rest[n..];
            rates.push(n as f64 / secs);
            if n > 0 {
                p50.push(quantile(&latencies, 0.5) / 1e3);
                p95.push(quantile(&latencies, 0.95) / 1e3);
                p99.push(quantile(&latencies, 0.99) / 1e3);
            }
        }
        let work: Vec<f64> = self.work.iter().map(|&w| w as f64 / secs).collect();
        Summary {
            count: self.samples.len(),
            ops_per_s: window_quantile(&rates, 0.75),
            p50_us: window_quantile(&p50, 0.25),
            p95_us: window_quantile(&p95, 0.25),
            p99_us: window_quantile(&p99, 0.25),
            work_per_s: window_quantile(&work, 0.75),
        }
    }
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One run's outcome: the correctness verdict, operation counts and the
/// named metrics in print order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (I/O error, `"ok":false`, wrong bytes).
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The value of metric `name` (NaN when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |&(_, v, _)| v)
    }

    /// Print one `name value unit` line per metric, then the JSON result
    /// object as the last line of standard output. A metric that is not
    /// a finite number makes the run incorrect.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let mut correct = self.correct && self.attempted > 0;
        let mut members = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
            let value = if value.is_finite() {
                *value
            } else {
                correct = false;
                -1.0
            };
            members.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        );
    }
}
