//! Small helpers shared by the workloads: order statistics, operation
//! accounting, peak memory and the result line.

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics in print order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Added to the error rate so that it is never 0. A single failure in a
/// run of a million operations already doubles the figure.
pub const ERROR_RATE_FLOOR: f64 = 1e-6;

/// Operation accounting for the correctness gate. An operation is an
/// engine apply, a correctness check, an update message or a query. It
/// fails when it errors, is refused or times out, or when its output is
/// wrong; wrong outputs also make the run incorrect.
///
/// `error_rate` is `failed / attempted` plus [`ERROR_RATE_FLOOR`], so a
/// run with no failure reads as the floor, never 0, whatever its length.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// An operation that may be refused without being wrong.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// An operation whose failure means a wrong output.
    pub fn check(&mut self, ok: bool) {
        self.record(ok);
        self.wrong += u64::from(!ok);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64 + ERROR_RATE_FLOOR
    }
}

/// The final stdout line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. A non-finite metric makes the run incorrect,
/// since JSON cannot carry it.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0 && finite,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}
