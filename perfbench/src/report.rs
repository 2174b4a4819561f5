//! Metrics, correctness accounting, small statistics and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Attempted and failed operations of one run. A timed call counts once;
/// so does every separate correctness check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one attempt, and a failure (reported on stderr) unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }
}

/// What one workload run produced: its checks, the metrics of the selected
/// kind, and human-readable lines printed before the result.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Prints the notes, one line per metric, and as the last line the
    /// JSON result object.
    pub fn print(mut self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                self.checks
                    .check(false, || format!("{} is not finite", m.name));
                m.value = 0.0;
            }
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let c = &self.checks;
        println!(
            "  {:<32} {:>16.6} ({} of {} attempted)",
            "failed_frac",
            c.failed as f64 / c.attempted.max(1) as f64,
            c.failed,
            c.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            c.failed == 0 && c.attempted > 0,
            c.attempted.max(1),
            c.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `xs` (mean of the middle pair for even counts; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of all
/// samples at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64 finalizer: derives independent seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
