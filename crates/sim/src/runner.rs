//! Multi-seed experiment runner: the paper executes every benchmark multiple
//! times with unique seeds and reports means with min/max error bars
//! (Fig 10); this module runs those sweeps, in parallel across worker
//! threads.

use crate::artifacts::{simulate_prepared, SimArtifacts};
use crate::{ExecutionReport, SimConfig, SimError};
use rescq_circuit::Circuit;
use std::fmt;
use std::sync::Arc;

/// Aggregate statistics of a multi-seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Per-seed reports, in seed order.
    pub reports: Vec<ExecutionReport>,
}

impl SweepSummary {
    /// Mean total cycles across seeds.
    pub fn mean_cycles(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.total_cycles()).sum::<f64>() / self.reports.len() as f64
    }

    /// Minimum total cycles (error-bar low; 0 for an empty sweep, like
    /// the mean and the max).
    pub fn min_cycles(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.total_cycles())
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Maximum total cycles (error-bar high).
    pub fn max_cycles(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.total_cycles())
            .fold(0.0, f64::max)
    }

    /// Mean data-qubit idle fraction.
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.idle_fraction()).sum::<f64>() / self.reports.len() as f64
    }

    /// Merged CNOT latency histogram across seeds.
    pub fn merged_cnot_latency(&self) -> crate::LatencyHistogram {
        let mut h = crate::LatencyHistogram::new();
        for r in &self.reports {
            h.merge(&r.cnot_latency);
        }
        h
    }

    /// Merged Rz latency histogram across seeds.
    pub fn merged_rz_latency(&self) -> crate::LatencyHistogram {
        let mut h = crate::LatencyHistogram::new();
        for r in &self.reports {
            h.merge(&r.rz_latency);
        }
        h
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs: mean {:.0} cycles (min {:.0}, max {:.0})",
            self.reports.len(),
            self.mean_cycles(),
            self.min_cycles(),
            self.max_cycles()
        )
    }
}

/// Runs `num_seeds` simulations of `circuit` (seeds `base_seed..`), in
/// parallel across up to `threads` workers.
///
/// The circuit's DAG and the fabric layout are built once and shared
/// read-only across every seed (they depend only on the configuration, not
/// the seed), so adding seeds costs only engine time.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered (runs are independent, so any
/// failure is deterministic for its seed).
pub fn run_seeds(
    circuit: &Circuit,
    config: &SimConfig,
    base_seed: u64,
    num_seeds: u64,
    threads: usize,
) -> Result<SweepSummary, SimError> {
    let artifacts = SimArtifacts::prepare(Arc::new(circuit.clone()), config)?;
    let seeds: Vec<u64> = (0..num_seeds).map(|i| base_seed + i).collect();
    let threads = threads.max(1).min(seeds.len().max(1));
    let mut results: Vec<Option<Result<ExecutionReport, SimError>>> =
        (0..seeds.len()).map(|_| None).collect();

    if threads <= 1 {
        for (slot, &seed) in results.iter_mut().zip(&seeds) {
            let mut cfg = config.clone();
            cfg.seed = seed;
            *slot = Some(simulate_prepared(&artifacts, &cfg));
        }
    } else {
        let chunk = seeds.len().div_ceil(threads);
        let artifacts = &artifacts;
        std::thread::scope(|scope| {
            for (slots, seed_chunk) in results.chunks_mut(chunk).zip(seeds.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, &seed) in slots.iter_mut().zip(seed_chunk) {
                        let mut cfg = config.clone();
                        cfg.seed = seed;
                        *slot = Some(simulate_prepared(artifacts, &cfg));
                    }
                });
            }
        });
    }

    let mut reports = Vec::with_capacity(seeds.len());
    for r in results {
        reports.push(r.expect("all slots filled")?);
    }
    Ok(SweepSummary { reports })
}

/// Geometric mean of a slice of positive ratios (the paper reports geomean
/// speedups across benchmarks).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescq_circuit::Angle;

    fn tiny_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0)
            .cnot(0, 1)
            .rz(1, Angle::radians(0.3))
            .cnot(1, 2)
            .rz(2, Angle::T);
        c
    }

    #[test]
    fn sweep_runs_all_seeds() {
        let c = tiny_circuit();
        let s = run_seeds(&c, &SimConfig::default(), 100, 4, 1).unwrap();
        assert_eq!(s.reports.len(), 4);
        let seeds: Vec<u64> = s.reports.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102, 103]);
        assert!(s.min_cycles() <= s.mean_cycles());
        assert!(s.mean_cycles() <= s.max_cycles());
    }

    #[test]
    fn empty_sweep_statistics_are_zero() {
        let s = SweepSummary {
            reports: Vec::new(),
        };
        assert_eq!(
            (s.min_cycles(), s.mean_cycles(), s.max_cycles()),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(s.to_string(), "0 runs: mean 0 cycles (min 0, max 0)");
    }

    #[test]
    fn parallel_matches_serial() {
        let c = tiny_circuit();
        let serial = run_seeds(&c, &SimConfig::default(), 1, 6, 1).unwrap();
        let parallel = run_seeds(&c, &SimConfig::default(), 1, 6, 3).unwrap();
        assert_eq!(serial.reports, parallel.reports);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
