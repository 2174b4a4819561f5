//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each function returns plain row structs; the bench targets and the `sim`
//! CLI print them (and write CSV). Sizes are controlled by
//! [`ExperimentScale`] so `cargo bench` stays fast by default while
//! `RESCQ_BENCH_FULL=1` (or the CLI) runs the paper-sized sweep.

use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::{DecoderConfig, DecoderKind};
use rescq_harness::{run_sweep, CacheStats, DecoderPoint, RunOptions, SweepSpec};
use rescq_lattice::Layout;
use rescq_rus::{PreparationModel, RusParams, TFactoryModel};
use rescq_sim::runner::{geomean, run_seeds, SweepSummary};
use rescq_sim::{build_layout, LatencyHistogram, SimConfig, SimError};
use rescq_workloads::{BenchmarkSpec, ALL_BENCHMARKS, REPRESENTATIVE};

/// The `k` values the paper evaluates (§5.1).
pub const K_VALUES: [u32; 4] = [25, 50, 100, 200];
/// The code distances of Fig 11.
pub const DISTANCES: [u32; 6] = [3, 5, 7, 9, 11, 13];
/// The physical error rates of Fig 12 (`p = 10^-x`).
pub const ERROR_RATES: [f64; 4] = [1e-3, 1e-4, 1e-5, 1e-6];
/// The compression fractions of Fig 14.
pub const COMPRESSIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Sweep sizing.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Seeds per configuration.
    pub seeds: u64,
    /// Worker threads.
    pub threads: usize,
    /// Use the representative benchmark subset instead of all 23.
    pub quick: bool,
}

impl ExperimentScale {
    /// Reduced scale for `cargo bench` (3 seeds, representative subset plus
    /// a few small extras).
    pub fn reduced() -> Self {
        ExperimentScale {
            seeds: 3,
            threads: num_threads(),
            quick: true,
        }
    }

    /// Paper scale: all benchmarks, 10 seeds.
    pub fn full() -> Self {
        ExperimentScale {
            seeds: 10,
            threads: num_threads(),
            quick: false,
        }
    }

    /// Reads `RESCQ_BENCH_FULL` to pick a scale.
    pub fn from_env() -> Self {
        match std::env::var("RESCQ_BENCH_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Self::full(),
            _ => Self::reduced(),
        }
    }

    /// The benchmark set this scale sweeps.
    pub fn benchmarks(&self) -> Vec<&'static BenchmarkSpec> {
        if self.quick {
            // Representative subset (§5.2) plus small circuits from each
            // suite so the quick sweep still spans the density range.
            [
                "dnn_n16",
                "gcm_n13",
                "qft_n18",
                "wstate_n27",
                "ising_n34",
                "VQE_n13",
            ]
            .iter()
            .filter_map(|n| rescq_workloads::find(n))
            .collect()
        } else {
            ALL_BENCHMARKS.iter().collect()
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn base_config() -> SimConfig {
    // The paper's headline configuration: d = 7, p = 1e-4.
    SimConfig::default()
}

fn sweep(
    spec: &BenchmarkSpec,
    config: &SimConfig,
    scale: &ExperimentScale,
) -> Result<SweepSummary, SimError> {
    let circuit = spec.generate(1);
    run_seeds(&circuit, config, 1, scale.seeds, scale.threads)
}

// ---------------------------------------------------------------------
// Figure 10 — headline comparison
// ---------------------------------------------------------------------

/// One benchmark's Fig 10 bar group.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Mean cycles per scheduler `(greedy, autobraid, rescq*)`.
    pub mean_cycles: [f64; 3],
    /// Min/max cycles for RESCQ* (the error bars).
    pub rescq_min_max: (f64, f64),
    /// Best `k` for RESCQ*.
    pub best_k: u32,
}

impl Fig10Row {
    /// Speedup of RESCQ* over the better baseline.
    pub fn speedup(&self) -> f64 {
        self.mean_cycles[0].min(self.mean_cycles[1]) / self.mean_cycles[2]
    }
}

/// Runs the Fig 10 experiment: normalized execution time of greedy,
/// AutoBraid and RESCQ* (best k ∈ {25, 50, 100, 200}) at d = 7, p = 10⁻⁴.
/// Returns rows plus the geomean speedup (the paper reports ≈ 2×).
pub fn fig10(scale: &ExperimentScale) -> Result<(Vec<Fig10Row>, f64), SimError> {
    let mut rows = Vec::new();
    for spec in scale.benchmarks() {
        let mut mean_cycles = [0.0f64; 3];
        for (i, sched) in [SchedulerKind::Greedy, SchedulerKind::Autobraid]
            .iter()
            .enumerate()
        {
            let mut cfg = base_config();
            cfg.scheduler = *sched;
            mean_cycles[i] = sweep(spec, &cfg, scale)?.mean_cycles();
        }
        let mut best: Option<(f64, u32, SweepSummary)> = None;
        for k in K_VALUES {
            let mut cfg = base_config();
            cfg.scheduler = SchedulerKind::Rescq;
            cfg.k_policy = KPolicy::Fixed(k);
            let s = sweep(spec, &cfg, scale)?;
            let m = s.mean_cycles();
            if best.as_ref().is_none_or(|b| m < b.0) {
                best = Some((m, k, s));
            }
        }
        let (m, best_k, summary) = best.expect("at least one k");
        mean_cycles[2] = m;
        rows.push(Fig10Row {
            name: spec.name,
            mean_cycles,
            rescq_min_max: (summary.min_cycles(), summary.max_cycles()),
            best_k,
        });
    }
    let speedups: Vec<f64> = rows.iter().map(Fig10Row::speedup).collect();
    let gm = geomean(&speedups);
    Ok((rows, gm))
}

// ---------------------------------------------------------------------
// Figure 5 — latency histograms
// ---------------------------------------------------------------------

/// Merged latency histograms for one scheduler, accumulated over all
/// benchmarks (Fig 5).
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// The scheduler.
    pub scheduler: SchedulerKind,
    /// CNOT completion latency after scheduling.
    pub cnot: LatencyHistogram,
    /// Rz completion latency including corrections.
    pub rz: LatencyHistogram,
}

/// Runs the Fig 5 experiment for AutoBraid vs RESCQ.
pub fn fig5(scale: &ExperimentScale) -> Result<Vec<Fig5Data>, SimError> {
    let mut out = Vec::new();
    for sched in [SchedulerKind::Autobraid, SchedulerKind::Rescq] {
        let mut cnot = LatencyHistogram::new();
        let mut rz = LatencyHistogram::new();
        for spec in scale.benchmarks() {
            let mut cfg = base_config();
            cfg.scheduler = sched;
            let s = sweep(spec, &cfg, scale)?;
            cnot.merge(&s.merged_cnot_latency());
            rz.merge(&s.merged_rz_latency());
        }
        out.push(Fig5Data {
            scheduler: sched,
            cnot,
            rz,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Figures 11–14 — sensitivity sweeps
// ---------------------------------------------------------------------

/// One point of a sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Benchmark name.
    pub name: &'static str,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// The swept parameter value (d, −log₁₀ p, k, or compression %).
    pub x: f64,
    /// Mean total cycles.
    pub mean_cycles: f64,
    /// Mean data-qubit idle fraction.
    pub idle_fraction: f64,
    /// Achieved compression (Fig 14 only; otherwise 0).
    pub achieved_compression: f64,
}

fn representative_specs(scale: &ExperimentScale) -> Vec<&'static BenchmarkSpec> {
    if scale.quick {
        REPRESENTATIVE
            .iter()
            .filter(|n| **n != "qft_n160") // keep the quick sweep fast
            .chain(["qft_n18"].iter())
            .filter_map(|n| rescq_workloads::find(n))
            .collect()
    } else {
        REPRESENTATIVE
            .iter()
            .filter_map(|n| rescq_workloads::find(n))
            .collect()
    }
}

/// Fig 11: sensitivity to code distance (p = 10⁻⁴, k = 25).
pub fn fig11(scale: &ExperimentScale) -> Result<Vec<SensitivityPoint>, SimError> {
    let mut out = Vec::new();
    for spec in representative_specs(scale) {
        for sched in SchedulerKind::ALL {
            for d in DISTANCES {
                let mut cfg = base_config();
                cfg.scheduler = sched;
                cfg.distance = d;
                let s = sweep(spec, &cfg, scale)?;
                out.push(SensitivityPoint {
                    name: spec.name,
                    scheduler: sched,
                    x: d as f64,
                    mean_cycles: s.mean_cycles(),
                    idle_fraction: s.mean_idle_fraction(),
                    achieved_compression: 0.0,
                });
            }
        }
    }
    Ok(out)
}

/// Fig 12: sensitivity to physical error rate (d = 7, k = 25).
pub fn fig12(scale: &ExperimentScale) -> Result<Vec<SensitivityPoint>, SimError> {
    let mut out = Vec::new();
    for spec in representative_specs(scale) {
        for sched in SchedulerKind::ALL {
            for p in ERROR_RATES {
                let mut cfg = base_config();
                cfg.scheduler = sched;
                cfg.physical_error_rate = p;
                let s = sweep(spec, &cfg, scale)?;
                out.push(SensitivityPoint {
                    name: spec.name,
                    scheduler: sched,
                    x: -p.log10(),
                    mean_cycles: s.mean_cycles(),
                    idle_fraction: s.mean_idle_fraction(),
                    achieved_compression: 0.0,
                });
            }
        }
    }
    Ok(out)
}

/// Fig 13: RESCQ's sensitivity to the MST period k across d and p.
pub fn fig13(scale: &ExperimentScale) -> Result<Vec<SensitivityPoint>, SimError> {
    let mut out = Vec::new();
    for spec in representative_specs(scale) {
        for k in K_VALUES {
            for d in [3, 7, 13] {
                let mut cfg = base_config();
                cfg.distance = d;
                cfg.k_policy = KPolicy::Fixed(k);
                let s = sweep(spec, &cfg, scale)?;
                out.push(SensitivityPoint {
                    name: spec.name,
                    scheduler: SchedulerKind::Rescq,
                    x: k as f64 + d as f64 / 100.0, // encode (k, d) in one axis
                    mean_cycles: s.mean_cycles(),
                    idle_fraction: s.mean_idle_fraction(),
                    achieved_compression: 0.0,
                });
            }
        }
    }
    Ok(out)
}

/// Fig 14: sensitivity to grid compression (d = 7, p = 10⁻⁴).
pub fn fig14(scale: &ExperimentScale) -> Result<Vec<SensitivityPoint>, SimError> {
    let mut out = Vec::new();
    for spec in representative_specs(scale) {
        for sched in SchedulerKind::ALL {
            for comp in COMPRESSIONS {
                let mut cfg = base_config();
                cfg.scheduler = sched;
                cfg.compression = comp;
                let s = sweep(spec, &cfg, scale)?;
                let achieved = s
                    .reports
                    .first()
                    .map(|r| r.achieved_compression)
                    .unwrap_or(0.0);
                out.push(SensitivityPoint {
                    name: spec.name,
                    scheduler: sched,
                    x: comp * 100.0,
                    mean_cycles: s.mean_cycles(),
                    idle_fraction: s.mean_idle_fraction(),
                    achieved_compression: achieved,
                });
            }
        }
    }
    Ok(out)
}

/// Data qubits in each Fig 15 example grid.
const FIG15_QUBITS: u32 = 8;

/// One Fig 15 grid: the fabric at one requested compression.
#[derive(Debug, Clone)]
pub struct Fig15Grid {
    /// Requested compression fraction.
    pub requested: f64,
    /// The fabric; `layout.compression()` is the achieved fraction.
    pub layout: Layout,
}

/// Fig 15: 8-qubit grids at each of [`COMPRESSIONS`], built
/// by [`build_layout`] — the same compression the Fig 14 simulations run
/// on.
pub fn fig15() -> Result<Vec<Fig15Grid>, SimError> {
    COMPRESSIONS
        .iter()
        .map(|&requested| {
            let config = SimConfig::builder().compression(requested).build();
            Ok(Fig15Grid {
                requested,
                layout: build_layout(FIG15_QUBITS, &config)?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Decoder sweep — total cycles vs classical-decoder throughput
// ---------------------------------------------------------------------

/// Union-find decoder throughputs swept, in decreasing order (decode work
/// units cleared per wall-clock round); the leading `f64::INFINITY` stands
/// for the ideal decoder. The grid is coarse (×4 steps) so the latency
/// signal dominates the seed-level scheduling noise a decoder shift
/// induces.
pub const DECODER_THROUGHPUTS: [f64; 5] = [f64::INFINITY, 64.0, 16.0, 4.0, 1.0];

/// One point of the decoder sweep.
#[derive(Debug, Clone)]
pub struct DecoderSweepRow {
    /// Workload name.
    pub name: &'static str,
    /// Decoder kind at this point.
    pub decoder: DecoderKind,
    /// Decoder throughput (`inf` = ideal).
    pub throughput: f64,
    /// Mean total cycles across seeds.
    pub mean_cycles: f64,
    /// Mean decoder stall cycles across seeds.
    pub mean_stall_cycles: f64,
    /// Largest decode backlog observed in any seed.
    pub peak_backlog: u64,
}

/// Sweeps classical-decoder throughput on the decoder-stress workload under
/// the RESCQ scheduler. Returns the rows (throughput descending) and whether
/// mean total cycles were monotonically non-decreasing as throughput
/// dropped — the decoder-limited regime emerging from the
/// preparation-limited one.
pub fn decoder_sweep(scale: &ExperimentScale) -> Result<(Vec<DecoderSweepRow>, bool), SimError> {
    decoder_sweep_with_stats(scale).map(|(rows, monotone, _)| (rows, monotone))
}

/// [`decoder_sweep`] plus the harness's artifact-cache counters: the whole
/// grid shares one circuit generation and one fabric build, which is the
/// point of routing the sweep through `rescq-harness`.
pub fn decoder_sweep_with_stats(
    scale: &ExperimentScale,
) -> Result<(Vec<DecoderSweepRow>, bool, CacheStats), SimError> {
    let name: &'static str = if scale.quick {
        "decoder_stress_n9"
    } else {
        "decoder_stress_n16"
    };
    // Changing decoder latency perturbs the whole schedule (and with it the
    // RUS outcome draws), so single-seed cycle counts are noisy; a floor of
    // 5 seeds keeps the sweep's means comparable across throughputs.
    let spec = SweepSpec {
        workloads: vec![name.to_string()],
        decoders: DECODER_THROUGHPUTS
            .iter()
            .map(|&tp| {
                DecoderPoint::from(if tp.is_infinite() {
                    DecoderConfig::ideal()
                } else {
                    DecoderConfig::union_find(tp)
                })
            })
            .collect(),
        seeds: scale.seeds.max(5),
        ..SweepSpec::default()
    };
    let results = run_sweep(&spec, &RunOptions::with_threads(scale.threads))
        .map_err(|e| SimError::BadInput(e.to_string()))?;
    if let Some(e) = results.first_error() {
        return Err(SimError::BadInput(e.to_string()));
    }
    // Points expand in decoder order, so summaries line up with
    // DECODER_THROUGHPUTS (descending).
    let rows: Vec<DecoderSweepRow> = results
        .summaries()
        .iter()
        .zip(DECODER_THROUGHPUTS)
        .map(|(s, tp)| DecoderSweepRow {
            name,
            decoder: s.job.config.decoder.kind,
            throughput: tp,
            mean_cycles: s.mean_cycles,
            mean_stall_cycles: s.mean_stall_cycles,
            peak_backlog: s.peak_backlog,
        })
        .collect();
    let monotone = rows
        .windows(2)
        .all(|w| w[1].mean_cycles >= w[0].mean_cycles - 1e-9);
    Ok((rows, monotone, results.cache))
}

// ---------------------------------------------------------------------
// Figure 16 / Appendix A — RUS preparation model
// ---------------------------------------------------------------------

/// One point of Fig 16.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Row {
    /// Code distance.
    pub d: u32,
    /// Physical error rate.
    pub p: f64,
    /// Analytic expected cycles to prepare `|mθ⟩`.
    pub expected_cycles: f64,
    /// Analytic expected attempts.
    pub expected_attempts: f64,
}

/// The Fig 16 grid: expected preparation cycles and attempts over d and p.
pub fn fig16() -> Vec<Fig16Row> {
    let mut out = Vec::new();
    for d in DISTANCES {
        for p in ERROR_RATES {
            let m = PreparationModel::new(RusParams::new(d, p));
            out.push(Fig16Row {
                d,
                p,
                expected_cycles: m.expected_cycles(),
                expected_attempts: m.expected_attempts(),
            });
        }
    }
    out
}

/// The Appendix A.2 comparison rows.
#[derive(Debug, Clone, Copy)]
pub struct A2Row {
    /// Expected RUS cycles per Rz (≈ 8.4 in the paper).
    pub rus_cycles: f64,
    /// Clifford+T cycle range per Rz (200–1300 in the paper).
    pub t_range: (u64, u64),
    /// Overhead range (20–150× in the paper).
    pub overhead: (f64, f64),
}

/// Computes the Appendix A.2 headline comparison.
pub fn appendix_a2() -> A2Row {
    let prep = PreparationModel::new(RusParams::new(3, 1e-3)); // worst Fig 16 corner
    let factory = TFactoryModel::default();
    A2Row {
        rus_cycles: rescq_rus::rus_rz_expected_cycles(&prep),
        t_range: factory.rz_cycle_range(),
        overhead: rescq_rus::clifford_t_overhead(&prep, &factory),
    }
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// One row of the regenerated Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite label.
    pub suite: &'static str,
    /// Qubits.
    pub qubits: u32,
    /// Paper's (#Rz, #CNOT).
    pub paper: (usize, usize),
    /// Our generator's (#Rz, #CNOT).
    pub generated: (usize, usize),
}

/// Regenerates Table 3 and compares against the paper's counts.
pub fn table3() -> Vec<Table3Row> {
    ALL_BENCHMARKS
        .iter()
        .map(|spec| {
            let stats = spec.generate(1).stats();
            Table3Row {
                name: spec.name,
                suite: match spec.suite {
                    rescq_workloads::Suite::Large => "large",
                    rescq_workloads::Suite::Medium => "medium",
                    rescq_workloads::Suite::Supermarq => "supermarq",
                },
                qubits: spec.qubits,
                paper: (spec.paper_rz, spec.paper_cnot),
                generated: (stats.rz, stats.cnot),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_grid_covers_sweep() {
        let rows = fig16();
        assert_eq!(rows.len(), DISTANCES.len() * ERROR_RATES.len());
        // Shape: cycles fall with d at fixed p.
        let at_p4: Vec<&Fig16Row> = rows.iter().filter(|r| r.p == 1e-4).collect();
        assert!(at_p4
            .windows(2)
            .all(|w| w[1].expected_cycles < w[0].expected_cycles));
    }

    #[test]
    fn fig15_grids_shrink_and_stay_routable() {
        let grids = fig15().unwrap();
        assert_eq!(grids.len(), COMPRESSIONS.len());
        assert!(grids.iter().all(|g| g.layout.is_routable()));
        assert_eq!(grids[0].layout.compression(), 0.0);
        assert!(grids
            .windows(2)
            .all(|w| w[1].layout.ancilla_ratio() <= w[0].layout.ancilla_ratio()));
    }

    #[test]
    fn a2_matches_paper_ranges() {
        let a2 = appendix_a2();
        assert!((7.0..11.0).contains(&a2.rus_cycles));
        assert_eq!(a2.t_range, (200, 1300));
        assert!(a2.overhead.0 > 15.0 && a2.overhead.1 < 200.0);
    }

    #[test]
    fn table3_rows_complete() {
        let rows = table3();
        assert_eq!(rows.len(), 23);
        let exact = rows.iter().filter(|r| r.paper == r.generated).count();
        assert!(exact >= 21, "only {exact} rows match Table 3 exactly");
    }

    #[test]
    fn decoder_sweep_is_monotone() {
        // The acceptance bar for the decoder subsystem: total cycles must
        // not *decrease* when the classical decoder gets slower.
        let scale = ExperimentScale {
            seeds: 3,
            threads: num_threads(),
            quick: true,
        };
        let (rows, monotone) = decoder_sweep(&scale).expect("sweep runs");
        assert_eq!(rows.len(), DECODER_THROUGHPUTS.len());
        assert!(
            monotone,
            "cycles must be non-decreasing as throughput drops: {:?}",
            rows.iter().map(|r| r.mean_cycles).collect::<Vec<_>>()
        );
        // The slowest decoder must actually bite (strictly more cycles and
        // real stall time vs ideal).
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.mean_cycles > first.mean_cycles);
        assert_eq!(first.mean_stall_cycles, 0.0);
        assert!(last.mean_stall_cycles > 0.0);
    }

    #[test]
    fn decoder_sweep_shares_artifacts_and_matches_direct_runner() {
        let scale = ExperimentScale {
            seeds: 3,
            threads: 2,
            quick: true,
        };
        let (rows, _, stats) = decoder_sweep_with_stats(&scale).expect("sweep runs");
        // The whole 5-point grid shares one circuit and one fabric build.
        assert_eq!(stats.circuit_builds, 1);
        assert_eq!(stats.layout_builds, 1);
        assert!(stats.circuit_hits >= 4);
        // Routing through the harness must not change any number: each point
        // equals the pre-harness per-point runner on the same configuration.
        let circuit = rescq_workloads::generate("decoder_stress_n9", 1).unwrap();
        let mut cfg = base_config();
        cfg.decoder = DecoderConfig::union_find(4.0);
        let direct = run_seeds(&circuit, &cfg, 1, 5, 2).unwrap();
        let row = rows.iter().find(|r| r.throughput == 4.0).unwrap();
        assert_eq!(row.mean_cycles, direct.mean_cycles());
    }

    #[test]
    fn scales_resolve() {
        assert!(ExperimentScale::reduced().quick);
        assert!(!ExperimentScale::full().quick);
        assert!(!ExperimentScale::reduced().benchmarks().is_empty());
        assert_eq!(ExperimentScale::full().benchmarks().len(), 23);
    }
}
