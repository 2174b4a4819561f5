//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each driver returns plain row structs; [`render`] turns one figure's rows
//! into the text `sim fig <id>` and `sim table3` print. Sizes are controlled
//! by [`ExperimentScale`]: reduced by default, paper-sized under
//! `sim fig --full`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::{DecoderConfig, DecoderKind};
use rescq_harness::{run_sweep, CacheStats, DecoderPoint, RunOptions, SweepSpec};
use rescq_lattice::Layout;
use rescq_rus::{fig3_series, InjectionStrategy, PreparationModel, RusParams, TFactoryModel};
use rescq_sim::runner::{geomean, run_seeds, SweepSummary};
use rescq_sim::{build_layout, LatencyHistogram, SimConfig, SimError};
use rescq_workloads::{BenchmarkSpec, ALL_BENCHMARKS, REPRESENTATIVE};
use std::fmt::{self, Write};

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
    /// Reduced scale (3 seeds, representative subset plus a few small
    /// extras), so each simulated figure regenerates in seconds.
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
/// the RESCQ scheduler. Returns the rows (throughput descending), whether
/// mean total cycles were monotonically non-decreasing as throughput
/// dropped — the decoder-limited regime emerging from the
/// preparation-limited one — and the harness's artifact-cache counters:
/// the whole grid shares one circuit generation and one fabric build.
pub fn decoder_sweep(
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
    /// Monte-Carlo mean cycles over [`FIG16_SAMPLES`] sampled preparations.
    pub sampled_cycles: f64,
    /// Monte-Carlo mean attempts over [`FIG16_SAMPLES`] samples.
    pub sampled_attempts: f64,
}

/// Samples per Fig 16 point in the Monte-Carlo check of the analytic model.
pub const FIG16_SAMPLES: u64 = 4000;

/// The Fig 16 grid: expected preparation cycles and attempts over d and p,
/// each checked against a seeded Monte-Carlo estimate.
pub fn fig16() -> Vec<Fig16Row> {
    let mut rng = ChaCha8Rng::seed_from_u64(161616);
    let mut out = Vec::new();
    for d in DISTANCES {
        for p in ERROR_RATES {
            let m = PreparationModel::new(RusParams::new(d, p));
            let (mut rounds, mut attempts) = (0u64, 0u64);
            for _ in 0..FIG16_SAMPLES {
                rounds += m.sample_prep_rounds(&mut rng);
                attempts += m.sample_attempts(&mut rng);
            }
            let n = FIG16_SAMPLES as f64;
            out.push(Fig16Row {
                d,
                p,
                expected_cycles: m.expected_cycles(),
                expected_attempts: m.expected_attempts(),
                sampled_cycles: rounds as f64 / n / d as f64,
                sampled_attempts: attempts as f64 / n,
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

// ---------------------------------------------------------------------
// Rendering — the text `sim fig` and `sim table3` print
// ---------------------------------------------------------------------

/// Runs the driver of one result and renders its rows as text: figure ids
/// `3`, `5`, `10`–`16`, `a2` and `decoder`, plus `table3`. `16` also
/// renders Table 1 and Appendix A.2.
///
/// # Errors
///
/// Returns a message for an unknown id or a failed simulation.
pub fn render(figure: &str, scale: &ExperimentScale) -> Result<String, String> {
    let sim = |e: SimError| e.to_string();
    let mut out = String::new();
    let written = match figure {
        "3" => render_fig3(&mut out),
        "5" => render_fig5(&mut out, &fig5(scale).map_err(sim)?),
        "10" => render_fig10(&mut out, &fig10(scale).map_err(sim)?),
        "11" => render_sensitivity(
            &mut out,
            (
                "Figure 11 — sensitivity to code distance d",
                "cycles fall with d for all schedulers; RESCQ is least sensitive",
            ),
            "   d",
            |p| format!("{:>4}", p.x),
            &fig11(scale).map_err(sim)?,
        ),
        "12" => render_sensitivity(
            &mut out,
            (
                "Figure 12 — sensitivity to physical error rate p",
                "all schemes relatively insensitive to p (paper §5.2.2)",
            ),
            "       p",
            |p| format!("{:>8}", format!("1e-{:.0}", p.x)),
            &fig12(scale).map_err(sim)?,
        ),
        "13" => render_sensitivity(
            &mut out,
            (
                "Figure 13 — RESCQ sensitivity to k (MST period)",
                "performance is near-optimal at k=25 and degrades negligibly (§5.2.3)",
            ),
            "    k    d",
            // fig13 encodes (k, d) as x = k + d/100.
            |p| format!("{:>5} {:>4}", p.x.trunc(), (p.x.fract() * 100.0).round()),
            &fig13(scale).map_err(sim)?,
        ),
        "14" => render_sensitivity(
            &mut out,
            (
                "Figure 14 — sensitivity to grid compression",
                "RESCQ degrades mildly; baselines suffer congestion (§5.3)",
            ),
            " requested   achieved",
            |p| format!("{:>9.0}% {:>9.0}%", p.x, p.achieved_compression * 100.0),
            &fig14(scale).map_err(sim)?,
        ),
        "15" => render_fig15(&mut out, &fig15().map_err(sim)?),
        "16" => render_fig16(&mut out),
        "a2" => render_a2(&mut out),
        "decoder" => render_decoder_sweep(&mut out, &decoder_sweep(scale).map_err(sim)?),
        "table3" => render_table3(&mut out),
        other => return Err(format!("unknown figure `{other}`")),
    };
    written.expect("writing to a String cannot fail");
    Ok(out)
}

fn header(out: &mut String, title: &str, detail: &str) -> fmt::Result {
    writeln!(out, "=== {title} ===")?;
    if !detail.is_empty() {
        writeln!(out, "    {detail}")?;
    }
    Ok(())
}

fn render_fig3(out: &mut String) -> fmt::Result {
    header(
        out,
        "Figure 3 — rotation budget vs logical error rate",
        "Clifford+Rz (solid) vs Clifford+T (dashed); ratio ≈ 2 orders of magnitude",
    )?;
    let lers: Vec<f64> = (4..=12).map(|e| 10f64.powi(-e)).collect();
    for fidelity in [0.9, 0.99] {
        writeln!(out, "target fidelity {fidelity}:")?;
        writeln!(
            out,
            "{:>10} {:>16} {:>16} {:>8}",
            "LER", "Rz rotations", "T rotations", "ratio"
        )?;
        for row in fig3_series(fidelity, &lers) {
            writeln!(
                out,
                "{:>10.0e} {:>16} {:>16} {:>8.1}",
                row.logical_error_rate,
                row.rz_rotations,
                row.t_rotations,
                row.rz_rotations as f64 / row.t_rotations.max(1) as f64
            )?;
        }
    }
    Ok(())
}

fn render_histogram(out: &mut String, label: &str, h: &LatencyHistogram) -> fmt::Result {
    writeln!(
        out,
        "  {label}: n={} mean={:.2} p50={} p90={} ≤2cy={:.0}% ≤6cy={:.0}%",
        h.count(),
        h.mean(),
        h.percentile(0.5),
        h.percentile(0.9),
        h.fraction_at_most(2) * 100.0,
        h.fraction_at_most(6) * 100.0
    )?;
    let max = h.iter().map(|(_, n)| n).max().unwrap_or(1);
    for (lat, n) in h.iter().take(16) {
        let bar = "#".repeat((n * 40 / max.max(1)) as usize);
        writeln!(out, "    {lat:>3} cycles | {bar} {n}")?;
    }
    Ok(())
}

fn render_fig5(out: &mut String, data: &[Fig5Data]) -> fmt::Result {
    header(
        out,
        "Figure 5 — gate completion latency histograms",
        "expected: RESCQ CNOTs mostly 2 cycles; AutoBraid modes at 5 and 8",
    )?;
    for d in data {
        writeln!(out, "{}:", d.scheduler)?;
        render_histogram(out, "CNOT", &d.cnot)?;
        render_histogram(out, "Rz  ", &d.rz)?;
    }
    Ok(())
}

fn render_fig10(out: &mut String, (rows, geomean): &(Vec<Fig10Row>, f64)) -> fmt::Result {
    header(
        out,
        "Figure 10 — execution time vs baselines (d=7, p=1e-4)",
        "normalized to greedy = 1.0, then mean cycles (cy); RESCQ* = best k in {25,50,100,200}",
    )?;
    writeln!(
        out,
        "{:<28} {:>9} {:>10} {:>9} {:>7} {:>9} {:>12} {:>12} {:>12}",
        "benchmark",
        "greedy",
        "autobraid",
        "rescq*",
        "k*",
        "speedup",
        "greedy cy",
        "autobraid cy",
        "rescq* cy"
    )?;
    for r in rows {
        let base = r.mean_cycles[0];
        writeln!(
            out,
            "{:<28} {:>9.3} {:>10.3} {:>9.3} {:>7} {:>8.2}x {:>12.0} {:>12.0} {:>12.0}",
            r.name,
            1.0,
            r.mean_cycles[1] / base,
            r.mean_cycles[2] / base,
            r.best_k,
            r.speedup(),
            r.mean_cycles[0],
            r.mean_cycles[1],
            r.mean_cycles[2]
        )?;
    }
    writeln!(
        out,
        "geomean RESCQ speedup over best baseline: {geomean:.2}x (paper: ≈2x)"
    )
}

/// One sensitivity table (Figs 11–14): `axis` heads the swept-parameter
/// columns that `x` formats for each point.
fn render_sensitivity(
    out: &mut String,
    (title, detail): (&str, &str),
    axis: &str,
    x: impl Fn(&SensitivityPoint) -> String,
    points: &[SensitivityPoint],
) -> fmt::Result {
    header(out, title, detail)?;
    writeln!(
        out,
        "{:<20} {:>10} {axis} {:>12} {:>8}",
        "benchmark", "scheduler", "cycles", "idle"
    )?;
    for p in points {
        writeln!(
            out,
            "{:<20} {:>10} {} {:>12.0} {:>7.0}%",
            p.name,
            p.scheduler.to_string(),
            x(p),
            p.mean_cycles,
            p.idle_fraction * 100.0
        )?;
    }
    Ok(())
}

fn render_fig15(out: &mut String, grids: &[Fig15Grid]) -> fmt::Result {
    header(
        out,
        "Figure 15 — grids of 8 data qubits at different compressions",
        "D = data qubit, . = ancilla, blank = removed by compression",
    )?;
    for g in grids {
        writeln!(
            out,
            "requested {:.0}% → achieved {:.0}% (ancilla/data = {:.2}):",
            g.requested * 100.0,
            g.layout.compression() * 100.0,
            g.layout.ancilla_ratio()
        )?;
        writeln!(out, "{}", g.layout.render_ascii())?;
    }
    Ok(())
}

fn render_fig16(out: &mut String) -> fmt::Result {
    header(
        out,
        "Figure 16 — |mθ⟩ preparation cost vs d and p",
        "cycles fall with d (rise with p); attempts rise with d — with Monte-Carlo check",
    )?;
    writeln!(
        out,
        "{:>4} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "d", "p", "E[cycles]", "MC cycles", "E[attempts]", "MC attempts"
    )?;
    for row in fig16() {
        writeln!(
            out,
            "{:>4} {:>8.0e} {:>12.3} {:>12.3} {:>12.4} {:>12.4}",
            row.d,
            row.p,
            row.expected_cycles,
            row.sampled_cycles,
            row.expected_attempts,
            row.sampled_attempts
        )?;
    }
    writeln!(out)?;
    header(out, "Table 1 — injection strategies", "")?;
    writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>8}",
        "strategy", "exposed edge", "ancillas", "cycles"
    )?;
    for s in [InjectionStrategy::Zz, InjectionStrategy::Cnot] {
        writeln!(
            out,
            "{:>10} {:>12} {:>10} {:>8}",
            s.to_string(),
            s.exposed_edge_name(),
            s.ancillas_required(),
            s.cycles()
        )?;
    }
    writeln!(out)?;
    render_a2(out)
}

fn render_a2(out: &mut String) -> fmt::Result {
    header(out, "Appendix A.2 — |mθ⟩ vs T injection", "")?;
    let a2 = appendix_a2();
    writeln!(
        out,
        "RUS Rz cost: {:.1} cycles (paper: ≈8.4)",
        a2.rus_cycles
    )?;
    writeln!(
        out,
        "Clifford+T Rz cost: {}–{} cycles (paper: 200–1300)",
        a2.t_range.0, a2.t_range.1
    )?;
    writeln!(
        out,
        "overhead: {:.0}×–{:.0}× (paper: 20–150×)",
        a2.overhead.0, a2.overhead.1
    )
}

fn render_decoder_sweep(
    out: &mut String,
    (rows, monotone, cache): &(Vec<DecoderSweepRow>, bool, CacheStats),
) -> fmt::Result {
    header(
        out,
        "Decoder sweep — total cycles vs decoder throughput",
        "RESCQ on decoder_stress; union-find decoder, ideal at tp=inf",
    )?;
    writeln!(
        out,
        "{:<18} {:<9} {:>11} {:>12} {:>14} {:>13}",
        "workload", "decoder", "throughput", "mean cycles", "stall cycles", "peak backlog"
    )?;
    for r in rows {
        writeln!(
            out,
            "{:<18} {:<9} {:>11} {:>12.1} {:>14.1} {:>13}",
            r.name,
            r.decoder.to_string(),
            r.throughput,
            r.mean_cycles,
            r.mean_stall_cycles,
            r.peak_backlog
        )?;
    }
    writeln!(
        out,
        "cycles monotonically non-decreasing as throughput drops: {}",
        if *monotone { "yes" } else { "NO" }
    )?;
    writeln!(out, "artifact cache: {cache}")
}

fn render_table3(out: &mut String) -> fmt::Result {
    header(
        out,
        "Table 3 — benchmark suite",
        "paper (#Rz, #CNOT) vs generated; ✓ = exact match",
    )?;
    writeln!(
        out,
        "{:<28} {:>6} {:>9} {:>9} {:>11} {:>11}  match",
        "benchmark", "qubits", "paper Rz", "paper CX", "gen Rz", "gen CX"
    )?;
    let rows = table3();
    let mut exact = 0;
    for r in &rows {
        let ok = r.paper == r.generated;
        exact += usize::from(ok);
        writeln!(
            out,
            "{:<28} {:>6} {:>9} {:>9} {:>11} {:>11}  {}",
            format!("{} ({})", r.name, r.suite),
            r.qubits,
            r.paper.0,
            r.paper.1,
            r.generated.0,
            r.generated.1,
            if ok { "✓" } else { "≈" }
        )?;
    }
    writeln!(out, "{exact}/{} rows exact", rows.len())
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
        let (rows, monotone, _) = decoder_sweep(&scale).expect("sweep runs");
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
        let (rows, _, stats) = decoder_sweep(&scale).expect("sweep runs");
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
