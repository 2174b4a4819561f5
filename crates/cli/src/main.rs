//! The `sim` binary: spec-driven RESCQ simulations and figure
//! regeneration, mirroring the paper artifact's workflow.
//!
//! ```text
//! sim run <spec.toml> [--csv DIR]          one sweep point from a spec file
//! sim analyze <trace.json|spec.toml>       bottleneck report from a trace or spec
//! sim sweep <spec.toml> [options]          a declarative parameter sweep (rescq-harness)
//! sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...>  merge shard checkpoints
//! sim bench <name> [options]               one Table 3 benchmark, all schedulers
//! sim list                                  list Table 3 benchmarks
//! sim fig <3|5|10|11|12|13|14|15|16|a2>     regenerate a figure (--full for paper scale)
//! sim table3                                regenerate Table 3
//! ```

use rescq_bench::experiments::{self, ExperimentScale};
use rescq_circuit::Circuit;
use rescq_cli::{flags, output};
use rescq_core::SchedulerKind;
use rescq_harness::{JobSpec, SweepSpec};
use rescq_sim::runner::{run_seeds, SweepSummary};
use rescq_sim::SimConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("merge-checkpoints") => cmd_merge_checkpoints(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("list") => cmd_list(),
        Some("table3") => cmd_table3(),
        Some("fig") => cmd_fig(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `sim help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("sim — RESCQ scheduling simulator (paper reproduction)");
    println!();
    println!("Usage:");
    println!("  sim run <spec.toml> [--csv DIR]");
    println!("            [--trace-out FILE]     write a Chrome trace-event JSON of one");
    println!("                                   traced run (base seed; open in");
    println!("                                   chrome://tracing or Perfetto)");
    println!("            [--metrics-out FILE]   write the base-seed metrics snapshot");
    println!("                                   (.json = JSON, else text exposition)");
    println!("                                      run the one point of a sweep spec");
    println!("                                   (spec.toml syntax as for sim sweep)");
    println!("  sim analyze <trace.json|spec.toml> [--json FILE] [--top K]");
    println!("                                      bottleneck report: critical path with");
    println!("                                   stall-cause attribution, hot ancillas,");
    println!("                                   busy-decile histogram. Accepts a --trace-out");
    println!("                                   JSON or a one-point spec (re-runs base seed");
    println!("                                   traced)");
    println!("  sim sweep <spec.toml> [--threads N] [--csv FILE] [--json FILE]");
    println!("            [--checkpoint FILE] [--shard i/n] [--quiet | --progress]");
    println!("                                      run a declarative parameter sweep");
    println!("  sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...> [--json FILE]");
    println!("            [--allow-missing]         merge shard checkpoints into one CSV/JSON");
    println!("  sim bench <name> [--seeds N] [--compression F] [--distance D] [--csv DIR]");
    println!("            [--decoder ideal|union_find] [--decoder-throughput F]");
    println!("            [--decoder-prep]");
    println!("                                      one benchmark under all three schedulers;");
    println!("                                   values obey the sweep-spec rules");
    println!("  sim list                            list Table 3 benchmarks");
    println!("  sim table3                          regenerate Table 3");
    println!("  sim fig <3|5|10|11|12|13|14|15|16|a2|decoder> [--full]");
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load_circuit(name: &str, circuit_seed: u64) -> Result<Circuit, String> {
    if let Some(path) = name.strip_prefix("file:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return rescq_circuit::parse_circuit(&text, None).map_err(|e| e.to_string());
    }
    rescq_workloads::generate(name, circuit_seed)
        .ok_or_else(|| format!("unknown benchmark `{name}`; `sim list` shows the suite"))
}

/// Parses the spec text of `sim run`/`sim analyze` (read from `path`),
/// which must have exactly one point. Returns the spec, the point's
/// base-seed job and its circuit.
fn load_point(text: &str, path: &str) -> Result<(SweepSpec, JobSpec, Circuit), String> {
    let spec = SweepSpec::parse(text).map_err(|e| e.to_string())?;
    if spec.num_points() != 1 {
        return Err(format!(
            "{path} has {} sweep points, but this command runs one; use `sim sweep` for a grid",
            spec.num_points()
        ));
    }
    let job = spec.expand().swap_remove(0);
    let circuit = load_circuit(&job.workload, spec.circuit_seed)?;
    Ok((spec, job, circuit))
}

/// Runs `seeds` seeded runs of `circuit` under `config`, prints them and
/// optionally writes the reports and histogram CSVs under `csv_dir`.
fn run_point(
    workload: &str,
    circuit: &Circuit,
    config: &SimConfig,
    base_seed: u64,
    seeds: u64,
    csv_dir: Option<&Path>,
) -> Result<SweepSummary, String> {
    println!(
        "{}: {} qubits, {} gates ({})",
        workload,
        circuit.num_qubits(),
        circuit.len(),
        circuit.stats()
    );
    let summary = run_seeds(
        circuit,
        config,
        base_seed,
        seeds,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    )
    .map_err(|e| e.to_string())?;
    for r in &summary.reports {
        println!("  {}", output::summarize(r));
    }
    println!("  => {summary}");
    if let Some(dir) = csv_dir {
        let base = dir.join(format!("{workload}_{}", config.scheduler));
        std::fs::create_dir_all(dir)
            .and_then(|()| output::write_reports_csv(&base.with_extension("csv"), &summary.reports))
            .and_then(|()| {
                let cnot = summary.merged_cnot_latency();
                output::write_histogram_csv(&base.with_extension("cnot_hist.csv"), &cnot)
            })
            .and_then(|()| {
                let rz = summary.merged_rz_latency();
                output::write_histogram_csv(&base.with_extension("rz_hist.csv"), &rz)
            })
            .map_err(|e| e.to_string())?;
        println!("  csv written under {}", dir.display());
    }
    Ok(summary)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: sim run <spec.toml> [--csv DIR] [--trace-out FILE] [--metrics-out FILE]";
    flags::positionals(args, &["--csv", "--trace-out", "--metrics-out"], &[], USAGE)?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (spec, job, circuit) = load_point(&text, path)?;
    let csv = flag_value(args, "--csv").map(PathBuf::from);
    let summary = run_point(
        &job.workload,
        &circuit,
        &job.config,
        spec.base_seed,
        spec.seeds,
        csv.as_deref(),
    )?;
    if let Some(out) = flag_value(args, "--metrics-out") {
        // The base seed's report, as a versioned snapshot. Every metric in
        // it is schedule-derived, so the file is identical whether or not
        // the run was traced.
        let report = summary
            .reports
            .first()
            .ok_or("run produced no reports to snapshot")?;
        let snapshot = rescq_sim::metrics_snapshot(report);
        let body = if out.ends_with(".json") {
            snapshot.to_json()
        } else {
            snapshot.to_text()
        };
        std::fs::write(&out, body).map_err(|e| format!("{out}: {e}"))?;
        println!("  metrics snapshot written to {out}");
    }
    if let Some(out) = flag_value(args, "--trace-out") {
        write_trace(&circuit, &job.config, Path::new(&out))?;
    }
    Ok(())
}

/// Produces the bottleneck report of `sim analyze`: from a `--trace-out`
/// Chrome trace file (first positional starting with `{`), or from a
/// one-point spec, in which case the base seed re-runs with a recorder
/// attached (tracing is inert, so this reproduces the main run's schedule
/// exactly).
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    use rescq_telemetry::{analyze_events, parse_trace, RingRecorder};
    const USAGE: &str = "usage: sim analyze <trace.json|spec.toml> [--json FILE] [--top K]";
    flags::positionals(args, &["--json", "--top"], &[], USAGE)?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let top_k: usize = match flag_value(args, "--top") {
        Some(k) => k.parse().map_err(|_| "bad --top")?,
        None => 8,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = if text.trim_start().starts_with('{') {
        let parsed = parse_trace(&text)?;
        analyze_events(&parsed.events, parsed.dropped, parsed.truncated)
    } else {
        let (_, job, circuit) = load_point(&text, path)?;
        let recorder = RingRecorder::new();
        rescq_sim::simulate_traced(&circuit, &job.config, Some(&recorder))
            .map_err(|e| e.to_string())?;
        let events: Vec<_> = recorder.events().iter().map(|t| t.event).collect();
        analyze_events(&events, recorder.dropped(), false)
    };
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    print!("{}", report.render_text(top_k));
    if let Some(json) = flag_value(args, "--json") {
        std::fs::write(&json, report.to_json(top_k)).map_err(|e| format!("{json}: {e}"))?;
        println!("machine-readable report written to {json}");
    }
    Ok(())
}

/// Re-runs `config` (the base seed) with a [`rescq_telemetry::RingRecorder`]
/// attached and writes the captured stream as Chrome trace-event JSON.
/// Tracing never perturbs the schedule, so this run reproduces the first
/// seed of the main run exactly.
fn write_trace(circuit: &Circuit, config: &SimConfig, out: &Path) -> Result<(), String> {
    use rescq_telemetry::RingRecorder;
    let recorder = RingRecorder::new();
    let report =
        rescq_sim::simulate_traced(circuit, config, Some(&recorder)).map_err(|e| e.to_string())?;
    std::fs::write(out, recorder.to_chrome_trace())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "trace: {} events ({} dropped) written to {}",
        recorder.len(),
        recorder.dropped(),
        out.display()
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "  phase wall-clock: schedule {:.1}ms, start {:.1}ms, propose {:.1}ms, commit {:.1}ms",
        ms(report.phase_nanos[0]),
        ms(report.phase_nanos[1]),
        ms(report.phase_nanos[2]),
        ms(report.phase_nanos[3]),
    );
    println!(
        "  stall attribution: ancilla {}cy, decoder {}cy, route {}cy",
        report.counters.stall_ancilla_cycles,
        report.counters.stall_decoder_cycles,
        report.counters.stall_route_cycles,
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    use rescq_harness::{run_sweep, ProgressMode, RunOptions, Shard};
    const USAGE: &str = "usage: sim sweep <spec.toml> [--threads N] [--csv FILE] [--json FILE] \
                         [--checkpoint FILE] [--shard i/n] [--quiet | --progress]";
    flags::positionals(
        args,
        &["--threads", "--csv", "--json", "--checkpoint", "--shard"],
        &["--quiet", "--progress"],
        USAGE,
    )?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let mut opts = RunOptions::default();
    if let Some(t) = flag_value(args, "--threads") {
        opts.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    opts.checkpoint = flag_value(args, "--checkpoint").map(PathBuf::from);
    if let Some(shard) = flag_value(args, "--shard") {
        opts.shard = Some(Shard::parse(&shard)?);
    }
    if args.iter().any(|a| a == "--quiet") {
        opts.progress = ProgressMode::Off;
    } else if args.iter().any(|a| a == "--progress") {
        opts.progress = ProgressMode::Always;
    }

    let shard = opts
        .shard
        .map(|shard| format!(" (running shard {shard})"))
        .unwrap_or_default();
    println!(
        "sweep: {} points x {} seeds = {} jobs{shard}",
        spec.num_points(),
        spec.seeds,
        spec.num_points() * spec.seeds as usize,
    );
    let results = run_sweep(&spec, &opts).map_err(|e| e.to_string())?;
    print_sweep_results(&results);

    if let Some(csv) = flag_value(args, "--csv") {
        std::fs::write(&csv, results.to_csv()).map_err(|e| format!("{csv}: {e}"))?;
        println!("per-job rows written to {csv}");
    }
    if let Some(json) = flag_value(args, "--json") {
        std::fs::write(&json, results.to_json()).map_err(|e| format!("{json}: {e}"))?;
        println!("summary json written to {json}");
    }
    if let Some(first) = results.first_error() {
        let failed = results
            .records
            .iter()
            .filter(|r| r.outcome.is_err())
            .count();
        return Err(format!(
            "{failed} of {} jobs failed; first error: {first}",
            results.records.len()
        ));
    }
    Ok(())
}

fn print_sweep_results(results: &rescq_harness::SweepResults) {
    println!(
        "{:<20} {:<10} {:>5} {:>6} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "workload",
        "scheduler",
        "d",
        "comp",
        "decoder",
        "mean cy",
        "p50 cy",
        "p99 cy",
        "stall%",
        "preempt",
        "seeds"
    );
    for s in results.summaries() {
        println!(
            "{:<20} {:<10} {:>5} {:>5.0}% {:>8} {:>10.1} {:>10.1} {:>10.1} {:>7.1}% {:>8} {:>7}",
            s.job.workload,
            s.job.config.scheduler.to_string(),
            s.job.config.distance,
            s.job.config.compression * 100.0,
            s.job.decoder.to_string(),
            s.mean_cycles,
            s.p50_cycles,
            s.p99_cycles,
            s.stall_fraction * 100.0,
            s.preemptions,
            s.completed,
        );
    }
    let resumed = results.resumed_count();
    println!(
        "{} jobs in {:.2}s ({} resumed from checkpoint); cache: {}",
        results.records.len(),
        results.elapsed_secs,
        resumed,
        results.cache
    );
}

/// Merges shard checkpoint files back into one CSV (and optionally JSON),
/// validating fingerprints against the spec that produced them.
fn cmd_merge_checkpoints(args: &[String]) -> Result<(), String> {
    use rescq_harness::merge_checkpoints;
    const USAGE: &str = "usage: sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...> \
                         [--json FILE] [--allow-missing]";
    // Positionals by position, flag *values* skipped by index (a checkpoint
    // path that happens to equal the `--json` value must not be dropped).
    let positional = flags::positionals(args, &["--json"], &["--allow-missing"], USAGE)?;
    let json_out = flag_value(args, "--json");
    let [spec_path, out, inputs @ ..] = positional.as_slice() else {
        return Err(USAGE.into());
    };
    if inputs.is_empty() {
        return Err(USAGE.into());
    }
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let input_paths: Vec<PathBuf> = inputs.iter().map(PathBuf::from).collect();
    let results = merge_checkpoints(&spec, &input_paths).map_err(|e| e.to_string())?;

    let missing = results
        .records
        .iter()
        .filter(|r| r.outcome.is_err())
        .count();
    if missing > 0 && !args.iter().any(|a| a == "--allow-missing") {
        return Err(format!(
            "{missing} of {} jobs missing from the inputs (pass --allow-missing to merge anyway)",
            results.records.len()
        ));
    }
    print_sweep_results(&results);
    std::fs::write(out, results.to_csv()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "merged {} rows from {} checkpoint(s) into {out}",
        results.resumed_count(),
        input_paths.len()
    );
    if let Some(json) = json_out {
        std::fs::write(&json, results.to_json()).map_err(|e| format!("{json}: {e}"))?;
        println!("summary json written to {json}");
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: sim bench <name> [--seeds N] [--compression F] [--distance D] \
                         [--csv DIR] [--decoder KIND] [--decoder-throughput F] \
                         [--decoder-prep]";
    flags::positionals(
        args,
        &[
            "--seeds",
            "--compression",
            "--distance",
            "--csv",
            "--decoder",
            "--decoder-throughput",
        ],
        &["--decoder-prep"],
        USAGE,
    )?;
    let name = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    // The flags fill a one-workload spec with one point per scheduler, so
    // they meet the same `validate` rules as a spec file.
    let mut spec = SweepSpec {
        workloads: vec![name.clone()],
        schedulers: SchedulerKind::ALL.to_vec(),
        seeds: 10,
        decode_prep: args.iter().any(|a| a == "--decoder-prep"),
        ..SweepSpec::default()
    };
    if let Some(s) = flag_value(args, "--seeds") {
        spec.seeds = s.parse().map_err(|_| "bad --seeds")?;
    }
    if let Some(c) = flag_value(args, "--compression") {
        spec.compressions = vec![c.parse().map_err(|_| "bad --compression")?];
    }
    if let Some(d) = flag_value(args, "--distance") {
        spec.distances = vec![d.parse().map_err(|_| "bad --distance")?];
    }
    let mut decoder = SimConfig::default().decoder;
    if let Some(d) = flag_value(args, "--decoder") {
        decoder.kind = d.parse().map_err(|e: String| e)?;
    }
    if let Some(t) = flag_value(args, "--decoder-throughput") {
        decoder.throughput = t.parse().map_err(|_| "bad --decoder-throughput")?;
    }
    spec.decoders = vec![decoder.into()];
    spec.validate().map_err(|e| e.message)?;
    let csv = flag_value(args, "--csv").map(PathBuf::from);
    let circuit = load_circuit(name, spec.circuit_seed)?;
    // Seeds are innermost, so every `seeds`-th job is a point's first.
    for job in spec.expand().iter().step_by(spec.seeds as usize) {
        run_point(
            name,
            &circuit,
            &job.config,
            spec.base_seed,
            spec.seeds,
            csv.as_deref(),
        )?;
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<28} {:>6} {:>8} {:>8} {:>10}",
        "benchmark", "qubits", "#Rz", "#CNOT", "Rz/CNOT"
    );
    for b in rescq_workloads::ALL_BENCHMARKS {
        println!(
            "{:<28} {:>6} {:>8} {:>8} {:>10.2}",
            b.name,
            b.qubits,
            b.paper_rz,
            b.paper_cnot,
            b.rz_per_cnot()
        );
    }
    Ok(())
}

fn cmd_table3() -> Result<(), String> {
    for r in experiments::table3() {
        let m = if r.paper == r.generated {
            "exact"
        } else {
            "approx"
        };
        println!(
            "{:<28} paper=({}, {}) generated=({}, {}) [{m}]",
            r.name, r.paper.0, r.paper.1, r.generated.0, r.generated.1
        );
    }
    Ok(())
}

fn cmd_fig(args: &[String]) -> Result<(), String> {
    let which = args.first().ok_or("usage: sim fig <N> [--full]")?;
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::full()
    } else {
        ExperimentScale::reduced()
    };
    match which.as_str() {
        "3" => {
            let lers: Vec<f64> = (4..=12).map(|e| 10f64.powi(-e)).collect();
            for row in rescq_rus::fig3_series(0.9, &lers) {
                println!(
                    "ler={:.0e} rz={} t={}",
                    row.logical_error_rate, row.rz_rotations, row.t_rotations
                );
            }
        }
        "5" => {
            for d in experiments::fig5(&scale).map_err(|e| e.to_string())? {
                println!(
                    "{}: cnot mean {:.2} (≤2cy {:.0}%), rz mean {:.2}",
                    d.scheduler,
                    d.cnot.mean(),
                    d.cnot.fraction_at_most(2) * 100.0,
                    d.rz.mean()
                );
            }
        }
        "10" => {
            let (rows, gm) = experiments::fig10(&scale).map_err(|e| e.to_string())?;
            for r in &rows {
                println!(
                    "{}: greedy={:.0} autobraid={:.0} rescq*={:.0} (k={}) speedup={:.2}x",
                    r.name,
                    r.mean_cycles[0],
                    r.mean_cycles[1],
                    r.mean_cycles[2],
                    r.best_k,
                    r.speedup()
                );
            }
            println!("geomean speedup: {gm:.2}x");
        }
        "11" => print_sensitivity(experiments::fig11(&scale).map_err(|e| e.to_string())?),
        "12" => print_sensitivity(experiments::fig12(&scale).map_err(|e| e.to_string())?),
        "13" => print_sensitivity(experiments::fig13(&scale).map_err(|e| e.to_string())?),
        "14" => print_sensitivity(experiments::fig14(&scale).map_err(|e| e.to_string())?),
        "15" => {
            for g in experiments::fig15().map_err(|e| e.to_string())? {
                println!(
                    "-- {:.0}% requested, {:.0}% achieved --",
                    g.requested * 100.0,
                    g.layout.compression() * 100.0
                );
                println!("{}", g.layout.render_ascii());
            }
        }
        "16" => {
            for r in experiments::fig16() {
                println!(
                    "d={} p={:.0e}: E[cycles]={:.3} E[attempts]={:.4}",
                    r.d, r.p, r.expected_cycles, r.expected_attempts
                );
            }
        }
        "decoder" => {
            let (rows, monotone) = experiments::decoder_sweep(&scale).map_err(|e| e.to_string())?;
            for r in &rows {
                println!(
                    "{:<14} {:<10} tp={:<6} {:>8.1} cycles  stall {:>7.1}cy  backlog≤{}",
                    r.name,
                    r.decoder,
                    r.throughput,
                    r.mean_cycles,
                    r.mean_stall_cycles,
                    r.peak_backlog
                );
            }
            println!(
                "cycles monotonically non-decreasing as throughput drops: {}",
                if monotone { "yes" } else { "NO" }
            );
        }
        "a2" => {
            let a2 = experiments::appendix_a2();
            println!(
                "RUS {:.1} cycles vs Clifford+T {}–{} cycles ⇒ {:.0}×–{:.0}×",
                a2.rus_cycles, a2.t_range.0, a2.t_range.1, a2.overhead.0, a2.overhead.1
            );
        }
        other => return Err(format!("unknown figure `{other}`")),
    }
    Ok(())
}

fn print_sensitivity(points: Vec<experiments::SensitivityPoint>) {
    for p in points {
        println!(
            "{} {} x={:.2}: {:.0} cycles (idle {:.0}%)",
            p.name,
            p.scheduler,
            p.x,
            p.mean_cycles,
            p.idle_fraction * 100.0
        );
    }
}
