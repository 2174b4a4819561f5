//! The harness acceptance benchmark (ISSUE 2): a 4-point × 4-seed decoder
//! sweep through `rescq-harness` on 4 workers must be ≥ 2× faster
//! wall-clock than the sequential pre-harness path — each point
//! regenerating the circuit and each run rebuilding the fabric — while
//! producing byte-identical CSV rows.
//!
//! Each path is timed as the best of [`ITERATIONS`] runs so a scheduler
//! hiccup on a shared CI runner cannot fail the threshold spuriously; the
//! sweep itself is deterministic, so repeat runs produce identical rows.

use rescq_harness::{csv_row, run_sweep, JobMetrics, RunOptions, SweepSpec, CSV_HEADER};
use std::time::Instant;

const WORKERS: usize = 4;
const ITERATIONS: usize = 3;

fn spec() -> SweepSpec {
    SweepSpec::parse(
        r#"
        [sweep]
        workloads = ["decoder_stress_n12"]
        decoders  = ["ideal", "union_find:64", "union_find:16", "union_find:4"]
        seeds     = 4
        "#,
    )
    .expect("spec parses")
}

/// The sequential PR-1 path: each point regenerates the circuit, each run
/// rebuilds DAG + fabric inside `simulate`, one job at a time.
fn run_sequential(spec: &SweepSpec) -> String {
    let jobs = spec.expand();
    let mut rows = vec![CSV_HEADER.to_string()];
    for point in jobs.chunks(spec.seeds as usize) {
        let circuit = rescq_workloads::generate(&point[0].workload, spec.circuit_seed).unwrap();
        for job in point {
            let report = rescq_sim::simulate(&circuit, &job.config).expect("run completes");
            rows.push(csv_row(job, &JobMetrics::from_report(&report)));
        }
    }
    let mut csv = rows.join("\n");
    csv.push('\n');
    csv
}

fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one iteration"))
}

fn main() {
    println!("=== Harness sweep — parallel shared-artifact vs sequential per-point ===");
    println!("    4 decoder points x 4 seeds; harness on 4 workers vs the PR-1 path");
    let spec = spec();

    let (seq_secs, seq_csv) = best_of(ITERATIONS, || run_sequential(&spec));

    // The harness path: shared artifact cache, 4 workers.
    let (par_secs, results) = best_of(ITERATIONS, || {
        run_sweep(&spec, &RunOptions::with_threads(WORKERS)).expect("sweep runs")
    });
    assert!(results.first_error().is_none(), "all jobs must succeed");

    assert_eq!(
        results.to_csv(),
        seq_csv,
        "harness rows must be byte-identical to the sequential path"
    );

    let speedup = seq_secs / par_secs.max(1e-9);
    println!("sequential (PR-1 path): {seq_secs:>8.3}s  (best of {ITERATIONS})");
    println!("harness ({WORKERS} workers):    {par_secs:>8.3}s  (best of {ITERATIONS})");
    println!("speedup:                {speedup:>8.2}x");
    println!("artifact cache:         {}", results.cache);
    println!("byte-identical CSV rows: PASS");

    // The wall-clock half of the acceptance needs actual cores: with fewer
    // cores than workers, threads time-slice and a 2x parallel win is not
    // physically reachable, so the assertion only arms when the host can
    // run every worker concurrently.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= WORKERS {
        assert!(
            speedup >= 2.0,
            "acceptance: harness must be >= 2x faster on {cores} cores (got {speedup:.2}x)"
        );
        println!("acceptance (>= 2x wall-clock on {cores} cores): PASS");
    } else {
        println!(
            "acceptance (>= 2x wall-clock): SKIPPED — {cores} cores cannot host {WORKERS} \
             workers at full speed (a 2x parallel win needs >= {WORKERS} cores)"
        );
    }
}
