//! The harness determinism contract: output is a function of the spec
//! alone, never of the worker count — a 2×2×2-point sweep run with 1 worker
//! and with 8 workers must produce byte-identical CSV and identical
//! aggregate statistics.

use rescq_harness::{run_sweep, RunOptions, SweepSpec};

fn spec_2x2x2() -> SweepSpec {
    SweepSpec::parse(
        r#"
        [sweep]
        workloads    = ["decoder_stress_n4", "wstate_n27"]
        compressions = [0.0, 0.5]
        decoders     = ["ideal", "union_find:8"]
        seeds        = 2
        "#,
    )
    .expect("spec parses")
}

#[test]
fn one_worker_and_eight_workers_byte_identical() {
    let spec = spec_2x2x2();
    assert_eq!(
        spec.num_points(),
        8,
        "2 workloads x 2 compressions x 2 decoders"
    );

    let serial = run_sweep(&spec, &RunOptions::with_threads(1)).expect("serial sweep");
    let parallel = run_sweep(&spec, &RunOptions::with_threads(8)).expect("parallel sweep");

    assert!(serial.first_error().is_none());
    assert!(parallel.first_error().is_none());

    // Byte-identical CSV rows in identical order.
    assert_eq!(serial.to_csv(), parallel.to_csv());

    // Identical aggregate statistics, point by point.
    let s = serial.summaries();
    let p = parallel.summaries();
    assert_eq!(s.len(), 8);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_cycles, b.mean_cycles, "point {}", a.point);
        assert_eq!(a.p50_cycles, b.p50_cycles);
        assert_eq!(a.p99_cycles, b.p99_cycles);
        assert_eq!(a.mean_stall_cycles, b.mean_stall_cycles);
        assert_eq!(a.stall_fraction, b.stall_fraction);
        assert_eq!(a.peak_backlog, b.peak_backlog);
    }

    // The cache sharing factor is also deterministic: 2 circuits,
    // 2 layout geometries per circuit width (2 widths x 2 compressions).
    assert_eq!(serial.cache.circuit_builds, 2);
    assert_eq!(serial.cache.layout_builds, 4);
    assert_eq!(parallel.cache.circuit_builds, 2);
    assert_eq!(parallel.cache.layout_builds, 4);
}

#[test]
fn harness_rows_match_direct_simulation() {
    // The harness must not change any result: each row equals a plain
    // `simulate` call with the same configuration.
    let spec = SweepSpec::parse(
        "workloads = [\"decoder_stress_n4\"]\ndecoders = [\"union_find:8\"]\nseeds = 2\n",
    )
    .unwrap();
    let results = run_sweep(&spec, &RunOptions::with_threads(4)).unwrap();
    for record in &results.records {
        let circuit = rescq_workloads::generate(&record.job.workload, spec.circuit_seed).unwrap();
        let direct = rescq_sim::simulate(&circuit, &record.job.config).unwrap();
        let metrics = record.outcome.as_ref().expect("job succeeded");
        assert_eq!(metrics.total_cycles, direct.total_cycles());
        assert_eq!(metrics.stall_cycles, direct.decoder_stall_cycles());
        assert_eq!(metrics.injections, direct.counters.injections);
        assert_eq!(metrics.seed, direct.seed);
    }
}

#[test]
fn json_document_is_reproducible_modulo_timing() {
    let spec = spec_2x2x2();
    let a = run_sweep(&spec, &RunOptions::with_threads(1)).unwrap();
    let b = run_sweep(&spec, &RunOptions::with_threads(8)).unwrap();
    let strip = |json: &str| -> String {
        json.lines()
            .filter(|l| !l.contains("elapsed_secs"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a.to_json()), strip(&b.to_json()));
}
