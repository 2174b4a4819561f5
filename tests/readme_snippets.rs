//! The README's code and config snippets, compiled and executed so the
//! examples cannot rot. Each test body mirrors one fenced block in
//! `README.md` — when you edit one, edit the other.

use rescq_repro::harness::{fmt_priority, SweepSpec};

/// README "Quick start": the Rust snippet, verbatim.
#[test]
fn quick_start_snippet_runs() {
    use rescq_repro::prelude::*;

    let circuit = rescq_repro::workloads::vqe::generate(13, 777);
    let config = SimConfig::builder()
        .distance(7)
        .physical_error_rate(1e-4)
        .scheduler(SchedulerKind::Rescq)
        .seed(42)
        .build();
    let report = simulate(&circuit, &config).expect("simulation runs");
    assert!(report.total_cycles() > 0.0);
}

/// README "Priority classes": the one-point spec `sim run` reads,
/// verbatim, through the real parser.
#[test]
fn priority_classes_config_snippet_parses() {
    let snippet = r#"
# run.toml: one sweep point, which `sim run` runs
workloads        = "factory_n12"
compressions     = 0.25
priority_classes = "factory>injection>compute>speculative"
seeds            = 10
"#;
    let spec = SweepSpec::parse(snippet).expect("README run spec must parse");
    assert_eq!(spec.num_points(), 1, "`sim run` takes one point");
    assert_eq!(spec.seeds, 10);
    let job = &spec.expand()[0];
    assert!((job.config.compression - 0.25).abs() < 1e-12);
    assert_eq!(
        fmt_priority(&job.config.priority_classes),
        "factory>injection>compute>speculative"
    );
    // The workload the snippet names must exist.
    assert!(rescq_repro::workloads::generate(&job.workload, 1).is_some());
}

/// README "Parameter sweeps": the column table lists every sweep CSV
/// column with its doc, in row order, exactly as the harness declares them.
#[test]
fn sweep_column_table_matches_declaration() {
    let readme = include_str!("../README.md");
    let rows: Vec<(&str, &str)> = readme
        .lines()
        .skip_while(|l| *l != "| column | meaning |")
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split(" | ").map(str::trim).collect();
            (cells[0].trim_matches('`'), cells[1])
        })
        .collect();
    assert_eq!(rows, rescq_repro::harness::COLUMNS);
}

/// README "Parameter sweeps": the spec-file snippet, verbatim, through the
/// real parser.
#[test]
fn sweep_spec_snippet_parses() {
    let snippet = r#"
[sweep]
workloads    = ["dnn_n16", "gcm_n13"]    # Table 3 names or "file:<path>"
schedulers   = ["rescq", "greedy"]       # default ["rescq"]
distances    = [7]                       # default [7]
error_rates  = [1e-4]                    # default [1e-4]
k            = [25, "dynamic"]           # default [25]
compressions = [0.0, 0.5]                # default [0.0]
decoders     = ["ideal", "fixed:0.5", "adaptive:1x4"]  # default ["ideal"]
priority_classes = ["off", "factory>injection>compute>speculative"]  # default ["off"]
seeds        = 10                        # runs per point, default 3
base_seed    = 1
decode_prep  = false                     # route prep verification through the decoder
"#;
    let spec = SweepSpec::parse(snippet).expect("README sweep spec parses");
    // 2 workloads x 2 schedulers x 2 k x 2 compressions x 3 decoders x
    // 2 priority points.
    assert_eq!(spec.num_points(), 2 * 2 * 2 * 2 * 3 * 2);
    assert_eq!(spec.seeds, 10);
    assert_eq!(spec.priority.len(), 2);
    assert!(spec.priority[0].is_none());
    assert!(spec.priority[1].is_some());
}
