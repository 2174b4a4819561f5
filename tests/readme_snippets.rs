//! The README's code and config snippets, compiled and executed so the
//! examples cannot rot. The config blocks and the column table are read
//! from `README.md` itself; the Rust snippet is compiled from a copy here,
//! so when you edit it, edit the test too.

use rescq_repro::harness::{fmt_priority, SweepSpec};

/// The body of the README's fenced `lang` block whose first line is
/// `first`.
fn readme_block(lang: &str, first: &str) -> String {
    let fence = format!("```{lang}");
    let mut lines = include_str!("../README.md").lines();
    while let Some(line) = lines.next() {
        if line == fence {
            let body: Vec<&str> = lines.by_ref().take_while(|l| *l != "```").collect();
            if body.first() == Some(&first) {
                return body.join("\n");
            }
        }
    }
    panic!("README has no ```{lang} block starting with `{first}`");
}

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

/// README "Priority classes": the one-point spec `sim run` reads, through
/// the real parser.
#[test]
fn priority_classes_config_snippet_parses() {
    let snippet = readme_block("toml", "# run.toml: one sweep point, which `sim run` runs");
    let spec = SweepSpec::parse(&snippet).expect("README run spec must parse");
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

/// README "Parameter sweeps": the spec-file snippet, through the real
/// parser.
#[test]
fn sweep_spec_snippet_parses() {
    let snippet = readme_block("toml", "[sweep]");
    let spec = SweepSpec::parse(&snippet).expect("README sweep spec parses");
    let decoders: Vec<String> = spec.decoders.iter().map(|d| d.to_string()).collect();
    assert_eq!(decoders, ["ideal", "union_find:8"]);
    // 2 workloads x 2 schedulers x 2 k x 2 compressions x 2 decoders x
    // 2 priority points.
    assert_eq!(spec.num_points(), 2 * 2 * 2 * 2 * 2 * 2);
    assert_eq!(spec.seeds, 10);
    assert_eq!(spec.priority.len(), 2);
    assert!(spec.priority[0].is_none());
    assert!(spec.priority[1].is_some());
}
