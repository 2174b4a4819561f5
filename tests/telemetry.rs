//! Telemetry contract tests: tracing must be inert (observing a run can
//! never change it), and the Chrome trace export must keep its schema.
//!
//! The inertness property is the load-bearing one — the whole telemetry
//! design rests on stall counters being sim-time derived and wall-clock
//! never reaching any report field that CSV emission reads. These tests
//! pin that contract from the outside, through the same code paths the
//! CLI uses.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rescq_repro::circuit::{Angle, Circuit, Gate};
use rescq_repro::core::SchedulerKind;
use rescq_repro::decoder::DecoderConfig;
use rescq_repro::harness::{csv_row, JobMetrics, SweepSpec, CSV_HEADER};
use rescq_repro::sim::{
    metrics_snapshot, reports_csv_row, simulate_traced, SimConfig, REPORTS_CSV_HEADER,
};
use rescq_repro::telemetry::{
    analyze_events, normalize_timestamps, parse_trace, validate_trace, AnalyzeReport, Event,
    RingRecorder,
};
use std::collections::HashMap;
use std::path::Path;

const CASES: u64 = 8;

/// Runs `body` once per case with a per-case RNG; panics name the case
/// so failures replay exactly (same harness as `property_tests.rs`).
fn for_each_case(name: &str, body: impl Fn(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7E1E_0000 ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{name}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

fn arb_circuit(rng: &mut ChaCha8Rng) -> Circuit {
    let n = rng.gen_range(2u32..6);
    let len = rng.gen_range(4usize..28);
    let gates: Vec<Gate> = (0..len)
        .map(|_| {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..4u32) {
                0 => Gate::h(q),
                1 => Gate::rz(q, Angle::T),
                2 => Gate::rz(q, Angle::radians(rng.gen_range(0.01f64..2.5))),
                _ => {
                    let c = rng.gen_range(0..n);
                    let mut t = rng.gen_range(0..n - 1);
                    if t >= c {
                        t += 1;
                    }
                    Gate::cnot(c, t)
                }
            }
        })
        .collect();
    Circuit::from_gates(n, gates).unwrap()
}

/// The central telemetry contract: attaching a recorder changes nothing
/// observable. For random circuits, every scheduler and both the ideal and
/// the union-find decoder, the reports CSV of a traced run is
/// byte-identical to the untraced run — including the stall-attribution
/// and decode-work columns, which are computed whether or not anyone is
/// recording. The union-find rows matter most: the decoder samples its
/// own error stream and reports real cluster-growth work, all of which
/// must be a function of the schedule alone. The one wall-clock field,
/// `phase_nanos`, must be the sum of the recorded phase spans traced and
/// zero untraced; the static engines time their layer setup and dispatch
/// passes too.
#[test]
fn tracing_is_inert() {
    for_each_case("tracing_is_inert", |rng| {
        let circuit = arb_circuit(rng);
        let seed = rng.gen_range(1u64..1000);
        let schedulers = [
            SchedulerKind::Rescq,
            SchedulerKind::Greedy,
            SchedulerKind::Autobraid,
        ];
        for (scheduler, decoder) in schedulers.into_iter().flat_map(|s| {
            [
                (s, DecoderConfig::ideal()),
                (s, DecoderConfig::union_find(4.0)),
            ]
        }) {
            let config = SimConfig::builder()
                .scheduler(scheduler)
                .seed(seed)
                .decoder(decoder)
                .build();
            let label = format!("{scheduler:?} decoder={decoder}");
            let untraced = simulate_traced(&circuit, &config, None).unwrap();
            let recorder = RingRecorder::new();
            let traced = simulate_traced(&circuit, &config, Some(&recorder)).unwrap();
            let events = recorder.events();
            assert!(
                !events.is_empty() && recorder.dropped() == 0,
                "a traced run must record every event ({label})"
            );
            // Phase wall-clock is the one recorded quantity that is not
            // schedule-derived: the report's per-phase nanoseconds are
            // exactly the sums of the recorded spans, and zero untraced.
            let mut span_ns = [0u64; 4];
            let mut spans = 0;
            for t in &events {
                if let Event::PhaseSpan { phase, dur_ns, .. } = t.event {
                    span_ns[phase.index()] += dur_ns;
                    spans += 1;
                }
            }
            assert!(spans > 0, "a traced run records phase spans ({label})");
            assert_eq!(span_ns, traced.phase_nanos, "{label}");
            assert_eq!(untraced.phase_nanos, [0; 4], "{label}");
            assert_eq!(
                reports_csv_row(&untraced),
                reports_csv_row(&traced),
                "reports CSV must be byte-identical with tracing on vs. off ({label})"
            );
            // The metrics snapshot is schedule-derived end to end (no
            // wall-clock fields), so it must be byte-identical too.
            assert_eq!(
                metrics_snapshot(&untraced).to_json(),
                metrics_snapshot(&traced).to_json(),
                "metrics snapshot must be byte-identical with tracing on vs. \
                 off ({label})"
            );
        }
    });
}

/// Traces a run and analyzes the recorded stream.
fn analyze_run(circuit: &Circuit, config: &SimConfig) -> AnalyzeReport {
    let recorder = RingRecorder::new();
    simulate_traced(circuit, config, Some(&recorder)).unwrap();
    let events: Vec<_> = recorder.events().iter().map(|t| t.event).collect();
    analyze_events(&events, recorder.dropped(), false)
}

/// Analytics invariants, for random circuits: every per-ancilla occupancy
/// fraction is a valid fraction, and the whole analyze report — built
/// from sim-time rounds only — is identical when the run is traced again.
/// Half the cases run the union-find decoder, whose sampled error stream
/// and emergent window latencies must obey the same contract.
#[test]
fn utilization_fractions_are_valid_and_deterministic() {
    for_each_case("utilization_fractions_are_valid_and_deterministic", |rng| {
        let circuit = arb_circuit(rng);
        let seed = rng.gen_range(1u64..1000);
        let decoder = if rng.gen_bool(0.5) {
            DecoderConfig::union_find(rng.gen_range(2.0f64..16.0))
        } else {
            DecoderConfig::ideal()
        };
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .seed(seed)
            .decoder(decoder)
            .build();
        let report = analyze_run(&circuit, &config);
        for u in &report.utilization {
            assert!(
                (0.0..=1.0).contains(&u.busy_fraction),
                "busy fraction {} of a{} out of range",
                u.busy_fraction,
                u.ancilla
            );
            assert!(
                (0.0..=1.0).contains(&u.contended_fraction),
                "contended fraction {} of a{} out of range",
                u.contended_fraction,
                u.ancilla
            );
        }
        assert_eq!(
            report.to_json(usize::MAX),
            analyze_run(&circuit, &config).to_json(usize::MAX),
            "analyze report must be identical run to run"
        );
    });
}

/// The same run traced twice yields the same normalized trace: event
/// structure and ordering are functions of the schedule alone, only the
/// wall-clock timestamps differ.
#[test]
fn normalized_trace_is_deterministic() {
    let mut c = Circuit::new(3);
    c.h(0).cnot(0, 1).rz(1, Angle::T).cnot(1, 2).rz(2, Angle::T);
    let config = SimConfig::builder()
        .scheduler(SchedulerKind::Rescq)
        .seed(11)
        .build();
    let traces: Vec<String> = (0..2)
        .map(|_| {
            let recorder = RingRecorder::new();
            simulate_traced(&c, &config, Some(&recorder)).unwrap();
            normalize_timestamps(&recorder.to_chrome_trace())
        })
        .collect();
    assert_eq!(traces[0], traces[1]);
}

/// Golden-pins the normalized Chrome trace of a tiny fixed run, and
/// checks the export against the schema validator. Regenerate with
/// `RESCQ_BLESS=1 cargo test --test telemetry`.
#[test]
fn tiny_trace_matches_golden_and_validates() {
    let mut c = Circuit::new(2);
    c.h(0).cnot(0, 1).rz(1, Angle::T);
    let config = SimConfig::builder()
        .scheduler(SchedulerKind::Rescq)
        .seed(7)
        .build();
    let recorder = RingRecorder::new();
    simulate_traced(&c, &config, Some(&recorder)).unwrap();
    let trace = recorder.to_chrome_trace();

    let stats = validate_trace(&trace).expect("exported trace must be schema-valid");
    assert!(stats.spans > 0, "phase spans must be present");
    assert!(stats.instants > 0, "instant events must be present");
    assert_eq!(recorder.dropped(), 0, "tiny run must not overflow the ring");

    let normalized = normalize_timestamps(&trace);
    validate_trace(&normalized).expect("normalization must preserve validity");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tiny.json");
    if std::env::var_os("RESCQ_BLESS").is_some() {
        std::fs::write(&golden_path, &normalized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden trace missing — run with RESCQ_BLESS=1 to create it");
    assert_eq!(
        normalized, golden,
        "normalized trace diverged from tests/golden/trace_tiny.json; \
         if the event taxonomy changed intentionally, re-bless with RESCQ_BLESS=1"
    );
}

/// Golden-pins the text bottleneck report of the tiny golden trace: the
/// whole analyze pipeline (trace parse → event decode → critical path →
/// occupancy integration → rendering) against one known-good document.
/// Regenerate with `RESCQ_BLESS=1 cargo test --test telemetry`.
#[test]
fn tiny_analyze_report_matches_golden() {
    // When blessing, regenerate the trace inline (same run as
    // `tiny_trace_matches_golden_and_validates`) instead of reading the
    // golden file — the two bless writes would otherwise race within one
    // parallel test run.
    let trace = if std::env::var_os("RESCQ_BLESS").is_some() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, Angle::T);
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .seed(7)
            .build();
        let recorder = RingRecorder::new();
        simulate_traced(&c, &config, Some(&recorder)).unwrap();
        normalize_timestamps(&recorder.to_chrome_trace())
    } else {
        let trace_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tiny.json");
        std::fs::read_to_string(&trace_path)
            .expect("golden trace missing — run with RESCQ_BLESS=1 to create it")
    };
    let parsed = parse_trace(&trace).expect("golden trace must parse");
    assert!(!parsed.truncated, "golden trace must be complete");
    let report = analyze_events(&parsed.events, parsed.dropped, parsed.truncated);
    assert!(
        !report.critical_path.is_empty(),
        "tiny run must yield a critical path"
    );
    let rendered = report.render_text(8);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analyze_tiny.txt");
    if std::env::var_os("RESCQ_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden report missing — run with RESCQ_BLESS=1 to create it");
    assert_eq!(
        rendered, golden,
        "analyze report diverged from tests/golden/analyze_tiny.txt; \
         if the report format changed intentionally, re-bless with RESCQ_BLESS=1"
    );
}

/// Every sink of one run agrees: the reports-CSV row, the sweep CSV row
/// and the metrics snapshot carry the same value for each quantity they
/// share, each read back by its column or metric name.
#[test]
fn every_sink_agrees_per_run() {
    // reports-CSV column, sweep-CSV column, snapshot metric
    const SHARED: &str = "\
        injections                 injections           rescq_injections
        injection_failures         injection_failures   rescq_injection_failures
        preps_started              preps_started        rescq_preps_started
        preps_cancelled            preps_cancelled      rescq_preps_cancelled
        preemptions                preemptions          rescq_preemptions
        preemptions_rejected_cycle preemptions_rejected rescq_preemptions_rejected
        preemptions_class          preemptions_class    rescq_preemptions_class
        waitgraph_peak_edges       waitgraph_peak_edges rescq_waitgraph_peak_edges
        stall_ancilla              stall_ancilla        rescq_stall_ancilla_cycles
        stall_decoder              stall_decoder        rescq_stall_decoder_cycles
        stall_route                stall_route          rescq_stall_route_cycles
        stall_class                stall_class          rescq_stall_class_cycles
        decode_windows             decode_windows       rescq_decode_windows
        decode_defects             decode_defects       rescq_decode_defects
        decode_growth_steps        decode_growth_steps  rescq_decode_growth_steps
        decode_failures            decode_failures      rescq_decode_failures
        decoder_peak_backlog       peak_backlog         rescq_decoder_peak_backlog
        total_cycles               total_cycles         rescq_total_cycles";
    // Each run must exercise the column named second, so agreement on it
    // is not agreement on zero.
    let runs = [
        (
            "workloads = \"ising_n34\"\ndecoders = \"union_find:1.0\"\nbase_seed = 7\nseeds = 1",
            "decode_growth_steps",
        ),
        (
            "workloads = \"factory_n12\"\ncompressions = 0.25\n\
             priority_classes = \"factory>injection>compute>speculative\"\nseeds = 1",
            "preemptions_class",
        ),
    ];
    let named = |header: &'static str, row: String| -> HashMap<&'static str, f64> {
        assert_eq!(header.split(',').count(), row.split(',').count());
        let values = row.split(',').map(|v| v.parse().unwrap_or(f64::NAN));
        header.split(',').zip(values).collect()
    };
    for (text, live) in runs {
        let spec = SweepSpec::parse(text).unwrap();
        let job = spec.expand().swap_remove(0);
        let circuit = rescq_repro::workloads::generate(&job.workload, spec.circuit_seed).unwrap();
        let report = simulate_traced(&circuit, &job.config, None).unwrap();
        let reports = named(REPORTS_CSV_HEADER, reports_csv_row(&report));
        let sweep = named(CSV_HEADER, csv_row(&job, &JobMetrics::from_report(&report)));
        let snapshot = metrics_snapshot(&report);
        assert!(sweep[live] > 0.0, "{}: {live} is 0", job.workload);
        for line in SHARED.lines() {
            let [report_col, sweep_col, metric] = line.split_whitespace().collect::<Vec<_>>()[..]
            else {
                panic!("bad SHARED line `{line}`");
            };
            let snap = match snapshot.get_counter(metric) {
                Some(v) => v as f64,
                None => snapshot.gauges.iter().find(|(n, _)| n == metric).unwrap().1,
            };
            let (r, s) = (reports[report_col], sweep[sweep_col]);
            // The reports CSV rounds `total_cycles` to three decimals.
            assert!(
                (r - s).abs() <= 5e-4 && s == snap,
                "{}: {report_col}={r} {sweep_col}={s} {metric}={snap}",
                job.workload
            );
        }
    }
}
