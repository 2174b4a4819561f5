//! Cross-scheduler engine tests: determinism, baseline-vs-RESCQ ordering on
//! rotation-heavy programs, compression robustness, and failure injection.

use rescq_circuit::{Angle, Circuit};
use rescq_core::{ClassLattice, KPolicy, SchedulerKind};
use rescq_decoder::DecoderConfig;
use rescq_rus::PrepCalibration;
use rescq_sim::{simulate, ExecutionReport, SimConfig};

/// A rotation-heavy program: alternating single-qubit rotation layers and a
/// CNOT chain, like the dnn benchmark family.
fn rz_heavy(num_qubits: u32, layers: u32) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for l in 0..layers {
        for q in 0..num_qubits {
            c.rz(q, Angle::radians(0.1 + 0.01 * (l * num_qubits + q) as f64));
        }
        for q in 0..num_qubits.saturating_sub(1) {
            c.cnot(q, q + 1);
        }
    }
    c
}

fn config(s: SchedulerKind, seed: u64) -> SimConfig {
    SimConfig::builder().scheduler(s).seed(seed).build()
}

#[test]
fn deterministic_per_seed() {
    let c = rz_heavy(6, 3);
    for s in SchedulerKind::ALL {
        let a = simulate(&c, &config(s, 11)).unwrap();
        let b = simulate(&c, &config(s, 11)).unwrap();
        assert_eq!(a, b, "{s} not deterministic");
        let other = simulate(&c, &config(s, 12)).unwrap();
        // Different seeds draw different RUS outcomes; the makespan almost
        // surely differs on an Rz-heavy circuit.
        assert_eq!(other.gates_executed, a.gates_executed);
    }
}

#[test]
fn all_gates_execute() {
    let c = rz_heavy(5, 4);
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 3)).unwrap();
        assert_eq!(r.gates_executed, c.len(), "{s} lost gates");
        assert!(r.total_cycles() > 0.0);
    }
}

#[test]
fn rescq_beats_baselines_on_rz_heavy_workload() {
    let c = rz_heavy(9, 4);
    let mean = |s: SchedulerKind| -> f64 {
        (0..5)
            .map(|i| simulate(&c, &config(s, 40 + i)).unwrap().total_cycles())
            .sum::<f64>()
            / 5.0
    };
    let rescq = mean(SchedulerKind::Rescq);
    let greedy = mean(SchedulerKind::Greedy);
    let autobraid = mean(SchedulerKind::Autobraid);
    assert!(
        rescq < greedy,
        "RESCQ ({rescq:.0} cycles) should beat greedy ({greedy:.0})"
    );
    assert!(
        rescq < autobraid,
        "RESCQ ({rescq:.0} cycles) should beat AutoBraid ({autobraid:.0})"
    );
}

#[test]
fn clifford_only_program_is_scheduler_insensitive() {
    // §5.1: programs without continuous rotations "behave identically in the
    // static and realtime cases" — we allow a small constant factor for the
    // layer barrier but no RUS-driven gap.
    let mut c = Circuit::new(6);
    for q in 0..6u32 {
        c.h(q);
    }
    for q in 0..5u32 {
        c.cnot(q, q + 1);
    }
    let rescq = simulate(&c, &config(SchedulerKind::Rescq, 5)).unwrap();
    let greedy = simulate(&c, &config(SchedulerKind::Greedy, 5)).unwrap();
    assert!(rescq.total_cycles() <= greedy.total_cycles());
    assert!(greedy.total_cycles() <= rescq.total_cycles() * 2.0);
    assert_eq!(rescq.counters.injections, 0);
    assert_eq!(greedy.counters.injections, 0);
}

#[test]
fn compressed_grid_still_completes() {
    let c = rz_heavy(8, 3);
    for s in SchedulerKind::ALL {
        for compression in [0.25, 0.5, 0.75, 1.0] {
            let cfg = SimConfig::builder()
                .scheduler(s)
                .compression(compression)
                .seed(9)
                .build();
            let r = simulate(&c, &cfg).expect("compressed run completes");
            assert_eq!(r.gates_executed, c.len(), "{s} at {compression}");
            assert!(r.achieved_compression > 0.0);
        }
    }
}

#[test]
fn rescq_holds_up_fully_compressed() {
    // On *this* synthetic workload — a fully serialized CNOT chain whose
    // dependency structure already hands greedy all available parallelism —
    // the two schedulers share the critical path, so near-parity is the
    // correct expectation and this test pins it against regressions (the
    // pre-ledger engine briefly hit 0.85× here). The paper's actual
    // constrained-fabric claim (1.65× on the benchmark suite, Fig 9) is
    // asserted as a strict ≥1.15× win in
    // `tests/paper_claims.rs::rescq_wins_on_compressed_fabrics`.
    let c = rz_heavy(12, 5);
    let mean = |s: SchedulerKind| -> f64 {
        (0..4)
            .map(|i| {
                let cfg = SimConfig::builder()
                    .scheduler(s)
                    .compression(1.0)
                    .seed(60 + i)
                    .build();
                simulate(&c, &cfg).unwrap().total_cycles()
            })
            .sum::<f64>()
            / 4.0
    };
    let rescq = mean(SchedulerKind::Rescq);
    let greedy = mean(SchedulerKind::Greedy);
    assert!(
        rescq <= greedy * 1.05,
        "RESCQ ({rescq:.0}) fell behind greedy ({greedy:.0}) at 100% compression"
    );
}

#[test]
fn uncompressed_runs_bit_identical_to_pre_ledger_engine() {
    // The reservation-ledger refactor rewrote every queue access in the
    // realtime engine and re-enabled eager correction preparation on
    // constrained fabrics. Uncompressed fabrics are unconstrained, so their
    // schedules — and therefore their RNG streams and exact round counts —
    // must be bit-identical to the pre-refactor engine. Golden values
    // captured from the PR 2 tree.
    for (qubits, layers, seed, rounds) in [
        (9u32, 4u32, 11u64, 411u64),
        (9, 4, 40, 421),
        (9, 4, 41, 449),
        (6, 3, 11, 306),
        (6, 3, 40, 284),
        (6, 3, 41, 248),
    ] {
        let c = rz_heavy(qubits, layers);
        let r = simulate(&c, &config(SchedulerKind::Rescq, seed)).unwrap();
        assert_eq!(
            r.total_rounds, rounds,
            "rz_heavy({qubits},{layers}) seed={seed} diverged from the pre-ledger engine"
        );
    }
}

/// `r` as one row of the reports CSV (`sim run --csv`), in the column order
/// of `rescq-cli`'s `write_reports_csv`.
fn reports_csv_row(r: &ExecutionReport) -> String {
    let c = &r.counters;
    format!(
        "{},{},{},{:.3},{:.4},{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.scheduler,
        r.seed,
        r.distance,
        r.total_cycles(),
        r.idle_fraction(),
        r.gates_executed,
        c.injections,
        c.injection_failures,
        c.preps_started,
        c.preps_cancelled,
        c.edge_rotations,
        c.mst_computations,
        r.k_used,
        r.tau_used,
        c.decode_windows,
        r.decoder_stall_cycles(),
        c.decoder_peak_backlog,
        c.preemptions,
        c.preemptions_rejected_cycle,
        c.waitgraph_peak_edges,
        c.preemptions_class,
        c.preemptions_by_class[0],
        c.preemptions_by_class[1],
        c.preemptions_by_class[2],
        c.preemptions_by_class[3],
        c.stall_ancilla_cycles,
        c.stall_decoder_cycles,
        c.stall_route_cycles,
        c.stall_class_cycles,
        c.decode_defects,
        c.decode_growth_steps,
        c.decode_failures,
    )
}

#[test]
fn union_find_realtime_run_is_pinned() {
    // The goldens above all use the ideal decoder, which never holds a
    // gate back. A `union_find:1.0` run is decoder-bound: it stretches over
    // many more cycles and MST completions, so this pins that path too.
    // Values captured before MST completions were applied as one Kruskal
    // pass; the batch apply must reproduce them exactly.
    let c = rescq_workloads::generate("ising_n34", 1).expect("known benchmark");
    let cfg = SimConfig::builder()
        .scheduler(SchedulerKind::Rescq)
        .decoder(DecoderConfig::union_find(1.0))
        .seed(7)
        .build();
    let r = simulate(&c, &cfg).unwrap();
    assert_eq!(r.total_rounds, 6318);
    assert_eq!(r.counters.mst_computations, 35);
    assert_eq!(r.counters.mst_incremental_updates, 2334);
    assert_eq!(
        reports_csv_row(&r),
        "rescq,7,7,902.571,0.9819,217,158,75,633,327,2,35,25,11,158,9447.000,34,0,0,103,\
         0,0,0,0,0,317,8947,1186,0,44,252,0"
    );
}

/// One pinned dispatch golden: `name` generated with workload seed 1 and
/// run by RESCQ with sim seed 1 at `compression`, optionally under a
/// decoder and the default priority lattice.
struct DispatchGolden {
    name: &'static str,
    compression: f64,
    decoder: Option<DecoderConfig>,
    lattice: bool,
    total_rounds: u64,
    counters: &'static str,
    row: &'static str,
}

#[test]
fn dispatch_goldens_are_pinned() {
    // The realtime engine's schedule and start phases only start work whose
    // inputs changed; these runs pin that such bookkeeping never changes a
    // decision. Every value, including the path-cache hits/misses and the
    // stall buckets, was recorded on the engine that rescanned every live
    // task on every dispatch pass, except the `decode_prep` run, recorded
    // before blocked starts were parked and decoder windows reused scratch.
    let goldens = [
        DispatchGolden {
            name: "ising_n420",
            compression: 0.0,
            decoder: None,
            lattice: false,
            total_rounds: 480,
            counters: "RunCounters { preps_started: 8075, preps_succeeded: 5319, \
                preps_cancelled: 4902, states_discarded: 3259, injections: 2060, \
                injection_failures: 1012, edge_rotations: 14, cnot_surgeries: 838, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                preemptions_class: 0, preemptions_by_class: [0, 0, 0, 0], \
                waitgraph_peak_edges: 1559, preemptions_by_rank: [], \
                stall_ancilla_cycles: 743, stall_decoder_cycles: 0, stall_route_cycles: 1765, \
                stall_class_cycles: 0, mst_computations: 2, mst_incremental_updates: 3194, \
                path_cache_hits: 6874, path_cache_misses: 5936, decode_windows: 2060, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,68.571,0.7550,2726,2060,1012,8075,4902,14,2,25,18,2060,0.000,1,0,0,\
                1559,0,0,0,0,0,743,0,1765,0,0,0,0",
        },
        DispatchGolden {
            name: "ising_n420",
            compression: 0.0,
            decoder: Some(DecoderConfig::union_find(1.0)),
            lattice: false,
            total_rounds: 10382,
            counters: "RunCounters { preps_started: 8273, preps_succeeded: 6302, \
                preps_cancelled: 4461, states_discarded: 4218, injections: 2084, \
                injection_failures: 1036, edge_rotations: 17, cnot_surgeries: 838, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                preemptions_class: 0, preemptions_by_class: [0, 0, 0, 0], \
                waitgraph_peak_edges: 1559, preemptions_by_rank: [], \
                stall_ancilla_cycles: 4647, stall_decoder_cycles: 116410, \
                stall_route_cycles: 46958, stall_class_cycles: 0, mst_computations: 58, \
                mst_incremental_updates: 36063, path_cache_hits: 184, \
                path_cache_misses: 12626, decode_windows: 2084, decoder_stall_rounds: 871332, \
                decoder_peak_backlog: 420, decode_defects: 406, decode_growth_steps: 2280, \
                decode_failures: 0 }",
            row: "rescq,1,7,1483.143,0.9886,2726,2084,1036,8273,4461,17,58,25,18,2084,\
                124476.000,420,0,0,1559,0,0,0,0,0,4647,116410,46958,0,406,2280,0",
        },
        DispatchGolden {
            // Preparation verification is decoded too (`--decoder-prep`):
            // prepared states become usable through `PrepDecoded` events.
            name: "ising_n34",
            compression: 0.0,
            decoder: Some(DecoderConfig {
                decode_prep: true,
                ..DecoderConfig::union_find(1.0)
            }),
            lattice: false,
            total_rounds: 19637,
            counters: "RunCounters { preps_started: 861, preps_succeeded: 495, \
                preps_cancelled: 475, states_discarded: 318, injections: 177, \
                injection_failures: 94, edge_rotations: 0, cnot_surgeries: 66, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                preemptions_class: 0, preemptions_by_class: [0, 0, 0, 0], \
                waitgraph_peak_edges: 103, preemptions_by_rank: [], \
                stall_ancilla_cycles: 33, stall_decoder_cycles: 22880, stall_route_cycles: 1162, \
                stall_class_cycles: 0, mst_computations: 111, mst_incremental_updates: 3231, \
                path_cache_hits: 11, path_cache_misses: 883, decode_windows: 1038, \
                decoder_stall_rounds: 435856, decoder_peak_backlog: 99, decode_defects: 163, \
                decode_growth_steps: 942, decode_failures: 0 }",
            row: "rescq,1,7,2805.286,0.9938,217,177,94,861,475,0,111,25,11,1038,62265.143,99,\
                0,0,103,0,0,0,0,0,33,22880,1162,0,163,942,0",
        },
        DispatchGolden {
            name: "qft_n18",
            compression: 0.75,
            decoder: None,
            lattice: false,
            total_rounds: 5648,
            counters: "RunCounters { preps_started: 1224, preps_succeeded: 1215, \
                preps_cancelled: 4, states_discarded: 603, injections: 612, \
                injection_failures: 333, edge_rotations: 2, cnot_surgeries: 306, \
                cnot_replans: 7, preemptions: 0, preemptions_rejected_cycle: 0, \
                preemptions_class: 0, preemptions_by_class: [0, 0, 0, 0], \
                waitgraph_peak_edges: 23, preemptions_by_rank: [], \
                stall_ancilla_cycles: 1451, stall_decoder_cycles: 0, stall_route_cycles: 1648, \
                stall_class_cycles: 0, mst_computations: 31, mst_incremental_updates: 854, \
                path_cache_hits: 2368, path_cache_misses: 790, decode_windows: 612, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,806.857,0.8622,647,612,333,1224,4,2,31,25,10,612,0.000,1,0,0,23,\
                0,0,0,0,0,1451,0,1648,0,0,0,0",
        },
        DispatchGolden {
            name: "gcm_n13",
            compression: 0.5,
            decoder: None,
            lattice: false,
            total_rounds: 21481,
            counters: "RunCounters { preps_started: 6045, preps_succeeded: 6014, \
                preps_cancelled: 11, states_discarded: 2992, injections: 3022, \
                injection_failures: 1494, edge_rotations: 60, cnot_surgeries: 762, \
                cnot_replans: 11, preemptions: 1, preemptions_rejected_cycle: 0, \
                preemptions_class: 0, preemptions_by_class: [0, 1, 0, 0], \
                waitgraph_peak_edges: 9, preemptions_by_rank: [0, 1], \
                stall_ancilla_cycles: 3524, stall_decoder_cycles: 0, stall_route_cycles: 1348, \
                stall_class_cycles: 0, mst_computations: 122, mst_incremental_updates: 2590, \
                path_cache_hits: 3496, path_cache_misses: 2295, decode_windows: 3022, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,3068.714,0.8163,2290,3022,1494,6045,11,60,122,25,10,3022,0.000,1,\
                1,0,9,0,0,1,0,0,3524,0,1348,0,0,0,0",
        },
        DispatchGolden {
            name: "factory_n12",
            compression: 0.25,
            decoder: None,
            lattice: true,
            total_rounds: 832,
            counters: "RunCounters { preps_started: 509, preps_succeeded: 383, \
                preps_cancelled: 259, states_discarded: 214, injections: 169, \
                injection_failures: 85, edge_rotations: 14, cnot_surgeries: 44, \
                cnot_replans: 0, preemptions: 9, preemptions_rejected_cycle: 142, \
                preemptions_class: 8, preemptions_by_class: [0, 1, 0, 8], \
                waitgraph_peak_edges: 21, preemptions_by_rank: [0, 1, 0, 8], \
                stall_ancilla_cycles: 144, stall_decoder_cycles: 0, stall_route_cycles: 95, \
                stall_class_cycles: 1, mst_computations: 4, mst_incremental_updates: 116, \
                path_cache_hits: 74, path_cache_misses: 264, decode_windows: 169, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,118.857,0.7111,128,169,85,509,259,14,4,25,10,169,0.000,1,9,142,\
                21,8,0,1,0,8,144,0,95,1,0,0,0",
        },
    ];
    for g in goldens {
        let c = rescq_workloads::generate(g.name, 1).expect("known benchmark");
        let mut b = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(g.compression)
            .seed(1);
        if let Some(d) = g.decoder {
            b = b.decoder(d);
        }
        if g.lattice {
            b = b.priority_classes(Some(ClassLattice::default()));
        }
        let r = simulate(&c, &b.build()).unwrap();
        let label = format!("{}@{} {:?}", g.name, g.compression, g.decoder);
        assert_eq!(r.total_rounds, g.total_rounds, "{label}");
        assert_eq!(format!("{:?}", r.counters), g.counters, "{label}");
        assert_eq!(reports_csv_row(&r), g.row, "{label}");
    }
}

#[test]
fn constrained_fabric_counters_are_wired() {
    // The ledger's counters flow into the report: compressed RESCQ runs
    // populate the wait-graph peak, and the static baseline reports its
    // (preemption-free) ledger accounting too.
    let c = rz_heavy(8, 3);
    let cfg = SimConfig::builder().compression(1.0).seed(3).build();
    let r = simulate(&c, &cfg).unwrap();
    assert!(r.counters.waitgraph_peak_edges > 0);
    let mut gcfg = cfg.clone();
    gcfg.scheduler = SchedulerKind::Greedy;
    let g = simulate(&c, &gcfg).unwrap();
    assert_eq!(g.counters.preemptions, 0, "static engines never preempt");
    assert_eq!(g.counters.preemptions_rejected_cycle, 0);
}

#[test]
fn dyadic_ladders_need_fewer_injections() {
    // T-gate ladders terminate after one injection; generic angles need ~2.
    let mut dyadic = Circuit::new(4);
    let mut generic = Circuit::new(4);
    for q in 0..4u32 {
        for _ in 0..8 {
            dyadic.t(q);
            dyadic.h(q); // prevent merging semantics confusion; H is cheap
            generic.rz(q, Angle::radians(0.377));
            generic.h(q);
        }
    }
    let cfg = config(SchedulerKind::Rescq, 23);
    let rd = simulate(&dyadic, &cfg).unwrap();
    let rg = simulate(&generic, &cfg).unwrap();
    let per_rz_d = rd.counters.injections as f64 / 32.0;
    let per_rz_g = rg.counters.injections as f64 / 32.0;
    assert!(per_rz_d <= 1.05, "T ladder used {per_rz_d} injections/gate");
    assert!(
        per_rz_g > 1.5 && per_rz_g < 2.6,
        "generic ladder used {per_rz_g} injections/gate (Eq. 1 says ≈2)"
    );
}

#[test]
fn harsh_error_rate_failure_injection() {
    // Force long preparation streaks: high p, small d. The engines must
    // still terminate with every gate executed.
    let c = rz_heavy(4, 2);
    for s in SchedulerKind::ALL {
        let cfg = SimConfig::builder()
            .scheduler(s)
            .distance(3)
            .physical_error_rate(5e-3)
            .calibration(PrepCalibration {
                c1: 40.0,
                c2: 6.0,
                rounds_round1: 5,
                rounds_round2: 5,
            })
            .seed(2)
            .build();
        let r = simulate(&c, &cfg).unwrap();
        assert_eq!(r.gates_executed, c.len());
        assert!(r.counters.preps_started >= r.counters.preps_succeeded);
    }
}

#[test]
fn k_policy_variants_run() {
    let c = rz_heavy(6, 3);
    for k in [
        KPolicy::Fixed(25),
        KPolicy::Fixed(200),
        KPolicy::Dynamic { max_concurrent: 2 },
    ] {
        let cfg = SimConfig::builder().k_policy(k).seed(4).build();
        let r = simulate(&c, &cfg).unwrap();
        assert!(r.k_used >= 1);
        assert!(r.tau_used >= 1);
        assert_eq!(r.gates_executed, c.len());
    }
}

#[test]
fn single_qubit_program() {
    let mut c = Circuit::new(1);
    c.rz(0, Angle::radians(1.0)).h(0).rz(0, Angle::radians(0.5));
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 8)).unwrap();
        assert_eq!(r.gates_executed, 3, "{s}");
    }
}

#[test]
fn prep_decoding_flag_adds_windows_and_never_speeds_up() {
    // ROADMAP follow-on: |mθ⟩ preparation verification is itself a decoded
    // measurement. With `decode_prep` every successful preparation submits a
    // window; under a slow decoder the makespan cannot shrink, and with the
    // flag off behaviour is bit-identical to the decoder-less baseline.
    let c = rz_heavy(5, 3);
    for s in SchedulerKind::ALL {
        let base = SimConfig::builder()
            .scheduler(s)
            .decoder(DecoderConfig::fixed(0.5))
            .seed(17)
            .build();
        let mut with_prep = base.clone();
        with_prep.decoder = with_prep.decoder.with_prep_decoding();
        let off = simulate(&c, &base).unwrap();
        let on = simulate(&c, &with_prep).unwrap();
        assert!(
            on.counters.decode_windows > off.counters.decode_windows,
            "{s}: prep windows must add decode traffic"
        );
        assert!(
            on.total_cycles() >= off.total_cycles(),
            "{s}: decoding preps cannot make the run faster ({} < {})",
            on.total_cycles(),
            off.total_cycles()
        );
        // Flag off stays bit-identical to a decoder-config round-trip.
        assert_eq!(off, simulate(&c, &base).unwrap());
    }
}

#[test]
fn prep_decoding_with_ideal_decoder_is_cycle_neutral() {
    // An ideal decoder answers in-round: enabling prep verification adds
    // windows to the accounting but cannot move any event.
    let c = rz_heavy(4, 2);
    let base = SimConfig::builder().seed(5).build();
    let mut with_prep = base.clone();
    with_prep.decoder = with_prep.decoder.with_prep_decoding();
    let off = simulate(&c, &base).unwrap();
    let on = simulate(&c, &with_prep).unwrap();
    assert_eq!(off.total_rounds, on.total_rounds);
    assert_eq!(off.counters.injections, on.counters.injections);
    assert!(on.counters.decode_windows > off.counters.decode_windows);
}

#[test]
fn idle_fraction_in_unit_range() {
    let c = rz_heavy(6, 3);
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 31)).unwrap();
        let idle = r.idle_fraction();
        assert!((0.0..=1.0).contains(&idle), "{s}: idle={idle}");
        assert!(idle > 0.0, "some idleness is inevitable");
    }
}
