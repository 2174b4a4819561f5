//! Cross-scheduler engine tests: determinism, baseline-vs-RESCQ ordering on
//! rotation-heavy programs, compression robustness, and failure injection.

use rescq_circuit::{Angle, Circuit};
use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::{DecoderConfig, DecoderKind};
use rescq_rus::PrepCalibration;
use rescq_sim::{reports_csv_row, simulate, SimConfig};

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

#[test]
fn union_find_realtime_run_is_pinned() {
    // The goldens above all use the ideal decoder, which never holds a
    // gate back. A `union_find:1.0` run is decoder-bound: it stretches over
    // many more cycles and MST completions, so this pins that path too.
    // Values captured before MST completions were applied as one Kruskal
    // pass (the batch apply must reproduce them exactly), and re-recorded
    // once when the union-find error channel moved to geometric
    // skip-ahead, whose stream differs.
    let c = rescq_workloads::generate("ising_n34", 1).expect("known benchmark");
    let cfg = SimConfig::builder()
        .scheduler(SchedulerKind::Rescq)
        .decoder(DecoderConfig::union_find(1.0))
        .seed(7)
        .build();
    let r = simulate(&c, &cfg).unwrap();
    assert_eq!(r.total_rounds, 6322);
    assert_eq!(r.counters.mst_computations, 35);
    assert_eq!(r.counters.mst_incremental_updates, 2264);
    assert_eq!(
        reports_csv_row(&r),
        "rescq,7,7,903.143,0.9821,217,162,79,680,355,1,35,25,11,162,9357.143,34,0,0,103,\
         414,8818,1816,40,222,0"
    );
}

/// One pinned dispatch golden: `name` generated with workload seed 1 and
/// run by RESCQ with sim seed 1 at `compression`, optionally under a
/// decoder.
struct DispatchGolden {
    name: &'static str,
    compression: f64,
    decoder: Option<DecoderConfig>,
    total_rounds: u64,
    counters: &'static str,
    row: &'static str,
}

#[test]
fn dispatch_goldens_are_pinned() {
    // The realtime engine's schedule and start phases only start work whose
    // inputs changed; these runs pin that such bookkeeping never changes a
    // decision. Every value, including the stall buckets, was recorded on
    // the engine that rescanned every live task on every dispatch pass,
    // except the `decode_prep` run, recorded before blocked starts were
    // parked and decoder windows reused scratch. The path-cache hits/misses
    // count geometric-memo lookups; they were re-recorded when the
    // per-generation tree-path cache was deleted (their sum is unchanged).
    // The two union-find runs were re-recorded once when the error
    // channel moved to geometric skip-ahead, whose stream differs.
    let goldens = [
        DispatchGolden {
            name: "ising_n420",
            compression: 0.0,
            decoder: None,
            total_rounds: 480,
            counters: "RunCounters { preps_started: 8075, preps_succeeded: 5319, \
                preps_cancelled: 4902, states_discarded: 3259, injections: 2060, \
                injection_failures: 1012, edge_rotations: 14, cnot_surgeries: 838, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                waitgraph_peak_edges: 1559, \
                stall_ancilla_cycles: 743, stall_decoder_cycles: 0, stall_route_cycles: 1765, \
                stall_class_cycles: 0, mst_computations: 2, mst_incremental_updates: 3194, \
                path_cache_hits: 7183, path_cache_misses: 5627, decode_windows: 2060, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,68.571,0.7550,2726,2060,1012,8075,4902,14,2,25,18,2060,0.000,1,0,0,\
                1559,743,0,1765,0,0,0",
        },
        DispatchGolden {
            name: "ising_n420",
            compression: 0.0,
            decoder: Some(DecoderConfig::union_find(1.0)),
            total_rounds: 10133,
            counters: "RunCounters { preps_started: 8117, preps_succeeded: 6177, \
                preps_cancelled: 4415, states_discarded: 4117, injections: 2060, \
                injection_failures: 1012, edge_rotations: 26, cnot_surgeries: 838, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                waitgraph_peak_edges: 1559, stall_ancilla_cycles: 7325, \
                stall_decoder_cycles: 113655, stall_route_cycles: 47801, \
                stall_class_cycles: 0, mst_computations: 57, \
                mst_incremental_updates: 35864, path_cache_hits: 7183, \
                path_cache_misses: 5627, decode_windows: 2060, \
                decoder_stall_rounds: 865606, decoder_peak_backlog: 420, \
                decode_defects: 526, decode_growth_steps: 3028, decode_failures: 0 }",
            row: "rescq,1,7,1447.571,0.9883,2726,2060,1012,8117,4415,26,57,25,18,2060,\
                123658.000,420,0,0,1559,7325,113655,47801,526,3028,0",
        },
        DispatchGolden {
            // Preparation verification is decoded too (`--decoder-prep`):
            // prepared states become usable through `PrepDecoded` events.
            // The run ends with a speculative preparation still verifying,
            // whose window the engine retires after the last gate (debug
            // builds assert that no window is left in flight).
            name: "ising_n34",
            compression: 0.0,
            decoder: Some(DecoderConfig {
                decode_prep: true,
                ..DecoderConfig::union_find(1.0)
            }),
            total_rounds: 16278,
            counters: "RunCounters { preps_started: 802, preps_succeeded: 473, \
                preps_cancelled: 436, states_discarded: 298, injections: 175, \
                injection_failures: 92, edge_rotations: 0, cnot_surgeries: 66, \
                cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                waitgraph_peak_edges: 103, stall_ancilla_cycles: 28, \
                stall_decoder_cycles: 22292, stall_route_cycles: 3483, \
                stall_class_cycles: 0, mst_computations: 92, mst_incremental_updates: 3091, \
                path_cache_hits: 496, path_cache_misses: 398, decode_windows: 976, \
                decoder_stall_rounds: 404376, decoder_peak_backlog: 103, \
                decode_defects: 173, decode_growth_steps: 992, decode_failures: 0 }",
            row: "rescq,1,7,2325.429,0.9926,217,175,92,802,436,0,92,25,11,976,57768.000,103,0,\
                0,103,28,22292,3483,173,992,0",
        },
        DispatchGolden {
            name: "qft_n18",
            compression: 0.75,
            decoder: None,
            total_rounds: 5648,
            counters: "RunCounters { preps_started: 1224, preps_succeeded: 1215, \
                preps_cancelled: 4, states_discarded: 603, injections: 612, \
                injection_failures: 333, edge_rotations: 2, cnot_surgeries: 306, \
                cnot_replans: 7, preemptions: 0, preemptions_rejected_cycle: 0, \
                waitgraph_peak_edges: 23, \
                stall_ancilla_cycles: 1451, stall_decoder_cycles: 0, stall_route_cycles: 1648, \
                stall_class_cycles: 0, mst_computations: 31, mst_incremental_updates: 854, \
                path_cache_hits: 2974, path_cache_misses: 184, decode_windows: 612, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,806.857,0.8622,647,612,333,1224,4,2,31,25,10,612,0.000,1,0,0,23,1451,\
                0,1648,0,0,0",
        },
        DispatchGolden {
            name: "gcm_n13",
            compression: 0.5,
            decoder: None,
            total_rounds: 21481,
            counters: "RunCounters { preps_started: 6045, preps_succeeded: 6014, \
                preps_cancelled: 11, states_discarded: 2992, injections: 3022, \
                injection_failures: 1494, edge_rotations: 60, cnot_surgeries: 762, \
                cnot_replans: 11, preemptions: 1, preemptions_rejected_cycle: 0, \
                waitgraph_peak_edges: 9, \
                stall_ancilla_cycles: 3524, stall_decoder_cycles: 0, stall_route_cycles: 1348, \
                stall_class_cycles: 0, mst_computations: 122, mst_incremental_updates: 2590, \
                path_cache_hits: 5659, path_cache_misses: 132, decode_windows: 3022, \
                decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                decode_growth_steps: 0, decode_failures: 0 }",
            row: "rescq,1,7,3068.714,0.8163,2290,3022,1494,6045,11,60,122,25,10,3022,0.000,1,1,0,\
                9,3524,0,1348,0,0,0",
        },
    ];
    for g in goldens {
        g.check(SchedulerKind::Rescq);
    }
}

impl DispatchGolden {
    /// Runs the golden's point under `scheduler` and compares the pinned
    /// values.
    fn check(&self, scheduler: SchedulerKind) {
        let c = rescq_workloads::generate(self.name, 1).expect("known benchmark");
        let mut b = SimConfig::builder()
            .scheduler(scheduler)
            .compression(self.compression)
            .seed(1);
        if let Some(d) = self.decoder {
            b = b.decoder(d);
        }
        let r = simulate(&c, &b.build()).unwrap();
        let label = format!(
            "{scheduler:?} {}@{} {:?}",
            self.name, self.compression, self.decoder
        );
        assert_eq!(r.total_rounds, self.total_rounds, "{label}");
        assert_eq!(format!("{:?}", r.counters), self.counters, "{label}");
        assert_eq!(reports_csv_row(&r), self.row, "{label}");
    }
}

#[test]
fn static_goldens_are_pinned() {
    // The greedy and AutoBraid engines route every layer with a held BFS
    // scratch and recycle their layer buffers; these runs pin that such
    // reuse never changes a decision. Every value was recorded on the
    // engine that rebuilt each qubit's adjacency and allocated a fresh BFS
    // per route attempt. The wstate_n27 point decodes both injections and
    // preparation verification (`decode_prep`) with a backlog, so it
    // passes through the `DecodeDone` and `PrepDecoded` events; it was
    // re-recorded once when the union-find error channel moved to
    // geometric skip-ahead, whose stream differs.
    let decode_prep = DecoderConfig {
        decode_prep: true,
        ..DecoderConfig::union_find(4.0)
    };
    let goldens = [
        (
            SchedulerKind::Greedy,
            DispatchGolden {
                name: "gcm_n13",
                compression: 0.5,
                decoder: None,
                total_rounds: 37161,
                counters:
                    "RunCounters { preps_started: 3024, preps_succeeded: 3024, preps_cancelled: 0, \
                    states_discarded: 0, injections: 3024, injection_failures: 1496, \
                    edge_rotations: 86, cnot_surgeries: 762, cnot_replans: 0, preemptions: 0, \
                    preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 2, \
                    stall_ancilla_cycles: 0, stall_decoder_cycles: 0, stall_route_cycles: 0, \
                    stall_class_cycles: 0, mst_computations: 0, mst_incremental_updates: 0, \
                    path_cache_hits: 0, path_cache_misses: 0, decode_windows: 3024, \
                    decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                    decode_growth_steps: 0, decode_failures: 0 }",
                row: "greedy,1,7,5308.714,0.8725,2290,3024,1496,3024,0,86,0,0,0,3024,0.000,1,0,0,\
                    2,0,0,0,0,0,0",
            },
        ),
        (
            SchedulerKind::Greedy,
            DispatchGolden {
                name: "qft_n18",
                compression: 0.75,
                decoder: None,
                total_rounds: 7155,
                counters:
                    "RunCounters { preps_started: 609, preps_succeeded: 609, preps_cancelled: 0, \
                    states_discarded: 0, injections: 609, injection_failures: 318, \
                    edge_rotations: 36, cnot_surgeries: 306, cnot_replans: 0, preemptions: 0, \
                    preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 5, \
                    stall_ancilla_cycles: 0, stall_decoder_cycles: 0, stall_route_cycles: 0, \
                    stall_class_cycles: 0, mst_computations: 0, mst_incremental_updates: 0, \
                    path_cache_hits: 0, path_cache_misses: 0, decode_windows: 609, \
                    decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                    decode_growth_steps: 0, decode_failures: 0 }",
                row: "greedy,1,7,1022.143,0.8644,647,609,318,609,0,36,0,0,0,609,0.000,1,0,0,5,0,0,\
                    0,0,0,0",
            },
        ),
        (
            SchedulerKind::Greedy,
            DispatchGolden {
                name: "wstate_n27",
                compression: 0.0,
                decoder: Some(decode_prep),
                total_rounds: 44633,
                counters: "RunCounters { preps_started: 321, preps_succeeded: 321, \
                    preps_cancelled: 0, states_discarded: 0, injections: 321, \
                    injection_failures: 166, edge_rotations: 0, cnot_surgeries: 52, \
                    cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 0, stall_ancilla_cycles: 0, \
                    stall_decoder_cycles: 0, stall_route_cycles: 0, stall_class_cycles: 0, \
                    mst_computations: 0, mst_incremental_updates: 0, path_cache_hits: 0, \
                    path_cache_misses: 0, decode_windows: 642, decoder_stall_rounds: 73831, \
                    decoder_peak_backlog: 26, decode_defects: 162, \
                    decode_growth_steps: 956, decode_failures: 0 }",
                row: "greedy,1,7,6376.143,0.9945,313,321,166,321,0,0,0,0,0,642,10547.286,26,0,\
                    0,0,0,0,0,162,956,0",
            },
        ),
        (
            SchedulerKind::Autobraid,
            DispatchGolden {
                name: "gcm_n13",
                compression: 0.5,
                decoder: None,
                total_rounds: 37684,
                counters:
                    "RunCounters { preps_started: 3093, preps_succeeded: 3093, preps_cancelled: 0, \
                    states_discarded: 0, injections: 3093, injection_failures: 1565, \
                    edge_rotations: 85, cnot_surgeries: 762, cnot_replans: 0, preemptions: 0, \
                    preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 1, \
                    stall_ancilla_cycles: 0, stall_decoder_cycles: 0, stall_route_cycles: 0, \
                    stall_class_cycles: 0, mst_computations: 0, mst_incremental_updates: 0, \
                    path_cache_hits: 0, path_cache_misses: 0, decode_windows: 3093, \
                    decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                    decode_growth_steps: 0, decode_failures: 0 }",
                row: "autobraid,1,7,5383.429,0.8731,2290,3093,1565,3093,0,85,0,0,0,3093,0.000,1,0,\
                    0,1,0,0,0,0,0,0",
            },
        ),
        (
            SchedulerKind::Autobraid,
            DispatchGolden {
                name: "qft_n18",
                compression: 0.75,
                decoder: None,
                total_rounds: 6726,
                counters:
                    "RunCounters { preps_started: 587, preps_succeeded: 587, preps_cancelled: 0, \
                    states_discarded: 0, injections: 587, injection_failures: 299, \
                    edge_rotations: 16, cnot_surgeries: 306, cnot_replans: 0, preemptions: 0, \
                    preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 2, \
                    stall_ancilla_cycles: 0, stall_decoder_cycles: 0, stall_route_cycles: 0, \
                    stall_class_cycles: 0, mst_computations: 0, mst_incremental_updates: 0, \
                    path_cache_hits: 0, path_cache_misses: 0, decode_windows: 587, \
                    decoder_stall_rounds: 0, decoder_peak_backlog: 1, decode_defects: 0, \
                    decode_growth_steps: 0, decode_failures: 0 }",
                row: "autobraid,1,7,960.857,0.8607,647,587,299,587,0,16,0,0,0,587,0.000,1,0,0,2,0,\
                    0,0,0,0,0",
            },
        ),
        (
            SchedulerKind::Autobraid,
            DispatchGolden {
                name: "wstate_n27",
                compression: 0.0,
                decoder: Some(decode_prep),
                total_rounds: 44633,
                counters: "RunCounters { preps_started: 321, preps_succeeded: 321, \
                    preps_cancelled: 0, states_discarded: 0, injections: 321, \
                    injection_failures: 166, edge_rotations: 0, cnot_surgeries: 52, \
                    cnot_replans: 0, preemptions: 0, preemptions_rejected_cycle: 0, \
                    waitgraph_peak_edges: 0, stall_ancilla_cycles: 0, \
                    stall_decoder_cycles: 0, stall_route_cycles: 0, stall_class_cycles: 0, \
                    mst_computations: 0, mst_incremental_updates: 0, path_cache_hits: 0, \
                    path_cache_misses: 0, decode_windows: 642, decoder_stall_rounds: 73831, \
                    decoder_peak_backlog: 26, decode_defects: 162, \
                    decode_growth_steps: 956, decode_failures: 0 }",
                row: "autobraid,1,7,6376.143,0.9945,313,321,166,321,0,0,0,0,0,642,10547.286,26,0,\
                    0,0,0,0,0,162,956,0",
            },
        ),
    ];
    for (scheduler, g) in goldens {
        g.check(scheduler);
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
            .decoder(DecoderConfig::union_find(0.5))
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

#[test]
fn cross_product_digest_is_pinned() {
    // FNV-1a digests over a cross product of circuits, compressions,
    // decoders, schedulers and seeds: each run contributes its
    // `total_rounds` and `RunCounters` Debug text. The named goldens above
    // pin a few points in detail; these see a wrong decision anywhere in
    // the 216 runs, which is what a missed wake point in a dispatch
    // frontier tends to cause. The ideal-decoder and union-find runs fold
    // into one digest each, so a change to the union-find error stream
    // re-pins only its half. The 216 runs were first pinned as one digest
    // on the engine whose dispatch passes rescanned every gate (static)
    // and walked the start frontier from word 0 (realtime), recomputed
    // when the two class-lattice preemption counters left `RunCounters`
    // (on the engine that still had them, with both cut from each line),
    // then split into these two on the same engine. The union-find digest
    // was re-pinned when the error channel began sampling by geometric
    // skip-ahead.
    // Two workers share the runs; each digest reads its lines in point
    // order.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let circuits: Vec<Circuit> = [
        "gcm_n13",
        "qft_n18",
        "dnn_n16",
        "wstate_n27",
        "ising_n34",
        "factory_n12",
    ]
    .map(|name| rescq_workloads::generate(name, 1).expect("known benchmark"))
    .into();
    let mut points = Vec::new();
    for c in &circuits {
        for compression in [0.0, 0.5, 0.75] {
            for decoder in [DecoderConfig::default(), DecoderConfig::union_find(4.0)] {
                for scheduler in SchedulerKind::ALL {
                    for seed in [1, 2] {
                        let cfg = SimConfig::builder()
                            .scheduler(scheduler)
                            .compression(compression)
                            .decoder(decoder)
                            .seed(seed)
                            .build();
                        points.push((c, cfg, decoder.kind == DecoderKind::UnionFind));
                    }
                }
            }
        }
    }
    let lines = Mutex::new(vec![String::new(); points.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((c, cfg, _)) = points.get(i) else {
                    break;
                };
                let r = simulate(c, cfg).unwrap();
                lines.lock().unwrap()[i] = format!("{} {:?}\n", r.total_rounds, r.counters);
            });
        }
    });
    let lines = lines.into_inner().unwrap();
    let digest = |union_find: bool| {
        let text: String = points
            .iter()
            .zip(&lines)
            .filter(|((_, _, uf), _)| *uf == union_find)
            .map(|(_, line)| line.as_str())
            .collect();
        rescq_circuit::fnv1a_64(text.bytes())
    };
    let (ideal, union_find) = (digest(false), digest(true));
    assert_eq!(
        ideal, 0xcef4_d6b6_280d_b09c,
        "ideal-decoder digest {ideal:#018x}"
    );
    assert_eq!(
        union_find, 0x51e4_00e2_f30d_38c6,
        "union-find digest {union_find:#018x}"
    );
}
