//! Cross-crate integration: Table 3 generation → mapping → scheduling →
//! simulation for every scheduler, with determinism and report sanity.

use rescq_repro::core::SchedulerKind;
use rescq_repro::sim::{simulate, SimConfig};

const SMALL_BENCHMARKS: &[&str] = &["VQE_n13", "wstate_n27", "qft_n18", "ising_n34"];

#[test]
fn every_scheduler_completes_every_small_benchmark() {
    for name in SMALL_BENCHMARKS {
        let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
        for scheduler in SchedulerKind::ALL {
            let config = SimConfig::builder().scheduler(scheduler).seed(3).build();
            let report =
                simulate(&circuit, &config).unwrap_or_else(|e| panic!("{name}/{scheduler}: {e}"));
            assert_eq!(report.gates_executed, circuit.len(), "{name}/{scheduler}");
            assert!(report.total_cycles() > 0.0);
            assert!((0.0..=1.0).contains(&report.idle_fraction()));
        }
    }
}

#[test]
fn simulation_is_deterministic_across_repeats() {
    let circuit = rescq_repro::workloads::generate("gcm_n13", 1).unwrap();
    for scheduler in SchedulerKind::ALL {
        let config = SimConfig::builder().scheduler(scheduler).seed(11).build();
        let a = simulate(&circuit, &config).unwrap();
        let b = simulate(&circuit, &config).unwrap();
        assert_eq!(a, b, "{scheduler} is not deterministic");
    }
}

#[test]
fn uncompressed_benchmark_run_matches_pre_ledger_golden() {
    // Cross-crate pin of the reservation-ledger refactor's bit-identity
    // guarantee on an unconstrained fabric (golden from the PR 2 tree).
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let config = SimConfig::builder().seed(7).build();
    let report = simulate(&circuit, &config).unwrap();
    assert_eq!(report.total_rounds, 2391);
}

#[test]
fn fixed_point_recovery_retargets_lost_current_angle_states() {
    // Regression: on factory_n12 at 25% compression, seed 8, the engine
    // reaches a fixed point: a wait cycle through the dependency DAG that
    // no event or tick can break. The recovery that fires there discards
    // speculative and stale holds, which can include a task's only |mθ⟩
    // holder after its sibling queue entries were rewritten to the |m2θ⟩
    // correction state; it then retargets the surviving entries to the
    // ladder's current angle. Without the retarget every restarted
    // preparation reproduces the stale angle and the run deadlocks at its
    // next fixed point. Recovering at the fixed point (round 427) instead
    // of after 300 cycles without a completion pins the makespan at 882
    // rounds (126 cycles; seeds 1–7 and 9–10 take 111–160).
    let circuit = rescq_repro::workloads::generate("factory_n12", 1).unwrap();
    let config = SimConfig::builder().compression(0.25).seed(8).build();
    let report = simulate(&circuit, &config).expect("the recovery clears the fixed point");
    assert_eq!(report.gates_executed, circuit.len());
    assert_eq!(report.total_rounds, 882);
}

#[test]
fn rotation_counters_track_eq1() {
    // Generic angles average ≈2 injections; the engine's counters must
    // reflect the RUS ladder (Eq. 1) within Monte-Carlo noise.
    let circuit = rescq_repro::workloads::generate("gcm_n13", 1).unwrap();
    let rz = circuit.stats().rz as f64;
    let config = SimConfig::builder().seed(5).build();
    let report = simulate(&circuit, &config).unwrap();
    let per_rz = report.counters.injections as f64 / rz;
    assert!(
        (1.7..2.3).contains(&per_rz),
        "observed {per_rz:.2} injections per rotation"
    );
    // Roughly half of injections fail.
    let fail = report.counters.injection_failures as f64 / report.counters.injections as f64;
    assert!((0.4..0.6).contains(&fail), "failure rate {fail:.2}");
}

#[test]
fn artifact_round_trip_through_text_format() {
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let text = rescq_repro::circuit::write_circuit(&circuit);
    let parsed = rescq_repro::circuit::parse_circuit(&text, Some(27)).unwrap();
    assert_eq!(parsed.gates().len(), circuit.gates().len());
    let a = simulate(&circuit, &SimConfig::default()).unwrap();
    let b = simulate(&parsed, &SimConfig::default()).unwrap();
    assert_eq!(a.total_rounds, b.total_rounds);
}

#[test]
fn distance_sweep_reduces_cycles() {
    // §5.2.1: execution time improves as d increases (more measurement
    // rounds per cycle ⇒ faster RUS attempts in cycle units).
    let circuit = rescq_repro::workloads::generate("VQE_n13", 1).unwrap();
    let mut last = f64::INFINITY;
    for d in [3u32, 7, 13] {
        let config = SimConfig::builder().distance(d).seed(9).build();
        let mean: f64 = (0..5)
            .map(|i| {
                let mut c = config.clone();
                c.seed = 9 + i;
                simulate(&circuit, &c).unwrap().total_cycles()
            })
            .sum::<f64>()
            / 5.0;
        assert!(mean < last, "d={d}: {mean:.0} should be below {last:.0}");
        last = mean;
    }
}
