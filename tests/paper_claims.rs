//! The paper's qualitative claims, asserted end-to-end.

use rescq_repro::core::SchedulerKind;
use rescq_repro::rus::{clifford_t_overhead, PreparationModel, RusParams, TFactoryModel};
use rescq_repro::sim::runner::{geomean, run_seeds};
use rescq_repro::sim::SimConfig;

fn mean_cycles(name: &str, scheduler: SchedulerKind, seeds: u64) -> f64 {
    let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
    let config = SimConfig::builder().scheduler(scheduler).build();
    run_seeds(&circuit, &config, 1, seeds, 4)
        .unwrap()
        .mean_cycles()
}

fn compressed_mean_cycles(name: &str, scheduler: SchedulerKind, seeds: u64) -> f64 {
    let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
    let config = SimConfig::builder()
        .scheduler(scheduler)
        .compression(0.5)
        .build();
    run_seeds(&circuit, &config, 1, seeds, 4)
        .unwrap()
        .mean_cycles()
}

#[test]
fn rescq_wins_on_compressed_fabrics() {
    // Contribution 3 / Fig 9: "Even in the most constrained architectures,
    // RESCQ results in an average 1.65× improvement in cycle time." Until
    // the reservation-ledger scheduling core landed, this assertion was
    // pinned at near-parity (rescq ≤ 1.05× greedy) because the constrained
    // throttles of PR 1 forfeited eager correction preparation; with
    // ledger-mediated preemption the win is real. Pin: ≥ 1.15× per
    // representative benchmark at 50% grid compression, ratios printed so
    // the CI release gate can surface them.
    let mut speedups = Vec::new();
    for name in ["gcm_n13", "qft_n18", "wstate_n27"] {
        let greedy = compressed_mean_cycles(name, SchedulerKind::Greedy, 3);
        let rescq = compressed_mean_cycles(name, SchedulerKind::Rescq, 3);
        let ratio = greedy / rescq;
        println!(
            "compressed-fabric speedup {name}: {ratio:.2}x (rescq {rescq:.0} vs greedy {greedy:.0} cycles)"
        );
        assert!(
            ratio >= 1.15,
            "{name}: rescq must beat greedy by >=1.15x at 50% compression, got {ratio:.2}x"
        );
        speedups.push(ratio);
    }
    let gm = geomean(&speedups);
    println!("compressed-fabric geomean speedup: {gm:.2}x");
    assert!(gm >= 1.3, "geomean speedup {gm:.2} too small");
}

#[test]
fn rescq_beats_baselines_on_representative_set() {
    // Fig 10's core claim on the §5.2 representative benchmarks.
    let mut speedups = Vec::new();
    for name in ["dnn_n16", "gcm_n13", "qft_n18"] {
        let greedy = mean_cycles(name, SchedulerKind::Greedy, 3);
        let autobraid = mean_cycles(name, SchedulerKind::Autobraid, 3);
        let rescq = mean_cycles(name, SchedulerKind::Rescq, 3);
        assert!(
            rescq < greedy,
            "{name}: rescq {rescq:.0} vs greedy {greedy:.0}"
        );
        assert!(
            rescq < autobraid,
            "{name}: rescq {rescq:.0} vs autobraid {autobraid:.0}"
        );
        speedups.push(greedy.min(autobraid) / rescq);
    }
    let gm = geomean(&speedups);
    assert!(gm > 1.5, "geomean speedup {gm:.2} too small");
}

#[test]
fn rz_dense_benchmarks_gain_most() {
    // dnn (≈6.3 Rz/CNOT) should gain more than qft (≈1 Rz/CNOT).
    let dnn = mean_cycles("dnn_n16", SchedulerKind::Greedy, 2)
        / mean_cycles("dnn_n16", SchedulerKind::Rescq, 2);
    let qft = mean_cycles("qft_n18", SchedulerKind::Greedy, 2)
        / mean_cycles("qft_n18", SchedulerKind::Rescq, 2);
    assert!(dnn > qft, "dnn speedup {dnn:.2} vs qft {qft:.2}");
}

#[test]
fn fig16_shape_holds() {
    // Appendix A.1: cycles fall with d, attempts rise with d; both worsen
    // with p.
    let mut last_cycles = f64::INFINITY;
    let mut last_attempts = 0.0;
    for d in [3, 5, 7, 9, 11, 13] {
        let m = PreparationModel::new(RusParams::new(d, 1e-4));
        assert!(m.expected_cycles() < last_cycles);
        assert!(m.expected_attempts() > last_attempts);
        last_cycles = m.expected_cycles();
        last_attempts = m.expected_attempts();
    }
}

#[test]
fn appendix_a2_overhead_in_paper_range() {
    let prep = PreparationModel::new(RusParams::new(3, 1e-3));
    let (lo, hi) = clifford_t_overhead(&prep, &TFactoryModel::default());
    // Paper: 20–150×; allow modelling slack at the edges.
    assert!(lo > 10.0 && lo < 40.0, "low {lo:.0}");
    assert!(hi > 100.0 && hi < 250.0, "high {hi:.0}");
}

#[test]
fn rescq_latency_distribution_is_continuous_and_bounded() {
    // Fig 5: RESCQ's latency distribution is continuous (queue waits) with a
    // strong mass at low cycle counts. Our reproduction concentrates less
    // sharply at exactly 2 cycles than the paper (our baselines need fewer
    // edge rotations; see README §"Regenerating the paper's figures"), so we
    // assert the robust half of the claim: a solid fraction completes in
    // ≤2 cycles and the bulk within ≤8, with the distribution spread over
    // many distinct latencies.
    let circuit = rescq_repro::workloads::generate("qft_n18", 1).unwrap();
    let config = SimConfig::builder().build();
    let summary = run_seeds(&circuit, &config, 1, 3, 3).unwrap();
    let hist = summary.merged_cnot_latency();
    assert!(
        hist.fraction_at_most(2) > 0.10,
        "only {:.0}% of RESCQ CNOTs completed within 2 cycles",
        hist.fraction_at_most(2) * 100.0
    );
    assert!(
        hist.fraction_at_most(8) > 0.5,
        "only {:.0}% within 8 cycles",
        hist.fraction_at_most(8) * 100.0
    );
    let distinct = hist.iter().count();
    assert!(
        distinct > 5,
        "distribution too discrete: {distinct} buckets"
    );
}

#[test]
fn k_insensitivity() {
    // §5.2.3: performance deteriorates only negligibly as k grows.
    use rescq_repro::core::KPolicy;
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let run = |k: u32| {
        let config = SimConfig::builder().k_policy(KPolicy::Fixed(k)).build();
        run_seeds(&circuit, &config, 1, 3, 3).unwrap().mean_cycles()
    };
    let k25 = run(25);
    let k200 = run(200);
    assert!(
        k200 < k25 * 1.5,
        "k=200 ({k200:.0}) should stay near k=25 ({k25:.0})"
    );
}
