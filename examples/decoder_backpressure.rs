//! Decoder back-pressure: the same circuit under the `ideal` decoder and
//! two throughputs of the `union_find` decoder, with stall-cycle deltas.
//!
//! Every `|mθ⟩` injection outcome is a syndrome window the classical decoder
//! must process before the scheduler may rewrite the correction ladder. The
//! ideal decoder answers instantly; the union-find decoder really decodes
//! each window, and when its throughput (work units cleared per round) falls
//! behind the decode work of a rotation burst, a backlog builds and the
//! schedule stretches by the stall cycles feed-forward decisions spend
//! waiting. The example asserts that makespan and stall cycles never shrink
//! as the throughput drops.
//!
//! ```sh
//! cargo run --release --example decoder_backpressure
//! ```

use rescq_decoder::DecoderConfig;
use rescq_repro::prelude::*;

fn main() {
    // A bursty rotation workload: the scenario family built for the decoder
    // subsystem (4 bursts of 3 dense rotation layers on 9 qubits).
    let circuit = rescq_repro::workloads::generate("decoder_stress_n9", 7).expect("stress family");
    println!(
        "circuit: {} qubits, {} gates ({})",
        circuit.num_qubits(),
        circuit.len(),
        circuit.stats()
    );
    println!();

    let decoders = [
        ("ideal", DecoderConfig::ideal()),
        ("union_find:16", DecoderConfig::union_find(16.0)),
        ("union_find:4", DecoderConfig::union_find(4.0)),
    ];

    let mut baseline_cycles = None;
    let mut previous = (0.0, 0.0);
    for (label, decoder) in decoders {
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .decoder(decoder)
            .seed(42)
            .build();
        let report = simulate(&circuit, &config).expect("simulation runs");
        let cycles = report.total_cycles();
        let stall = report.decoder_stall_cycles();
        let baseline = *baseline_cycles.get_or_insert(cycles);
        println!(
            "{label:>14}: {cycles:>6.0} cycles (+{delta:.0} vs ideal), \
             {windows} windows decoded, stall {stall:.0} cycles, \
             decode latency mean {lat:.1}cy, peak backlog {peak}",
            delta = cycles - baseline,
            windows = report.counters.decode_windows,
            lat = report.decode_latency.mean(),
            peak = report.counters.decoder_peak_backlog,
        );
        assert!(
            cycles >= previous.0 && stall >= previous.1,
            "{label}: {cycles} cycles / {stall} stall cycles shrank below \
             the faster decoder's {} / {}",
            previous.0,
            previous.1
        );
        previous = (cycles, stall);
    }

    println!();
    println!("lower decode throughput => longer windows queue per tile =>");
    println!("more stall cycles: at 4 work units per round the run is decoder-limited.");
}
