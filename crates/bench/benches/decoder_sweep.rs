//! Decoder sweep: total cycles vs classical-decoder throughput on the
//! bursty decoder-stress workload (RESCQ scheduler, d = 7, p = 1e-4).
//!
//! As the decoder's throughput drops below the work its windows carry the
//! run moves from the preparation-limited regime into the decoder-limited
//! one: feed-forward outcomes queue behind the decoder and stall cycles
//! dominate the makespan.
//!
//! The grid runs on `rescq-harness`: circuit generation and fabric
//! construction happen once and are shared across every (throughput, seed)
//! point instead of being rebuilt per point.

use rescq_bench::{experiments, print_header};

fn main() {
    let scale = experiments::ExperimentScale::from_env();
    print_header(
        "Decoder sweep — total cycles vs decoder throughput",
        "RESCQ on decoder_stress; union-find decoder, ideal at tp=inf",
    );
    let (rows, monotone, cache) =
        experiments::decoder_sweep_with_stats(&scale).expect("decoder sweep");
    println!(
        "{:<18} {:<9} {:>11} {:>12} {:>14} {:>13}",
        "workload", "decoder", "throughput", "mean cycles", "stall cycles", "peak backlog"
    );
    for r in &rows {
        println!(
            "{:<18} {:<9} {:>11} {:>12.1} {:>14.1} {:>13}",
            r.name,
            r.decoder.to_string(),
            if r.throughput.is_infinite() {
                "inf".to_string()
            } else {
                format!("{}", r.throughput)
            },
            r.mean_cycles,
            r.mean_stall_cycles,
            r.peak_backlog
        );
    }
    println!(
        "cycles monotonically non-decreasing as throughput drops: {}",
        if monotone { "yes" } else { "NO" }
    );
    println!("artifact cache: {cache}");
}
