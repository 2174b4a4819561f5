//! Decoder/scheduler co-design on top of `rescq-harness`, mirroring
//! `compression_codesign.rs` (ROADMAP follow-on of PR 1): for each grid
//! compression level, find the *cheapest* union-find decoder throughput
//! whose decode stalls stay within budget — i.e. whose makespan is within a
//! target fraction of the same fabric's run under an ideal (zero-latency)
//! decoder.
//!
//! (The raw per-window stall sum is reported too, but it is a cumulative
//! latency metric — concurrent windows overlap, so it routinely exceeds
//! the makespan and is not usable as a feasibility threshold by itself.)
//!
//! The whole (compression × decoder × seed) grid runs as ONE harness sweep:
//! the circuit is generated once, each compressed fabric is built once, and
//! the jobs share everything read-only across the worker pool.
//!
//! ```sh
//! cargo run --release --example decoder_codesign
//! ```

use rescq_repro::decoder::DecoderKind;
use rescq_repro::harness::{run_sweep, DecoderPoint, PointSummary, RunOptions, SweepSpec};

/// Budget: makespan may exceed the ideal-decoder makespan by at most this.
/// (Every injection outcome waits at least one reaction round plus its
/// decode work over the throughput before its ladder advances, and ladder
/// steps are serial, so even fast decoders carry an irreducible inflation
/// on Rz-dense code.)
const INFLATION_BUDGET: f64 = 0.25;

/// Hardware cost proxy of a decoder point: its decode throughput (work
/// units cleared per round).
fn cost(p: &PointSummary) -> f64 {
    p.job.config.decoder.throughput
}

fn main() {
    let compressions = [0.0, 0.5, 1.0];
    // The candidate grid: union-find throughputs that bracket the budget,
    // plus the ideal reference point per compression.
    let mut decoders = vec!["ideal".to_string()];
    decoders.extend([32, 64, 128, 256, 512].map(|tp| format!("union_find:{tp}")));

    let spec = SweepSpec {
        workloads: vec!["gcm_n13".to_string()],
        compressions: compressions.to_vec(),
        decoders: decoders
            .iter()
            .map(|d| d.parse::<DecoderPoint>().expect("valid point"))
            .collect(),
        seeds: 3,
        ..SweepSpec::default()
    };

    println!(
        "decoder co-design on gcm_n13: {} points x {} seeds, budget = ideal makespan +{:.0}%",
        spec.num_points(),
        spec.seeds,
        INFLATION_BUDGET * 100.0
    );
    let results = run_sweep(&spec, &RunOptions::default()).expect("sweep runs");
    if let Some(e) = results.first_error() {
        eprintln!("warning: some points failed: {e}");
    }
    println!(
        "{} jobs in {:.2}s; cache: {}\n",
        results.records.len(),
        results.elapsed_secs,
        results.cache
    );

    let summaries = results.summaries();
    let at = |compression: f64| {
        summaries
            .iter()
            .filter(move |s| s.job.config.compression == compression && s.completed > 0)
    };

    println!(
        "{:>12} {:>15} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "compression", "cheapest", "throughput", "mean cy", "ideal cy", "inflation", "stall%"
    );
    for &compression in &compressions {
        let Some(ideal) = at(compression).find(|s| s.job.config.decoder.kind == DecoderKind::Ideal)
        else {
            println!("{:>11.0}% (ideal reference missing)", compression * 100.0);
            continue;
        };
        let best = at(compression)
            .filter(|s| s.job.config.decoder.kind != DecoderKind::Ideal)
            .filter(|s| s.mean_cycles <= ideal.mean_cycles * (1.0 + INFLATION_BUDGET))
            .min_by(|a, b| cost(a).total_cmp(&cost(b)));
        match best {
            Some(s) => println!(
                "{:>11.0}% {:>15} {:>10.2} {:>10.1} {:>10.1} {:>9.1}% {:>7.0}%",
                compression * 100.0,
                s.job.decoder.to_string(),
                cost(s),
                s.mean_cycles,
                ideal.mean_cycles,
                (s.mean_cycles / ideal.mean_cycles - 1.0) * 100.0,
                s.stall_fraction * 100.0
            ),
            None => println!(
                "{:>11.0}% {:>15}    no candidate within +{:.0}% of ideal ({:.1} cy)",
                compression * 100.0,
                "(none)",
                INFLATION_BUDGET * 100.0,
                ideal.mean_cycles
            ),
        }
    }

    // The co-design story: how much decode bandwidth each fabric needs.
    println!("\nmakespan inflation over ideal (rows = compression):");
    print!("{:>12}", "");
    for d in decoders.iter().skip(1) {
        print!(" {d:>14}");
    }
    println!();
    for &compression in &compressions {
        let ideal_cy = at(compression)
            .find(|s| s.job.config.decoder.kind == DecoderKind::Ideal)
            .map(|s| s.mean_cycles)
            .unwrap_or(f64::NAN);
        print!("{:>11.0}%", compression * 100.0);
        for d in decoders.iter().skip(1) {
            match at(compression).find(|s| s.job.decoder.to_string() == *d) {
                Some(s) => print!(" {:>13.1}%", (s.mean_cycles / ideal_cy - 1.0) * 100.0),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}
