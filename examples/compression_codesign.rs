//! Hardware/software co-design (paper §5.3): shrink the STAR grid from three
//! ancillas per data qubit towards one and watch how each scheduler copes.
//! Prints the Fig 15 grids and a Fig 14-style sweep.
//!
//! ```sh
//! cargo run --release --example compression_codesign
//! ```

use rescq_bench::experiments::{self, ExperimentScale};
use rescq_repro::core::SchedulerKind;
use rescq_repro::sim::runner::run_seeds;
use rescq_repro::sim::SimConfig;

fn main() {
    // Fig 15: what compression does to an 8-qubit fabric.
    print!(
        "{}",
        experiments::render("15", &ExperimentScale::reduced()).expect("fig 15 grids build")
    );

    // Fig 14: execution time under compression for a rotation-dense circuit.
    let circuit = rescq_repro::workloads::generate("gcm_n13", 1).expect("known benchmark");
    println!("gcm_n13 under compression (mean cycles over 3 seeds):");
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "compression", "greedy", "autobraid", "rescq"
    );
    for compression in [0.0, 0.25, 0.5, 0.75, 1.0] {
        print!("{:>11.0}%", compression * 100.0);
        for scheduler in SchedulerKind::ALL {
            let config = SimConfig::builder()
                .scheduler(scheduler)
                .compression(compression)
                .build();
            let summary = run_seeds(&circuit, &config, 1, 3, 3).expect("sweep runs");
            print!(" {:>10.0}", summary.mean_cycles());
        }
        println!();
    }
}
