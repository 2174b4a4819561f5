//! Figure 15: example 8-qubit grids at each compression level.

use rescq_bench::experiments::fig15;
use rescq_bench::print_header;

fn main() {
    print_header(
        "Figure 15 — grids of 8 data qubits at different compressions",
        "D = data qubit, . = ancilla, blank = removed by compression",
    );
    for g in fig15().expect("fig 15 grids build") {
        println!(
            "requested {:.0}% → achieved {:.0}% (ancilla/data = {:.2}):",
            g.requested * 100.0,
            g.layout.compression() * 100.0,
            g.layout.ancilla_ratio()
        );
        println!("{}", g.layout.render_ascii());
    }
}
