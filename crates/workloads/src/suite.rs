//! The Table 3 benchmark registry: every row of the paper's benchmark table
//! with its suite, qubit count and published gate counts, plus name-based
//! generation.

use crate::families;
use rescq_circuit::Circuit;
use std::fmt;

/// Which benchmark suite a circuit comes from (Table 3's first column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// QASMBench "large".
    Large,
    /// QASMBench "medium".
    Medium,
    /// SupermarQ.
    Supermarq,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Large => "large",
            Suite::Medium => "medium",
            Suite::Supermarq => "supermarq",
        };
        f.write_str(s)
    }
}

/// The generator family of a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// 1-D transverse-field Ising Trotter step.
    Ising,
    /// Shift-and-add binary multiplier.
    Multiplier,
    /// (Approximate) quantum Fourier transform.
    Qft,
    /// Quantum GAN ansatz.
    Qugan,
    /// Generator-coordinate-method chemistry circuit.
    Gcm,
    /// Quantum neural network.
    Dnn,
    /// W-state preparation chain.
    Wstate,
    /// SupermarQ Hamiltonian simulation.
    HamiltonianSimulation,
    /// SupermarQ QAOA with fermionic swap network.
    QaoaFermionicSwap,
    /// SupermarQ vanilla QAOA.
    QaoaVanilla,
    /// SupermarQ VQE ansatz.
    Vqe,
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Canonical name, e.g. `"ising_n34"`.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Generator family.
    pub family: Family,
    /// Number of qubits.
    pub qubits: u32,
    /// `#Rz` column of Table 3.
    pub paper_rz: usize,
    /// `#CNOT` column of Table 3.
    pub paper_cnot: usize,
    /// Whether our generator reproduces the counts exactly.
    pub exact: bool,
}

impl BenchmarkSpec {
    /// Generates the circuit with the given seed (angles are seeded; the
    /// structure is fixed).
    pub fn generate(&self, seed: u64) -> Circuit {
        let n = self.qubits;
        match self.family {
            Family::Ising => families::ising::generate(n, seed),
            Family::Multiplier => families::multiplier::generate(n, seed),
            Family::Qft => families::qft::generate(n, seed),
            Family::Qugan => families::qugan::generate(n, seed),
            Family::Gcm => families::gcm::generate(n, seed),
            Family::Dnn => families::dnn::generate(n, seed),
            Family::Wstate => families::wstate::generate(n, seed),
            Family::HamiltonianSimulation => families::hamiltonian_simulation::generate(n, seed),
            Family::QaoaFermionicSwap => families::qaoa_fermionic_swap::generate(n, seed),
            Family::QaoaVanilla => families::qaoa_vanilla::generate(n, seed),
            Family::Vqe => families::vqe::generate(n, seed),
        }
    }

    /// Paper's Rz-to-CNOT density (what §5.2 selects representatives by).
    pub fn rz_per_cnot(&self) -> f64 {
        self.paper_rz as f64 / self.paper_cnot.max(1) as f64
    }
}

macro_rules! spec {
    ($name:literal, $suite:ident, $family:ident, $q:literal, $rz:literal, $cnot:literal, $exact:literal) => {
        BenchmarkSpec {
            name: $name,
            suite: Suite::$suite,
            family: Family::$family,
            qubits: $q,
            paper_rz: $rz,
            paper_cnot: $cnot,
            exact: $exact,
        }
    };
}

/// Every row of Table 3, in the paper's order.
pub const ALL_BENCHMARKS: &[BenchmarkSpec] = &[
    spec!("ising_n34", Large, Ising, 34, 83, 66, true),
    spec!("ising_n42", Large, Ising, 42, 103, 82, true),
    spec!("ising_n66", Large, Ising, 66, 163, 130, true),
    spec!("ising_n98", Large, Ising, 98, 243, 194, true),
    spec!("ising_n420", Large, Ising, 420, 1048, 838, true),
    spec!("multiplier_n45", Large, Multiplier, 45, 2237, 2286, false),
    spec!("multiplier_n75", Large, Multiplier, 75, 6384, 6510, false),
    spec!("qft_n29", Large, Qft, 29, 708, 680, true),
    spec!("qft_n63", Large, Qft, 63, 1898, 1836, true),
    spec!("qft_n160", Large, Qft, 160, 5293, 5134, true),
    spec!("qugan_n39", Large, Qugan, 39, 411, 296, true),
    spec!("qugan_n71", Large, Qugan, 71, 763, 552, true),
    spec!("qugan_n111", Large, Qugan, 111, 1203, 872, true),
    spec!("gcm_n13", Medium, Gcm, 13, 1528, 762, true),
    spec!("dnn_n16", Medium, Dnn, 16, 2432, 384, true),
    spec!("qft_n18", Medium, Qft, 18, 323, 306, true),
    spec!("wstate_n27", Medium, Wstate, 27, 156, 52, true),
    spec!(
        "HamiltonianSimulation_n25",
        Supermarq,
        HamiltonianSimulation,
        25,
        49,
        48,
        true
    ),
    spec!(
        "HamiltonianSimulation_n50",
        Supermarq,
        HamiltonianSimulation,
        50,
        99,
        98,
        true
    ),
    spec!(
        "HamiltonianSimulation_n75",
        Supermarq,
        HamiltonianSimulation,
        75,
        149,
        148,
        true
    ),
    spec!(
        "QAOAFermionicSwap_n15",
        Supermarq,
        QaoaFermionicSwap,
        15,
        120,
        315,
        true
    ),
    spec!(
        "QAOAVanilla_n15",
        Supermarq,
        QaoaVanilla,
        15,
        120,
        210,
        true
    ),
    spec!("VQE_n13", Supermarq, Vqe, 13, 78, 12, true),
];

/// The three representative benchmarks of §5.2, chosen for their Rz density
/// (dnn ≈ 6 Rz/CNOT, gcm ≈ 2, qft_n160 ≈ 1 — and qft_n160 for scale).
pub const REPRESENTATIVE: &[&str] = &["dnn_n16", "gcm_n13", "qft_n160"];

/// Looks a benchmark up by name.
pub fn find(name: &str) -> Option<&'static BenchmarkSpec> {
    ALL_BENCHMARKS.iter().find(|b| b.name == name)
}

/// Generates a benchmark by name.
///
/// Besides the Table 3 rows, two synthetic scenario families are
/// recognised: `decoder_stress_nN` (any qubit count `N ≥ 2`, exercises the
/// classical-decoder back-pressure) and `factory_nN` (any `N ≥ 4`, T-gate
/// factory tiles feeding a compute block — exercises ancilla contention
/// between rotation pipelines and compute).
///
/// # Example
///
/// ```
/// let c = rescq_workloads::generate("wstate_n27", 1).unwrap();
/// assert_eq!(c.num_qubits(), 27);
/// assert_eq!(c.stats().rz, 156);
///
/// let stress = rescq_workloads::generate("decoder_stress_n16", 1).unwrap();
/// assert_eq!(stress.num_qubits(), 16);
///
/// let factory = rescq_workloads::generate("factory_n12", 1).unwrap();
/// assert_eq!(factory.num_qubits(), 12);
/// ```
pub fn generate(name: &str, seed: u64) -> Option<Circuit> {
    if let Some(n) = name.strip_prefix("decoder_stress_n") {
        let n: u32 = n.parse().ok()?;
        if n >= 2 {
            return Some(families::decoder_stress::generate(n, seed));
        }
        return None;
    }
    if let Some(n) = name.strip_prefix("factory_n") {
        let n: u32 = n.parse().ok()?;
        if n >= 4 {
            return Some(families::factory::generate(n, seed));
        }
        return None;
    }
    find(name).map(|spec| spec.generate(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_23_rows() {
        assert_eq!(ALL_BENCHMARKS.len(), 23);
        assert_eq!(
            ALL_BENCHMARKS
                .iter()
                .filter(|b| b.suite == Suite::Large)
                .count(),
            13
        );
        assert_eq!(
            ALL_BENCHMARKS
                .iter()
                .filter(|b| b.suite == Suite::Medium)
                .count(),
            4
        );
        assert_eq!(
            ALL_BENCHMARKS
                .iter()
                .filter(|b| b.suite == Suite::Supermarq)
                .count(),
            6
        );
    }

    #[test]
    fn exact_rows_match_table3() {
        for spec in ALL_BENCHMARKS.iter().filter(|b| b.exact) {
            let stats = spec.generate(1).stats();
            assert_eq!(
                (stats.rz, stats.cnot),
                (spec.paper_rz, spec.paper_cnot),
                "{} deviates from Table 3",
                spec.name
            );
        }
    }

    #[test]
    fn inexact_rows_within_tolerance() {
        for spec in ALL_BENCHMARKS.iter().filter(|b| !b.exact) {
            let stats = spec.generate(1).stats();
            let rz_dev = (stats.rz as f64 - spec.paper_rz as f64).abs() / spec.paper_rz as f64;
            let cnot_dev =
                (stats.cnot as f64 - spec.paper_cnot as f64).abs() / spec.paper_cnot as f64;
            assert!(
                rz_dev < 0.5 && cnot_dev < 0.5,
                "{}: rz dev {rz_dev:.2}, cnot dev {cnot_dev:.2}",
                spec.name
            );
        }
    }

    #[test]
    fn qubit_counts_match() {
        for spec in ALL_BENCHMARKS {
            let c = spec.generate(1);
            assert_eq!(c.num_qubits(), spec.qubits, "{}", spec.name);
        }
    }

    #[test]
    fn density_spread_covers_paper_range() {
        // §5.1: "these benchmarks span a large range of Rz-to-CNOT ratios
        // (≈1 to ≈6.5)".
        let min = ALL_BENCHMARKS
            .iter()
            .map(|b| b.rz_per_cnot())
            .fold(f64::INFINITY, f64::min);
        let max = ALL_BENCHMARKS
            .iter()
            .map(|b| b.rz_per_cnot())
            .fold(0.0, f64::max);
        assert!(min < 1.1, "min density {min}");
        assert!(max > 6.0, "max density {max}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(find("dnn_n16").is_some());
        assert!(find("nope_n1").is_none());
        assert!(generate("VQE_n13", 2).is_some());
        for name in REPRESENTATIVE {
            assert!(find(name).is_some());
        }
    }

    #[test]
    fn decoder_stress_names_generate() {
        let c = generate("decoder_stress_n12", 3).unwrap();
        assert_eq!(c.num_qubits(), 12);
        assert!(generate("decoder_stress_n1", 1).is_none());
        assert!(generate("decoder_stress_nx", 1).is_none());
        // The scenario family is synthetic: it must not leak into Table 3.
        assert!(find("decoder_stress_n12").is_none());
    }

    #[test]
    fn factory_names_generate() {
        let c = generate("factory_n16", 3).unwrap();
        assert_eq!(c.num_qubits(), 16);
        assert!(c.stats().rz > 0 && c.stats().cnot > 0);
        assert!(generate("factory_n3", 1).is_none());
        assert!(generate("factory_nx", 1).is_none());
        assert!(find("factory_n16").is_none(), "synthetic, not Table 3");
    }
}
