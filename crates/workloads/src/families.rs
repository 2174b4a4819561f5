//! The benchmark families of Table 3, regenerated from their mathematical
//! definitions (QASMBench sources are not vendored).
//!
//! Families marked *exact* reproduce the paper's `#Rz` / `#CNOT` columns
//! gate-for-gate; the rest are structurally faithful and calibrated to the
//! table (the `table3` bench prints paper vs generated counts side by side).

use crate::common::{rx, rzz, u3_block, AngleStream};
use rescq_circuit::{transpile, Angle, Circuit};

/// 1-D transverse-field Ising Trotter step (`ising_nN`, exact).
///
/// One step: `Rzz` on each of the `n−1` bonds (2 CNOT + 1 Rz each), an `Rx`
/// on every qubit, and a longitudinal `Rz` tail on `n/2 − 1` qubits — the
/// merged-rotation shape Qiskit produces, totalling `⌈1.5n⌉ − 1 + (n−1)` Rz
/// and `2(n−1)` CNOTs, matching Table 3 for every listed size.
pub mod ising {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0x1516);
        // Transverse field.
        for q in 0..n {
            rx(&mut c, q, angles.next_angle());
        }
        // Brickwork bonds: even bonds then odd bonds (largely parallel).
        for parity in 0..2 {
            for q in (parity..n.saturating_sub(1)).step_by(2) {
                rzz(&mut c, q, q + 1, angles.next_angle());
            }
        }
        // Longitudinal tail after rotation merging.
        let tail = (3 * n as usize).div_ceil(2) - 1 - n as usize;
        for q in 0..tail as u32 {
            c.rz(q, angles.next_angle());
        }
        c
    }
}

/// Approximate quantum Fourier transform (`qft_nN`, exact).
///
/// Reverse-engineered from Table 3: the QASMBench "large" QFTs are
/// *approximate* QFTs keeping controlled phases up to neighbour distance 17
/// (`CNOT = 2·Σᵢ min(n−1−i, 17)`, `Rz = 2·ΣCP + (n−1)`); `qft_n18` is the
/// full transform. Angles are exact dyadic `π/2^dist`, so the deeper
/// rotations terminate their RUS ladders early — observable in Fig 5.
pub mod qft {
    use super::*;

    /// Neighbour-distance cutoff of the QASMBench approximate QFT.
    pub const APPROX_CUTOFF: u32 = 17;

    /// Generates the circuit.
    pub fn generate(n: u32, _seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            let max_dist = (n - 1 - i).min(APPROX_CUTOFF);
            for dist in 1..=max_dist {
                let j = i + dist;
                // Merged controlled-phase: 2 Rz + 2 CNOT (Qiskit's form after
                // adjacent-rotation merging).
                let half = Angle::dyadic_pi(1, dist + 1);
                c.rz(j, half);
                c.cnot(j, i);
                c.rz(i, transpile::negate(half));
                c.cnot(j, i);
            }
        }
        // Residual merged phases: one per qubit except the last.
        for i in 0..n - 1 {
            c.rz(i, Angle::dyadic_pi(1, (n - 1 - i).min(APPROX_CUTOFF) + 1));
        }
        c
    }
}

/// W-state preparation (`wstate_nN`, exact).
///
/// A sequential chain of `n−1` controlled-rotation blocks, each lowering into
/// 6 Rz + 2 CNOT (+4 H): `Rz = 6(n−1)`, `CNOT = 2(n−1)` — Table 3's
/// `wstate_n27` row (156, 52). The rotation angles are the exact W-state
/// amplitudes `θᵢ = 2·acos(√(1/(n−i)))`.
pub mod wstate {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, _seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        c.x(n - 1);
        for i in 0..n - 1 {
            let frac = 1.0 / (n - i) as f64;
            let theta = 2.0 * frac.sqrt().acos();
            let (ctl, tgt) = (n - 1 - i, n - 2 - i);
            // Controlled-Ry lowered to the 6-rotation form.
            for half in [theta / 2.0, -theta / 2.0] {
                c.rz(tgt, Angle::radians(half / 2.0));
                c.h(tgt);
                c.rz(tgt, Angle::radians(half));
                c.h(tgt);
                c.rz(tgt, Angle::radians(-half / 2.0));
                c.cnot(ctl, tgt);
            }
        }
        c
    }
}

/// SupermarQ Hamiltonian simulation (`HamiltonianSimulation_nN`, exact).
///
/// One TFIM Trotter step: `Rx` per qubit and `Rzz` per bond —
/// `Rz = 2n − 1`, `CNOT = 2(n−1)`.
pub mod hamiltonian_simulation {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0x4a5);
        for q in 0..n {
            rx(&mut c, q, angles.next_angle());
        }
        for q in 0..n - 1 {
            rzz(&mut c, q, q + 1, angles.next_angle());
        }
        c
    }
}

/// SupermarQ vanilla QAOA on the complete graph (`QAOAVanilla_n15`, exact).
///
/// p = 1: `Rzz` per edge of K_n (`2·C(n,2)` CNOTs) plus the `Rx` mixer —
/// `Rz = C(n,2) + n`, `CNOT = 2·C(n,2)`.
pub mod qaoa_vanilla {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0x9a0a);
        for q in 0..n {
            c.h(q);
        }
        for a in 0..n {
            for b in a + 1..n {
                rzz(&mut c, a, b, angles.next_angle());
            }
        }
        for q in 0..n {
            rx(&mut c, q, angles.next_angle());
        }
        c
    }
}

/// SupermarQ QAOA with a fermionic swap network (`QAOAFermionicSwap_n15`,
/// exact).
///
/// The swap network fuses each ZZ interaction with a SWAP into 3 CNOTs +
/// 1 Rz; after `C(n,2)` layers every pair has interacted —
/// `CNOT = 3·C(n,2)`, `Rz = C(n,2) + n` (with the mixer).
pub mod qaoa_fermionic_swap {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0xfe55);
        for q in 0..n {
            c.h(q);
        }
        // Odd-even transposition network: n rounds of alternating-parity
        // fused ZZ+SWAP blocks = C(n,2) blocks in total.
        for round in 0..n {
            for a in ((round % 2)..n - 1).step_by(2) {
                let b = a + 1;
                c.cnot(a, b);
                c.rz(b, angles.next_angle());
                c.cnot(b, a);
                c.cnot(a, b);
            }
        }
        for q in 0..n {
            rx(&mut c, q, angles.next_angle());
        }
        c
    }
}

/// SupermarQ VQE ansatz (`VQE_n13`, exact).
///
/// Two dense single-qubit rotation layers (3 Rz each) around one CNOT chain:
/// `Rz = 6n`, `CNOT = n − 1`.
pub mod vqe {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0xe0e);
        for q in 0..n {
            u3_block(&mut c, q, &mut angles);
        }
        for q in 0..n - 1 {
            c.cnot(q, q + 1);
        }
        for q in 0..n {
            u3_block(&mut c, q, &mut angles);
        }
        c
    }
}

/// QASMBench `gcm_n13` (calibrated): generator-coordinate-method chemistry
/// circuit — 381 two-qubit Pauli-evolution terms of 4 Rz + 2 CNOT each plus a
/// 4-rotation state-prep layer: `Rz = 1528`, `CNOT = 762`, exactly the table.
pub mod gcm {
    use super::*;

    /// Number of two-qubit evolution terms in the n=13 instance.
    const TERMS: usize = 381;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0x6c3);
        for q in 0..4.min(n) {
            c.rz(q, angles.next_angle());
        }
        for _ in 0..TERMS {
            let (a, b) = angles.next_pair(n);
            c.rz(a, angles.next_angle());
            c.rz(b, angles.next_angle());
            c.cnot(a, b);
            c.rz(b, angles.next_angle());
            c.cnot(a, b);
            c.rz(b, angles.next_angle());
        }
        c
    }
}

/// QASMBench `dnn_n16` (calibrated): quantum neural network — an 8-rotation
/// encoding layer per qubit, then 24 layers of two dense rotation blocks per
/// qubit and a CNOT ring: `Rz = 2432`, `CNOT = 384`, exactly the table and
/// its ≈6.3 Rz-per-CNOT density (the highest of all benchmarks, §5.2).
pub mod dnn {
    use super::*;

    const LAYERS: u32 = 24;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0xd00);
        // Encoding: 8 rotations per qubit.
        for q in 0..n {
            u3_block(&mut c, q, &mut angles);
            c.rz(q, angles.next_angle());
            c.h(q);
            u3_block(&mut c, q, &mut angles);
            c.rz(q, angles.next_angle());
        }
        for _ in 0..LAYERS {
            for q in 0..n {
                u3_block(&mut c, q, &mut angles);
                u3_block(&mut c, q, &mut angles);
            }
            for q in 0..n {
                c.cnot(q, (q + 1) % n);
            }
        }
        c
    }
}

/// QASMBench `qugan_nN` (calibrated): quantum GAN generator/discriminator
/// ansatz — `n−2` two-qubit units of 11 Rz + 8 CNOT plus 4 prep rotations:
/// `Rz = 11(n−2) + 4`, `CNOT = 8(n−2)`, matching all three table rows.
pub mod qugan {
    use super::*;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0x6a9);
        for q in 0..4.min(n) {
            c.rz(q, angles.next_angle());
        }
        for i in 0..n - 2 {
            let (a, b) = (i, i + 1);
            // Two Ry-style rotations then four entangle-rotate rounds.
            c.rz(a, angles.next_angle());
            c.rz(b, angles.next_angle());
            for _ in 0..4 {
                c.cnot(a, b);
                c.rz(b, angles.next_angle());
                c.cnot(b, a);
                c.rz(a, angles.next_angle());
            }
            c.rz(b, angles.next_angle());
        }
        c
    }
}

/// QASMBench `multiplier_nN` (structural): a genuine shift-and-add binary
/// multiplier over `w`-bit inputs (`n = 4w + 1` qubits: two inputs, a
/// `2w`-bit product and a carry), built from Toffoli-decomposed controlled
/// ripple-carry adders and rotation-merged. Counts land near the table's
/// ≈1:1 Rz:CNOT ratio; the `table3` bench reports the deviation.
pub mod multiplier {
    use super::*;

    /// Input width for a requested qubit budget.
    pub fn width_for_qubits(n: u32) -> u32 {
        ((n.saturating_sub(1)) / 4).max(1)
    }

    /// Generates the circuit on exactly `n` qubits (extras stay idle).
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let w = width_for_qubits(n);
        let mut c = Circuit::new(n);
        let _ = seed;
        let a = |i: u32| i; // multiplicand bits
        let b = |i: u32| w + i; // multiplier bits
        let p = |i: u32| 2 * w + i; // product bits (2w)
        let carry = 4 * w; // single ancilla-as-data carry

        // Shift-and-add: for each multiplier bit b_j, controlled-add
        // (a << j) into the product using doubly-controlled MAJ/UMA blocks.
        for j in 0..w {
            for i in 0..w {
                // Partial-product AND into the carry slot, then ripple.
                transpile::toffoli(&mut c, a(i), b(j), carry);
                // Ripple the carry through product bit i+j.
                transpile::toffoli(&mut c, carry, p(i + j), p((i + j + 1).min(2 * w - 1)));
                c.cnot(carry, p(i + j));
                // Uncompute the AND.
                transpile::toffoli(&mut c, a(i), b(j), carry);
            }
        }
        transpile::merge_rotations(&c)
    }
}

/// Decoder-stress scenarios (`decoder_stress_nN`): bursty rotation layers.
///
/// Not a Table 3 family — a synthetic workload for the `rescq-decoder`
/// subsystem. Each burst fires a dense volley of generic rotations on every
/// qubit (each a feed-forward injection whose syndrome window lands on the
/// classical decoder at nearly the same time), followed by a quiet
/// entangling stretch during which a backlogged decoder can drain. Sweeping
/// decoder throughput against this family separates the decoder-limited
/// regime from the preparation-limited one.
pub mod decoder_stress {
    use super::*;

    /// Rotation layers per burst.
    pub const BURST_LAYERS: u32 = 3;
    /// Burst/quiet periods in the circuit.
    pub const BURSTS: u32 = 4;

    /// Generates the circuit.
    pub fn generate(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0xDEC0DE);
        for _ in 0..BURSTS {
            // Burst: every qubit rotates BURST_LAYERS times back to back —
            // n × BURST_LAYERS injection outcomes hit the decoder together.
            for _ in 0..BURST_LAYERS {
                for q in 0..n {
                    c.rz(q, angles.next_angle());
                }
            }
            // Quiet stretch: a Clifford-only entangling brickwork that
            // produces no feed-forward windows at all.
            for parity in 0..2 {
                for q in (parity..n.saturating_sub(1)).step_by(2) {
                    c.cnot(q, q + 1);
                }
            }
            for q in 0..n {
                c.h(q);
            }
        }
        c
    }
}

/// T-gate factory scenarios (`factory_nN`): rotation-pipeline tiles feeding
/// a logical compute block.
///
/// Not a Table 3 family — a synthetic workload for ancilla contention
/// between rotation pipelines and logical compute. The first [`factory::factory_count`]
/// qubits are *factory tiles*: each runs a long chain of continuous-angle
/// rotations (a repeat-until-success `|mθ⟩`/T-state production pipeline)
/// and periodically delivers its output into the compute block through a
/// CNOT. The remaining qubits are the *compute block*: an entangling CNOT
/// brickwork with sparse rotations. The factory chains dominate the
/// critical path, and on contended fabrics older compute claims can stall
/// the pipelines, which exercises ledger preemption and the stall breaker.
pub mod factory {
    use super::*;

    /// Rotation-burst length per factory tile per round (chosen so factory
    /// chains dominate their tiles: ≥ 4 rotations per delivery CNOT).
    pub const BURST: u32 = 4;
    /// Production/delivery rounds in the circuit.
    pub const ROUNDS: u32 = 4;

    /// Number of factory tiles for a requested qubit budget (the rest is
    /// the compute block).
    pub fn factory_count(n: u32) -> u32 {
        (n / 4).max(2)
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (at least two factory tiles and two compute
    /// qubits are required).
    pub fn generate(n: u32, seed: u64) -> Circuit {
        assert!(n >= 4, "factory_nN needs n >= 4, got {n}");
        let f = factory_count(n);
        let compute = n - f;
        let mut c = Circuit::new(n);
        let mut angles = AngleStream::new(seed ^ 0xFAC7);
        for round in 0..ROUNDS {
            // Factory tiles: continuous-rotation pipelines, interleaved
            // across tiles so the production runs in parallel.
            for _ in 0..BURST {
                for k in 0..f {
                    c.rz(k, angles.next_angle());
                }
            }
            // Delivery: each tile hands its state to a compute consumer
            // (round-robin, so the whole block eventually depends on every
            // factory).
            for k in 0..f {
                let consumer = f + (round * f + k) % compute;
                c.cnot(k, consumer);
            }
            // Compute block: entangling brickwork plus a rotation layer —
            // plenty of ancilla demand and enough compute-side injection
            // pipelines to contend with the factories for prep ancillas
            // (each compute qubit stays far below a factory tile's rotation
            // dominance thanks to its CNOT endpoints).
            for parity in 0..2 {
                for q in ((f + parity)..n.saturating_sub(1)).step_by(2) {
                    c.cnot(q, q + 1);
                }
            }
            for q in f..n {
                c.rz(q, angles.next_angle());
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ising_counts_exact() {
        for (n, rz, cnot) in [
            (34, 83, 66),
            (42, 103, 82),
            (66, 163, 130),
            (98, 243, 194),
            (420, 1048, 838),
        ] {
            let c = ising::generate(n, 1);
            let s = c.stats();
            assert_eq!((s.rz, s.cnot), (rz, cnot), "ising_n{n}");
        }
    }

    #[test]
    fn qft_counts_exact() {
        for (n, rz, cnot) in [
            (29, 708, 680),
            (63, 1898, 1836),
            (160, 5293, 5134),
            (18, 323, 306),
        ] {
            let c = qft::generate(n, 1);
            let s = c.stats();
            assert_eq!((s.rz, s.cnot), (rz, cnot), "qft_n{n}");
        }
    }

    #[test]
    fn qft_angles_are_dyadic() {
        let c = qft::generate(10, 1);
        assert!(c
            .gates()
            .iter()
            .filter_map(|g| g.angle())
            .all(|a| a.is_dyadic()));
    }

    #[test]
    fn wstate_counts_exact() {
        let s = wstate::generate(27, 1).stats();
        assert_eq!((s.rz, s.cnot), (156, 52));
        // Largely sequential: depth close to gate count on the chain.
        let c = wstate::generate(27, 1);
        assert!(c.depth() > c.len() / 3);
    }

    #[test]
    fn hamiltonian_simulation_counts_exact() {
        for (n, rz, cnot) in [(25, 49, 48), (50, 99, 98), (75, 149, 148)] {
            let s = hamiltonian_simulation::generate(n, 1).stats();
            assert_eq!((s.rz, s.cnot), (rz, cnot), "HamiltonianSimulation_n{n}");
        }
    }

    #[test]
    fn qaoa_counts_exact() {
        let s = qaoa_vanilla::generate(15, 1).stats();
        assert_eq!((s.rz, s.cnot), (120, 210));
        let s = qaoa_fermionic_swap::generate(15, 1).stats();
        assert_eq!((s.rz, s.cnot), (120, 315));
    }

    #[test]
    fn vqe_counts_exact() {
        let s = vqe::generate(13, 1).stats();
        assert_eq!((s.rz, s.cnot), (78, 12));
    }

    #[test]
    fn gcm_counts_exact() {
        let s = gcm::generate(13, 1).stats();
        assert_eq!((s.rz, s.cnot), (1528, 762));
    }

    #[test]
    fn dnn_counts_exact() {
        let s = dnn::generate(16, 1).stats();
        assert_eq!((s.rz, s.cnot), (2432, 384));
    }

    #[test]
    fn qugan_counts_exact() {
        for (n, rz, cnot) in [(39, 411, 296), (71, 763, 552), (111, 1203, 872)] {
            let s = qugan::generate(n, 1).stats();
            assert_eq!((s.rz, s.cnot), (rz, cnot), "qugan_n{n}");
        }
    }

    #[test]
    fn multiplier_near_table_ratio() {
        // Structural generator: verify the ≈1:1 Rz:CNOT shape and magnitude.
        let s = multiplier::generate(45, 1).stats();
        let ratio = s.rz as f64 / s.cnot as f64;
        assert!(
            (0.6..=1.4).contains(&ratio),
            "multiplier ratio {ratio} (rz={}, cnot={})",
            s.rz,
            s.cnot
        );
        assert!(
            s.cnot > 1000,
            "multiplier_n45 should be sizeable: {}",
            s.cnot
        );
    }

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(gcm::generate(13, 7).gates(), gcm::generate(13, 7).gates());
        assert_ne!(gcm::generate(13, 7).gates(), gcm::generate(13, 8).gates());
    }

    #[test]
    fn factory_tiles_are_rotation_dominated() {
        let n = 12;
        let f = factory::factory_count(n);
        assert_eq!(f, 3);
        let c = factory::generate(n, 1);
        let mut rz = vec![0u32; n as usize];
        let mut cnot = vec![0u32; n as usize];
        for g in c.gates() {
            match g {
                rescq_circuit::Gate::Rz { qubit, .. } => rz[qubit.index()] += 1,
                rescq_circuit::Gate::Cnot { control, target } => {
                    cnot[control.index()] += 1;
                    cnot[target.index()] += 1;
                }
                _ => {}
            }
        }
        for q in 0..f as usize {
            // A factory tile has ≥8 rotations and ≥4 per CNOT endpoint; the
            // generator satisfies it by construction.
            assert!(rz[q] >= 8 && rz[q] >= 4 * cnot[q], "tile {q} not factory");
        }
        for q in f as usize..n as usize {
            assert!(
                rz[q] < 8 || rz[q] < 4 * cnot[q],
                "compute qubit {q} misclassified as factory"
            );
        }
        // Deterministic generation.
        assert_eq!(
            factory::generate(12, 5).gates(),
            factory::generate(12, 5).gates()
        );
        assert_ne!(
            factory::generate(12, 5).gates(),
            factory::generate(12, 6).gates()
        );
    }

    #[test]
    fn decoder_stress_is_bursty() {
        let c = decoder_stress::generate(8, 1);
        let s = c.stats();
        assert_eq!(
            s.rz as u32,
            8 * decoder_stress::BURST_LAYERS * decoder_stress::BURSTS
        );
        assert!(s.cnot > 0 && s.h > 0, "quiet stretches must entangle");
        assert_eq!(
            decoder_stress::generate(8, 1).gates(),
            decoder_stress::generate(8, 1).gates()
        );
    }
}
