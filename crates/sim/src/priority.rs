//! Priority-class policy for the realtime engine.
//!
//! The [`rescq_core::ReservationLedger`] arbitrates reorders by
//! [`rescq_core::TaskClass`]; this module decides *which* class each piece
//! of scheduled work carries when [`crate::SimConfig::priority_classes`]
//! is set:
//!
//! - **Factory** — work homed in a region hosting T-gate factory tiles
//!   (see [`factory_qubits`]): the rotation pipelines whose `|mθ⟩` output
//!   feeds the rest of the program. Keeping them fed is the point of the
//!   lattice, so they outrank everything by default.
//! - **Injection** — a continuous rotation whose predecessor gates were
//!   already complete when it was scheduled: its injection is the
//!   latency-critical feed-forward step.
//! - **Compute** — CNOT surgeries and Hadamards (and the default class of
//!   every entry, so class-blind runs are uniform-compute and bit-identical
//!   to the pre-lattice engine).
//! - **Speculative** — a rotation enqueued preemptively while its
//!   predecessors are still executing (§4.1's lookahead): it cannot consume
//!   a prepared state yet, so its claims yield to everyone.
//!
//! Classification is a pure function of the circuit and the fabric — never
//! of timing — so classed runs stay deterministic like everything else in
//! the engine.

use rescq_circuit::Circuit;

/// Minimum continuous rotations on a qubit's gate chain before it can count
/// as a factory tile.
const FACTORY_MIN_ROTATIONS: usize = 8;

/// Required dominance of rotations over two-qubit gate endpoints on a
/// factory tile's chain (`rz ≥ RATIO × cnot_endpoints`).
const FACTORY_RZ_PER_CNOT: usize = 4;

/// Classifies the circuit's qubits as T-gate factory tiles.
///
/// A qubit is a factory tile when its gate chain is dominated by
/// continuous-angle rotations — a repeat-until-success state-production
/// pipeline — rather than by two-qubit compute: at least
/// `FACTORY_MIN_ROTATIONS` (8) continuous rotations, and at least
/// `FACTORY_RZ_PER_CNOT` (4) of them per CNOT endpoint on the chain. The
/// `factory_nN` workload family's factory tiles satisfy this by
/// construction; dense compute blocks (CNOT brickwork with sparse
/// rotations) never do.
///
/// Deterministic function of the circuit alone.
///
/// # Example
///
/// ```
/// use rescq_circuit::{Angle, Circuit};
///
/// let mut c = Circuit::new(2);
/// for _ in 0..10 {
///     c.rz(0, Angle::radians(0.3)); // qubit 0: a T-production pipeline
/// }
/// c.cnot(0, 1); // qubit 1 only consumes
/// assert_eq!(rescq_sim::factory_qubits(&c), vec![true, false]);
/// ```
pub fn factory_qubits(circuit: &Circuit) -> Vec<bool> {
    let n = circuit.num_qubits() as usize;
    let mut rz = vec![0usize; n];
    let mut cnot = vec![0usize; n];
    for gate in circuit.gates() {
        match gate {
            rescq_circuit::Gate::Rz { qubit, .. } if gate.is_continuous_rotation() => {
                rz[qubit.index()] += 1;
            }
            rescq_circuit::Gate::Cnot { control, target } => {
                cnot[control.index()] += 1;
                cnot[target.index()] += 1;
            }
            _ => {}
        }
    }
    (0..n)
        .map(|q| rz[q] >= FACTORY_MIN_ROTATIONS && rz[q] >= FACTORY_RZ_PER_CNOT * cnot[q])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescq_circuit::Angle;

    #[test]
    fn rotation_pipelines_are_factory_compute_blocks_are_not() {
        let mut c = Circuit::new(3);
        // Qubit 0: a T-production pipeline — many rotations, one delivery
        // CNOT. Qubits 1, 2: compute block.
        for _ in 0..10 {
            c.rz(0, Angle::radians(0.3));
        }
        c.cnot(0, 1);
        for _ in 0..6 {
            c.cnot(1, 2);
        }
        c.rz(1, Angle::radians(0.2));
        assert_eq!(factory_qubits(&c), vec![true, false, false]);
    }

    #[test]
    fn clifford_rotations_do_not_count() {
        let mut c = Circuit::new(1);
        for _ in 0..20 {
            c.rz(0, Angle::S); // Clifford: no |mθ⟩ pipeline
        }
        assert_eq!(factory_qubits(&c), vec![false]);
    }

    #[test]
    fn short_chains_are_never_factory() {
        let mut c = Circuit::new(1);
        for _ in 0..FACTORY_MIN_ROTATIONS - 1 {
            c.rz(0, Angle::radians(0.1));
        }
        assert_eq!(factory_qubits(&c), vec![false]);
    }
}
