//! Shareable, immutable simulation artifacts.
//!
//! Parameter sweeps run the same circuit on the same fabric geometry many
//! times (different seeds, schedulers, decoder models). The expensive,
//! *deterministic* pieces of a run — the parsed [`Circuit`], its
//! [`DependencyDag`], the (possibly compressed) [`Layout`] and its dense
//! [`AncillaGraph`] — never change across those runs, so they are bundled
//! here behind [`Arc`]s and shared read-only between any number of
//! concurrent simulations (see `rescq-harness` for the sweep orchestrator
//! that caches them content-addressed).
//!
//! [`simulate`](crate::simulate) remains the one-shot entry point and builds
//! a fresh bundle per call; [`simulate_prepared`]
//! skips straight to the engines.

use crate::engine::run_with_artifacts;
use crate::metrics::ExecutionReport;
use crate::{SimConfig, SimError};
use rescq_circuit::{Circuit, DependencyDag};
use rescq_lattice::{AncillaGraph, Layout};
use std::sync::Arc;

/// The immutable inputs of a simulation run, shareable across threads.
///
/// All four pieces are functions of `(circuit, config)` alone: building them
/// through [`SimArtifacts::prepare`] and running with
/// [`simulate_prepared`] is bit-identical to
/// calling [`simulate`](crate::simulate) directly.
#[derive(Debug, Clone)]
pub struct SimArtifacts {
    /// The circuit to execute.
    pub circuit: Arc<Circuit>,
    /// Its gate-dependency DAG (layers, qubit chains, remaining depth).
    pub dag: Arc<DependencyDag>,
    /// The compressed fabric layout the configuration describes.
    pub layout: Arc<Layout>,
    /// The dense-indexed ancilla routing graph over that layout.
    pub graph: Arc<AncillaGraph>,
}

impl SimArtifacts {
    /// Builds every artifact fresh from a circuit and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInput`] on empty circuits or unroutable
    /// layouts.
    pub fn prepare(circuit: Arc<Circuit>, config: &SimConfig) -> Result<Self, SimError> {
        let dag = Arc::new(DependencyDag::new(&circuit));
        let layout = Arc::new(build_layout(circuit.num_qubits(), config)?);
        let graph = Arc::new(AncillaGraph::from_grid(layout.grid()));
        Ok(SimArtifacts {
            circuit,
            dag,
            layout,
            graph,
        })
    }

    /// Assembles a bundle from independently cached pieces (the harness
    /// caches circuit/DAG and layout/graph under different keys because a
    /// layout is shared by every circuit of the same width).
    pub fn assemble(
        circuit: Arc<Circuit>,
        dag: Arc<DependencyDag>,
        layout: Arc<Layout>,
        graph: Arc<AncillaGraph>,
    ) -> Self {
        SimArtifacts {
            circuit,
            dag,
            layout,
            graph,
        }
    }

    /// Checks the bundle is internally consistent: circuit/layout widths
    /// agree, the DAG covers exactly the circuit's gates, and the routing
    /// graph indexes exactly the layout's ancillas.
    fn validate(&self) -> Result<(), SimError> {
        if self.circuit.num_qubits() == 0 {
            return Err(SimError::BadInput("circuit has no qubits".into()));
        }
        if self.layout.num_qubits() != self.circuit.num_qubits() {
            return Err(SimError::BadInput(format!(
                "layout hosts {} qubits but circuit has {}",
                self.layout.num_qubits(),
                self.circuit.num_qubits()
            )));
        }
        if self.dag.len() != self.circuit.len() {
            return Err(SimError::BadInput(format!(
                "DAG covers {} gates but circuit has {} (DAG built from a different circuit?)",
                self.dag.len(),
                self.circuit.len()
            )));
        }
        if self.graph.len() != self.layout.ancilla_tiles().len() {
            return Err(SimError::BadInput(format!(
                "routing graph indexes {} ancillas but layout has {} (graph built from a different layout?)",
                self.graph.len(),
                self.layout.ancilla_tiles().len()
            )));
        }
        Ok(())
    }
}

/// Seed of §5.3's compression order. It is fixed, independent of the run
/// seed, so every scheduler and seed sees the same compressed grid.
pub const COMPRESSION_SEED: u64 = 0xC0FFEE;

/// Builds the (possibly compressed) 2×2 STAR layout for `num_qubits` data
/// qubits at the configuration's compression fraction, compressed with
/// [`COMPRESSION_SEED`].
///
/// # Errors
///
/// Returns [`SimError::BadInput`] when the layout cannot host the qubits or
/// compression leaves it unroutable.
pub fn build_layout(num_qubits: u32, config: &SimConfig) -> Result<Layout, SimError> {
    if num_qubits == 0 {
        return Err(SimError::BadInput("circuit has no qubits".into()));
    }
    let mut layout = Layout::new(num_qubits).map_err(|e| SimError::BadInput(e.to_string()))?;
    if config.compression > 0.0 {
        layout.compress(config.compression, COMPRESSION_SEED);
    }
    if !layout.is_routable() {
        return Err(SimError::BadInput("layout is not routable".into()));
    }
    Ok(layout)
}

/// Runs one seeded simulation over pre-built shared artifacts.
///
/// Bit-identical to [`simulate`](crate::simulate) on the same
/// `(circuit, config)` pair: the artifacts carry no run state, only
/// deterministic derived structure.
///
/// # Errors
///
/// Returns [`SimError`] on artifact/config mismatch or any engine error.
pub fn simulate_prepared(
    artifacts: &SimArtifacts,
    config: &SimConfig,
) -> Result<ExecutionReport, SimError> {
    simulate_prepared_traced(artifacts, config, None)
}

/// [`simulate_prepared`] with an optional structured-trace
/// [`Recorder`](rescq_telemetry::Recorder) attached (see
/// [`simulate_traced`](crate::simulate_traced) for the tracing contract:
/// recorders observe, they never perturb the schedule).
///
/// # Errors
///
/// Same as [`simulate_prepared`].
pub fn simulate_prepared_traced(
    artifacts: &SimArtifacts,
    config: &SimConfig,
    recorder: Option<&dyn rescq_telemetry::Recorder>,
) -> Result<ExecutionReport, SimError> {
    artifacts.validate()?;
    run_with_artifacts(artifacts, config, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use rescq_circuit::Angle;

    fn circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0)
            .cnot(0, 1)
            .rz(1, Angle::radians(0.3))
            .cnot(2, 3)
            .rz(3, Angle::T);
        c
    }

    #[test]
    fn prepared_run_matches_one_shot() {
        let c = circuit();
        for compression in [0.0, 0.5] {
            for scheduler in rescq_core::SchedulerKind::ALL {
                let cfg = SimConfig::builder()
                    .scheduler(scheduler)
                    .compression(compression)
                    .seed(9)
                    .build();
                let art = SimArtifacts::prepare(Arc::new(c.clone()), &cfg).unwrap();
                let shared = simulate_prepared(&art, &cfg).unwrap();
                let fresh = simulate(&c, &cfg).unwrap();
                assert_eq!(shared, fresh, "{scheduler} at {compression}");
            }
        }
    }

    #[test]
    fn artifacts_shared_across_seeds() {
        let c = circuit();
        let cfg = SimConfig::default();
        let art = SimArtifacts::prepare(Arc::new(c.clone()), &cfg).unwrap();
        for seed in 1..4 {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            let shared = simulate_prepared(&art, &cfg).unwrap();
            assert_eq!(shared, simulate(&c, &cfg).unwrap());
        }
    }

    #[test]
    fn mismatched_artifacts_rejected() {
        let cfg = SimConfig::default();
        let art = SimArtifacts::prepare(Arc::new(circuit()), &cfg).unwrap();
        // Wrong width.
        let mut small = Circuit::new(2);
        small.h(0).cnot(0, 1);
        let wrong_width = SimArtifacts::assemble(
            Arc::new(small),
            art.dag.clone(),
            art.layout.clone(),
            art.graph.clone(),
        );
        assert!(matches!(
            simulate_prepared(&wrong_width, &cfg),
            Err(SimError::BadInput(_))
        ));
        // Same width, different gate count: the DAG belongs to another circuit.
        let mut other = circuit();
        other.h(2);
        let wrong_dag = SimArtifacts::assemble(
            Arc::new(other),
            art.dag.clone(),
            art.layout.clone(),
            art.graph.clone(),
        );
        assert!(matches!(
            simulate_prepared(&wrong_dag, &cfg),
            Err(SimError::BadInput(_))
        ));
        // Graph built from a differently compressed layout of equal width.
        let compressed = SimConfig::builder().compression(1.0).build();
        let other_art = SimArtifacts::prepare(Arc::new(circuit()), &compressed).unwrap();
        let wrong_graph = SimArtifacts::assemble(
            art.circuit.clone(),
            art.dag.clone(),
            art.layout.clone(),
            other_art.graph.clone(),
        );
        assert!(matches!(
            simulate_prepared(&wrong_graph, &cfg),
            Err(SimError::BadInput(_))
        ));
    }
}
