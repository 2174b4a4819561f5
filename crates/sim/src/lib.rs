//! # rescq-sim
//!
//! The cycle-accurate, seeded symbolic execution engine of the RESCQ
//! reproduction: it executes a Clifford+Rz [`rescq_circuit::Circuit`] on a
//! STAR-architecture fabric under one of three schedulers (RESCQ, greedy,
//! AutoBraid — §5.1), modelling non-deterministic `|mθ⟩` preparation,
//! injection ladders, lattice-surgery routing congestion, edge rotations and
//! the classical MST recomputation pipeline.
//!
//! Entry points: [`simulate`] for one run, [`runner`] for multi-seed sweeps.
//!
//! # Quick example
//!
//! ```
//! use rescq_circuit::{Angle, Circuit};
//! use rescq_core::SchedulerKind;
//! use rescq_sim::{simulate, SimConfig};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cnot(0, 1).rz(1, Angle::radians(0.37));
//!
//! let rescq = simulate(&c, &SimConfig::builder().seed(7).build()).unwrap();
//! let greedy = simulate(
//!     &c,
//!     &SimConfig::builder().scheduler(SchedulerKind::Greedy).seed(7).build(),
//! )
//! .unwrap();
//! assert!(rescq.total_cycles() > 0.0 && greedy.total_cycles() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod activity;
pub mod artifacts;
mod config;
mod engine;
mod fabric;
mod metrics;
pub mod runner;

pub use artifacts::{build_layout, simulate_prepared, simulate_prepared_traced, SimArtifacts};
pub use config::{SimConfig, SimConfigBuilder};
pub use engine::{simulate, simulate_traced, simulate_with_cycle_probe, SimError};
pub use fabric::Fabric;
pub use metrics::{
    metrics_snapshot, reports_csv_row, ExecutionReport, LatencyHistogram, RunCounters,
    REPORTS_CSV_HEADER,
};
