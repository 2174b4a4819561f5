//! # rescq-harness
//!
//! Parallel sweep orchestration with shared artifact caching — the layer
//! between the simulation engines and every experiment entry point.
//!
//! Every figure of the RESCQ paper is a parameter sweep: workload × grid
//! compression × scheduler × decoder configuration × seeds. Run naively,
//! each point re-generates the circuit, re-derives its dependency DAG and
//! re-builds the fabric from scratch. This crate instead:
//!
//! 1. takes a declarative [`SweepSpec`] (parsed from a TOML-subset file or
//!    built in code) and expands its cartesian grid into a deterministic
//!    job list ([`SweepSpec::expand`]);
//! 2. executes the jobs on a pool of `std::thread::scope` workers pulling
//!    from a shared atomic queue ([`run_sweep`]), with a content-addressed
//!    [`ArtifactCache`] so each distinct circuit, DAG and fabric layout is
//!    built **once** and shared read-only (`Arc`) by every job that needs
//!    it;
//! 3. aggregates results deterministically — rows are ordered by job
//!    index, so CSV/JSON output is byte-identical whether the sweep ran on
//!    1 worker or 64 ([`SweepResults`]);
//! 4. checkpoints completed jobs to disk so a killed sweep resumes from
//!    where it stopped ([`RunOptions::checkpoint`]), keyed by a stable
//!    fingerprint over the job's full configuration and the circuit's
//!    content hash.
//!
//! # Quick example
//!
//! ```
//! use rescq_harness::{run_sweep, RunOptions, SweepSpec};
//!
//! let spec = SweepSpec::parse(
//!     r#"
//!     workloads    = ["decoder_stress_n4"]
//!     compressions = [0.0, 0.5]
//!     decoders     = ["ideal", "union_find:8"]
//!     seeds        = 2
//!     "#,
//! )
//! .unwrap();
//! let results = run_sweep(&spec, &RunOptions::with_threads(2)).unwrap();
//! assert_eq!(results.records.len(), 2 * 2 * 2);
//! // The four points over one workload shared a single circuit build.
//! assert_eq!(results.cache.circuit_builds, 1);
//! println!("{}", results.to_csv());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod checkpoint;
mod results;
mod run;
mod spec;

pub use cache::{ArtifactCache, CacheStats};
pub use checkpoint::{job_fingerprint, read_checkpoint_rows, Checkpoint};
pub use results::{
    csv_row, parse_csv_metrics, JobMetrics, JobRecord, PointSummary, SweepResults, COLUMNS,
    CSV_HEADER,
};
pub use run::{merge_checkpoints, run_sweep, HarnessError, ProgressMode, RunOptions, Shard};
pub use spec::{fmt_k, fmt_priority, DecoderPoint, JobSpec, SpecError, SweepSpec};
