//! # rescq-bench
//!
//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the RESCQ paper. The actual experiments live in `benches/` (one
//! file per table or figure; the README's "Regenerating the paper's figures"
//! section shows how to run them); this library provides the common
//! formatting and sizing utilities they share.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{bench_scale, print_header, print_row, BenchScale};
