//! # rescq-bench
//!
//! Experiment drivers regenerating every table and figure of the RESCQ
//! paper ([`experiments`]), plus the micro-benchmarks in `benches/`. The
//! `sim` CLI prints each result through [`experiments::render`]: `sim fig
//! <id> [--full]` or `sim table3` (the README's "Regenerating the paper's
//! figures" section lists them).

#![warn(missing_docs)]

pub mod experiments;
