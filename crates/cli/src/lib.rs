//! # rescq-cli
//!
//! Library side of the `sim` binary: flag checking ([`flags`]) and the
//! output helpers ([`output`]). The binary mirrors the paper artifact's
//! workflow: a sweep spec (or a Table 3 benchmark name) in, a summary plus
//! optional CSV out, with subcommands regenerating each figure.

#![warn(missing_docs)]

pub mod flags;
pub mod output;
