//! # rescq-decoder
//!
//! A realtime classical-decoder subsystem for continuous-angle QEC
//! architectures. RESCQ's scheduler assumes the classical control stack keeps
//! up with the quantum substrate, but continuous-angle feed-forward is gated
//! on decoding: every `|mθ⟩` injection outcome must be decoded before the
//! correction ladder can be rewritten. This crate models that pipeline as a
//! first-class subsystem the simulation engines consult before committing
//! feed-forward decisions.
//!
//! Four [`DecoderModel`] implementations are provided:
//!
//! - [`IdealDecoder`] — zero latency; reproduces the original RESCQ results
//!   bit for bit (the default everywhere);
//! - [`FixedLatencyDecoder`] — a latency model with constant reaction
//!   latency plus a per-round decode cost, one sequential pipeline per tile
//!   (backlog accumulates when throughput < 1 syndrome round per wall-clock
//!   round);
//! - [`AdaptiveDecoder`] — a Triage-style adaptive parallel-window decoder:
//!   `W` workers drain a bounded syndrome ring buffer, and decode throughput
//!   scales with ring occupancy (the fuller the ring, the larger the batched
//!   decode windows and the better the amortized cost);
//! - [`UnionFindDecoder`] — a *real* union-find syndrome decoder: every
//!   window samples a seeded error configuration on the tile's
//!   [`DetectorGraph`] at the channel's physical error rate, decodes it
//!   with [`ClusterDsu`] cluster growth + peeling, folds the correction
//!   into a [`PauliFrame`], and reports a latency derived from the work the
//!   decode actually performed. Decode latency thereby *emerges* from `p`
//!   and `d` instead of being assumed.
//!
//! The [`DecodeBacklog`] tracks in-flight windows per tile, and
//! [`DecoderRuntime`] wraps a model + backlog + statistics behind the
//! interface the engines consume: [`DecoderRuntime::submit`] returns the
//! round at which a window's decode result becomes visible, and
//! [`DecoderRuntime::retire`] records the observed latency once the engine
//! consumes it.
//!
//! Everything here is deterministic: decode latency is a pure function of
//! the submission schedule (and, for union-find, of the seeded error
//! channel — window `w` of tile `t` draws from a stream derived from
//! `(seed, t, w)`), so seeded simulations are reproducible run to run.
//!
//! For differential testing, [`min_weight_correction`] is an exhaustive
//! minimum-weight oracle over the same detector graphs.
//!
//! # Quick example
//!
//! ```
//! use rescq_decoder::{DecoderConfig, DecoderKind, DecoderRuntime};
//!
//! let mut rt = DecoderRuntime::new(&DecoderConfig::fixed(0.5), 4);
//! let (w0, ready0) = rt.submit(0, 7, 100);
//! assert!(ready0 > 100, "half-throughput decode takes time");
//! rt.retire(w0, ready0);
//! assert_eq!(rt.stats().windows_decoded, 1);
//!
//! let mut ideal = DecoderRuntime::new(&DecoderConfig::default(), 4);
//! let (_, ready) = ideal.submit(0, 7, 100);
//! assert_eq!(ready, 100, "the ideal decoder is invisible");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backlog;
mod config;
mod dsu;
mod exact;
mod graph;
mod models;
mod pauli_frame;
mod runtime;
mod syndrome;
mod union_find;

pub use backlog::{DecodeBacklog, SyndromeWindow, WindowId};
pub use config::{DecoderConfig, DecoderKind};
pub use dsu::ClusterDsu;
pub use exact::{min_weight_correction, MAX_EXACT_DEFECTS};
pub use graph::DetectorGraph;
pub use models::{AdaptiveDecoder, DecoderModel, FixedLatencyDecoder, IdealDecoder};
pub use pauli_frame::PauliFrame;
pub use runtime::{DecoderRuntime, DecoderStats};
pub use syndrome::SyndromeBits;
pub use union_find::{
    decode_chain, decode_syndrome, sample_error, DecodeOutcome, DecodeWork, ErrorChannel,
    UnionFindDecoder,
};
