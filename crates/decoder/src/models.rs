//! The decoder model trait, the two latency models (ideal and
//! fixed-latency), and the factory that builds any configured model.

use crate::config::BASE_LATENCY;
use crate::union_find::{DecodeWork, ErrorChannel, UnionFindDecoder};
use crate::DecoderConfig;
use std::collections::BTreeMap;
use std::fmt;

/// A classical decoder latency model.
///
/// Implementations are deterministic: the ready round is a pure function of
/// the submission history, so seeded simulations remain reproducible. Time is
/// measured in syndrome-measurement rounds (the engines' base unit).
pub trait DecoderModel: fmt::Debug {
    /// Short model name for reports.
    fn name(&self) -> &'static str;

    /// Submits a window of `rounds` syndrome rounds from `tile` at round
    /// `now`; returns the round at which the decode result becomes visible
    /// to the scheduler (always `>= now`).
    fn decode_ready_at(&mut self, tile: u32, rounds: u32, now: u64) -> u64;

    /// Drains the decode-work accounting accumulated since the last call.
    /// Latency models perform no real decode work and report zeros; the
    /// union-find decoder reports defects, growth steps and peels the
    /// runtime folds into [`DecoderStats`](crate::DecoderStats).
    fn take_work(&mut self) -> DecodeWork {
        DecodeWork::default()
    }
}

/// Zero-latency decoding: results are visible the round they are measured.
///
/// With this model the decoder subsystem is invisible and every pre-existing
/// seeded simulation output is reproduced bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealDecoder;

impl DecoderModel for IdealDecoder {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn decode_ready_at(&mut self, _tile: u32, _rounds: u32, now: u64) -> u64 {
        now
    }
}

/// A union-find-style decoder: constant reaction latency plus a per-round
/// decode cost, with one sequential decode pipeline per tile.
///
/// When `throughput < 1` the decoder processes syndrome data slower than the
/// substrate produces it, so consecutive windows on a busy tile queue behind
/// each other and the backlog grows — the decoder-limited regime.
#[derive(Debug, Clone)]
pub struct FixedLatencyDecoder {
    throughput: f64,
    tile_busy_until: BTreeMap<u32, u64>,
}

impl FixedLatencyDecoder {
    /// Creates the model from a configuration.
    pub fn new(config: &DecoderConfig) -> Self {
        FixedLatencyDecoder {
            throughput: config.throughput.max(1e-6),
            tile_busy_until: BTreeMap::new(),
        }
    }

    fn cost(&self, rounds: u32) -> u64 {
        BASE_LATENCY + (rounds as f64 / self.throughput).ceil() as u64
    }
}

impl DecoderModel for FixedLatencyDecoder {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn decode_ready_at(&mut self, tile: u32, rounds: u32, now: u64) -> u64 {
        let busy = self.tile_busy_until.get(&tile).copied().unwrap_or(0);
        let ready = now.max(busy) + self.cost(rounds);
        self.tile_busy_until.insert(tile, ready);
        ready
    }
}

/// Instantiates the model a configuration names. `distance` sizes the
/// union-find detector graphs and `channel` feeds its error sampling; the
/// latency models ignore both.
pub fn build_model(
    config: &DecoderConfig,
    distance: u32,
    channel: ErrorChannel,
) -> Box<dyn DecoderModel + Send + Sync> {
    use crate::DecoderKind;
    match config.kind {
        DecoderKind::Ideal => Box::new(IdealDecoder),
        DecoderKind::Fixed => Box::new(FixedLatencyDecoder::new(config)),
        DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(config, distance, channel)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_instant() {
        let mut m = IdealDecoder;
        assert_eq!(m.decode_ready_at(0, 100, 42), 42);
    }

    #[test]
    fn fixed_accumulates_backlog_per_tile() {
        let mut m = FixedLatencyDecoder::new(&DecoderConfig::fixed(1.0));
        let r1 = m.decode_ready_at(0, 7, 0); // 0 + 1 + 7 = 8
        assert_eq!(r1, 8);
        let r2 = m.decode_ready_at(0, 7, 0); // queued behind r1
        assert_eq!(r2, 16);
        let other = m.decode_ready_at(1, 7, 0); // independent pipeline
        assert_eq!(other, 8);
    }

    #[test]
    fn fixed_lower_throughput_is_slower() {
        for rounds in [1u32, 7, 63] {
            let mut fast = FixedLatencyDecoder::new(&DecoderConfig::fixed(2.0));
            let mut slow = FixedLatencyDecoder::new(&DecoderConfig::fixed(0.25));
            assert!(
                slow.decode_ready_at(0, rounds, 10) >= fast.decode_ready_at(0, rounds, 10),
                "rounds={rounds}"
            );
        }
    }

    #[test]
    fn build_model_matches_kind() {
        use crate::DecoderKind;
        for (kind, name) in [
            (DecoderKind::Ideal, "ideal"),
            (DecoderKind::Fixed, "fixed"),
            (DecoderKind::UnionFind, "union_find"),
        ] {
            let cfg = DecoderConfig {
                kind,
                ..DecoderConfig::default()
            };
            assert_eq!(build_model(&cfg, 3, ErrorChannel::default()).name(), name);
        }
    }

    #[test]
    fn latency_models_report_zero_work() {
        let mut m = FixedLatencyDecoder::new(&DecoderConfig::fixed(1.0));
        m.decode_ready_at(0, 7, 0);
        assert_eq!(m.take_work(), DecodeWork::default());
    }
}
