//! The runtime the simulation engines consume: decoder + backlog +
//! statistics behind a two-call interface (`submit`, `retire`).

use crate::union_find::{ErrorChannel, UnionFindDecoder};
use crate::{DecodeBacklog, DecoderConfig, DecoderKind, WindowId};

/// Aggregate decoder statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Windows submitted to the decoder.
    pub windows_submitted: u64,
    /// Windows decoded and retired.
    pub windows_decoded: u64,
    /// Total rounds the scheduler waited on decode results (sum over windows
    /// of `ready_at − submitted`).
    pub stall_rounds: u64,
    /// Largest number of windows simultaneously in flight.
    pub peak_backlog: u64,
    /// Defects (flipped detectors) the decoder observed. Zero under the
    /// ideal decoder, which samples no syndromes.
    pub defects: u64,
    /// Union-find cluster-growth half-steps performed (the dominant decode
    /// work term).
    pub growth_steps: u64,
    /// DSU merges of distinct clusters during growth.
    pub merges: u64,
    /// Erasure edges peeled into corrections.
    pub peeled_edges: u64,
    /// Windows whose residual (error ⊕ correction) crossed the logical cut.
    pub logical_failures: u64,
}

/// Wraps the configured decoder and a [`DecodeBacklog`] behind the interface
/// the engines consume.
///
/// An engine calls [`submit`](DecoderRuntime::submit) when a feed-forward
/// measurement completes; the returned round is when the decoded outcome may
/// be acted on. Once the engine consumes the result it calls
/// [`retire`](DecoderRuntime::retire), which updates the backlog accounting.
#[derive(Debug)]
pub struct DecoderRuntime {
    /// The union-find decoder, or `None` for the ideal decoder, which
    /// answers every window the round it is submitted and does no work.
    decoder: Option<UnionFindDecoder>,
    backlog: DecodeBacklog,
    stats: DecoderStats,
    /// Syndrome rounds per lattice-surgery cycle (the code distance).
    rounds_per_cycle: u32,
    /// Whether preparation-verification windows are decoded too.
    decode_prep: bool,
}

// The sweep harness builds and runs each job's engine — decoder included —
// on one of its worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DecoderRuntime>();
};

impl DecoderRuntime {
    /// Builds the runtime a configuration describes. `rounds_per_cycle` is
    /// the code distance `d` (one lattice-surgery cycle = `d` rounds).
    /// A union-find decoder built this way samples the default
    /// [`ErrorChannel`]; engines use [`DecoderRuntime::with_channel`] to
    /// feed it the simulation's physical error rate and seed.
    pub fn new(config: &DecoderConfig, rounds_per_cycle: u32) -> Self {
        DecoderRuntime::with_channel(config, rounds_per_cycle, ErrorChannel::default())
    }

    /// Builds the runtime with an explicit error channel for the union-find
    /// decoder (the ideal decoder ignores it).
    pub fn with_channel(
        config: &DecoderConfig,
        rounds_per_cycle: u32,
        channel: ErrorChannel,
    ) -> Self {
        let rounds_per_cycle = rounds_per_cycle.max(1);
        DecoderRuntime {
            decoder: match config.kind {
                DecoderKind::Ideal => None,
                DecoderKind::UnionFind => {
                    Some(UnionFindDecoder::new(config, rounds_per_cycle, channel))
                }
            },
            backlog: DecodeBacklog::new(),
            stats: DecoderStats::default(),
            rounds_per_cycle,
            decode_prep: config.decode_prep,
        }
    }

    /// Whether the engines should route `|mθ⟩` preparation-verification
    /// outcomes through this decoder ([`DecoderConfig::decode_prep`]).
    pub fn decodes_prep(&self) -> bool {
        self.decode_prep
    }

    /// Submits a syndrome window of `rounds` measurement rounds from `tile`
    /// at round `now`. Returns the window id and the round at which its
    /// decode result becomes visible (`>= now`; `== now` for the ideal
    /// decoder).
    pub fn submit(&mut self, tile: u32, rounds: u32, now: u64) -> (WindowId, u64) {
        let ready_at = match &mut self.decoder {
            None => now,
            Some(decoder) => {
                let ready_at = decoder.decode_ready_at(tile, rounds, now);
                let work = decoder.take_work();
                self.stats.defects += work.defects;
                self.stats.growth_steps += work.growth_steps;
                self.stats.merges += work.merges;
                self.stats.peeled_edges += work.peeled_edges;
                self.stats.logical_failures += work.logical_failures;
                ready_at
            }
        };
        debug_assert!(ready_at >= now, "decoders cannot answer before submission");
        let id = self.backlog.enqueue(tile, rounds, now, ready_at);
        self.stats.windows_submitted += 1;
        self.stats.stall_rounds += ready_at - now;
        self.stats.peak_backlog = self.stats.peak_backlog.max(self.backlog.in_flight() as u64);
        (id, ready_at)
    }

    /// Marks a window's decode result as consumed; returns the latency the
    /// scheduler observed, in whole lattice-surgery cycles (rounded up).
    pub fn retire(&mut self, id: WindowId, now: u64) -> u64 {
        let w = self.backlog.retire(id);
        debug_assert!(now >= w.ready_at, "result consumed before it was ready");
        self.stats.windows_decoded += 1;
        (w.ready_at - w.submitted).div_ceil(self.rounds_per_cycle as u64)
    }

    /// The live backlog (for conservation checks and per-tile queries).
    pub fn backlog(&self) -> &DecodeBacklog {
        &self.backlog
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_runtime_is_invisible() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::default(), 7);
        let (id, ready) = rt.submit(3, 14, 100);
        assert_eq!(ready, 100);
        assert_eq!(rt.retire(id, 100), 0);
        assert_eq!(rt.stats().stall_rounds, 0);
        assert!(rt.backlog().is_conserved());
    }

    #[test]
    fn union_find_runtime_tracks_stall_and_latency() {
        // p = 0 flips nothing, so a 6-round window at d = 3 decodes as two
        // 3-round chunks costing their syndrome-word scan plus one peeling
        // visit per node: (1 + 20) work units each, cleared at 1 per round.
        let channel = ErrorChannel::new(0.0, 1);
        let mut rt = DecoderRuntime::with_channel(&DecoderConfig::union_find(1.0), 3, channel);
        let (id, ready) = rt.submit(0, 6, 100);
        assert_eq!(ready, 143); // 100 + base 1 + 2 · 21
        let cycles = rt.retire(id, ready);
        assert_eq!(cycles, 15); // ceil(43 / 3)
        assert_eq!(rt.stats().stall_rounds, 43);
        assert_eq!(rt.stats().windows_submitted, 1);
        assert_eq!(rt.stats().windows_decoded, 1);
    }

    #[test]
    fn union_find_runtime_accumulates_real_work() {
        let channel = ErrorChannel::new(0.05, 42);
        let mut rt = DecoderRuntime::with_channel(&DecoderConfig::union_find(8.0), 5, channel);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(rt.submit(i % 3, 5, (i as u64) * 100).0);
        }
        let s = rt.stats();
        assert!(s.defects > 0, "p=0.05 windows must produce defects");
        assert!(s.growth_steps > 0);
        assert!(s.peeled_edges > 0);
        assert!(s.stall_rounds > 0, "real decode work must cost rounds");
        for id in ids {
            let ready = rt.backlog().get(id).unwrap().ready_at;
            rt.retire(id, ready);
        }
        assert!(rt.backlog().is_conserved());
    }

    #[test]
    fn latency_models_leave_work_stats_zero() {
        // The ideal decoder samples nothing, even on a noisy channel.
        let channel = ErrorChannel::new(0.2, 3);
        let mut rt = DecoderRuntime::with_channel(&DecoderConfig::ideal(), 7, channel);
        rt.submit(0, 7, 0);
        let s = rt.stats();
        assert_eq!(s.defects, 0);
        assert_eq!(s.growth_steps, 0);
        assert_eq!(s.logical_failures, 0);
    }

    #[test]
    fn peak_backlog_recorded() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::union_find(0.5), 7);
        let ids: Vec<_> = (0..5).map(|i| rt.submit(0, 7, i).0).collect();
        assert_eq!(rt.stats().peak_backlog, 5);
        for id in ids {
            let ready = rt.backlog().get(id).unwrap().ready_at;
            rt.retire(id, ready);
        }
        assert!(rt.backlog().is_conserved());
        assert_eq!(rt.backlog().in_flight(), 0);
    }
}
