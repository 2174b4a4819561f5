//! Simulation configuration (mirrors the artifact's config files).

use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::{DecoderConfig, DecoderKind, ErrorChannel};
use rescq_rus::{PrepCalibration, RusParams};
use std::fmt;

/// Full configuration of one simulation run.
///
/// Build with [`SimConfig::builder`]; defaults follow the paper's headline
/// setup (`d = 7`, `p = 10⁻⁴`, RESCQ with `k = 25`, uncompressed 2×2 STAR
/// grid).
///
/// The fabric is a function of the circuit width and [`compression`]
/// alone (see [`build_layout`](crate::build_layout)). The model constants
/// are fixed at the paper's values and are not configured here: the
/// activity window `c = 100`, `SurgeryCosts::default()` and the §5.4.1
/// `TauModel::default()` fit.
///
/// [`compression`]: SimConfig::compression
///
/// # Example
///
/// ```
/// use rescq_core::SchedulerKind;
/// use rescq_sim::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .distance(9)
///     .physical_error_rate(1e-5)
///     .scheduler(SchedulerKind::Greedy)
///     .compression(0.5)
///     .seed(3)
///     .build();
/// assert_eq!(cfg.distance, 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Code distance `d`.
    pub distance: u32,
    /// Physical qubit error rate `p`.
    pub physical_error_rate: f64,
    /// Scheduler driving the run.
    pub scheduler: SchedulerKind,
    /// MST recomputation policy (RESCQ only).
    pub k_policy: KPolicy,
    /// Grid compression fraction in `[0, 1]` (§5.3).
    pub compression: f64,
    /// Seed of the run's RUS outcome stream.
    pub seed: u64,
    /// RUS preparation calibration constants.
    pub calibration: PrepCalibration,
    /// Classical decoding pipeline model. The `ideal` default is invisible:
    /// a run with it is bit-identical to the same build with no decoder
    /// consulted at all. `union_find` decodes every feed-forward injection
    /// outcome's window and applies backlog-aware back-pressure.
    pub decoder: DecoderConfig,
    /// Watchdog: abort if the program exceeds this many cycles.
    pub max_cycles: u64,
}

impl SimConfig {
    /// Starts a builder with paper-default values.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// The substrate parameters implied by this configuration.
    pub fn rus_params(&self) -> RusParams {
        RusParams::new(self.distance, self.physical_error_rate)
    }

    /// Rounds of syndrome measurement per lattice-surgery cycle.
    pub fn rounds_per_cycle(&self) -> u32 {
        self.distance
    }

    /// The error channel the union-find decoder samples: the run's physical
    /// error rate, with the channel seed derived from (but distinct from)
    /// the run seed so the decoder's error stream never aliases the RUS
    /// outcome stream. Both engines use this, so decoder behaviour is
    /// engine-independent.
    pub fn decoder_channel(&self) -> ErrorChannel {
        ErrorChannel::new(
            self.physical_error_rate,
            self.seed ^ 0x00DE_C0DE_5EED_u64.rotate_left(17),
        )
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::builder().build()
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} d={} p={:.0e} compression={:.0}% seed={}",
            self.scheduler,
            self.distance,
            self.physical_error_rate,
            self.compression * 100.0,
            self.seed
        )?;
        if self.decoder.kind != DecoderKind::Ideal {
            write!(f, " decoder={}", self.decoder)?;
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            config: SimConfig {
                distance: 7,
                physical_error_rate: 1e-4,
                scheduler: SchedulerKind::Rescq,
                k_policy: KPolicy::Fixed(25),
                compression: 0.0,
                seed: 1,
                calibration: PrepCalibration::default(),
                decoder: DecoderConfig::default(),
                max_cycles: 50_000_000,
            },
        }
    }
}

impl SimConfigBuilder {
    /// Sets the code distance.
    pub fn distance(mut self, d: u32) -> Self {
        self.config.distance = d;
        self
    }

    /// Sets the physical error rate.
    pub fn physical_error_rate(mut self, p: f64) -> Self {
        self.config.physical_error_rate = p;
        self
    }

    /// Sets the scheduler.
    pub fn scheduler(mut self, s: SchedulerKind) -> Self {
        self.config.scheduler = s;
        self
    }

    /// Sets the MST recomputation policy.
    pub fn k_policy(mut self, k: KPolicy) -> Self {
        self.config.k_policy = k;
        self
    }

    /// Sets the grid compression fraction.
    pub fn compression(mut self, f: f64) -> Self {
        self.config.compression = f;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.config.seed = s;
        self
    }

    /// Sets the RUS calibration.
    pub fn calibration(mut self, c: PrepCalibration) -> Self {
        self.config.calibration = c;
        self
    }

    /// Sets the classical decoder model.
    pub fn decoder(mut self, d: DecoderConfig) -> Self {
        self.config.decoder = d;
        self
    }

    /// Sets the watchdog limit in cycles.
    pub fn max_cycles(mut self, c: u64) -> Self {
        self.config.max_cycles = c;
        self
    }

    /// Does nothing. The realtime engine is serial and has no thread
    /// setting; this is kept only so existing callers of the removed
    /// knob still build, and will be removed.
    pub fn engine_threads(self, _: usize) -> Self {
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_headline() {
        let c = SimConfig::default();
        assert_eq!(c.distance, 7);
        assert!((c.physical_error_rate - 1e-4).abs() < 1e-18);
        assert_eq!(c.scheduler, SchedulerKind::Rescq);
        assert_eq!(c.k_policy, KPolicy::Fixed(25));
        assert_eq!(c.compression, 0.0);
        assert_eq!(c.decoder.kind, DecoderKind::Ideal);
    }

    #[test]
    fn builder_sets_decoder() {
        let c = SimConfig::builder()
            .decoder(DecoderConfig::union_find(8.0))
            .build();
        assert_eq!(c.decoder.kind, DecoderKind::UnionFind);
        assert_eq!(c.decoder.throughput, 8.0);
        assert!(c.to_string().contains("decoder=union_find"));
        assert!(!SimConfig::default().to_string().contains("decoder"));
    }

    #[test]
    fn builder_sets_fields() {
        let c = SimConfig::builder()
            .distance(11)
            .scheduler(SchedulerKind::Autobraid)
            .compression(0.75)
            .seed(99)
            .build();
        assert_eq!(c.distance, 11);
        assert_eq!(c.scheduler, SchedulerKind::Autobraid);
        assert_eq!(c.seed, 99);
        assert_eq!(c.rounds_per_cycle(), 11);
    }

    #[test]
    fn rus_params_derived() {
        let c = SimConfig::builder()
            .distance(5)
            .physical_error_rate(1e-3)
            .build();
        let p = c.rus_params();
        assert_eq!(p.distance, 5);
        assert!((p.physical_error_rate - 1e-3).abs() < 1e-18);
    }
}
