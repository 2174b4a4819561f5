//! The non-deterministic `|mθ⟩` preparation model (paper §2.2, Appendix A.1,
//! Fig 16).
//!
//! One ancilla patch embeds `(d²−1)/2` `[[4,1,1,2]]` subsystem codes that all
//! attempt to inject the rotation state in parallel (round 1). When any slot
//! passes its error-detection post-selection, the state is expanded to the
//! full distance-`d` patch and a second detection round is applied (round 2).
//! Both rounds must pass; an *attempt* = round 1 (repeated until a slot
//! passes) + one round-2 expansion. Round-2 failure restarts everything.
//!
//! The model exposes analytic expectations (for Fig 16 and for the
//! expected-free-time estimates in the scheduler) and seeded sampling (for the
//! engine).

use crate::{PrepCalibration, RusParams};
use rand::Rng;

/// Stochastic model of `|mθ⟩` preparation inside a single ancilla patch.
///
/// # Example
///
/// ```
/// use rescq_rus::{PreparationModel, RusParams};
///
/// let m = PreparationModel::new(RusParams::new(7, 1e-4));
/// assert!(m.expected_attempts() >= 1.0);
/// // Larger distance ⇒ more attempts but fewer cycles (Fig 16).
/// let m13 = PreparationModel::new(RusParams::new(13, 1e-4));
/// assert!(m13.expected_attempts() > m.expected_attempts());
/// assert!(m13.expected_cycles() < m.expected_cycles());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparationModel {
    params: RusParams,
    calibration: PrepCalibration,
    /// Per-slot round-1 success probability.
    q1: f64,
    /// Probability at least one slot passes round 1.
    p_any: f64,
    /// Round-2 expansion success probability.
    q2: f64,
}

impl PreparationModel {
    /// Builds the model with the default calibration
    /// ([`PrepCalibration::default`]).
    pub fn new(params: RusParams) -> Self {
        Self::with_calibration(params, PrepCalibration::default())
    }

    /// Builds the model with explicit calibration constants.
    pub fn with_calibration(params: RusParams, calibration: PrepCalibration) -> Self {
        let p = params.physical_error_rate;
        let q1 = (1.0 - p).powf(calibration.c1);
        let slots = params.subsystem_slots() as f64;
        let p_any = 1.0 - (1.0 - q1).powf(slots);
        let d2 = (params.distance * params.distance) as f64;
        let q2 = (1.0 - p).powf(calibration.c2 * d2);
        PreparationModel {
            params,
            calibration,
            q1,
            p_any,
            q2,
        }
    }

    /// The substrate parameters.
    pub fn params(&self) -> RusParams {
        self.params
    }

    /// Per-slot round-1 success probability.
    pub fn slot_success(&self) -> f64 {
        self.q1
    }

    /// Probability that one attempt (round 1 pass + round 2 pass) succeeds.
    pub fn attempt_success(&self) -> f64 {
        // Round 1 is repeated until a slot passes, so an attempt's success is
        // governed by round 2 alone; `p_any` only affects attempt *duration*.
        self.q2
    }

    /// Expected number of attempts until success (Fig 16, right axis).
    pub fn expected_attempts(&self) -> f64 {
        1.0 / self.q2
    }

    /// Expected measurement rounds of a single attempt.
    pub fn expected_rounds_per_attempt(&self) -> f64 {
        self.calibration.rounds_round1 as f64 / self.p_any + self.calibration.rounds_round2 as f64
    }

    /// Expected measurement rounds until successful preparation.
    pub fn expected_rounds(&self) -> f64 {
        self.expected_attempts() * self.expected_rounds_per_attempt()
    }

    /// Expected lattice-surgery cycles until successful preparation
    /// (Fig 16, left axis): `O(α/d)` per attempt, so this *falls* as `d`
    /// grows even though attempts rise.
    pub fn expected_cycles(&self) -> f64 {
        self.expected_rounds() / self.params.distance as f64
    }

    /// Samples the number of round-1 trials until some slot passes.
    fn sample_round1_trials(&self, rng: &mut impl Rng) -> u64 {
        sample_geometric(rng, self.p_any)
    }

    /// Samples the total measurement rounds until preparation succeeds.
    ///
    /// The engine schedules a completion event this many rounds after the
    /// preparation starts; cancelled preparations simply discard the sample.
    pub fn sample_prep_rounds(&self, rng: &mut impl Rng) -> u64 {
        let mut rounds = 0u64;
        loop {
            rounds += self.sample_round1_trials(rng) * self.calibration.rounds_round1 as u64;
            rounds += self.calibration.rounds_round2 as u64;
            if rng.gen_bool(self.q2) {
                return rounds;
            }
        }
    }

    /// Samples the number of attempts until success (for Fig 16 Monte-Carlo
    /// validation).
    pub fn sample_attempts(&self, rng: &mut impl Rng) -> u64 {
        sample_geometric(rng, self.q2)
    }
}

/// Samples a geometric random variable: the number of Bernoulli(`p`) trials
/// up to and including the first success. Returns `u64::MAX`-capped values
/// for pathological `p`.
fn sample_geometric(rng: &mut impl Rng, p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    if p >= 1.0 {
        return 1;
    }
    // Inverse-transform sampling keeps this O(1) regardless of p.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let trials = (u.ln() / (1.0 - p).ln()).ceil();
    (trials as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn attempts_increase_with_distance() {
        let p = 1e-4;
        let mut last = 0.0;
        for d in [3, 5, 7, 9, 11, 13] {
            let m = PreparationModel::new(RusParams::new(d, p));
            let a = m.expected_attempts();
            assert!(a >= 1.0);
            assert!(a > last, "attempts must rise with d: {a} at d={d}");
            last = a;
        }
    }

    #[test]
    fn cycles_decrease_with_distance() {
        let p = 1e-4;
        let mut last = f64::INFINITY;
        for d in [3, 5, 7, 9, 11, 13] {
            let m = PreparationModel::new(RusParams::new(d, p));
            let c = m.expected_cycles();
            assert!(c < last, "cycles must fall with d: {c} at d={d}");
            last = c;
        }
    }

    #[test]
    fn cycles_increase_with_error_rate() {
        let d = 7;
        let mut last = 0.0;
        for p in [1e-6, 1e-5, 1e-4, 1e-3] {
            let m = PreparationModel::new(RusParams::new(d, p));
            let c = m.expected_cycles();
            assert!(c > last, "cycles must rise with p: {c} at p={p}");
            last = c;
        }
    }

    #[test]
    fn attempts_near_one_for_typical_params() {
        // Appendix A.1: "expected attempts are close to 1 for most
        // combinations of d and p".
        let m = PreparationModel::new(RusParams::new(7, 1e-4));
        assert!(m.expected_attempts() < 1.1);
    }

    #[test]
    fn worst_case_prep_near_paper_estimate() {
        // Appendix A.2 uses ≈ 2.2 cycles as the worst-case preparation time
        // over the Fig 16 sweep (d = 3, p = 10⁻³ corner).
        let m = PreparationModel::new(RusParams::new(3, 1e-3));
        let c = m.expected_cycles();
        assert!((1.5..3.0).contains(&c), "worst-case cycles = {c}");
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        let m = PreparationModel::new(RusParams::new(5, 1e-3));
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 20_000;
        let mut total_rounds = 0u64;
        let mut total_attempts = 0u64;
        for _ in 0..n {
            total_rounds += m.sample_prep_rounds(&mut rng);
            total_attempts += m.sample_attempts(&mut rng);
        }
        let mean_rounds = total_rounds as f64 / n as f64;
        let mean_attempts = total_attempts as f64 / n as f64;
        assert!(
            (mean_rounds - m.expected_rounds()).abs() / m.expected_rounds() < 0.05,
            "rounds: sampled {mean_rounds}, analytic {}",
            m.expected_rounds()
        );
        assert!(
            (mean_attempts - m.expected_attempts()).abs() / m.expected_attempts() < 0.05,
            "attempts: sampled {mean_attempts}, analytic {}",
            m.expected_attempts()
        );
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let m = PreparationModel::new(RusParams::default());
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let sa: Vec<u64> = (0..50).map(|_| m.sample_prep_rounds(&mut a)).collect();
        let sb: Vec<u64> = (0..50).map(|_| m.sample_prep_rounds(&mut b)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn geometric_sampler_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let p = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| sample_geometric(&mut rng, p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert_eq!(sample_geometric(&mut rng, 1.0), 1);
    }
}
