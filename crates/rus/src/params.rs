//! Shared code-distance / error-rate parameters and calibration constants.

use std::fmt;

/// Physical parameters of the surface-code substrate.
///
/// One lattice-surgery cycle comprises `d` rounds of syndrome measurement
/// (paper §5.2.1), so durations are tracked in *measurement rounds* and
/// converted with [`RusParams::rounds_to_cycles`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RusParams {
    /// Code distance `d` (≥ 3, odd in practice).
    pub distance: u32,
    /// Physical qubit error rate `p` (e.g. `1e-4`).
    pub physical_error_rate: f64,
}

impl RusParams {
    /// Creates parameters, validating ranges.
    ///
    /// # Panics
    ///
    /// Panics when `distance < 2` or `physical_error_rate ∉ (0, 0.5)`.
    pub fn new(distance: u32, physical_error_rate: f64) -> Self {
        assert!(distance >= 2, "code distance must be at least 2");
        assert!(
            physical_error_rate > 0.0 && physical_error_rate < 0.5,
            "physical error rate must be in (0, 0.5), got {physical_error_rate}"
        );
        RusParams {
            distance,
            physical_error_rate,
        }
    }

    /// Number of `[[4,1,1,2]]` subsystem-code slots that fit in one ancilla
    /// patch: `(d² − 1) / 2` (paper Appendix A.1).
    pub fn subsystem_slots(&self) -> u32 {
        (self.distance * self.distance - 1) / 2
    }

    /// Measurement rounds per lattice-surgery cycle (`d`).
    pub fn rounds_per_cycle(&self) -> u32 {
        self.distance
    }

    /// Converts measurement rounds to (fractional) lattice-surgery cycles.
    pub fn rounds_to_cycles(&self, rounds: u64) -> f64 {
        rounds as f64 / self.distance as f64
    }

    /// Converts whole lattice-surgery cycles to measurement rounds.
    pub fn cycles_to_rounds(&self, cycles: u32) -> u64 {
        cycles as u64 * self.distance as u64
    }
}

impl Default for RusParams {
    /// The paper's headline configuration: `d = 7`, `p = 10⁻⁴` (Fig 10).
    fn default() -> Self {
        RusParams::new(7, 1e-4)
    }
}

impl fmt::Display for RusParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d={} p={:.0e}", self.distance, self.physical_error_rate)
    }
}

/// Calibration constants of the RUS preparation model.
///
/// The paper and \[1\] publish curves rather than closed forms; these constants
/// are chosen so the model reproduces the *shape* of Fig 16: expected attempts
/// close to 1 and increasing with `d`, expected cycles decreasing with `d` and
/// increasing with `p`, and a worst-case preparation time near 2.2 cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepCalibration {
    /// Physical operations in one `[[4,1,1,2]]` subsystem injection circuit;
    /// per-slot round-1 success is `(1−p)^c1`.
    pub c1: f64,
    /// Syndrome-area factor of the round-2 expansion post-selection; round-2
    /// success is `(1−p)^(c2·d²)`.
    pub c2: f64,
    /// Measurement rounds per round-1 slot trial.
    pub rounds_round1: u32,
    /// Measurement rounds for the round-2 expansion check.
    pub rounds_round2: u32,
}

impl Default for PrepCalibration {
    fn default() -> Self {
        PrepCalibration {
            c1: 15.0,
            c2: 2.0,
            rounds_round1: 3,
            rounds_round2: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_match_formula() {
        assert_eq!(RusParams::new(3, 1e-4).subsystem_slots(), 4);
        assert_eq!(RusParams::new(7, 1e-4).subsystem_slots(), 24);
        assert_eq!(RusParams::new(13, 1e-4).subsystem_slots(), 84);
    }

    #[test]
    fn round_conversions() {
        let p = RusParams::new(7, 1e-4);
        assert_eq!(p.cycles_to_rounds(2), 14);
        assert!((p.rounds_to_cycles(14) - 2.0).abs() < 1e-12);
        assert!((p.rounds_to_cycles(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "code distance")]
    fn tiny_distance_rejected() {
        let _ = RusParams::new(1, 1e-4);
    }

    #[test]
    #[should_panic(expected = "physical error rate")]
    fn bad_error_rate_rejected() {
        let _ = RusParams::new(7, 0.9);
    }

    #[test]
    fn default_is_headline_config() {
        let p = RusParams::default();
        assert_eq!(p.distance, 7);
        assert!((p.physical_error_rate - 1e-4).abs() < 1e-18);
    }
}
