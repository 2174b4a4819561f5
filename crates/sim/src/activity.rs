//! The per-cycle activity model (paper §4.2), kept as the test reference
//! for [`crate::Fabric`]'s occupancy runs.
//!
//! `activity = #cycles active in the last c cycles / c` estimates how likely
//! an ancilla is to be busy in the near future; the MST edge weights are the
//! pairwise maxima of endpoint activities. The window `c` is 100 cycles in
//! the evaluation (§5.1), which fits in one `u128` bitmask per ancilla —
//! recording a cycle is a shift and the count a popcount.
//!
//! This tracker is told every cycle's flags. The engine does not feed it:
//! the fabric derives the same counts from occupancy runs, folded only when
//! an MST snapshot asks, and `fabric::tests` checks the two agree.

/// Sliding-window activity tracker for every ancilla.
#[derive(Debug, Clone)]
pub struct ActivityTracker {
    window: u32,
    mask: u128,
    bits: Vec<u128>,
    cycles_seen: u64,
}

impl ActivityTracker {
    /// Creates a tracker for `num_ancillas` ancillas over a `window`-cycle
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or exceeds 128 (the paper uses c = 100).
    pub fn new(num_ancillas: usize, window: u32) -> Self {
        assert!(
            (1..=128).contains(&window),
            "activity window must be in 1..=128, got {window}"
        );
        let mask = if window == 128 {
            u128::MAX
        } else {
            (1u128 << window) - 1
        };
        ActivityTracker {
            window,
            mask,
            bits: vec![0; num_ancillas],
            cycles_seen: 0,
        }
    }

    /// Records one completed cycle: `active[i]` says whether ancilla `i` was
    /// busy at any point during it.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the tracker size.
    pub fn record_cycle(&mut self, active: &[bool]) {
        assert_eq!(active.len(), self.bits.len());
        for (bits, &a) in self.bits.iter_mut().zip(active) {
            *bits = ((*bits << 1) | u128::from(a)) & self.mask;
        }
        self.cycles_seen += 1;
    }

    /// Number of active cycles for ancilla `i` within the window.
    pub fn count(&self, i: usize) -> u32 {
        self.bits[i].count_ones()
    }

    /// Activity ratio in `[0, 1]`.
    pub fn activity(&self, i: usize) -> f64 {
        self.count(i) as f64 / self.window as f64
    }

    /// Total cycles recorded since construction.
    pub fn cycles_seen(&self) -> u64 {
        self.cycles_seen
    }

    /// MST edge weight between ancillas `a` and `b`: `max(activity)` as an
    /// integer count (exact, avoids float comparisons in the MST).
    pub fn edge_weight(&self, a: usize, b: usize) -> u32 {
        self.count(a).max(self.count(b))
    }

    /// Snapshot of all edge weights for the given edge list (dense ancilla
    /// indices) — what an MST recomputation "reads" when it starts (Fig 8).
    pub fn edge_weights(&self, edges: &[(u32, u32)]) -> Vec<u32> {
        edges
            .iter()
            .map(|&(a, b)| self.edge_weight(a as usize, b as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rolls_off() {
        let mut t = ActivityTracker::new(1, 3);
        t.record_cycle(&[true]);
        t.record_cycle(&[false]);
        t.record_cycle(&[false]);
        assert_eq!(t.count(0), 1);
        t.record_cycle(&[false]); // the active cycle leaves the window
        assert_eq!(t.count(0), 0);
        assert_eq!(t.cycles_seen(), 4);
    }

    #[test]
    fn paper_window_of_100_supported() {
        let mut t = ActivityTracker::new(2, 100);
        for _ in 0..250 {
            t.record_cycle(&[true, false]);
        }
        assert_eq!(t.count(0), 100);
        assert!((t.activity(0) - 1.0).abs() < 1e-12);
        assert_eq!(t.count(1), 0);
    }

    #[test]
    fn edge_weight_is_max() {
        let mut t = ActivityTracker::new(3, 4);
        t.record_cycle(&[true, false, true]);
        t.record_cycle(&[true, false, false]);
        assert_eq!(t.edge_weight(0, 1), 2);
        assert_eq!(t.edge_weight(1, 2), 1);
        let w = t.edge_weights(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(w, vec![2, 1, 2]);
    }

    #[test]
    fn window_128_works() {
        let mut t = ActivityTracker::new(1, 128);
        for _ in 0..130 {
            t.record_cycle(&[true]);
        }
        assert_eq!(t.count(0), 128);
    }

    #[test]
    #[should_panic(expected = "activity window")]
    fn oversized_window_rejected() {
        let _ = ActivityTracker::new(1, 129);
    }
}
