//! Shared runtime state of the surface-code fabric during a simulation:
//! busy windows for data qubits and ancillas, patch orientations, and the
//! runs of cycles each ancilla was active.
//!
//! # Activity (paper §4.2)
//!
//! An ancilla is *active in cycle j* if it was occupied or held at some
//! point during that cycle, or busy across either of its boundaries. Cycle
//! 0 starts at construction and each [`Fabric::end_cycle`] call (the
//! engine's tick) starts the next; cycle `j` closes at round `(j + 1)·d`. Instead of sampling every
//! ancilla at every boundary, each occupy, hold and release extends a run
//! of active cycles in `O(1)`, and [`Fabric::activity_counts`] folds the
//! runs into a per-ancilla window bitmask only when it is asked — every
//! `k` cycles, when an MST recomputation takes its snapshot.

use rescq_circuit::QubitId;
use rescq_lattice::{AncillaGraph, AncillaIndex, Layout, Orientation};
use std::sync::Arc;

/// Mutable fabric state threaded through an engine run.
///
/// The static geometry (`layout`, `graph`) is held behind [`Arc`]s so sweep
/// runners can share one build across many concurrent runs; everything
/// mutable is per-run.
#[derive(Debug)]
pub struct Fabric {
    /// The static layout (tiles, blocks, adjacency), shared read-only.
    pub layout: Arc<Layout>,
    /// Dense-indexed ancilla routing graph, shared read-only.
    pub graph: Arc<AncillaGraph>,
    /// Rounds per lattice-surgery cycle (`d`).
    pub rounds_per_cycle: u32,
    /// Per-qubit patch orientation (flips on H and edge rotation).
    pub orientation: Vec<Orientation>,
    qubit_free_at: Vec<u64>,
    ancilla_free_at: Vec<u64>,
    /// Accumulated busy rounds per data qubit (for idle fractions).
    qubit_busy_rounds: Vec<u64>,
    /// Ancillas currently *held* (claimed open-ended, e.g. holding a prepared
    /// state) and by whom; counted as active every cycle until released.
    held: Vec<Option<u64>>,
    /// Cycle boundaries passed so far: the index of the current cycle.
    cycle: u64,
    /// Per-ancilla activity: folded history plus the pending run.
    activity: Vec<ActivityRun>,
    /// Output buffer of [`Self::activity_counts`].
    activity_counts: Vec<u32>,
}

/// One ancilla's activity record: the cycles before `folded` as a bitmask,
/// and the pending run of active cycles from `start` on.
#[derive(Debug, Clone, Copy)]
struct ActivityRun {
    /// Bit `k` says whether cycle `folded - 1 - k` was active.
    bits: u128,
    /// Cycles below this are in `bits`.
    folded: u64,
    /// The pending run: cycles `start..=end` are active, and while the
    /// ancilla is held so is every cycle from `start` on. Empty when
    /// `start > end` and not held.
    start: u64,
    end: u64,
}

impl ActivityRun {
    const EMPTY: ActivityRun = ActivityRun {
        bits: 0,
        folded: 0,
        start: 1,
        end: 0,
    };

    /// Moves the run's cycles below `to` into `bits`; those cycles are
    /// final once the current cycle is `to` or later.
    fn fold(&mut self, to: u64, held: bool) {
        if to <= self.folded {
            return;
        }
        let shift = to - self.folded;
        self.bits = if shift >= 128 { 0 } else { self.bits << shift };
        // Active cycles `lo..hi` land on bits `to - hi .. to - lo`.
        let lo = self.start.max(self.folded);
        let hi = if held {
            to
        } else {
            self.end.saturating_add(1).min(to)
        };
        if lo < hi && to - hi < 128 {
            let low = to - hi;
            let width = (to - lo).min(128) - low;
            let ones = if width == 128 {
                u128::MAX
            } else {
                (1u128 << width) - 1
            };
            self.bits |= ones << low;
        }
        self.folded = to;
    }

    /// Marks cycles `cycle..=end` active (`cycle` is the current cycle).
    fn extend(&mut self, cycle: u64, end: u64, held: bool) {
        // Cycles before `cycle` are final, so folding them leaves a pending
        // run that starts at `cycle` — and joins the new one.
        self.fold(cycle, held);
        self.start = cycle;
        self.end = self.end.max(end);
    }
}

impl Fabric {
    /// Builds the runtime state over a shared layout and its routing graph
    /// (`graph` must be `AncillaGraph::from_grid(layout.grid())`).
    pub fn new(layout: Arc<Layout>, graph: Arc<AncillaGraph>, rounds_per_cycle: u32) -> Self {
        let nq = layout.num_qubits() as usize;
        let na = graph.len();
        Fabric {
            layout,
            graph,
            rounds_per_cycle,
            orientation: vec![Orientation::Standard; nq],
            qubit_free_at: vec![0; nq],
            ancilla_free_at: vec![0; na],
            qubit_busy_rounds: vec![0; nq],
            held: vec![None; na],
            cycle: 0,
            activity: vec![ActivityRun::EMPTY; na],
            activity_counts: vec![0; na],
        }
    }

    /// Number of ancillas.
    pub fn num_ancillas(&self) -> usize {
        self.ancilla_free_at.len()
    }

    /// Number of data qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubit_free_at.len()
    }

    /// Whether qubit `q` is free at round `now`.
    pub fn qubit_free(&self, q: QubitId, now: u64) -> bool {
        self.qubit_free_at[q.index()] <= now
    }

    /// Whether ancilla `a` is free at round `now` (not busy and not held).
    pub fn ancilla_free(&self, a: AncillaIndex, now: u64) -> bool {
        self.held[a as usize].is_none() && self.ancilla_free_at[a as usize] <= now
    }

    /// Occupies qubit `q` for `[now, until)` and accrues its busy time.
    pub fn occupy_qubit(&mut self, q: QubitId, now: u64, until: u64) {
        debug_assert!(self.qubit_free(q, now), "qubit {q} double-booked");
        self.qubit_free_at[q.index()] = until;
        self.qubit_busy_rounds[q.index()] += until - now;
    }

    /// Occupies ancilla `a` for `[now, until)` and marks it active: from
    /// the current cycle through the last cycle whose closing boundary
    /// round `(j + 1)·d` is still before `until`.
    pub fn occupy_ancilla(&mut self, a: AncillaIndex, now: u64, until: u64) {
        debug_assert!(self.ancilla_free(a, now), "ancilla {a} double-booked");
        self.ancilla_free_at[a as usize] = until;
        let last = until
            .div_ceil(u64::from(self.rounds_per_cycle.max(1)))
            .saturating_sub(1);
        let held = self.held[a as usize].is_some();
        self.activity[a as usize].extend(self.cycle, last.max(self.cycle), held);
    }

    /// Claims ancilla `a` open-endedly (preparing / holding a state) on
    /// behalf of `owner`; it is active from the current cycle until the
    /// cycle it is released in.
    pub fn hold_ancilla(&mut self, a: AncillaIndex, owner: u64) {
        debug_assert!(self.held[a as usize].is_none(), "ancilla {a} already held");
        self.activity[a as usize].extend(self.cycle, self.cycle, false);
        self.held[a as usize] = Some(owner);
    }

    /// Releases a held ancilla at round `now`.
    pub fn release_ancilla(&mut self, a: AncillaIndex, now: u64) {
        if self.held[a as usize].take().is_some() {
            let run = &mut self.activity[a as usize];
            run.end = run.end.max(self.cycle);
        }
        self.ancilla_free_at[a as usize] = self.ancilla_free_at[a as usize].max(now);
    }

    /// Whether ancilla `a` is currently held (by anyone).
    pub fn is_held(&self, a: AncillaIndex) -> bool {
        self.held[a as usize].is_some()
    }

    /// Whether ancilla `a` is held by `owner`.
    pub fn is_held_by(&self, a: AncillaIndex, owner: u64) -> bool {
        self.held[a as usize] == Some(owner)
    }

    /// Flips the patch orientation of `q` (Hadamard or edge rotation).
    pub fn flip_orientation(&mut self, q: QubitId) {
        let o = &mut self.orientation[q.index()];
        *o = o.flipped();
    }

    /// Total busy rounds accumulated across all data qubits.
    pub fn total_qubit_busy_rounds(&self) -> u64 {
        self.qubit_busy_rounds.iter().sum()
    }

    /// Passes a cycle boundary (the engine's cycle tick, at round
    /// `(cycle + 1)·d`). `O(1)`: activity is folded only on demand.
    pub fn end_cycle(&mut self) {
        self.cycle += 1;
    }

    /// The index of the current cycle (boundaries passed so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Per ancilla, how many of the last `window` completed cycles it was
    /// active in — the activity count of §4.2 that MST edge weights are
    /// built from. Folds each ancilla's pending run first; the returned
    /// slice is a held buffer, so the call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or exceeds 128.
    pub fn activity_counts(&mut self, window: u32) -> &[u32] {
        assert!(
            (1..=128).contains(&window),
            "activity window must be in 1..=128, got {window}"
        );
        let mask = u128::MAX >> (128 - window);
        for ((run, held), count) in self
            .activity
            .iter_mut()
            .zip(&self.held)
            .zip(&mut self.activity_counts)
        {
            run.fold(self.cycle, held.is_some());
            *count = (run.bits & mask).count_ones();
        }
        &self.activity_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityTracker;

    fn fabric() -> Fabric {
        let layout = Arc::new(Layout::new(4).unwrap());
        let graph = Arc::new(AncillaGraph::from_grid(layout.grid()));
        Fabric::new(layout, graph, 7)
    }

    #[test]
    fn occupancy_windows() {
        let mut f = fabric();
        let q = QubitId(0);
        assert!(f.qubit_free(q, 0));
        f.occupy_qubit(q, 0, 14);
        assert!(!f.qubit_free(q, 13));
        assert!(f.qubit_free(q, 14));
        assert_eq!(f.total_qubit_busy_rounds(), 14);
    }

    #[test]
    fn hold_and_release() {
        let mut f = fabric();
        assert!(f.ancilla_free(0, 0));
        f.hold_ancilla(0, 42);
        assert!(!f.ancilla_free(0, 1000));
        assert!(f.is_held_by(0, 42));
        assert!(!f.is_held_by(0, 43));
        assert!(!f.ancilla_free(0, u64::MAX));
        f.release_ancilla(0, 21);
        assert!(f.ancilla_free(0, 21));
        assert!(!f.is_held(0));
    }

    #[test]
    fn orientation_flip() {
        let mut f = fabric();
        assert_eq!(f.orientation[0], Orientation::Standard);
        f.flip_orientation(QubitId(0));
        assert_eq!(f.orientation[0], Orientation::Rotated);
        f.flip_orientation(QubitId(0));
        assert_eq!(f.orientation[0], Orientation::Standard);
    }

    /// The per-tick activity model the fabric's runs replace: a flag per
    /// ancilla set by every occupy and hold, closed at each boundary round
    /// `T` together with the carry (held, or busy past `T`) into an
    /// [`ActivityTracker`] per window.
    struct PerTickReference {
        flags: Vec<bool>,
        cycle: Vec<bool>,
        trackers: Vec<ActivityTracker>,
    }

    impl PerTickReference {
        fn new(num_ancillas: usize, windows: &[u32]) -> Self {
            PerTickReference {
                flags: vec![false; num_ancillas],
                cycle: vec![false; num_ancillas],
                trackers: windows
                    .iter()
                    .map(|&w| ActivityTracker::new(num_ancillas, w))
                    .collect(),
            }
        }

        fn end_cycle(&mut self, f: &Fabric, boundary_round: u64) {
            for a in 0..self.flags.len() {
                let carry = !f.ancilla_free(a as AncillaIndex, boundary_round);
                self.cycle[a] = self.flags[a] || carry;
                self.flags[a] = carry;
            }
            for t in &mut self.trackers {
                t.record_cycle(&self.cycle);
            }
        }
    }

    /// SplitMix64: a self-contained stream for the seeded cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Drives one seeded sequence of occupy / hold / release / boundary
    /// steps through a fabric and the per-tick reference, comparing the
    /// activity counts for every window at each snapshot (every
    /// `snapshot_every` boundaries, so folds also span long gaps).
    fn check_activity_sequence(d: u32, seed: u64, snapshot_every: u64) {
        const WINDOWS: [u32; 4] = [1, 7, 100, 128];
        let layout = Arc::new(Layout::new(4).unwrap());
        let graph = Arc::new(AncillaGraph::from_grid(layout.grid()));
        let mut f = Fabric::new(layout, graph, d);
        let n = f.num_ancillas();
        let mut reference = PerTickReference::new(n, &WINDOWS);
        let mut state = seed;
        let d = u64::from(d);
        let mut now = 0;
        for cycle in 0..700u64 {
            let boundary = (cycle + 1) * d;
            for _ in 0..next(&mut state) % 5 {
                // Events of this cycle happen at rounds up to and including
                // its closing boundary, in nondecreasing order.
                now += next(&mut state) % (boundary - now + 1);
                let a = (next(&mut state) % n as u64) as AncillaIndex;
                let op = next(&mut state) % 10;
                if f.is_held(a) {
                    // Ancilla 0 keeps its holds for 200 cycles at a time.
                    if op < 2 && (a != 0 || cycle % 250 >= 200) {
                        f.release_ancilla(a, now);
                        if op == 0 && f.ancilla_free(a, now) {
                            // Release then occupy in the same round (the
                            // injection-channel handover).
                            f.occupy_ancilla(a, now, now + d);
                            reference.flags[a as usize] = true;
                        }
                    }
                } else if op < 4 && f.ancilla_free(a, now) {
                    let until = match op {
                        // Ends exactly on a boundary round.
                        0 => boundary + d * (next(&mut state) % 3),
                        // Runs longer than the widest window.
                        1 => now + d * (129 + next(&mut state) % 100),
                        _ => now + next(&mut state) % (3 * d + 1),
                    };
                    f.occupy_ancilla(a, now, until);
                    reference.flags[a as usize] = true;
                } else if op < 8 {
                    f.hold_ancilla(a, 7);
                    reference.flags[a as usize] = true;
                    if op == 4 {
                        // Hold and release within one cycle.
                        f.release_ancilla(a, now);
                    }
                }
            }
            now = boundary;
            reference.end_cycle(&f, boundary);
            f.end_cycle();
            if (cycle + 1) % snapshot_every == 0 {
                for (w, tracker) in WINDOWS.iter().zip(&reference.trackers) {
                    let expect: Vec<u32> = (0..n).map(|a| tracker.count(a)).collect();
                    assert_eq!(
                        f.activity_counts(*w),
                        &expect[..],
                        "d={d} seed={seed} window={w} after cycle {cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn activity_runs_match_per_tick_reference() {
        for d in [1, 7] {
            for seed in 0..6 {
                for snapshot_every in [1, 25, 150] {
                    check_activity_sequence(d, seed, snapshot_every);
                }
            }
        }
    }
}
