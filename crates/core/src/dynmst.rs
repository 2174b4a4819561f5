//! The pipelined, stale-tolerant MST recomputation of §4.2/Fig 8 and the
//! dynamic recomputation-frequency selection of contribution 4.
//!
//! A new MST computation starts every `k` cycles and takes `τ_MST` cycles of
//! classical compute, during which the quantum program keeps running against
//! the latest *completed* tree — the scheduler never stalls on classical
//! work, at the price of using activity data that is up to `k + τ` cycles
//! stale (§5.2.3 shows this costs almost nothing).
//!
//! `τ_MST` is modelled from §5.4.1's measurements (≈ 92 µs for a 100×100 grid
//! and ≈ 330 µs for 1000×1000 at `k = 200`, with 1 µs lattice-surgery
//! cycles): `τ(k, n) = a·k + b·√n` fitted through both points. The
//! [`KPolicy::Dynamic`] mode inverts this model to pick the smallest `k` that
//! keeps the number of in-flight computations bounded — the paper's
//! "dynamically selects the frequency of realtime updates".
//!
//! The simulator applies a completed computation to its tree as one Kruskal
//! pass over the snapshot ([`IncrementalMst::set_weights`]) rather than one
//! §5.4.1 update per changed edge. Both give the unique MST under the
//! `(weight, id)` order, and a path in a tree is unique, so routes are
//! identical either way. This is host cost only: the computation's latency
//! is still the modelled τ, not the time the rebuild takes.
//!
//! Determinism contract: the pipeline is driven solely by the cycle counter
//! its caller passes to [`MstPipeline::on_cycle`] — completion times are
//! modelled, never measured — so schedules that consult the tree are
//! reproducible run-to-run and independent of host speed.

use rescq_lattice::IncrementalMst;
use std::collections::VecDeque;

/// How the MST recomputation period `k` is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KPolicy {
    /// Fixed period in cycles (the paper evaluates k ∈ {25, 50, 100, 200}).
    Fixed(u32),
    /// Pick the smallest `k` such that at most `max_concurrent` computations
    /// are ever in flight: `k ≥ τ(k, n) / max_concurrent`, solved from the
    /// τ model. This adapts to grid size and measurement latency without
    /// manual tuning (contribution 4).
    Dynamic {
        /// Upper bound on concurrently running MST computations.
        max_concurrent: u32,
    },
}

impl Default for KPolicy {
    fn default() -> Self {
        KPolicy::Fixed(25)
    }
}

/// The fitted classical-latency model `τ(k, n) = a·k + b·√n` in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauModel {
    /// Cycles per unit of `k` (edge-update batch size).
    pub per_k: f64,
    /// Cycles per `√n` (grid dimension).
    pub per_sqrt_n: f64,
}

impl Default for TauModel {
    /// Fit through §5.4.1's two measurements (see `DESIGN.md` §4.5).
    fn default() -> Self {
        TauModel {
            per_k: 0.328,
            per_sqrt_n: 0.264,
        }
    }
}

impl TauModel {
    /// `τ_MST` in cycles for period `k` on an `n`-ancilla grid (≥ 1).
    pub fn tau_cycles(&self, k: u32, num_ancillas: usize) -> u32 {
        let t = self.per_k * k as f64 + self.per_sqrt_n * (num_ancillas as f64).sqrt();
        t.ceil().max(1.0) as u32
    }

    /// Solves the dynamic-k fixed point `k = ⌈τ(k, n) / max_concurrent⌉`.
    pub fn solve_dynamic_k(&self, num_ancillas: usize, max_concurrent: u32) -> u32 {
        let mut k = 1u32;
        for _ in 0..64 {
            let tau = self.tau_cycles(k, num_ancillas);
            let next = tau.div_ceil(max_concurrent).max(1);
            if next == k {
                break;
            }
            k = next;
        }
        k
    }
}

/// An in-flight MST computation: the weight snapshot it read and when it
/// completes.
#[derive(Debug, Clone)]
struct InFlight {
    completes_at_cycle: u64,
    /// Recycled through [`MstPipeline::spare_weights`] on completion, so
    /// steady-state snapshots reuse capacity instead of allocating.
    weights: Vec<u32>,
}

/// The pipelined dynamic MST (Fig 8).
///
/// # Example
///
/// ```
/// use rescq_core::{KPolicy, MstPipeline, TauModel};
///
/// // A 2×2 ancilla square.
/// let edges = vec![(0, 1), (1, 3), (3, 2), (2, 0)];
/// let mut mst = MstPipeline::new(4, &edges, KPolicy::Fixed(25), TauModel::default());
/// assert_eq!(mst.k(), 25);
/// assert_eq!(mst.current().tree_size(), 3);
///
/// // Drive cycles with a weight snapshot provider that fills the
/// // pipeline's recycled buffer; the tree lags by τ.
/// for cycle in 0..200 {
///     mst.on_cycle(cycle, |_edges, out| out.resize(4, 0));
/// }
/// assert!(mst.generation() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MstPipeline {
    edges: Vec<(u32, u32)>,
    k: u32,
    tau: u32,
    current: IncrementalMst,
    in_flight: VecDeque<InFlight>,
    /// Capacity-retaining weight buffers recycled from completed
    /// computations (bounded by the in-flight high-water mark).
    spare_weights: Vec<Vec<u32>>,
    generation: u64,
    completed_computations: u64,
    incremental_updates: u64,
}

impl MstPipeline {
    /// Creates the pipeline over the ancilla graph's edge list; the initial
    /// tree uses all-zero weights (no history yet).
    pub fn new(
        num_nodes: usize,
        edges: &[(u32, u32)],
        policy: KPolicy,
        tau_model: TauModel,
    ) -> Self {
        let k = match policy {
            KPolicy::Fixed(k) => k.max(1),
            KPolicy::Dynamic { max_concurrent } => {
                tau_model.solve_dynamic_k(num_nodes, max_concurrent.max(1))
            }
        };
        let tau = tau_model.tau_cycles(k, num_nodes);
        let weighted: Vec<(u32, u32, u32)> = edges.iter().map(|&(a, b)| (a, b, 0)).collect();
        MstPipeline {
            edges: edges.to_vec(),
            k,
            tau,
            current: IncrementalMst::new(num_nodes, &weighted),
            in_flight: VecDeque::new(),
            spare_weights: Vec::new(),
            generation: 0,
            completed_computations: 0,
            incremental_updates: 0,
        }
    }

    /// The resolved recomputation period in cycles.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The modelled computation latency in cycles.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// The latest *completed* tree — what Algorithm 1 routes against.
    pub fn current(&self) -> &IncrementalMst {
        &self.current
    }

    /// Monotone generation counter; bumps when a computation completes
    /// (used to invalidate the path cache).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of completed MST computations.
    pub fn completed_computations(&self) -> u64 {
        self.completed_computations
    }

    /// Total edge-weight changes applied across completed computations
    /// (§5.4.1's workload measure: the updates the incremental scheme would
    /// process).
    pub fn incremental_updates(&self) -> u64 {
        self.incremental_updates
    }

    /// Number of computations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Advances the pipeline at a cycle boundary. `snapshot` fills the
    /// provided (cleared, capacity-retaining) buffer with the current edge
    /// weights when a new computation starts (it reads the activity
    /// tracker); completions are applied in order. At steady state the
    /// weight buffers cycle between in-flight computations and the spare
    /// pool without touching the allocator.
    pub fn on_cycle(&mut self, cycle: u64, snapshot: impl FnOnce(&[(u32, u32)], &mut Vec<u32>)) {
        // Start a new computation every k cycles (including cycle 0).
        if cycle.is_multiple_of(self.k as u64) {
            let mut weights = self.spare_weights.pop().unwrap_or_default();
            weights.clear();
            snapshot(&self.edges, &mut weights);
            debug_assert_eq!(weights.len(), self.edges.len());
            self.in_flight.push_back(InFlight {
                completes_at_cycle: cycle + self.tau as u64,
                weights,
            });
        }
        // Apply any computations that have completed by now.
        while self
            .in_flight
            .front()
            .is_some_and(|f| f.completes_at_cycle <= cycle)
        {
            let f = self.in_flight.pop_front().expect("checked non-empty");
            self.incremental_updates += self.current.set_weights(&f.weights);
            self.spare_weights.push(f.weights);
            self.generation += 1;
            self.completed_computations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_edges() -> Vec<(u32, u32)> {
        vec![(0, 1), (1, 3), (3, 2), (2, 0)]
    }

    #[test]
    fn pipeline_lags_by_tau() {
        let tau_model = TauModel {
            per_k: 1.0,
            per_sqrt_n: 0.0,
        };
        // k = 10 → τ = 10 cycles.
        let mut mst = MstPipeline::new(4, &square_edges(), KPolicy::Fixed(10), tau_model);
        assert_eq!(mst.tau(), 10);
        // Weights that would change the tree are visible only after τ.
        let weights = vec![50, 0, 0, 0];
        mst.on_cycle(0, |_, out| out.extend_from_slice(&weights));
        assert_eq!(mst.generation(), 0, "not yet complete");
        assert!(mst.current().contains_edge(0), "still the stale tree");
        for c in 1..10 {
            mst.on_cycle(c, |_, out| out.extend_from_slice(&weights));
        }
        mst.on_cycle(10, |_, out| out.extend_from_slice(&weights));
        assert_eq!(mst.generation(), 1);
        assert!(!mst.current().contains_edge(0), "expensive edge evicted");
    }

    #[test]
    fn multiple_in_flight() {
        let tau_model = TauModel {
            per_k: 2.0,
            per_sqrt_n: 0.0,
        };
        // k = 25 → τ = 50: two computations overlap (Fig 8's example).
        let mut mst = MstPipeline::new(4, &square_edges(), KPolicy::Fixed(25), tau_model);
        assert_eq!(mst.tau(), 50);
        for c in 0..=49 {
            mst.on_cycle(c, |_, out| out.resize(4, 0));
        }
        assert_eq!(mst.in_flight(), 2);
        mst.on_cycle(50, |_, out| out.resize(4, 0));
        assert_eq!(mst.generation(), 1);
        assert_eq!(mst.in_flight(), 2); // one completed, one started at 50
    }

    #[test]
    fn dynamic_k_scales_with_grid() {
        let m = TauModel::default();
        let k_small = m.solve_dynamic_k(100, 2);
        let k_large = m.solve_dynamic_k(1_000_000, 2);
        assert!(k_small >= 1);
        assert!(
            k_large > k_small,
            "bigger grids need longer periods: {k_small} vs {k_large}"
        );
        // The fixed point holds: τ(k)/2 ≤ k.
        let tau = m.tau_cycles(k_large, 1_000_000);
        assert!(tau.div_ceil(2) <= k_large);
    }

    #[test]
    fn tau_model_matches_paper_measurements() {
        let m = TauModel::default();
        // §5.4.1: ≈92 cycles for a 100×100 grid at k=200.
        let t1 = m.tau_cycles(200, 100 * 100);
        assert!((85..=100).contains(&t1), "100x100: {t1}");
        // ≈330 cycles for 1000×1000 at k=200.
        let t2 = m.tau_cycles(200, 1000 * 1000);
        assert!((310..=350).contains(&t2), "1000x1000: {t2}");
    }

    #[test]
    fn incremental_update_counter() {
        let tau_model = TauModel {
            per_k: 0.1,
            per_sqrt_n: 0.0,
        };
        let mut mst = MstPipeline::new(4, &square_edges(), KPolicy::Fixed(1), tau_model);
        mst.on_cycle(0, |_, out| out.extend([1, 2, 3, 4]));
        mst.on_cycle(1, |_, out| out.extend([1, 2, 3, 4]));
        assert!(mst.completed_computations() >= 1);
        assert_eq!(mst.incremental_updates(), 4);
        // Same weights again: no updates.
        mst.on_cycle(2, |_, out| out.extend([1, 2, 3, 4]));
        assert_eq!(mst.incremental_updates(), 4);
    }
}
