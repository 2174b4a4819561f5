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
//! A completion only records its snapshot as the newest one and counts how
//! many weights it changed; the tree is built from that snapshot when it is
//! next read ([`MstPipeline::current`]), as one Kruskal pass
//! ([`IncrementalMst::set_weights`]) rather than one §5.4.1 update per
//! changed edge. The MST under the `(weight, id)` order is unique and a
//! function of the newest weights alone, and a path in a tree is unique, so
//! routes are identical to applying every completion at once, per edge or
//! in batch; a completion replaced by the next before any route reads the
//! tree costs no rebuild. This is host cost only: the computation's latency
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
    /// Fit through §5.4.1's two measurements (see the module docs).
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
    /// The tree as last read; behind `latest` while `unread` is set.
    current: IncrementalMst,
    /// The newest completed snapshot (all zeros before the first).
    latest: Vec<u32>,
    /// Whether `latest` changed since `current` was last brought up to it.
    unread: bool,
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
            latest: vec![0; edges.len()],
            unread: false,
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
    /// Rebuilds it first if a completion changed the weights since the
    /// last read.
    pub fn current(&mut self) -> &IncrementalMst {
        if self.unread {
            self.current.set_weights(&self.latest);
            self.unread = false;
        }
        &self.current
    }

    /// Monotone generation counter; bumps when a computation completes
    /// (each completion may reshape the tree that routes are read from).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of completed MST computations.
    pub fn completed_computations(&self) -> u64 {
        self.completed_computations
    }

    /// Total edge-weight changes across completed computations: each
    /// completion counts the weights that differ from the previous one's
    /// snapshot, whether or not a read rebuilds the tree from it (§5.4.1's
    /// workload measure: the updates the incremental scheme would process).
    pub fn incremental_updates(&self) -> u64 {
        self.incremental_updates
    }

    /// Number of computations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Advances the pipeline at a cycle boundary. `snapshot` fills the
    /// provided (cleared, capacity-retaining) buffer with the current edge
    /// weights when a new computation starts — the only time activity is
    /// read, so the caller may fold it lazily there. Completions are taken
    /// in order: each replaces the newest snapshot, which [`Self::current`]
    /// builds the tree from. At steady state the weight buffers cycle
    /// between in-flight computations, the newest snapshot and the spare
    /// pool without touching the allocator.
    pub fn on_cycle(&mut self, cycle: u64, snapshot: impl FnOnce(&[(u32, u32)], &mut Vec<u32>)) {
        // Start a new computation every k cycles (including cycle 0).
        if cycle.is_multiple_of(self.k as u64) {
            let mut weights = self.spare_weights.pop().unwrap_or_default();
            weights.clear();
            snapshot(&self.edges, &mut weights);
            assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
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
            let mut f = self.in_flight.pop_front().expect("checked non-empty");
            let changed = f.weights.iter().zip(&self.latest).filter(|(a, b)| a != b);
            let changed = changed.count() as u64;
            if changed > 0 {
                std::mem::swap(&mut self.latest, &mut f.weights);
                self.unread = true;
            }
            self.incremental_updates += changed;
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

    /// The pipeline as it was before completions were applied lazily: every
    /// completion is applied to the tree at once. The reference for
    /// [`lazy_reads_match_eager_apply`].
    struct EagerPipeline {
        k: u64,
        tau: u64,
        current: IncrementalMst,
        in_flight: VecDeque<(u64, Vec<u32>)>,
        generation: u64,
        completed_computations: u64,
        incremental_updates: u64,
    }

    impl EagerPipeline {
        fn on_cycle(&mut self, cycle: u64, weights: &[u32]) {
            if cycle.is_multiple_of(self.k) {
                self.in_flight
                    .push_back((cycle + self.tau, weights.to_vec()));
            }
            while self.in_flight.front().is_some_and(|f| f.0 <= cycle) {
                let (_, w) = self.in_flight.pop_front().expect("checked non-empty");
                self.incremental_updates += self.current.set_weights(&w);
                self.generation += 1;
                self.completed_computations += 1;
            }
        }
    }

    /// A fixed pseudo-random stream (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    /// Random snapshot streams through the lazy pipeline and the eager
    /// reference: k ∈ {1, 2, 5}, τ from one to several periods, reads 1–4
    /// periods apart with long unread stretches, snapshots that repeat,
    /// change a few weights or revert. At every read the trees have the
    /// same edge set and the same paths; the counters agree every cycle.
    #[test]
    fn lazy_reads_match_eager_apply() {
        let (w, h) = (6u32, 5u32);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    edges.push((i, i + 1));
                }
                if y + 1 < h {
                    edges.push((i, i + w));
                }
            }
        }
        let n = (w * h) as usize;
        let mut reads = 0;
        let mut multi_completion_reads = 0;
        for k in [1u32, 2, 5] {
            for (per_k, max_weight) in [(1.0, 4u64), (2.5, 101), (0.6, 4)] {
                let tau_model = TauModel {
                    per_k,
                    per_sqrt_n: 0.0,
                };
                let mut lazy = MstPipeline::new(n, &edges, KPolicy::Fixed(k), tau_model);
                let mut eager = EagerPipeline {
                    k: k as u64,
                    tau: lazy.tau() as u64,
                    current: lazy.current().clone(),
                    in_flight: VecDeque::new(),
                    generation: 0,
                    completed_computations: 0,
                    incremental_updates: 0,
                };
                let mut state = 0xD1CE ^ (k as u64) << 8 ^ max_weight;
                let mut weights = vec![0u32; edges.len()];
                let mut previous = weights.clone();
                let mut next_read = 0u64;
                let mut completions_at_read = 0;
                let label = format!("k={k} tau={} max={max_weight}", lazy.tau());
                for cycle in 0..400u64 {
                    match lcg(&mut state) % 4 {
                        0 => {}
                        1 => std::mem::swap(&mut weights, &mut previous),
                        _ => {
                            previous.clone_from(&weights);
                            for w in &mut weights {
                                if lcg(&mut state).is_multiple_of(3) {
                                    *w = (lcg(&mut state) % max_weight) as u32;
                                }
                            }
                        }
                    }
                    lazy.on_cycle(cycle, |_, out| out.extend_from_slice(&weights));
                    eager.on_cycle(cycle, &weights);
                    let counters = |p: &MstPipeline| {
                        (
                            p.generation(),
                            p.completed_computations(),
                            p.incremental_updates(),
                        )
                    };
                    let want = (
                        eager.generation,
                        eager.completed_computations,
                        eager.incremental_updates,
                    );
                    assert_eq!(counters(&lazy), want, "{label} cycle {cycle}");
                    if cycle < next_read {
                        continue;
                    }
                    reads += 1;
                    if lazy.completed_computations() >= completions_at_read + 2 {
                        multi_completion_reads += 1;
                    }
                    completions_at_read = lazy.completed_computations();
                    let tree = lazy.current();
                    for id in 0..edges.len() as u32 {
                        let got = tree.contains_edge(id);
                        assert_eq!(
                            got,
                            eager.current.contains_edge(id),
                            "{label} cycle {cycle}"
                        );
                    }
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for _ in 0..12 {
                        let a = (lcg(&mut state) % n as u64) as u32;
                        let b = (lcg(&mut state) % n as u64) as u32;
                        assert!(tree.tree_path_into(a, b, &mut got));
                        assert!(eager.current.tree_path_into(a, b, &mut want));
                        assert_eq!(got, want, "{label} cycle {cycle}: {a} -> {b}");
                    }
                    // Reads 1–4 periods apart, and now and then a long
                    // stretch in which completions pile up unread.
                    next_read = cycle
                        + if lcg(&mut state).is_multiple_of(8) {
                            60
                        } else {
                            (1 + lcg(&mut state) % 4) * k as u64
                        };
                }
                assert!(eager.generation > 50, "{label}");
            }
        }
        assert!(
            reads >= 300 && multi_completion_reads >= 100,
            "{reads} / {multi_completion_reads}"
        );
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
