//! CNOT path selection.
//!
//! [`plan_cnot_route`] implements the paper's Algorithm 1: consider every
//! pair of (control-adjacent, target-adjacent) ancillas — up to 4 × 4 = 16
//! candidates — connect each pair along the activity-weighted MST, charge
//! 3-cycle edge rotations when the touched side does not expose the required
//! boundary, estimate the start time from the per-ancilla expected free
//! times, and pick the earliest-finishing plan. A tree path is read by
//! climbing the rooted MST in `O(path length)`; geometric shortest paths are
//! memoised in a [`PathCache`] for the whole run.
//!
//! [`plan_static_route`] is the baselines' routing: BFS shortest path over
//! currently-free ancillas from the control's Z-edge neighbours to the
//! target's X-edge neighbours, requesting an edge rotation when a side has no
//! usable ancilla (paper Fig 4).
//!
//! Both planners are pure functions of their inputs (tree, static graph,
//! free-time estimates): candidates are enumerated in a fixed
//! adjacency order and ties keep the first candidate — hash maps are only
//! ever used for keyed lookups, never iterated — so route choice is
//! deterministic and thread-count invariant, part of the engine's
//! bit-identical schedule contract.

use crate::SurgeryCosts;
use rescq_circuit::QubitId;
use rescq_lattice::{
    AncillaGraph, AncillaIndex, BfsScratch, DataAdjacency, EdgeType, IncrementalMst, Layout,
    Orientation,
};
use std::collections::hash_map::{Entry, HashMap};

/// A chosen CNOT route.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Ancilla path from the control-side endpoint to the target-side
    /// endpoint, inclusive (dense ancilla indices).
    pub path: Vec<AncillaIndex>,
    /// Whether the control patch must be edge-rotated first (3 cycles).
    pub rotate_control: bool,
    /// Whether the target patch must be edge-rotated first (3 cycles).
    pub rotate_target: bool,
    /// Estimated start round of the surgery (Algorithm 1's `startTime`).
    pub est_start_rounds: u64,
}

impl RoutePlan {
    /// Total estimated completion round: start + rotations + the 2-cycle
    /// surgery (Algorithm 1's `E[𝓅 completes]`).
    pub fn est_completion_rounds(&self, costs: &SurgeryCosts, rounds_per_cycle: u32) -> u64 {
        self.meta().est_completion_rounds(costs, rounds_per_cycle)
    }

    fn meta(&self) -> RoutePlanMeta {
        RoutePlanMeta {
            rotate_control: self.rotate_control,
            rotate_target: self.rotate_target,
            est_start_rounds: self.est_start_rounds,
        }
    }
}

/// The non-path fields of a chosen CNOT route — what
/// [`plan_cnot_route_into`] returns alongside the path it writes into the
/// caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePlanMeta {
    /// Whether the control patch must be edge-rotated first (3 cycles).
    pub rotate_control: bool,
    /// Whether the target patch must be edge-rotated first (3 cycles).
    pub rotate_target: bool,
    /// Estimated start round of the surgery (Algorithm 1's `startTime`).
    pub est_start_rounds: u64,
}

impl RoutePlanMeta {
    /// Total estimated completion round: start + rotations + the 2-cycle
    /// surgery (Algorithm 1's `E[𝓅 completes]`).
    pub fn est_completion_rounds(&self, costs: &SurgeryCosts, rounds_per_cycle: u32) -> u64 {
        let rot = (u64::from(self.rotate_control) + u64::from(self.rotate_target))
            * costs.edge_rotation_cycles as u64;
        self.est_start_rounds + (rot + costs.cnot_cycles as u64) * rounds_per_cycle as u64
    }
}

/// Memo of geometric shortest paths between ancilla pairs. The routing
/// graph never changes, so neither does the answer: entries are kept for
/// the whole run. MST tree paths are not cached — a query climbs the
/// rooted tree in `O(path length)` ([`IncrementalMst::tree_path_into`]),
/// which costs no more than copying a cached path would.
#[derive(Debug, Default)]
pub struct PathCache {
    geo_paths: HashMap<(AncillaIndex, AncillaIndex), Option<Vec<AncillaIndex>>>,
    bfs: BfsScratch,
    hits: u64,
    misses: u64,
}

impl PathCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Geometric-path lookups answered from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Geometric-path lookups that ran a search since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Copies the geometric shortest path between two ancillas (oriented to
    /// start at `a`) into `out` and returns whether one exists; memoised
    /// forever (the graph never changes, so neither does the answer). A
    /// miss searches from the smaller id in the held BFS scratch, so the
    /// only allocation it makes (beyond the memo's own growth) is the
    /// cached copy of the path.
    pub fn geo_path_into(
        &mut self,
        graph: &AncillaGraph,
        a: AncillaIndex,
        b: AncillaIndex,
        out: &mut Vec<AncillaIndex>,
    ) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        let cached = match self.geo_paths.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                let found = graph.path_between_into(key.0, key.1, &mut self.bfs, out);
                e.insert(found.then(|| out.clone()))
            }
        };
        let Some(p) = cached else {
            return false;
        };
        out.clear();
        if p.first() == Some(&a) {
            out.extend_from_slice(p);
        } else {
            out.extend(p.iter().rev().copied());
        }
        true
    }
}

/// Reusable candidate-path buffers for [`plan_cnot_route_into`]. One of
/// these lives in the engine's scratch arena; its capacity plateaus at the
/// longest candidate path.
#[derive(Debug, Default)]
pub struct RouteScratch {
    tree: Vec<AncillaIndex>,
    direct: Vec<AncillaIndex>,
}

/// Plans a CNOT route with Algorithm 1 (RESCQ).
///
/// `expected_free` returns the estimated round at which an ancilla's queue
/// drains (`E[f_a]`, §4.2). Returns `None` only when control or target has no
/// adjacent ancilla at all.
///
/// Thin allocating wrapper over [`plan_cnot_route_into`] (which the engine's
/// hot path calls with recycled buffers). `_mst_generation` is unused: tree
/// paths are no longer cached per MST generation. It stays so existing
/// callers keep compiling.
#[allow(clippy::too_many_arguments)]
pub fn plan_cnot_route(
    layout: &Layout,
    graph: &AncillaGraph,
    mst: &IncrementalMst,
    _mst_generation: u64,
    cache: &mut PathCache,
    control: QubitId,
    target: QubitId,
    orientations: &[Orientation],
    costs: &SurgeryCosts,
    rounds_per_cycle: u32,
    expected_free: impl FnMut(AncillaIndex) -> u64,
) -> Option<RoutePlan> {
    let mut scratch = RouteScratch::default();
    let mut path = Vec::new();
    let meta = plan_cnot_route_into(
        graph,
        mst,
        cache,
        control,
        target,
        &layout.data_adjacency(control),
        &layout.data_adjacency(target),
        orientations,
        costs,
        rounds_per_cycle,
        expected_free,
        &mut scratch,
        &mut path,
    )?;
    Some(RoutePlan {
        path,
        rotate_control: meta.rotate_control,
        rotate_target: meta.rotate_target,
        est_start_rounds: meta.est_start_rounds,
    })
}

/// [`plan_cnot_route`] writing the winning path into `best_path` (cleared
/// first; left cleared when no route exists) and returning its metadata.
/// The endpoint adjacencies (`c_adj`, `t_adj`) are passed in — the engine
/// precomputes them per qubit — and candidate paths stage through `scratch`,
/// so a steady-state call performs no heap allocation once the geometric
/// memo and buffer capacities have plateaued.
#[allow(clippy::too_many_arguments)]
pub fn plan_cnot_route_into(
    graph: &AncillaGraph,
    mst: &IncrementalMst,
    cache: &mut PathCache,
    control: QubitId,
    target: QubitId,
    c_adj: &DataAdjacency,
    t_adj: &DataAdjacency,
    orientations: &[Orientation],
    costs: &SurgeryCosts,
    rounds_per_cycle: u32,
    mut expected_free: impl FnMut(AncillaIndex) -> u64,
    scratch: &mut RouteScratch,
    best_path: &mut Vec<AncillaIndex>,
) -> Option<RoutePlanMeta> {
    let rot_rounds = costs.edge_rotation_cycles as u64 * rounds_per_cycle as u64;
    let c_orient = orientations[control.index()];
    let t_orient = orientations[target.index()];

    best_path.clear();
    let mut best: Option<RoutePlanMeta> = None;
    for &(c_side, c_tile) in &c_adj.side {
        let Some(a_c) = graph.index_of(c_tile) else {
            continue;
        };
        for &(t_side, t_tile) in &t_adj.side {
            let Some(a_t) = graph.index_of(t_tile) else {
                continue;
            };
            let mut start: u64 = 0;
            // Control interacts through its Z edge (lattice-surgery CNOT).
            let rotate_control = c_orient.edge_at(c_side) != EdgeType::Z;
            if rotate_control {
                start = start.max(expected_free(a_c) + rot_rounds);
            }
            let rotate_target = t_orient.edge_at(t_side) != EdgeType::X;
            if rotate_target {
                start = start.max(expected_free(a_t) + rot_rounds);
            }
            // Two path candidates per endpoint pair: the activity-weighted
            // MST tree path (cheap, precomputed) and the geometric shortest
            // path. On sparse compressed grids tree paths degenerate into
            // long detours whose ancillas rarely all free up together;
            // Algorithm 1 picks whichever candidate finishes first.
            let has_tree = mst.tree_path_into(a_c, a_t, &mut scratch.tree);
            let has_direct = cache.geo_path_into(graph, a_c, a_t, &mut scratch.direct);
            let candidates = [
                has_tree.then_some(&scratch.tree),
                has_direct.then_some(&scratch.direct),
            ];
            for path in candidates.into_iter().flatten() {
                let mut start = start;
                for &a in path {
                    start = start.max(expected_free(a));
                }
                let meta = RoutePlanMeta {
                    rotate_control,
                    rotate_target,
                    est_start_rounds: start,
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        // Earliest completion wins; ties break towards
                        // shorter paths (fewer ancillas claimed ⇒ less
                        // future congestion).
                        let key = (
                            meta.est_completion_rounds(costs, rounds_per_cycle),
                            path.len(),
                        );
                        key < (
                            b.est_completion_rounds(costs, rounds_per_cycle),
                            best_path.len(),
                        )
                    }
                };
                if better {
                    best = Some(meta);
                    best_path.clone_from(path);
                }
            }
        }
    }
    best
}

/// Outcome of the baselines' routing attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticRouteOutcome {
    /// A free path exists now.
    Route {
        /// Ancilla path, control side → target side, inclusive.
        path: Vec<AncillaIndex>,
    },
    /// A boundary must be edge-rotated first, using the given free ancilla.
    NeedRotation {
        /// Which qubit to rotate.
        qubit: QubitId,
        /// The free adjacent ancilla assisting the rotation.
        using: AncillaIndex,
    },
    /// All candidate resources are busy; retry later.
    Blocked,
}

/// Plans a baseline (greedy / AutoBraid) route: BFS over currently-free
/// ancillas. When a qubit's required boundary has no *usable* adjacent
/// ancilla but another side has a free one, an edge rotation is requested
/// (Fig 4b); with every resource busy the outcome is [`StaticRouteOutcome::Blocked`].
pub fn plan_static_route(
    layout: &Layout,
    graph: &AncillaGraph,
    control: QubitId,
    target: QubitId,
    orientations: &[Orientation],
    mut busy: impl FnMut(AncillaIndex) -> bool,
) -> StaticRouteOutcome {
    let endpoints = |q: QubitId, want: EdgeType, busy: &mut dyn FnMut(AncillaIndex) -> bool| {
        let orient = orientations[q.index()];
        let mut free_good = Vec::new();
        let mut any_good = false;
        let mut free_other = None;
        for &(side, tile) in &layout.data_adjacency(q).side {
            let Some(idx) = graph.index_of(tile) else {
                continue;
            };
            if orient.edge_at(side) == want {
                any_good = true;
                if !busy(idx) {
                    free_good.push(idx);
                }
            } else if !busy(idx) && free_other.is_none() {
                free_other = Some(idx);
            }
        }
        (free_good, any_good, free_other)
    };

    let (c_free, c_any, c_other) = endpoints(control, EdgeType::Z, &mut busy);
    let (t_free, t_any, t_other) = endpoints(target, EdgeType::X, &mut busy);

    // No geometric Z-side ancilla at all → the control must rotate.
    if !c_any {
        return match c_other {
            Some(a) => StaticRouteOutcome::NeedRotation {
                qubit: control,
                using: a,
            },
            None => StaticRouteOutcome::Blocked,
        };
    }
    if !t_any {
        return match t_other {
            Some(a) => StaticRouteOutcome::NeedRotation {
                qubit: target,
                using: a,
            },
            None => StaticRouteOutcome::Blocked,
        };
    }
    if c_free.is_empty() {
        // Correct side exists but is busy; a free wrong-side ancilla lets us
        // rotate instead of waiting (Fig 4b's scenario).
        return match c_other {
            Some(a) => StaticRouteOutcome::NeedRotation {
                qubit: control,
                using: a,
            },
            None => StaticRouteOutcome::Blocked,
        };
    }
    if t_free.is_empty() {
        return match t_other {
            Some(a) => StaticRouteOutcome::NeedRotation {
                qubit: target,
                using: a,
            },
            None => StaticRouteOutcome::Blocked,
        };
    }

    match graph.shortest_path(&c_free, &t_free, busy) {
        Some(path) => StaticRouteOutcome::Route { path },
        None => StaticRouteOutcome::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u32) -> (Layout, AncillaGraph, IncrementalMst) {
        let layout = Layout::new(n).unwrap();
        let graph = AncillaGraph::from_grid(layout.grid());
        let edges: Vec<(u32, u32, u32)> = graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
        let mst = IncrementalMst::new(graph.len(), &edges);
        (layout, graph, mst)
    }

    #[test]
    fn adjacent_qubits_route_without_rotation() {
        let (layout, graph, mst) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        let mut cache = PathCache::new();
        let plan = plan_cnot_route(
            &layout,
            &graph,
            &mst,
            0,
            &mut cache,
            QubitId(0),
            QubitId(1),
            &orientations,
            &SurgeryCosts::default(),
            7,
            |_| 0,
        )
        .expect("route exists");
        assert!(!plan.rotate_control);
        assert!(!plan.rotate_target);
        assert_eq!(plan.est_start_rounds, 0);
        assert!(!plan.path.is_empty());
    }

    #[test]
    fn rotated_control_pays_penalty() {
        let (layout, graph, mst) = setup(4);
        // Control's patch was flipped by a Hadamard: Z edges now vertical.
        let mut orientations = vec![Orientation::Standard; 4];
        orientations[0] = Orientation::Rotated;
        let mut cache = PathCache::new();
        let plan = plan_cnot_route(
            &layout,
            &graph,
            &mst,
            0,
            &mut cache,
            QubitId(0),
            QubitId(1),
            &orientations,
            &SurgeryCosts::default(),
            7,
            |_| 0,
        )
        .expect("route exists");
        // q0 at (0,1) has ancilla neighbours N (Z under Standard) and E (X).
        // Rotated: N is X, E is Z → either rotate, or approach via E which is
        // now a Z edge — Algorithm 1 should find the rotation-free option.
        assert!(!plan.rotate_control, "E side is a Z edge after rotation");
    }

    #[test]
    fn busy_path_prefers_quieter_candidates() {
        let (layout, graph, mst) = setup(9);
        let orientations = vec![Orientation::Standard; 9];
        let mut cache = PathCache::new();
        // Make one specific endpoint very busy; the planner should avoid it
        // if an alternative with equal geometry exists.
        let busy_tile = layout.data_adjacency(QubitId(0)).side[0].1;
        let busy_idx = graph.index_of(busy_tile).unwrap();
        let plan = plan_cnot_route(
            &layout,
            &graph,
            &mst,
            0,
            &mut cache,
            QubitId(0),
            QubitId(3),
            &orientations,
            &SurgeryCosts::default(),
            7,
            |a| if a == busy_idx { 1000 } else { 0 },
        )
        .expect("route exists");
        assert!(
            !plan.path.contains(&busy_idx) || plan.est_start_rounds >= 1000,
            "planner should route around the busy ancilla when possible"
        );
    }

    #[test]
    fn path_cache_hits_on_repeat() {
        let (layout, graph, mst) = setup(9);
        let orientations = vec![Orientation::Standard; 9];
        let mut cache = PathCache::new();
        let plan = |cache: &mut PathCache| {
            plan_cnot_route(
                &layout,
                &graph,
                &mst,
                0,
                cache,
                QubitId(0),
                QubitId(8),
                &orientations,
                &SurgeryCosts::default(),
                7,
                |_| 0,
            )
            .expect("route exists")
        };
        // The first plan searches each endpoint pair once; repeats are
        // answered by the memo with the same route.
        let first = plan(&mut cache);
        let pairs = cache.misses();
        assert!(pairs > 0);
        assert_eq!(
            cache.hits(),
            0,
            "each endpoint pair is looked up once per plan"
        );
        for round in 1..=2 {
            assert_eq!(plan(&mut cache), first);
            assert_eq!(cache.misses(), pairs, "a repeat must not search again");
            assert_eq!(cache.hits(), round * pairs);
        }
    }

    #[test]
    fn static_route_simple() {
        let (layout, graph, _) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        let out = plan_static_route(
            &layout,
            &graph,
            QubitId(0),
            QubitId(1),
            &orientations,
            |_| false,
        );
        match out {
            StaticRouteOutcome::Route { path } => assert!(!path.is_empty()),
            other => panic!("expected a route, got {other:?}"),
        }
    }

    #[test]
    fn static_route_blocked_when_all_busy() {
        let (layout, graph, _) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        let out = plan_static_route(
            &layout,
            &graph,
            QubitId(0),
            QubitId(1),
            &orientations,
            |_| true,
        );
        assert_eq!(out, StaticRouteOutcome::Blocked);
    }

    #[test]
    fn static_route_requests_rotation_when_z_side_busy() {
        let (layout, graph, _) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        // Mark every Z-side (north/south) ancilla of q0 busy while keeping
        // its east (X-side) ancilla free: Fig 4b's rotate-instead-of-wait.
        let z_side: Vec<_> = layout
            .data_adjacency(QubitId(0))
            .side
            .iter()
            .filter(|&&(s, _)| s.is_horizontal_boundary())
            .map(|&(_, t)| graph.index_of(t).unwrap())
            .collect();
        assert!(!z_side.is_empty());
        let out = plan_static_route(
            &layout,
            &graph,
            QubitId(0),
            QubitId(1),
            &orientations,
            |a| z_side.contains(&a),
        );
        match out {
            StaticRouteOutcome::NeedRotation { qubit, .. } => assert_eq!(qubit, QubitId(0)),
            other => panic!("expected rotation request, got {other:?}"),
        }
    }
}
