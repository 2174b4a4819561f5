//! CNOT path selection.
//!
//! [`plan_cnot_route`] implements the paper's Algorithm 1: consider every
//! pair of (control-adjacent, target-adjacent) ancillas — up to 4 × 4 = 16
//! pairs — and two candidate paths per pair, the activity-weighted MST tree
//! path and the geometric shortest path; charge 3-cycle edge rotations when
//! the touched side does not expose the required boundary, estimate the
//! start time from the per-ancilla expected free times, and pick the
//! earliest-finishing candidate. Ties go to the shorter path, then to the
//! earlier candidate in enumeration order (pairs in adjacency order, the
//! tree path before the geometric one): the winner is the least
//! `(completion, path length, enumeration index)`.
//!
//! The search is an exact branch and bound. Both candidates of a pair run
//! `a_c → a_t` inclusive, so `max(rotation start, E[f_{a_c}], E[f_{a_t}])`
//! plus the rotation and surgery rounds is a floor on either one's
//! completion, known before any path is read. Pairs are visited in
//! ascending `(floor, enumeration index)` order, first for their geometric
//! candidates (whose lengths the memo knows) and then for their tree
//! candidates. Each visit stops at the first pair whose floor exceeds the
//! best completion, and a candidate whose `(floor, path length, enumeration
//! index)` cannot beat the best key is skipped: a tree path is climbed only
//! as far as it could still win, and a path's expected free times are read
//! only while it still can. The winner is the one an exhaustive loop over
//! every candidate picks.
//!
//! A tree path is read by climbing the rooted MST in `O(path length)`;
//! geometric shortest paths are memoised in a [`PathCache`] for the whole
//! run.
//!
//! [`plan_static_route`] is the baselines' routing: BFS shortest path over
//! currently-free ancillas from the control's Z-edge neighbours to the
//! target's X-edge neighbours, requesting an edge rotation when a side has no
//! usable ancilla (paper Fig 4). It reads the endpoints' precomputed
//! adjacency, collects their side ancillas on the stack and searches in a
//! caller-held [`BfsScratch`] ([`AncillaGraph::shortest_path_into`]), writing
//! the path into a caller buffer: a warm call allocates nothing.
//!
//! Both planners are pure functions of their inputs (tree, static graph,
//! free-time estimates): candidates are enumerated in a fixed adjacency
//! order and ties are broken by that order — hash maps are only ever used
//! for keyed lookups, never iterated — so route choice is deterministic and
//! thread-count invariant, part of the engine's bit-identical schedule
//! contract.

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
///
/// The planner looks up every endpoint pair of a plan, counting each
/// lookup as a hit or a miss, before it reads any path. It then resolves
/// the plan's misses together: one BFS per distinct smaller id, stopping
/// once all of that source's targets are reached
/// ([`AncillaGraph::search_until`]). Each path is the one a search for its
/// pair alone finds.
#[derive(Debug, Default)]
pub struct PathCache {
    /// Paths keyed by `(smaller id, larger id)` and stored from the smaller
    /// id; `None` when the pair is unreachable or not yet searched.
    geo_paths: HashMap<(AncillaIndex, AncillaIndex), Option<Vec<AncillaIndex>>>,
    /// Keys that missed since the last [`Self::resolve`].
    pending: Vec<(AncillaIndex, AncillaIndex)>,
    /// One source's targets, staged from `pending`.
    targets: Vec<AncillaIndex>,
    /// A found path before its exact-size copy into the memo.
    path: Vec<AncillaIndex>,
    bfs: BfsScratch,
    hits: u64,
    misses: u64,
    /// Nodes on the longest memoised path.
    longest: usize,
}

/// A memo key: the pair with its smaller id first.
fn memo_key(a: AncillaIndex, b: AncillaIndex) -> (AncillaIndex, AncillaIndex) {
    (a.min(b), a.max(b))
}

/// Writes `stored` (a memo path, kept from its smaller id) into `out`
/// oriented to start at `a`.
fn extend_from(a: AncillaIndex, stored: &[AncillaIndex], out: &mut Vec<AncillaIndex>) {
    if stored.first() == Some(&a) {
        out.extend_from_slice(stored);
    } else {
        out.extend(stored.iter().rev().copied());
    }
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

    /// Geometric-path lookups that needed a search since construction (one
    /// per distinct endpoint pair looked up).
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
        self.lookup(a, b);
        self.resolve(graph);
        out.clear();
        let Some(p) = self.path(a, b) else {
            return false;
        };
        extend_from(a, p, out);
        true
    }

    /// Counts one lookup of the pair `(a, b)`; a miss is queued for
    /// [`Self::resolve`].
    fn lookup(&mut self, a: AncillaIndex, b: AncillaIndex) {
        let key = memo_key(a, b);
        match self.geo_paths.entry(key) {
            Entry::Occupied(_) => self.hits += 1,
            Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(None);
                self.pending.push(key);
            }
        }
    }

    /// Searches every queued miss: one BFS per distinct smaller id.
    fn resolve(&mut self, graph: &AncillaGraph) {
        if self.pending.is_empty() {
            return;
        }
        // Sized once to the longest possible path.
        self.path.clear();
        self.path.reserve(graph.len());
        self.pending.sort_unstable();
        for group in self.pending.chunk_by(|x, y| x.0 == y.0) {
            let source = group[0].0;
            self.targets.clear();
            self.targets.extend(group.iter().map(|&(_, t)| t));
            graph.search_until(source, &self.targets, &mut self.bfs);
            for &t in &self.targets {
                if self.bfs.path_into(t, &mut self.path) {
                    self.longest = self.longest.max(self.path.len());
                    self.geo_paths.insert((source, t), Some(self.path.clone()));
                }
            }
        }
        self.pending.clear();
    }

    /// The memoised path between `a` and `b`, stored from the smaller id.
    fn path(&self, a: AncillaIndex, b: AncillaIndex) -> Option<&[AncillaIndex]> {
        self.geo_paths.get(&memo_key(a, b))?.as_deref()
    }
}

/// Reusable buffers for [`plan_cnot_route_into`]. One of these lives in the
/// engine's scratch arena; its capacities plateau after the first plans.
#[derive(Debug, Default)]
pub struct RouteScratch {
    tree: Vec<AncillaIndex>,
    pairs: Vec<EndpointPair>,
}

/// One endpoint pair of a plan. Its two candidates share the endpoints,
/// the rotations and so the floor.
#[derive(Debug, Clone, Copy)]
struct EndpointPair {
    a_c: AncillaIndex,
    a_t: AncillaIndex,
    /// The rotations, and the start that the endpoints and rotations alone
    /// allow.
    floor_meta: RoutePlanMeta,
    /// `floor_meta`'s completion: neither candidate completes earlier.
    floor: u64,
    /// Position in enumeration order. Candidate `2·index` is the tree path
    /// and `2·index + 1` the geometric path.
    index: u32,
}

impl EndpointPair {
    /// The rotation and surgery rounds between start and completion.
    fn surgery_rounds(&self) -> u64 {
        self.floor - self.floor_meta.est_start_rounds
    }
}

/// A candidate's rank: completion, then path length, then enumeration
/// index. The least key wins.
type CandidateKey = (u64, usize, u32);

/// The best candidate so far.
#[derive(Debug)]
struct Best<'a> {
    key: CandidateKey,
    pair: EndpointPair,
    /// The memo's geometric path, or `None` for the pair's tree path.
    geo: Option<&'a [AncillaIndex]>,
}

/// The most nodes candidate `index` may have and still beat `bound`, given
/// that it completes no earlier than `floor` (never above the bound's
/// completion: such pairs are not visited).
fn max_len(bound: Option<CandidateKey>, floor: u64, index: u32) -> usize {
    match bound {
        Some((completion, len, best)) if floor == completion => {
            if index < best {
                len
            } else {
                len - 1
            }
        }
        _ => usize::MAX,
    }
}

/// Candidate `index`'s key along `path` from the pair's floor start, or
/// `None` as soon as it cannot beat `bound`: the start only grows along the
/// path, so the scan stops early.
fn candidate_key(
    path: &[AncillaIndex],
    pair: &EndpointPair,
    index: u32,
    bound: Option<CandidateKey>,
    expected_free: &mut impl FnMut(AncillaIndex) -> u64,
) -> Option<CandidateKey> {
    let surgery = pair.surgery_rounds();
    let mut start = pair.floor_meta.est_start_rounds;
    for &a in path {
        start = start.max(expected_free(a));
        if bound.is_some_and(|b| (start + surgery, path.len(), index) >= b) {
            return None;
        }
    }
    Some((start + surgery, path.len(), index))
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
///
/// The search is the module's branch and bound. Every endpoint pair's
/// floor — `max(rotation start, E[f_{a_c}], E[f_{a_t}])` plus the rotation
/// and 2-cycle surgery rounds — is computed first, and every pair is looked
/// up in `cache` in enumeration order, its misses resolved together. Pairs
/// are then visited in ascending `(floor, enumeration index)` order, once
/// for the geometric candidates and once for the tree candidates, each
/// visit stopping where a floor exceeds the best completion. A candidate is
/// climbed, evaluated and copied only while its `(floor, path length,
/// enumeration index)` can still beat the best `(completion, path length,
/// enumeration index)`, so the winner is the one the exhaustive loop keeps:
/// the first earliest-finishing shortest candidate.
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
    let rot = |rotate: bool| if rotate { rot_rounds } else { 0 };
    let c_orient = orientations[control.index()];
    let t_orient = orientations[target.index()];
    let RouteScratch { tree, pairs } = scratch;

    best_path.clear();
    pairs.clear();
    pairs.reserve(c_adj.side.len() * t_adj.side.len());
    for &(c_side, c_tile) in &c_adj.side {
        let Some(a_c) = graph.index_of(c_tile) else {
            continue;
        };
        for &(t_side, t_tile) in &t_adj.side {
            let Some(a_t) = graph.index_of(t_tile) else {
                continue;
            };
            // Control interacts through its Z edge (lattice-surgery CNOT).
            let rotate_control = c_orient.edge_at(c_side) != EdgeType::Z;
            let rotate_target = t_orient.edge_at(t_side) != EdgeType::X;
            // A rotation waits for its endpoint ancilla to drain; the
            // surgery waits for every ancilla on the path, endpoints
            // included.
            let floor_meta = RoutePlanMeta {
                rotate_control,
                rotate_target,
                est_start_rounds: (expected_free(a_c) + rot(rotate_control))
                    .max(expected_free(a_t) + rot(rotate_target)),
            };
            cache.lookup(a_c, a_t);
            pairs.push(EndpointPair {
                a_c,
                a_t,
                floor_meta,
                floor: floor_meta.est_completion_rounds(costs, rounds_per_cycle),
                index: pairs.len() as u32,
            });
        }
    }
    cache.resolve(graph);
    pairs.sort_unstable_by_key(|p| (p.floor, p.index));

    // Two path candidates per endpoint pair: the activity-weighted MST tree
    // path (cheap, precomputed) and the geometric shortest path. On sparse
    // compressed grids tree paths degenerate into long detours whose
    // ancillas rarely all free up together; Algorithm 1 picks whichever
    // candidate finishes first. The geometric candidates are scored first:
    // their lengths are known without a climb, and the best of them bounds
    // every tree climb (a tree path through the routing graph is never
    // shorter than its geometric one). The winner is the least key whatever
    // the order.
    let cache = &*cache;
    let mut best: Option<Best> = None;
    for tree_pass in [false, true] {
        for pair in pairs.iter() {
            let bound = best.as_ref().map(|b| b.key);
            if bound.is_some_and(|(completion, ..)| pair.floor > completion) {
                break;
            }
            let index = 2 * pair.index + u32::from(!tree_pass);
            let max_len = max_len(bound, pair.floor, index);
            let geo = if tree_pass {
                if !mst.tree_path_within(pair.a_c, pair.a_t, max_len, tree) {
                    continue;
                }
                None
            } else {
                match cache.path(pair.a_c, pair.a_t) {
                    Some(path) if path.len() <= max_len => Some(path),
                    _ => continue,
                }
            };
            let path = geo.unwrap_or(tree);
            if let Some(key) = candidate_key(path, pair, index, bound, &mut expected_free) {
                best = Some(Best {
                    key,
                    pair: *pair,
                    geo,
                });
            }
        }
    }

    let Best { key, pair, geo } = best?;
    // Room for the memo's longest path, a bound on nearly every winner: a
    // caller's recycled buffers then stop growing within the first plans,
    // as they did when every improving candidate was copied into them.
    best_path.reserve(cache.longest);
    match geo {
        Some(path) => extend_from(pair.a_c, path, best_path),
        None => {
            mst.tree_path_into(pair.a_c, pair.a_t, best_path);
        }
    }
    Some(RoutePlanMeta {
        est_start_rounds: key.0 - pair.surgery_rounds(),
        ..pair.floor_meta
    })
}

/// Outcome of the baselines' routing attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticRouteOutcome {
    /// A free path exists now; it was written into the caller's path
    /// buffer, control side → target side, inclusive.
    Route,
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

/// One CNOT endpoint's side ancillas as the baseline router sees them.
struct StaticEndpoint {
    /// Free ancillas on the sides exposing the wanted boundary, in
    /// adjacency order (a data tile has at most four sides).
    free_good: [AncillaIndex; 4],
    num_free_good: usize,
    /// Whether any side ancilla exposes the wanted boundary, free or not.
    any_good: bool,
    /// The first free ancilla on another side, if any.
    free_other: Option<AncillaIndex>,
}

impl StaticEndpoint {
    fn new(
        graph: &AncillaGraph,
        adj: &DataAdjacency,
        orient: Orientation,
        want: EdgeType,
        busy: &mut impl FnMut(AncillaIndex) -> bool,
    ) -> Self {
        let mut e = StaticEndpoint {
            free_good: [0; 4],
            num_free_good: 0,
            any_good: false,
            free_other: None,
        };
        for &(side, tile) in &adj.side {
            let Some(idx) = graph.index_of(tile) else {
                continue;
            };
            if orient.edge_at(side) == want {
                e.any_good = true;
                if !busy(idx) {
                    e.free_good[e.num_free_good] = idx;
                    e.num_free_good += 1;
                }
            } else if !busy(idx) && e.free_other.is_none() {
                e.free_other = Some(idx);
            }
        }
        e
    }

    fn free_good(&self) -> &[AncillaIndex] {
        &self.free_good[..self.num_free_good]
    }
}

/// Plans a baseline (greedy / AutoBraid) route: BFS over currently-free
/// ancillas from the control's free Z-side ancillas to the target's free
/// X-side ancillas. When a qubit's required boundary has no *usable*
/// adjacent ancilla but another side has a free one, an edge rotation is
/// requested (Fig 4b); with every resource busy the outcome is
/// [`StaticRouteOutcome::Blocked`].
///
/// The endpoint adjacencies (`c_adj`, `t_adj`) are passed in — the engine
/// computes them once per run — and the search runs in the caller's
/// `scratch`. A found path is written into `path` (cleared first; left
/// empty for any other outcome), so a warm call allocates nothing.
#[allow(clippy::too_many_arguments)]
pub fn plan_static_route(
    graph: &AncillaGraph,
    control: QubitId,
    target: QubitId,
    c_adj: &DataAdjacency,
    t_adj: &DataAdjacency,
    orientations: &[Orientation],
    mut busy: impl FnMut(AncillaIndex) -> bool,
    scratch: &mut BfsScratch,
    path: &mut Vec<AncillaIndex>,
) -> StaticRouteOutcome {
    path.clear();
    let c = StaticEndpoint::new(
        graph,
        c_adj,
        orientations[control.index()],
        EdgeType::Z,
        &mut busy,
    );
    let t = StaticEndpoint::new(
        graph,
        t_adj,
        orientations[target.index()],
        EdgeType::X,
        &mut busy,
    );
    let rotate = |qubit: QubitId, e: &StaticEndpoint| match e.free_other {
        Some(using) => StaticRouteOutcome::NeedRotation { qubit, using },
        None => StaticRouteOutcome::Blocked,
    };

    // No geometric Z-side ancilla at all → the control must rotate.
    if !c.any_good {
        return rotate(control, &c);
    }
    if !t.any_good {
        return rotate(target, &t);
    }
    // Correct side exists but is busy; a free wrong-side ancilla lets us
    // rotate instead of waiting (Fig 4b's scenario).
    if c.num_free_good == 0 {
        return rotate(control, &c);
    }
    if t.num_free_good == 0 {
        return rotate(target, &t);
    }

    if graph.shortest_path_into(c.free_good(), t.free_good(), busy, scratch, path) {
        StaticRouteOutcome::Route
    } else {
        StaticRouteOutcome::Blocked
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

    /// Candidate-path buffers of [`exhaustive_plan_into`].
    #[derive(Default)]
    struct ExhaustiveScratch {
        tree: Vec<AncillaIndex>,
        direct: Vec<AncillaIndex>,
    }

    /// The reference planner: Algorithm 1's exhaustive loop, which reads and
    /// evaluates both candidates of every endpoint pair in enumeration order
    /// and keeps the first candidate with the least `(completion, path
    /// length)`. The branch and bound must pick what this picks.
    #[allow(clippy::too_many_arguments)]
    fn exhaustive_plan_into(
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
        scratch: &mut ExhaustiveScratch,
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

    /// SplitMix64: a self-contained stream for the seeded corpus.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The branch and bound against the exhaustive loop on seeded plans:
    /// 9-, 34- and 100-qubit layouts at 0, 50 and 75% compression, random
    /// orientations, random MST weights applied through `set_weights`, and
    /// `E[f]` maps drawn from small value sets (all zero in the first
    /// round), so that ties in completion and length are common. Each side
    /// keeps its own memo, dropped every third round (cold) and kept
    /// otherwise (warm); after every plan the meta, the path and both memo
    /// counters must agree, and after every round each memo path must be
    /// the single-pair search's.
    #[test]
    fn branch_and_bound_matches_the_exhaustive_loop() {
        let (mut plans, mut routed, mut rotated) = (0u32, 0u32, 0u32);
        for (case, (qubits, compression)) in [9u32, 34, 100]
            .into_iter()
            .flat_map(|n| [0.0, 0.5, 0.75].map(|c| (n, c)))
            .enumerate()
        {
            let mut state = 0x5eed ^ case as u64;
            let mut layout = Layout::new(qubits).unwrap();
            layout.compress(compression, 11 + case as u64);
            let graph = AncillaGraph::from_grid(layout.grid());
            let edges: Vec<(u32, u32, u32)> =
                graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
            let mut mst = IncrementalMst::new(graph.len(), &edges);
            let adjacency: Vec<DataAdjacency> = (0..qubits)
                .map(|q| layout.data_adjacency(QubitId(q)))
                .collect();
            let costs = SurgeryCosts::default();
            let (mut cache, mut reference_cache) = (PathCache::new(), PathCache::new());
            let (mut scratch, mut reference_scratch) =
                (RouteScratch::default(), ExhaustiveScratch::default());
            let (mut path, mut reference_path) = (Vec::new(), Vec::new());
            for round in 0..9u64 {
                if round % 3 == 0 {
                    cache = PathCache::new();
                    reference_cache = PathCache::new();
                }
                let max_weight = [1, 3, 100][(round % 3) as usize];
                let weights: Vec<u32> = edges
                    .iter()
                    .map(|_| (next(&mut state) % max_weight) as u32)
                    .collect();
                mst.set_weights(&weights);
                let orientations: Vec<Orientation> = (0..qubits)
                    .map(|_| match next(&mut state) % 2 {
                        0 => Orientation::Standard,
                        _ => Orientation::Rotated,
                    })
                    .collect();
                let d = [7, 3][(round % 2) as usize];
                // Multiples of d, so that rotation rounds (3d) line up
                // with free times and produce ties.
                let values: &[u64] = match round {
                    0 => &[0],
                    _ => [&[0, 1][..], &[0, 3, 6], &[0, 2, 5, 9], &[4]][(round % 4) as usize],
                };
                let free: Vec<u64> = (0..graph.len())
                    .map(|_| 100 + d * values[(next(&mut state) % values.len() as u64) as usize])
                    .collect();
                for _ in 0..40 {
                    let control = QubitId((next(&mut state) % u64::from(qubits)) as u32);
                    let target = QubitId((next(&mut state) % u64::from(qubits)) as u32);
                    if control == target {
                        continue;
                    }
                    let got = plan_cnot_route_into(
                        &graph,
                        &mst,
                        &mut cache,
                        control,
                        target,
                        &adjacency[control.index()],
                        &adjacency[target.index()],
                        &orientations,
                        &costs,
                        d as u32,
                        |a| free[a as usize],
                        &mut scratch,
                        &mut path,
                    );
                    let want = exhaustive_plan_into(
                        &graph,
                        &mst,
                        &mut reference_cache,
                        control,
                        target,
                        &adjacency[control.index()],
                        &adjacency[target.index()],
                        &orientations,
                        &costs,
                        d as u32,
                        |a| free[a as usize],
                        &mut reference_scratch,
                        &mut reference_path,
                    );
                    let at = format!(
                        "{qubits} qubits at {compression}, round {round}: {control:?} -> {target:?}"
                    );
                    assert_eq!(got, want, "meta, {at}");
                    assert_eq!(path, reference_path, "path, {at}");
                    assert_eq!(cache.hits(), reference_cache.hits(), "hits, {at}");
                    assert_eq!(cache.misses(), reference_cache.misses(), "misses, {at}");
                    plans += 1;
                    routed += u32::from(got.is_some());
                    rotated += u32::from(got.is_some_and(|m| m.rotate_control || m.rotate_target));
                }
                // Batched misses: every memo entry is the path a search for
                // its pair alone finds.
                let mut single = BfsScratch::default();
                for (&(a, b), stored) in &cache.geo_paths {
                    let found = graph.path_between_into(a, b, &mut single, &mut path);
                    assert_eq!(
                        stored.as_deref(),
                        found.then_some(&path[..]),
                        "memo {a}-{b}"
                    );
                }
            }
        }
        // The corpus exercises what it claims to.
        assert!(
            plans > 3000 && routed == plans,
            "{routed} of {plans} plans routed"
        );
        assert!(
            rotated > plans / 10,
            "only {rotated} of {plans} plans rotate"
        );
    }

    #[test]
    fn static_route_simple() {
        let (layout, graph, _) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        let mut path = Vec::new();
        let out = plan_static_route(
            &graph,
            QubitId(0),
            QubitId(1),
            &layout.data_adjacency(QubitId(0)),
            &layout.data_adjacency(QubitId(1)),
            &orientations,
            |_| false,
            &mut BfsScratch::default(),
            &mut path,
        );
        assert_eq!(out, StaticRouteOutcome::Route);
        assert!(!path.is_empty());
    }

    #[test]
    fn static_route_blocked_when_all_busy() {
        let (layout, graph, _) = setup(4);
        let orientations = vec![Orientation::Standard; 4];
        let mut path = vec![7];
        let out = plan_static_route(
            &graph,
            QubitId(0),
            QubitId(1),
            &layout.data_adjacency(QubitId(0)),
            &layout.data_adjacency(QubitId(1)),
            &orientations,
            |_| true,
            &mut BfsScratch::default(),
            &mut path,
        );
        assert_eq!(out, StaticRouteOutcome::Blocked);
        assert!(path.is_empty());
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
            &graph,
            QubitId(0),
            QubitId(1),
            &layout.data_adjacency(QubitId(0)),
            &layout.data_adjacency(QubitId(1)),
            &orientations,
            |a| z_side.contains(&a),
            &mut BfsScratch::default(),
            &mut Vec::new(),
        );
        match out {
            StaticRouteOutcome::NeedRotation { qubit, .. } => assert_eq!(qubit, QubitId(0)),
            other => panic!("expected rotation request, got {other:?}"),
        }
    }
}
