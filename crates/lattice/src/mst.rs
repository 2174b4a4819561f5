//! Minimum spanning tree with the paper's incremental edge-weight updates
//! (§4.2, §5.4.1).
//!
//! RESCQ routes CNOTs along the MST of the ancilla graph weighted by recent
//! *activity*: the minimax-path property of MSTs guarantees the tree contains,
//! for every node pair, the path minimizing the maximum edge weight — i.e. the
//! path whose busiest ancilla was least busy (§4.2). Because activities change
//! every cycle, §5.4.1 maintains the tree incrementally; only two of the four
//! weight-update cases require structural work:
//!
//! 1. a **non-tree** edge's weight **decreases** → insert it, evict the
//!    heaviest edge of the created cycle;
//! 2. a **tree** edge's weight **increases** → remove it, reconnect the two
//!    components with the lightest crossing edge.
//!
//! Ties are broken by edge id so the tree equals the unique Kruskal MST under
//! the `(weight, id)` total order — property-tested in this module.
//!
//! [`IncrementalMst::update_weight`] is that per-edge API. The simulator
//! instead hands each completed recomputation to
//! [`IncrementalMst::set_weights`], which stores the whole snapshot and, if
//! any weight changed, rebuilds with one Kruskal pass. Because the MST under
//! a strict total order is unique, both paths yield the same edge set, and
//! since a path in a tree is unique too, every route read through
//! [`IncrementalMst::tree_path_into`] is identical.

use crate::graph::UnionFind;
use std::collections::VecDeque;

/// Identifier of an edge within an [`IncrementalMst`] (its index in the edge
/// list passed at construction).
pub type EdgeId = u32;

/// Dense node index (matches [`crate::AncillaGraph`] indices).
pub type NodeId = u32;

#[derive(Debug, Clone, Copy)]
struct Edge {
    a: NodeId,
    b: NodeId,
    weight: u32,
}

/// Reusable BFS working set for [`IncrementalMst::tree_path_into`]. Holding
/// one of these across queries keeps repeated path lookups allocation-free
/// once its capacity has plateaued at the node count.
#[derive(Debug, Default, Clone)]
pub struct TreePathScratch {
    prev: Vec<u32>,
    queue: VecDeque<NodeId>,
}

/// A dynamically maintained minimum spanning forest over a fixed edge set.
///
/// Construction runs Kruskal; [`IncrementalMst::update_weight`] applies the
/// §5.4.1 cases one edge at a time, and [`IncrementalMst::set_weights`]
/// applies a whole snapshot as one Kruskal pass. On a connected graph the
/// structure is a spanning tree.
///
/// # Example
///
/// ```
/// use rescq_lattice::IncrementalMst;
///
/// // A 4-cycle: 0-1-2-3-0.
/// let edges = vec![(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
/// let mut mst = IncrementalMst::new(4, &edges);
/// assert!(!mst.contains_edge(0)); // the weight-5 edge is excluded
///
/// // Its weight drops below the others: it enters, evicting the heaviest
/// // cycle edge.
/// mst.update_weight(0, 0);
/// assert!(mst.contains_edge(0));
/// assert_eq!(mst.total_weight(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMst {
    num_nodes: usize,
    edges: Vec<Edge>,
    in_tree: Vec<bool>,
    /// Tree adjacency: `(neighbor, edge id)`.
    tree_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Reusable working set for [`Self::update_weight`]'s cycle query (case
    /// 1) — per-cycle weight updates must not hit the allocator once warm.
    upd_scratch: TreePathScratch,
    /// Path-node buffer paired with `upd_scratch`.
    upd_path: Vec<NodeId>,
    /// Reusable reachability marks for [`Self::update_weight`]'s reconnect
    /// search (case 2).
    upd_seen: Vec<bool>,
    /// BFS queue paired with `upd_seen`.
    upd_queue: VecDeque<NodeId>,
    /// Kruskal scan order, a permutation of the edge ids re-sorted in place
    /// by [`Self::rebuild`]; held so batch applies do not allocate.
    kruskal_order: Vec<EdgeId>,
    /// Kruskal's component forest, reset (capacity kept) per rebuild.
    kruskal_uf: UnionFind,
}

impl IncrementalMst {
    /// Builds the MST of `(a, b, weight)` edges over `num_nodes` nodes via
    /// Kruskal with `(weight, id)` tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `≥ num_nodes`.
    pub fn new(num_nodes: usize, edges: &[(NodeId, NodeId, u32)]) -> Self {
        let edges: Vec<Edge> = edges
            .iter()
            .map(|&(a, b, weight)| {
                assert!((a as usize) < num_nodes && (b as usize) < num_nodes);
                Edge { a, b, weight }
            })
            .collect();
        // A node's tree degree never exceeds its graph degree, so sizing
        // each adjacency list to the latter keeps rebuilds allocation-free.
        let mut degree = vec![0usize; num_nodes];
        for e in &edges {
            degree[e.a as usize] += 1;
            degree[e.b as usize] += 1;
        }
        let mut mst = IncrementalMst {
            num_nodes,
            in_tree: vec![false; edges.len()],
            tree_adj: degree.into_iter().map(Vec::with_capacity).collect(),
            kruskal_order: (0..edges.len() as EdgeId).collect(),
            kruskal_uf: UnionFind::new(num_nodes),
            edges,
            upd_scratch: TreePathScratch::default(),
            upd_path: Vec::new(),
            upd_seen: vec![false; num_nodes],
            upd_queue: VecDeque::new(),
        };
        mst.rebuild();
        mst
    }

    /// Recomputes the tree from scratch (Kruskal) with the held scratch, so
    /// it allocates nothing. Exposed for benchmarking against the
    /// incremental path.
    pub fn rebuild(&mut self) {
        self.in_tree.fill(false);
        for adj in &mut self.tree_adj {
            adj.clear();
        }
        let edges = &self.edges;
        // `(weight, id)` keys are distinct, so an unstable (non-allocating)
        // sort gives the same order as a stable one.
        self.kruskal_order
            .sort_unstable_by_key(|&i| (edges[i as usize].weight, i));
        self.kruskal_uf.reset(self.num_nodes);
        for &id in &self.kruskal_order {
            let e = edges[id as usize];
            if self.kruskal_uf.union(e.a, e.b) {
                self.in_tree[id as usize] = true;
                self.tree_adj[e.a as usize].push((e.b, id));
                self.tree_adj[e.b as usize].push((e.a, id));
            }
        }
    }

    /// Stores a whole weight snapshot (`weights[id]` for every edge) and
    /// returns how many weights changed. If any did, the tree is rebuilt by
    /// one Kruskal pass; the result is the same edge set as applying
    /// [`Self::update_weight`] to each changed edge, at `O(E log E)` for the
    /// batch instead of up to `O(V + E)` per changed edge.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the edge count.
    pub fn set_weights(&mut self, weights: &[u32]) -> u64 {
        assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
        let mut changed = 0;
        for (e, &w) in self.edges.iter_mut().zip(weights) {
            if e.weight != w {
                e.weight = w;
                changed += 1;
            }
        }
        if changed > 0 {
            self.rebuild();
        }
        changed
    }

    fn link(&mut self, id: EdgeId) {
        let e = self.edges[id as usize];
        self.in_tree[id as usize] = true;
        self.tree_adj[e.a as usize].push((e.b, id));
        self.tree_adj[e.b as usize].push((e.a, id));
    }

    fn unlink(&mut self, id: EdgeId) {
        let e = self.edges[id as usize];
        self.in_tree[id as usize] = false;
        self.tree_adj[e.a as usize].retain(|&(_, eid)| eid != id);
        self.tree_adj[e.b as usize].retain(|&(_, eid)| eid != id);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges in the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether edge `id` is currently in the tree.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.in_tree[id as usize]
    }

    /// Current weight of edge `id`.
    pub fn weight(&self, id: EdgeId) -> u32 {
        self.edges[id as usize].weight
    }

    /// Endpoints of edge `id`.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = self.edges[id as usize];
        (e.a, e.b)
    }

    /// Sum of tree edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges
            .iter()
            .zip(&self.in_tree)
            .filter(|(_, &t)| t)
            .map(|(e, _)| e.weight as u64)
            .sum()
    }

    /// Number of tree edges (`num_nodes − #components`).
    pub fn tree_size(&self) -> usize {
        self.in_tree.iter().filter(|&&t| t).count()
    }

    /// Updates edge `id` to `new_weight`, restructuring per §5.4.1.
    ///
    /// Only two cases do structural work; the other two just store the
    /// weight. Amortized cost on grid graphs is `O(path length)`.
    pub fn update_weight(&mut self, id: EdgeId, new_weight: u32) {
        let old = self.edges[id as usize].weight;
        self.edges[id as usize].weight = new_weight;
        if new_weight < old && !self.in_tree[id as usize] {
            // Case 1: cheaper non-tree edge. Insert and evict the heaviest
            // edge on the tree path between its endpoints (the cycle). The
            // path query runs through the held scratch — weight updates
            // arrive every cycle, so this must not hit the allocator warm.
            let e = self.edges[id as usize];
            let mut scratch = std::mem::take(&mut self.upd_scratch);
            let mut nodes = std::mem::take(&mut self.upd_path);
            let connected = self.tree_path_into(e.a, e.b, &mut scratch, &mut nodes);
            self.upd_scratch = scratch;
            if !connected {
                // Endpoints were in different components: the edge now joins
                // them.
                self.upd_path = nodes;
                self.link(id);
                return;
            }
            let mut worst: Option<(u32, EdgeId)> = None;
            for pair in nodes.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                let &(_, eid) = self.tree_adj[u as usize]
                    .iter()
                    .find(|&&(n, _)| n == v)
                    .expect("consecutive path nodes are tree-adjacent");
                let key = (self.edges[eid as usize].weight, eid);
                if worst.is_none_or(|w| key > w) {
                    worst = Some(key);
                }
            }
            self.upd_path = nodes;
            let worst_key = worst.expect("cycle has at least one edge");
            if (new_weight, id) < worst_key {
                self.unlink(worst_key.1);
                self.link(id);
            }
        } else if new_weight > old && self.in_tree[id as usize] {
            // Case 2: tree edge became heavier. Remove it and reconnect with
            // the lightest crossing edge (possibly itself).
            self.unlink(id);
            let e = self.edges[id as usize];
            self.mark_component(e.a);
            let mut best: Option<(u32, EdgeId)> = Some((new_weight, id));
            for (eid, edge) in self.edges.iter().enumerate() {
                let eid = eid as EdgeId;
                if self.in_tree[eid as usize] {
                    continue;
                }
                if self.upd_seen[edge.a as usize] != self.upd_seen[edge.b as usize] {
                    let key = (edge.weight, eid);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            if let Some((_, eid)) = best {
                self.link(eid);
            }
        }
    }

    /// Marks nodes reachable from `start` using tree edges in
    /// `self.upd_seen` (reset first; reused across calls).
    fn mark_component(&mut self, start: NodeId) {
        self.upd_seen.clear();
        self.upd_seen.resize(self.num_nodes, false);
        self.upd_queue.clear();
        self.upd_seen[start as usize] = true;
        self.upd_queue.push_back(start);
        while let Some(u) = self.upd_queue.pop_front() {
            for &(v, _) in &self.tree_adj[u as usize] {
                if !self.upd_seen[v as usize] {
                    self.upd_seen[v as usize] = true;
                    self.upd_queue.push_back(v);
                }
            }
        }
    }

    /// The unique tree path between `a` and `b` as node ids (inclusive), or
    /// `None` if they are in different components.
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut scratch = TreePathScratch::default();
        let mut out = Vec::new();
        self.tree_path_into(a, b, &mut scratch, &mut out)
            .then_some(out)
    }

    /// [`Self::tree_path`] into a caller-provided buffer: writes the path
    /// into `out` (cleared first) and returns whether one exists. The BFS
    /// working set lives in `scratch`, so repeated queries — e.g. path-cache
    /// refills after an MST generation bump — allocate nothing once the
    /// scratch capacity has plateaued.
    pub fn tree_path_into(
        &self,
        a: NodeId,
        b: NodeId,
        scratch: &mut TreePathScratch,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        if a == b {
            out.push(a);
            return true;
        }
        // `prev` doubles as the seen-marker: `UNSEEN` = unvisited, `ROOT`
        // marks the BFS source (node ids never reach either sentinel).
        const UNSEEN: u32 = u32::MAX;
        const ROOT: u32 = u32::MAX - 1;
        scratch.prev.clear();
        scratch.prev.resize(self.num_nodes, UNSEEN);
        scratch.queue.clear();
        scratch.prev[a as usize] = ROOT;
        scratch.queue.push_back(a);
        while let Some(u) = scratch.queue.pop_front() {
            if u == b {
                out.push(b);
                let mut cur = b;
                while scratch.prev[cur as usize] != ROOT {
                    cur = scratch.prev[cur as usize];
                    out.push(cur);
                }
                out.reverse();
                return true;
            }
            for &(v, _) in &self.tree_adj[u as usize] {
                if scratch.prev[v as usize] == UNSEEN {
                    scratch.prev[v as usize] = u;
                    scratch.queue.push_back(v);
                }
            }
        }
        out.clear();
        false
    }

    /// The edge ids along the tree path between `a` and `b`.
    pub fn tree_path_edges(&self, a: NodeId, b: NodeId) -> Option<Vec<EdgeId>> {
        let nodes = self.tree_path(a, b)?;
        let mut out = Vec::with_capacity(nodes.len().saturating_sub(1));
        for pair in nodes.windows(2) {
            let (u, v) = (pair[0], pair[1]);
            let &(_, eid) = self.tree_adj[u as usize]
                .iter()
                .find(|&&(n, _)| n == v)
                .expect("consecutive path nodes are tree-adjacent");
            out.push(eid);
        }
        Some(out)
    }

    /// Maximum edge weight along the tree path (the minimax bottleneck).
    pub fn bottleneck(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let edges = self.tree_path_edges(a, b)?;
        Some(
            edges
                .iter()
                .map(|&e| self.edges[e as usize].weight)
                .max()
                .unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_edges(w: u32, h: u32) -> Vec<(NodeId, NodeId, u32)> {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    edges.push((i, i + 1, 1));
                }
                if y + 1 < h {
                    edges.push((i, i + w, 1));
                }
            }
        }
        edges
    }

    #[test]
    fn kruskal_spans_connected_graph() {
        let mst = IncrementalMst::new(9, &grid_edges(3, 3));
        assert_eq!(mst.tree_size(), 8);
        for a in 0..9 {
            for b in 0..9 {
                assert!(mst.tree_path(a, b).is_some());
            }
        }
    }

    #[test]
    fn case1_insert_cheaper_edge() {
        // Square cycle with one expensive edge.
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert!(!mst.contains_edge(0));
        assert_eq!(mst.total_weight(), 3);
        mst.update_weight(0, 0);
        assert!(mst.contains_edge(0));
        assert_eq!(mst.total_weight(), 2);
        assert_eq!(mst.tree_size(), 3);
    }

    #[test]
    fn case1_no_swap_when_still_heaviest() {
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        mst.update_weight(0, 5); // cheaper but still the worst
        assert!(!mst.contains_edge(0));
        assert_eq!(mst.total_weight(), 3);
    }

    #[test]
    fn case2_tree_edge_heavier_gets_replaced() {
        let edges = vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 5)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert!(mst.contains_edge(1));
        mst.update_weight(1, 100);
        assert!(!mst.contains_edge(1));
        assert!(mst.contains_edge(3)); // the weight-5 edge reconnects
        assert_eq!(mst.tree_size(), 3);
        assert_eq!(mst.total_weight(), 1 + 1 + 5);
    }

    #[test]
    fn case2_no_alternative_keeps_edge() {
        // A path graph: removing any edge cannot be repaired.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let mut mst = IncrementalMst::new(3, &edges);
        mst.update_weight(0, 50);
        assert!(mst.contains_edge(0));
        assert_eq!(mst.tree_size(), 2);
    }

    #[test]
    fn passive_cases_do_not_restructure() {
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        let before: Vec<bool> = (0..4).map(|i| mst.contains_edge(i)).collect();
        mst.update_weight(1, 0); // tree edge decreases: case 3, no-op
        mst.update_weight(0, 20); // non-tree edge increases: case 4, no-op
        let after: Vec<bool> = (0..4).map(|i| mst.contains_edge(i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn bottleneck_is_minimax() {
        let mut edges = grid_edges(3, 3);
        // Make the direct edge 0-1 expensive; the detour 0-3-4-1 is cheaper.
        edges[0].2 = 9;
        let mst = IncrementalMst::new(9, &edges);
        assert_eq!(mst.bottleneck(0, 1), Some(1));
    }

    /// A fixed pseudo-random stream (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    fn edge_set(mst: &IncrementalMst) -> Vec<bool> {
        (0..mst.num_edges() as EdgeId)
            .map(|id| mst.contains_edge(id))
            .collect()
    }

    #[test]
    fn incremental_matches_fresh_kruskal_on_sequence() {
        let mut edges = grid_edges(4, 4);
        let mut inc = IncrementalMst::new(16, &edges);
        let mut state = 0x12345678u64;
        for step in 0..200 {
            let eid = (lcg(&mut state) >> 17) as usize % edges.len();
            let w = (lcg(&mut state) % 50) as u32;
            edges[eid].2 = w;
            inc.update_weight(eid as u32, w);
            let fresh = IncrementalMst::new(16, &edges);
            assert_eq!(edge_set(&inc), edge_set(&fresh), "diverged at step {step}");
            assert_eq!(inc.tree_size(), 15);
        }
    }

    /// Applies `batches` snapshots, each changing about a quarter of the
    /// weights to values in `0..max_weight`, both through
    /// [`IncrementalMst::set_weights`] and through per-edge
    /// [`IncrementalMst::update_weight`] calls in id order; the edge sets
    /// and changed counts must agree after every batch.
    fn assert_batch_matches_per_edge(
        num_nodes: usize,
        edges: &[(NodeId, NodeId, u32)],
        max_weight: u64,
        seed: u64,
        batches: usize,
    ) {
        let mut batch = IncrementalMst::new(num_nodes, edges);
        let mut per_edge = batch.clone();
        let mut weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
        let mut state = seed;
        for step in 0..batches {
            for w in &mut weights {
                if lcg(&mut state).is_multiple_of(4) {
                    *w = (lcg(&mut state) % max_weight) as u32;
                }
            }
            let mut changed = 0;
            for (id, &w) in weights.iter().enumerate() {
                if per_edge.weight(id as EdgeId) != w {
                    per_edge.update_weight(id as EdgeId, w);
                    changed += 1;
                }
            }
            assert_eq!(batch.set_weights(&weights), changed, "step {step}");
            assert_eq!(edge_set(&batch), edge_set(&per_edge), "step {step}");
        }
    }

    #[test]
    fn set_weights_matches_per_edge_updates_on_tied_grids() {
        // Weights 0..4 on a grid make most Kruskal decisions tie-breaks by
        // id, which is where a different order would show.
        for (seed, (w, h)) in [(1u64, (3, 3)), (2, (6, 5)), (3, (12, 12))] {
            let edges = grid_edges(w, h);
            assert_batch_matches_per_edge((w * h) as usize, &edges, 4, seed, 40);
        }
        // Wide weights as well, like activity snapshots.
        assert_batch_matches_per_edge(64, &grid_edges(8, 8), 200, 4, 40);
    }

    #[test]
    fn set_weights_matches_per_edge_updates_on_a_forest() {
        // Two grid components plus an isolated node.
        let mut edges = grid_edges(4, 3);
        edges.extend(
            grid_edges(3, 3)
                .into_iter()
                .map(|(a, b, w)| (a + 12, b + 12, w)),
        );
        assert_batch_matches_per_edge(22, &edges, 4, 5, 40);
        let mst = IncrementalMst::new(22, &edges);
        assert_eq!(mst.tree_size(), 22 - 3);
    }

    #[test]
    fn unchanged_snapshot_skips_the_rebuild() {
        // A tree shaped by per-edge updates keeps its adjacency order; a
        // rebuild would re-derive it in Kruskal order.
        let edges = grid_edges(5, 5);
        let mut mst = IncrementalMst::new(25, &edges);
        let mut state = 9u64;
        for _ in 0..60 {
            let eid = (lcg(&mut state) >> 17) as usize % edges.len();
            mst.update_weight(eid as EdgeId, (lcg(&mut state) % 4) as u32);
        }
        let weights: Vec<u32> = (0..edges.len() as EdgeId)
            .map(|id| mst.weight(id))
            .collect();
        let adj = mst.tree_adj.clone();
        assert_eq!(mst.set_weights(&weights), 0);
        assert_eq!(mst.tree_adj, adj, "no change must mean no rebuild");
        mst.rebuild();
        assert_ne!(mst.tree_adj, adj, "the check above can tell a rebuild");
    }

    #[test]
    fn tree_path_endpoints() {
        let mst = IncrementalMst::new(9, &grid_edges(3, 3));
        let p = mst.tree_path(0, 8).unwrap();
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 8);
        assert_eq!(mst.tree_path(4, 4).unwrap(), vec![4]);
        let pe = mst.tree_path_edges(0, 8).unwrap();
        assert_eq!(pe.len(), p.len() - 1);
    }

    #[test]
    fn disconnected_components_handled() {
        let edges = vec![(0, 1, 1), (2, 3, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert_eq!(mst.tree_size(), 2);
        assert!(mst.tree_path(0, 3).is_none());
        mst.update_weight(0, 5);
        assert!(mst.contains_edge(0)); // no alternative: stays
    }
}
