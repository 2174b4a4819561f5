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
//! [`IncrementalMst::tree_path_into`] is identical. Each rebuild orders the
//! edges with one stable LSD radix sort by weight over ascending ids, which
//! is the `(weight, id)` order; its buckets are sized by the snapshot's
//! largest weight, so activity weights (at most the activity window) take a
//! single counting pass.
//!
//! The tree adjacency lives in one flat slot array: each node owns a fixed
//! range of slots as long as its graph degree (which bounds its tree
//! degree), so Kruskal's links and the traversals below walk contiguous
//! memory. The forest is also kept in rooted form (`parent` + `depth`),
//! re-derived by every rebuild and patched by every structural per-edge
//! update (only the subtree that moved is re-hung). A path query then
//! climbs both endpoints to their common ancestor in `O(path length)`
//! instead of searching the whole forest.

use crate::graph::UnionFind;

/// Identifier of an edge within an [`IncrementalMst`] (its index in the edge
/// list passed at construction).
pub type EdgeId = u32;

/// Dense node index (matches [`crate::AncillaGraph`] indices).
pub type NodeId = u32;

/// Widest digit of the radix sort: weights up to `2^RADIX_BITS − 1` sort in
/// one counting pass, and the full `u32` range in four.
const RADIX_BITS: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct Edge {
    a: NodeId,
    b: NodeId,
    weight: u32,
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
    /// Tree adjacency as `(neighbor, edge id)` slots: node `v` owns
    /// `adj[adj_start[v]..adj_start[v + 1]]`, as many slots as its graph
    /// degree, and uses those below `adj_end[v]`.
    adj: Vec<(NodeId, EdgeId)>,
    adj_start: Vec<u32>,
    adj_end: Vec<u32>,
    /// Rooted form of the forest: each node's tree parent (a root is its
    /// own parent). Rebuilt by [`Self::reroot`] after a Kruskal pass and
    /// patched by [`Self::hang_subtree`] after each structural per-edge
    /// update.
    parent: Vec<NodeId>,
    /// Tree depth of each node below its component's root.
    depth: Vec<u32>,
    /// Traversal queue shared by re-rooting and
    /// [`Self::mark_component`], held so neither allocates.
    queue: Vec<NodeId>,
    /// Path-node buffer for [`Self::update_weight`]'s cycle query (case 1)
    /// — per-cycle weight updates must not hit the allocator once warm.
    upd_path: Vec<NodeId>,
    /// Reusable reachability marks for [`Self::update_weight`]'s reconnect
    /// search (case 2).
    upd_seen: Vec<bool>,
    /// Kruskal scan order: the edge ids sorted by `(weight, id)`, re-sorted
    /// by every [`Self::rebuild`].
    kruskal_order: Vec<EdgeId>,
    /// The radix sort's second buffer and digit counts (held scratch).
    sort_buf: Vec<EdgeId>,
    sort_counts: Vec<u32>,
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
        // A node's tree degree never exceeds its graph degree, so a slot
        // range of that size keeps rebuilds allocation-free.
        let mut adj_start = vec![0u32; num_nodes + 1];
        for e in &edges {
            adj_start[e.a as usize + 1] += 1;
            adj_start[e.b as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            adj_start[v + 1] += adj_start[v];
        }
        let mut mst = IncrementalMst {
            num_nodes,
            in_tree: vec![false; edges.len()],
            adj: vec![(0, 0); 2 * edges.len()],
            adj_end: adj_start[..num_nodes].to_vec(),
            adj_start,
            kruskal_order: Vec::with_capacity(edges.len()),
            sort_buf: Vec::with_capacity(edges.len()),
            sort_counts: Vec::with_capacity((1 << RADIX_BITS) + 1),
            kruskal_uf: UnionFind::new(num_nodes),
            edges,
            parent: vec![0; num_nodes],
            depth: vec![0; num_nodes],
            queue: Vec::with_capacity(num_nodes),
            upd_path: Vec::with_capacity(num_nodes),
            upd_seen: vec![false; num_nodes],
        };
        mst.rebuild();
        mst
    }

    /// Recomputes the tree from the current weights: the radix sort, one
    /// Kruskal pass and re-rooting, all in held scratch, so it allocates
    /// nothing. Exposed for benchmarking against the incremental path.
    pub fn rebuild(&mut self) {
        self.sort_order();
        self.in_tree.fill(false);
        self.adj_end
            .copy_from_slice(&self.adj_start[..self.num_nodes]);
        self.kruskal_uf.reset(self.num_nodes);
        for i in 0..self.kruskal_order.len() {
            let id = self.kruskal_order[i];
            let e = self.edges[id as usize];
            if self.kruskal_uf.union(e.a, e.b) {
                self.link(id);
            }
        }
        self.reroot();
    }

    /// Sorts `kruskal_order` by `(weight, id)`: a stable LSD radix sort by
    /// weight over the ascending ids. The digit width splits the largest
    /// weight's bits evenly over `⌈bits / RADIX_BITS⌉` counting passes, so
    /// the bucket count never exceeds twice the largest weight plus one;
    /// all-zero weights need no pass at all.
    fn sort_order(&mut self) {
        self.kruskal_order.clear();
        self.kruskal_order.extend(0..self.edges.len() as EdgeId);
        let max = self.edges.iter().map(|e| e.weight).max().unwrap_or(0);
        let bits = u32::BITS - max.leading_zeros();
        let passes = bits.div_ceil(RADIX_BITS);
        if passes == 0 {
            return;
        }
        let width = bits.div_ceil(passes);
        let mask = (1u32 << width) - 1;
        for pass in 0..passes {
            let shift = pass * width;
            let digit = |id: EdgeId| ((self.edges[id as usize].weight >> shift) & mask) as usize;
            // counts[d + 1] tallies digit d; the prefix sum turns counts[d]
            // into digit d's first output slot.
            self.sort_counts.clear();
            self.sort_counts.resize(mask as usize + 2, 0);
            for &id in &self.kruskal_order {
                self.sort_counts[digit(id) + 1] += 1;
            }
            for d in 1..self.sort_counts.len() {
                self.sort_counts[d] += self.sort_counts[d - 1];
            }
            self.sort_buf.clear();
            self.sort_buf.resize(self.kruskal_order.len(), 0);
            for &id in &self.kruskal_order {
                let slot = &mut self.sort_counts[digit(id)];
                self.sort_buf[*slot as usize] = id;
                *slot += 1;
            }
            std::mem::swap(&mut self.kruskal_order, &mut self.sort_buf);
        }
    }

    /// The indices of `v`'s tree entries in `adj`.
    fn slots(&self, v: NodeId) -> std::ops::Range<usize> {
        self.adj_start[v as usize] as usize..self.adj_end[v as usize] as usize
    }

    /// The `(neighbor, edge id)` tree entries of `v`.
    fn tree_neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.slots(v)]
    }

    /// Re-derives the rooted form (`parent`, `depth`) from the tree
    /// adjacency, rooting each component at its smallest node. `O(V)`.
    fn reroot(&mut self) {
        const UNSEEN: NodeId = NodeId::MAX;
        self.parent.fill(UNSEEN);
        for root in 0..self.num_nodes as NodeId {
            if self.parent[root as usize] == UNSEEN {
                self.relabel(root, root, 0);
            }
        }
    }

    /// Gives `x` the given parent and depth, then re-derives parent and
    /// depth for everything reachable from `x` without passing through
    /// that parent — a traversal of those nodes only, with the held queue.
    fn relabel(&mut self, x: NodeId, parent: NodeId, depth: u32) {
        self.parent[x as usize] = parent;
        self.depth[x as usize] = depth;
        self.queue.clear();
        self.queue.push(x);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for i in self.slots(u) {
                let (v, _) = self.adj[i];
                if v != self.parent[u as usize] {
                    self.parent[v as usize] = u;
                    self.depth[v as usize] = self.depth[u as usize] + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Stores a whole weight snapshot (`weights[id]` for every edge) and
    /// returns how many weights changed. If any did, the tree is rebuilt by
    /// [`Self::rebuild`]; the result is the same edge set as applying
    /// [`Self::update_weight`] to each changed edge. An unchanged snapshot
    /// costs one pass over the weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the edge count.
    pub fn set_weights(&mut self, weights: &[u32]) -> u64 {
        assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
        let mut changed = 0u64;
        for (e, &w) in self.edges.iter_mut().zip(weights) {
            changed += u64::from(e.weight != w);
            e.weight = w;
        }
        if changed > 0 {
            self.rebuild();
        }
        changed
    }

    fn link(&mut self, id: EdgeId) {
        let e = self.edges[id as usize];
        self.in_tree[id as usize] = true;
        for (v, entry) in [(e.a, (e.b, id)), (e.b, (e.a, id))] {
            let end = &mut self.adj_end[v as usize];
            debug_assert!(
                *end < self.adj_start[v as usize + 1],
                "tree degree ≤ graph degree"
            );
            self.adj[*end as usize] = entry;
            *end += 1;
        }
    }

    /// Removes tree edge `id`, keeping the order of each endpoint's other
    /// entries.
    fn unlink(&mut self, id: EdgeId) {
        let e = self.edges[id as usize];
        self.in_tree[id as usize] = false;
        for v in [e.a, e.b] {
            let slots = self.slots(v);
            let at = slots.start
                + self.adj[slots.clone()]
                    .iter()
                    .position(|&(_, eid)| eid == id)
                    .expect("a tree edge is in both endpoints' slots");
            self.adj.copy_within(at + 1..slots.end, at);
            self.adj_end[v as usize] -= 1;
        }
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
            // path query writes into the held buffer — weight updates
            // arrive every cycle, so this must not hit the allocator warm.
            let e = self.edges[id as usize];
            let mut nodes = std::mem::take(&mut self.upd_path);
            let connected = self.tree_path_into(e.a, e.b, &mut nodes);
            if !connected {
                // Endpoints were in different components: the edge now joins
                // them, `a`'s component hanging below `b`.
                self.upd_path = nodes;
                self.link(id);
                self.hang_subtree(e.a, e.b);
                return;
            }
            let mut worst: Option<(u32, EdgeId)> = None;
            for pair in nodes.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                let &(_, eid) = self
                    .tree_neighbors(u)
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
                // Evicting the worst edge detaches the subtree below its
                // deeper endpoint, which holds exactly one endpoint of the
                // new edge; that subtree re-hangs from the other one.
                let detached = self.lower_endpoint(worst_key.1);
                let (x, y) = if self.is_descendant(e.a, detached) {
                    (e.a, e.b)
                } else {
                    (e.b, e.a)
                };
                self.unlink(worst_key.1);
                self.link(id);
                self.hang_subtree(x, y);
            }
        } else if new_weight > old && self.in_tree[id as usize] {
            // Case 2: tree edge became heavier. Remove it and reconnect with
            // the lightest crossing edge (possibly itself).
            let detached = self.lower_endpoint(id);
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
                if eid != id {
                    // The subtree below the removed edge re-hangs from the
                    // reconnecting edge's endpoint on the other side (an
                    // unchanged tree keeps its rooted form).
                    let (a, b) = self.endpoints(eid);
                    let detached_seen = self.upd_seen[detached as usize];
                    let (x, y) = if self.upd_seen[a as usize] == detached_seen {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    self.hang_subtree(x, y);
                }
            }
        }
    }

    /// The endpoint of tree edge `id` that is the other's child.
    fn lower_endpoint(&self, id: EdgeId) -> NodeId {
        let e = self.edges[id as usize];
        if self.parent[e.a as usize] == e.b {
            e.a
        } else {
            e.b
        }
    }

    /// Whether `node` lies in the subtree rooted at `top`: `O(depth)`.
    fn is_descendant(&self, mut node: NodeId, top: NodeId) -> bool {
        while self.depth[node as usize] > self.depth[top as usize] {
            node = self.parent[node as usize];
        }
        node == top
    }

    /// Patches the rooted form after a new tree edge `(x, y)` joined the
    /// subtree (or component) holding `x` to the part holding `y`, whose
    /// rooted form is still valid: the `x` side now hangs below `y`.
    fn hang_subtree(&mut self, x: NodeId, y: NodeId) {
        self.relabel(x, y, self.depth[y as usize] + 1);
    }

    /// Marks nodes reachable from `start` using tree edges in
    /// `self.upd_seen` (reset first; reused across calls).
    fn mark_component(&mut self, start: NodeId) {
        self.upd_seen.clear();
        self.upd_seen.resize(self.num_nodes, false);
        self.upd_seen[start as usize] = true;
        self.queue.clear();
        self.queue.push(start);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for i in self.slots(u) {
                let (v, _) = self.adj[i];
                if !self.upd_seen[v as usize] {
                    self.upd_seen[v as usize] = true;
                    self.queue.push(v);
                }
            }
        }
    }

    /// The unique tree path between `a` and `b` as node ids (inclusive), or
    /// `None` if they are in different components.
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        self.tree_path_into(a, b, &mut out).then_some(out)
    }

    /// [`Self::tree_path`] into a caller-provided buffer: writes the path
    /// into `out` (cleared first) and returns whether one exists. Both
    /// endpoints climb the rooted forest to their common ancestor, so a
    /// query costs `O(path length)` and allocates nothing once `out` has
    /// grown to the path length.
    pub fn tree_path_into(&self, a: NodeId, b: NodeId, out: &mut Vec<NodeId>) -> bool {
        self.tree_path_within(a, b, usize::MAX, out)
    }

    /// [`Self::tree_path_into`] for a path of at most `max_len` nodes:
    /// returns `false` (with `out` cleared) when there is no path or it is
    /// longer. The climb gives up as soon as the path is known to be too
    /// long, so a rejected query costs `O(max_len)`.
    pub fn tree_path_within(
        &self,
        a: NodeId,
        b: NodeId,
        max_len: usize,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        let depth = &self.depth;
        // One step towards the root (never called on a root). A stale
        // rooted form fails here in debug builds instead of looping.
        let up = |x: NodeId| {
            let p = self.parent[x as usize];
            debug_assert_eq!(depth[p as usize] + 1, depth[x as usize], "stale at {x}");
            p
        };
        // Nodes the path is known to hold: the depth difference plus the
        // common ancestor, and two more per joint step below it.
        let mut len = depth[a as usize].abs_diff(depth[b as usize]) as usize + 1;
        if len > max_len {
            return false;
        }
        let (mut x, mut y) = (a, b);
        while depth[x as usize] > depth[y as usize] {
            x = up(x);
        }
        while depth[y as usize] > depth[x as usize] {
            y = up(y);
        }
        while x != y {
            len += 2;
            // Two different roots mean different components.
            if len > max_len || self.parent[x as usize] == x {
                return false;
            }
            x = up(x);
            y = up(y);
        }
        // `x` is the lowest common ancestor: write a's climb from the front
        // and b's climb from the back.
        let lca = x;
        let up_a = (depth[a as usize] - depth[lca as usize]) as usize;
        let up_b = (depth[b as usize] - depth[lca as usize]) as usize;
        out.resize(up_a + up_b + 1, lca);
        let mut x = a;
        for slot in &mut out[..up_a] {
            *slot = x;
            x = up(x);
        }
        let mut y = b;
        for slot in out[up_a + 1..].iter_mut().rev() {
            *slot = y;
            y = up(y);
        }
        true
    }

    /// The edge ids along the tree path between `a` and `b`.
    pub fn tree_path_edges(&self, a: NodeId, b: NodeId) -> Option<Vec<EdgeId>> {
        let nodes = self.tree_path(a, b)?;
        let mut out = Vec::with_capacity(nodes.len().saturating_sub(1));
        for pair in nodes.windows(2) {
            let (u, v) = (pair[0], pair[1]);
            let &(_, eid) = self
                .tree_neighbors(u)
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
    use std::collections::VecDeque;

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
    fn merged_order_stays_sorted_through_mixed_updates() {
        // Per-edge updates leave the scan order behind the weights; every
        // batch apply that changes a weight re-sorts it, so after one the
        // order must be the fresh tree's `(weight, id)` order.
        let edges = grid_edges(6, 6);
        let mut mst = IncrementalMst::new(36, &edges);
        let mut weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
        let mut state = 11u64;
        let mut rebuilds = 0;
        for step in 0..80 {
            if step % 3 == 0 {
                let eid = (lcg(&mut state) >> 17) as usize % edges.len();
                weights[eid] = (lcg(&mut state) % 6) as u32;
                mst.update_weight(eid as EdgeId, weights[eid]);
            }
            for w in &mut weights {
                if lcg(&mut state).is_multiple_of(5) {
                    *w = (lcg(&mut state) % 6) as u32;
                }
            }
            let changed = mst.set_weights(&weights);
            let fresh: Vec<_> = edges
                .iter()
                .zip(&weights)
                .map(|(&(a, b, _), &w)| (a, b, w))
                .collect();
            let fresh = IncrementalMst::new(36, &fresh);
            assert_eq!(edge_set(&mst), edge_set(&fresh), "step {step}");
            if changed > 0 {
                rebuilds += 1;
                let keys: Vec<_> = mst
                    .kruskal_order
                    .iter()
                    .map(|&i| (mst.weight(i), i))
                    .collect();
                assert!(keys.is_sorted(), "step {step}: scan order out of order");
                assert_eq!(mst.kruskal_order, fresh.kruskal_order, "step {step}");
            }
        }
        assert!(rebuilds >= 70, "only {rebuilds} batch applies rebuilt");
    }

    /// Every node's tree entries in slot order: what a rebuild re-derives
    /// in Kruskal order and per-edge updates reshape in place.
    fn slot_view(mst: &IncrementalMst) -> Vec<Vec<(NodeId, EdgeId)>> {
        (0..mst.num_nodes() as NodeId)
            .map(|v| mst.tree_neighbors(v).to_vec())
            .collect()
    }

    #[test]
    fn unchanged_snapshot_skips_the_rebuild() {
        // A tree shaped by per-edge updates keeps its slot order; a
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
        let adj = slot_view(&mst);
        assert_eq!(mst.set_weights(&weights), 0);
        assert_eq!(slot_view(&mst), adj, "no change must mean no rebuild");
        mst.rebuild();
        assert_ne!(slot_view(&mst), adj, "the check above can tell a rebuild");
    }

    /// The radix-sorted scan order equals a comparison sort by
    /// `(weight, id)`, for narrow, activity-sized, multi-pass and full
    /// `u32` weights, all-equal weights, and graphs with no edges.
    #[test]
    fn kruskal_order_is_the_weight_id_sort() {
        let edges = grid_edges(12, 12);
        let mut mst = IncrementalMst::new(144, &edges);
        let mut state = 21u64;
        let draws: [&dyn Fn(u64) -> u32; 7] = [
            &|r| (r % 4) as u32,
            &|r| (r % 101) as u32,
            &|r| (r % 257) as u32,
            &|r| (r % 65_537) as u32,
            &|r| r as u32,
            &|r| [0, u32::MAX, u32::MAX - 1, 1 << 31][(r % 4) as usize],
            &|_| 7,
        ];
        for (case, draw) in draws.iter().enumerate() {
            for round in 0..4 {
                let weights: Vec<u32> = edges.iter().map(|_| draw(lcg(&mut state))).collect();
                mst.set_weights(&weights);
                mst.rebuild();
                let mut want: Vec<EdgeId> = (0..edges.len() as EdgeId).collect();
                want.sort_by_key(|&i| (weights[i as usize], i));
                assert_eq!(mst.kruskal_order, want, "case {case} round {round}");
            }
        }
        for n in [0, 3] {
            let empty = IncrementalMst::new(n, &[]);
            assert!(empty.kruskal_order.is_empty());
            assert_eq!(empty.tree_size(), 0);
        }
    }

    /// The forest's adjacency rebuilt from the public edge view alone
    /// (`contains_edge` + `endpoints`), independent of the rooted form.
    fn reference_adjacency(mst: &IncrementalMst) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); mst.num_nodes()];
        for id in 0..mst.num_edges() as EdgeId {
            if mst.contains_edge(id) {
                let (a, b) = mst.endpoints(id);
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        adj
    }

    /// Reference tree path: a plain BFS from `a` over `adj`.
    fn reference_path(adj: &[Vec<NodeId>], a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut prev = vec![None; adj.len()];
        prev[a as usize] = Some(a);
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if prev[v as usize].is_none() {
                    prev[v as usize] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        prev[b as usize]?;
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur as usize].expect("reached nodes have a predecessor");
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Every ordered pair's `tree_path_into` (one reused buffer) equals the
    /// reference BFS path, including `a == b` and disconnected pairs; a
    /// length bound admits exactly the paths that fit within it.
    fn assert_tree_paths_match_reference(mst: &IncrementalMst, label: &str) {
        let adj = reference_adjacency(mst);
        let mut out = vec![NodeId::MAX; 3]; // stale contents must be cleared
        for a in 0..mst.num_nodes() as NodeId {
            for b in 0..mst.num_nodes() as NodeId {
                let want = reference_path(&adj, a, b);
                let got = mst.tree_path_into(a, b, &mut out).then(|| out.clone());
                assert_eq!(got, want, "{label}: path {a} -> {b}");
                let len = want.as_ref().map_or(3, Vec::len);
                for max_len in [len - 1, len, len + 1] {
                    let fits = want.as_ref().filter(|p| p.len() <= max_len);
                    let got = mst.tree_path_within(a, b, max_len, &mut out);
                    assert_eq!(
                        got.then_some(&out),
                        fits,
                        "{label}: {a} -> {b} within {max_len}"
                    );
                    assert!(got || out.is_empty());
                }
            }
        }
    }

    /// Drives `mst` through `steps` random changes — alternately a whole
    /// `set_weights` snapshot and a run of per-edge `update_weight` calls,
    /// weights in `0..max_weight` — checking every path after each
    /// snapshot and after each single update (a later update could mask a
    /// stale rooted form).
    fn check_paths_through_random_updates(
        mut mst: IncrementalMst,
        max_weight: u64,
        seed: u64,
        steps: usize,
    ) {
        assert_tree_paths_match_reference(&mst, "initial");
        let mut weights: Vec<u32> = (0..mst.num_edges() as EdgeId)
            .map(|id| mst.weight(id))
            .collect();
        let mut state = seed;
        for step in 0..steps {
            if step % 2 == 0 {
                for w in &mut weights {
                    if lcg(&mut state).is_multiple_of(3) {
                        *w = (lcg(&mut state) % max_weight) as u32;
                    }
                }
                mst.set_weights(&weights);
                assert_tree_paths_match_reference(&mst, &format!("seed {seed} step {step}"));
            } else {
                for i in 0..8 {
                    let id = (lcg(&mut state) >> 17) as usize % weights.len();
                    weights[id] = (lcg(&mut state) % max_weight) as u32;
                    mst.update_weight(id as EdgeId, weights[id]);
                    let label = format!("seed {seed} step {step} update {i}");
                    assert_tree_paths_match_reference(&mst, &label);
                }
            }
        }
    }

    #[test]
    fn rooted_tree_paths_match_bfs_on_random_grids() {
        for (seed, (w, h), max_weight) in [(1u64, (4, 4), 4), (2, (7, 5), 4), (3, (6, 6), 200)] {
            let mut state = seed;
            let edges: Vec<_> = grid_edges(w, h)
                .into_iter()
                .map(|(a, b, _)| (a, b, (lcg(&mut state) % max_weight) as u32))
                .collect();
            let mst = IncrementalMst::new((w * h) as usize, &edges);
            check_paths_through_random_updates(mst, max_weight, seed, 12);
        }
    }

    #[test]
    fn rooted_tree_paths_match_bfs_on_forests() {
        // Two grid components plus an isolated node (22): cross-component
        // pairs have no path, and `a == b` on the isolated node still does.
        let mut edges = grid_edges(4, 3);
        edges.extend(
            grid_edges(3, 3)
                .into_iter()
                .map(|(a, b, w)| (a + 12, b + 12, w)),
        );
        let mst = IncrementalMst::new(22, &edges);
        assert!(mst.tree_path(0, 12).is_none());
        assert_eq!(mst.tree_path(21, 21), Some(vec![21]));
        check_paths_through_random_updates(mst, 4, 7, 12);
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
