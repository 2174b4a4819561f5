//! The ancilla routing graph: dense-indexed adjacency over ancilla tiles,
//! shortest paths (for the greedy/AutoBraid baselines), and connectivity.

use crate::{Grid, TileId};
use std::collections::VecDeque;

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Resets to `n` singleton sets, reusing the existing capacity.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
    }

    /// Representative of `x`'s set.
    /// One pass up the tree that points each visited node at its
    /// grandparent; roots and ranks are what full compression leaves.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            let gp = self.parent[p as usize];
            if p == gp {
                return p;
            }
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns `false` if already merged.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Dense index of an ancilla within an [`AncillaGraph`].
pub type AncillaIndex = u32;

/// Reusable working set for [`AncillaGraph::shortest_path_into`],
/// [`AncillaGraph::search_until`] and [`AncillaGraph::path_between_into`].
/// Visit marks are stamped with a per-search generation, so a new search
/// resets nothing: once the buffers have grown to the node count, searches
/// allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct BfsScratch {
    /// `mark[v] == stamp` iff `v` was reached by the last search.
    mark: Vec<u32>,
    /// `goal[v] == stamp` iff `v` is one of the last search's targets.
    goal: Vec<u32>,
    /// The node `v` was reached from; a source is its own predecessor.
    prev: Vec<AncillaIndex>,
    queue: Vec<AncillaIndex>,
    stamp: u32,
}

impl BfsScratch {
    /// Starts a search over `n` nodes: grows the buffers to `n` if needed,
    /// empties the queue and returns the new search's stamp.
    fn begin(&mut self, n: usize) -> u32 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.goal.resize(n, 0);
            self.prev.resize(n, 0);
            // Each node is queued at most once per search.
            self.queue.reserve(n);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: clear stale stamps so none can equal a new one.
            self.mark.fill(0);
            self.goal.fill(0);
            self.stamp = 1;
        }
        self.queue.clear();
        self.stamp
    }

    /// Writes the last search's path from its source to `t` into `out`
    /// (cleared first); returns whether the search reached `t`.
    pub fn path_into(&self, t: AncillaIndex, out: &mut Vec<AncillaIndex>) -> bool {
        out.clear();
        if self.mark.get(t as usize) != Some(&self.stamp) {
            return false;
        }
        let mut cur = t;
        out.push(cur);
        while self.prev[cur as usize] != cur {
            cur = self.prev[cur as usize];
            out.push(cur);
        }
        out.reverse();
        true
    }
}

/// The routing graph over the fabric's ancilla tiles.
///
/// Nodes are densely indexed `0..len`; edges connect grid-adjacent ancillas.
///
/// # Example
///
/// ```
/// use rescq_lattice::{AncillaGraph, Layout};
///
/// let layout = Layout::new(4).unwrap();
/// let g = AncillaGraph::from_grid(layout.grid());
/// assert_eq!(g.len(), 12);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct AncillaGraph {
    nodes: Vec<TileId>,
    /// Per-tile dense index (`u32::MAX` = not an ancilla).
    index: Vec<u32>,
    adj: Vec<Vec<AncillaIndex>>,
    /// Unique undirected edges, `a < b`.
    edges: Vec<(AncillaIndex, AncillaIndex)>,
}

impl AncillaGraph {
    /// Builds the graph from the current ancilla tiles of `grid`.
    pub fn from_grid(grid: &Grid) -> Self {
        let nodes: Vec<TileId> = grid.ancilla_tiles().collect();
        let mut index = vec![u32::MAX; grid.len()];
        for (i, &t) in nodes.iter().enumerate() {
            index[t.index()] = i as u32;
        }
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut edges = Vec::new();
        for (i, &t) in nodes.iter().enumerate() {
            for n in grid.ancilla_neighbors(t) {
                let j = index[n.index()];
                debug_assert_ne!(j, u32::MAX);
                adj[i].push(j);
                if (i as u32) < j {
                    edges.push((i as u32, j));
                }
            }
        }
        AncillaGraph {
            nodes,
            index,
            adj,
            edges,
        }
    }

    /// Number of ancilla nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tile backing dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tile(&self, i: AncillaIndex) -> TileId {
        self.nodes[i as usize]
    }

    /// Dense index of `tile`, if it is an ancilla node.
    pub fn index_of(&self, tile: TileId) -> Option<AncillaIndex> {
        match self.index[tile.index()] {
            u32::MAX => None,
            i => Some(i),
        }
    }

    /// Neighbours of node `i`.
    pub fn neighbors(&self, i: AncillaIndex) -> &[AncillaIndex] {
        &self.adj[i as usize]
    }

    /// Unique undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> &[(AncillaIndex, AncillaIndex)] {
        &self.edges
    }

    /// Whether all ancilla nodes form a single connected component.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut uf = UnionFind::new(self.nodes.len());
        for &(a, b) in &self.edges {
            uf.union(a, b);
        }
        let root = uf.find(0);
        (1..self.nodes.len() as u32).all(|i| uf.find(i) == root)
    }

    /// BFS shortest path from any node in `sources` to any node in
    /// `targets`, avoiding nodes for which `blocked` returns `true`, written
    /// into `out` (cleared first; left empty when none exists). Returns
    /// whether a path was found; it includes both endpoints.
    ///
    /// The search is first-in first-out: unblocked sources are queued once
    /// each, in the order given, a popped node's unvisited, unblocked
    /// neighbours are queued in adjacency order, and the search stops at
    /// the first popped target. A blocked node is never entered, so a
    /// blocked source or target takes no part. It runs in the held
    /// `scratch` and allocates nothing once the scratch has grown to the
    /// node count and `out` to the path length.
    pub fn shortest_path_into(
        &self,
        sources: &[AncillaIndex],
        targets: &[AncillaIndex],
        mut blocked: impl FnMut(AncillaIndex) -> bool,
        scratch: &mut BfsScratch,
        out: &mut Vec<AncillaIndex>,
    ) -> bool {
        out.clear();
        let stamp = scratch.begin(self.nodes.len());
        for &t in targets {
            scratch.goal[t as usize] = stamp;
        }
        for &s in sources {
            if scratch.mark[s as usize] != stamp && !blocked(s) {
                scratch.mark[s as usize] = stamp;
                scratch.prev[s as usize] = s;
                scratch.queue.push(s);
            }
        }
        let mut head = 0;
        while let Some(&u) = scratch.queue.get(head) {
            head += 1;
            if scratch.goal[u as usize] == stamp {
                return scratch.path_into(u, out);
            }
            for &v in &self.adj[u as usize] {
                if scratch.mark[v as usize] != stamp && !blocked(v) {
                    scratch.mark[v as usize] = stamp;
                    scratch.prev[v as usize] = u;
                    scratch.queue.push(v);
                }
            }
        }
        false
    }

    /// The shortest path from `a` to `b` written into `out` (cleared first);
    /// returns whether one exists. It is the path
    /// [`Self::shortest_path_into`]`(&[a], &[b], |_| false, ..)` finds —
    /// the same BFS in the same adjacency order — but it stops when `b` is
    /// first reached rather than when it is popped.
    pub fn path_between_into(
        &self,
        a: AncillaIndex,
        b: AncillaIndex,
        scratch: &mut BfsScratch,
        out: &mut Vec<AncillaIndex>,
    ) -> bool {
        self.search_until(a, &[b], scratch);
        scratch.path_into(b, out)
    }

    /// One BFS from `source` in adjacency order, run in the held `scratch`,
    /// that stops once every node of `targets` has been reached (or the
    /// component is exhausted). [`BfsScratch::path_into`] then reads the
    /// path to any reached node. A BFS fixes `prev[t]` when `t` is first
    /// reached, whichever target it stops on, so each path is the one
    /// [`Self::path_between_into`]`(source, t)` finds.
    pub fn search_until(
        &self,
        source: AncillaIndex,
        targets: &[AncillaIndex],
        scratch: &mut BfsScratch,
    ) {
        let stamp = scratch.begin(self.nodes.len());
        let mut left = 0usize;
        for &t in targets {
            if scratch.goal[t as usize] != stamp {
                scratch.goal[t as usize] = stamp;
                left += 1;
            }
        }
        scratch.mark[source as usize] = stamp;
        scratch.prev[source as usize] = source;
        if scratch.goal[source as usize] == stamp {
            left -= 1;
        }
        scratch.queue.push(source);
        let mut head = 0;
        while left > 0 {
            let Some(&u) = scratch.queue.get(head) else {
                return;
            };
            head += 1;
            for &v in &self.adj[u as usize] {
                if scratch.mark[v as usize] != stamp {
                    scratch.mark[v as usize] = stamp;
                    scratch.prev[v as usize] = u;
                    if scratch.goal[v as usize] == stamp {
                        left -= 1;
                        if left == 0 {
                            break;
                        }
                    }
                    scratch.queue.push(v);
                }
            }
        }
    }
}

/// Whether the grid's ancilla tiles form one connected component (used by
/// [`crate::Layout::compress`] to veto disconnecting removals).
pub fn ancilla_network_connected(grid: &Grid) -> bool {
    let mut start = None;
    let mut total = 0usize;
    for t in grid.ancilla_tiles() {
        total += 1;
        if start.is_none() {
            start = Some(t);
        }
    }
    let Some(start) = start else { return true };
    let mut seen = vec![false; grid.len()];
    let mut queue = VecDeque::from([start]);
    seen[start.index()] = true;
    let mut count = 1usize;
    while let Some(t) = queue.pop_front() {
        for n in grid.ancilla_neighbors(t) {
            if !seen[n.index()] {
                seen[n.index()] = true;
                count += 1;
                queue.push_back(n);
            }
        }
    }
    count == total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TileKind;

    fn line_grid(n: u32) -> Grid {
        Grid::filled(n, 1, TileKind::Ancilla)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.union(2, 3);
        uf.union(0, 3);
        assert!(uf.connected(1, 2));
        uf.reset(4);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1));
    }

    /// Path halving against full path compression on seeded unions and
    /// finds: every find returns the same root, every union the same
    /// verdict, and the ranks stay equal, so a caller's link order (and
    /// Kruskal's tree) cannot change.
    #[test]
    fn path_halving_keeps_the_roots_of_full_compression() {
        fn find_compress(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        const N: u32 = 200;
        for seed in 0..20u64 {
            let mut st = seed;
            let mut uf = UnionFind::new(N as usize);
            let mut parent: Vec<u32> = (0..N).collect();
            let mut rank = vec![0u8; N as usize];
            for _ in 0..600 {
                let r = next(&mut st);
                let (a, b) = ((r % u64::from(N)) as u32, ((r >> 16) % u64::from(N)) as u32);
                if (r >> 40).is_multiple_of(3) {
                    assert_eq!(uf.find(a), find_compress(&mut parent, a), "seed {seed}");
                    continue;
                }
                let (ra, rb) = (find_compress(&mut parent, a), find_compress(&mut parent, b));
                let merged = ra != rb;
                if merged {
                    let (hi, lo) = if rank[ra as usize] < rank[rb as usize] {
                        (rb, ra)
                    } else {
                        (ra, rb)
                    };
                    parent[lo as usize] = hi;
                    if rank[hi as usize] == rank[lo as usize] {
                        rank[hi as usize] += 1;
                    }
                }
                assert_eq!(uf.union(a, b), merged, "seed {seed}");
                assert_eq!(uf.rank, rank, "seed {seed}");
            }
        }
    }

    /// The BFS that `AncillaGraph::shortest_path_into` replaced, kept as
    /// its reference: fresh `Vec`s and a `VecDeque` per call, targets
    /// filtered by `blocked` up front, the target test at pop.
    fn reference_shortest_path(
        g: &AncillaGraph,
        sources: &[AncillaIndex],
        targets: &[AncillaIndex],
        mut blocked: impl FnMut(AncillaIndex) -> bool,
    ) -> Option<Vec<AncillaIndex>> {
        if g.is_empty() {
            return None;
        }
        let mut is_target = vec![false; g.len()];
        for &t in targets {
            if !blocked(t) {
                is_target[t as usize] = true;
            }
        }
        let mut prev: Vec<u32> = vec![u32::MAX; g.len()];
        let mut seen = vec![false; g.len()];
        let mut queue = VecDeque::new();
        for &s in sources {
            if !seen[s as usize] && !blocked(s) {
                seen[s as usize] = true;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            if is_target[u as usize] {
                let mut path = vec![u];
                let mut cur = u;
                while prev[cur as usize] != u32::MAX {
                    cur = prev[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &v in g.neighbors(u) {
                if !seen[v as usize] && !blocked(v) {
                    seen[v as usize] = true;
                    prev[v as usize] = u;
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// [`AncillaGraph::shortest_path_into`] in a fresh scratch, as an
    /// `Option`.
    fn shortest(
        g: &AncillaGraph,
        sources: &[AncillaIndex],
        targets: &[AncillaIndex],
        blocked: impl FnMut(AncillaIndex) -> bool,
    ) -> Option<Vec<AncillaIndex>> {
        let mut out = Vec::new();
        g.shortest_path_into(
            sources,
            targets,
            blocked,
            &mut BfsScratch::default(),
            &mut out,
        )
        .then_some(out)
    }

    #[test]
    fn graph_from_line() {
        let g = AncillaGraph::from_grid(&line_grid(5));
        assert_eq!(g.len(), 5);
        assert_eq!(g.edges().len(), 4);
        assert!(g.is_connected());
        let path = shortest(&g, &[0], &[4], |_| false).unwrap();
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn blocked_node_forces_detour_or_failure() {
        let g = AncillaGraph::from_grid(&line_grid(5));
        assert!(shortest(&g, &[0], &[4], |i| i == 2).is_none());

        let grid = Grid::filled(3, 3, TileKind::Ancilla);
        let g = AncillaGraph::from_grid(&grid);
        let center = g.index_of(grid.tile_at(1, 1)).unwrap();
        let from = g.index_of(grid.tile_at(0, 1)).unwrap();
        let to = g.index_of(grid.tile_at(2, 1)).unwrap();
        let direct = shortest(&g, &[from], &[to], |_| false).unwrap();
        assert_eq!(direct.len(), 3);
        let detour = shortest(&g, &[from], &[to], |i| i == center).unwrap();
        assert_eq!(detour.len(), 5);
    }

    #[test]
    fn multi_source_multi_target() {
        let grid = Grid::filled(4, 4, TileKind::Ancilla);
        let g = AncillaGraph::from_grid(&grid);
        let s1 = g.index_of(grid.tile_at(0, 0)).unwrap();
        let s2 = g.index_of(grid.tile_at(3, 3)).unwrap();
        let t1 = g.index_of(grid.tile_at(3, 2)).unwrap();
        let path = shortest(&g, &[s1, s2], &[t1], |_| false).unwrap();
        // s2 is adjacent to t1.
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], s2);
    }

    #[test]
    fn source_equals_target() {
        let g = AncillaGraph::from_grid(&line_grid(3));
        let p = shortest(&g, &[1], &[1], |_| false).unwrap();
        assert_eq!(p, vec![1]);
    }

    /// SplitMix64: a seeded stream for the differential tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn shortest_path_into_matches_the_reference_bfs() {
        use crate::Layout;
        let mut state = 0x5EED_u64;
        // Random grids with a random share of void tiles (many split into
        // several components), plus a compressed layout.
        let mut graphs = Vec::new();
        for _ in 0..40 {
            let (w, h) = (2 + next(&mut state) % 9, 1 + next(&mut state) % 8);
            let void_pct = next(&mut state) % 40;
            let mut grid = Grid::filled(w as u32, h as u32, TileKind::Ancilla);
            for x in 0..w as u32 {
                for y in 0..h as u32 {
                    if next(&mut state) % 100 < void_pct {
                        grid.set_kind(grid.tile_at(x, y), TileKind::Void);
                    }
                }
            }
            graphs.push(AncillaGraph::from_grid(&grid));
        }
        let mut layout = Layout::new(16).unwrap();
        layout.compress(0.5, 3);
        graphs.push(AncillaGraph::from_grid(layout.grid()));

        // One scratch and one output buffer across every query, as the
        // baseline router holds them.
        let mut scratch = BfsScratch::default();
        let mut out = Vec::new();
        let (mut found, mut unreachable, mut source_is_target) = (0, 0, 0);
        for g in graphs.iter().filter(|g| !g.is_empty()) {
            let n = g.len() as u64;
            for _ in 0..60 {
                let pick = |k: u64, state: &mut u64| -> Vec<AncillaIndex> {
                    (0..k).map(|_| (next(state) % n) as AncillaIndex).collect()
                };
                let (ks, kt) = (1 + next(&mut state) % 4, 1 + next(&mut state) % 4);
                let mut sources = pick(ks, &mut state);
                let targets = pick(kt, &mut state);
                if next(&mut state).is_multiple_of(6) {
                    // A source that is also a target.
                    sources.push(targets[0]);
                }
                let block_pct = next(&mut state) % 50;
                let blocked: Vec<bool> =
                    (0..n).map(|_| next(&mut state) % 100 < block_pct).collect();
                let is_blocked = |a: AncillaIndex| blocked[a as usize];
                let want = reference_shortest_path(g, &sources, &targets, is_blocked);
                let got =
                    g.shortest_path_into(&sources, &targets, is_blocked, &mut scratch, &mut out);
                assert_eq!(
                    got.then(|| out.clone()),
                    want,
                    "{sources:?} -> {targets:?} on {} nodes",
                    g.len()
                );
                if !got {
                    assert!(out.is_empty());
                }
                match &want {
                    Some(p) if p.len() == 1 => source_is_target += 1,
                    Some(_) => found += 1,
                    None => unreachable += 1,
                }
            }
        }
        assert!(
            found >= 500 && unreachable >= 200 && source_is_target >= 50,
            "{found} routed, {unreachable} unreachable, {source_is_target} source = target"
        );
    }

    #[test]
    fn single_pair_bfs_matches_shortest_path_on_a_compressed_layout() {
        use crate::Layout;
        let mut layout = Layout::new(16).unwrap();
        layout.compress(0.5, 3);
        // A full grid too: its many equal-length shortest paths make the
        // adjacency order decide which one is found.
        let graphs = [
            AncillaGraph::from_grid(layout.grid()),
            AncillaGraph::from_grid(&Grid::filled(6, 5, TileKind::Ancilla)),
        ];
        // One scratch and one output buffer across every query, as the
        // path cache holds them.
        let mut scratch = BfsScratch::default();
        let mut out = Vec::new();
        for g in &graphs {
            assert!(g.len() > 20, "a non-trivial graph");
            let n = g.len() as AncillaIndex;
            for a in 0..n {
                for b in 0..n {
                    let found = g.path_between_into(a, b, &mut scratch, &mut out);
                    let want = reference_shortest_path(g, &[a], &[b], |_| false);
                    assert_eq!(found.then(|| out.clone()), want, "{a} -> {b}");
                }
            }
        }
        // Across components there is no path.
        let g = AncillaGraph::from_grid(&{
            let mut grid = Grid::filled(5, 1, TileKind::Ancilla);
            grid.set_kind(grid.tile_at(2, 0), TileKind::Void);
            grid
        });
        assert!(!g.path_between_into(0, 3, &mut scratch, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn multi_target_search_paths_match_single_pair_paths() {
        use crate::Layout;
        let mut layout = Layout::new(16).unwrap();
        layout.compress(0.5, 3);
        let g = AncillaGraph::from_grid(layout.grid());
        let n = g.len() as AncillaIndex;
        assert!(n > 20, "a non-trivial graph");
        let (mut multi, mut single) = (BfsScratch::default(), BfsScratch::default());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for s in 0..n {
            // Every target at once, a strided subset (the search stops on
            // its last target, well before the component is exhausted),
            // and a set holding the source itself and a repeat.
            let all: Vec<AncillaIndex> = (0..n).collect();
            let strided: Vec<AncillaIndex> = (0..n).filter(|t| (t + s) % 5 == 0).collect();
            let with_source = [s, (s + 7) % n, (s + 7) % n];
            for targets in [&all[..], &strided[..], &with_source[..]] {
                g.search_until(s, targets, &mut multi);
                for &t in targets {
                    assert!(multi.path_into(t, &mut got), "{s} -> {t}");
                    assert!(g.path_between_into(s, t, &mut single, &mut want));
                    assert_eq!(got, want, "{s} -> {t} among {targets:?}");
                }
            }
        }
        // Across components: the search exhausts the source's component,
        // so an unreachable target reads no path.
        let g = AncillaGraph::from_grid(&{
            let mut grid = Grid::filled(5, 1, TileKind::Ancilla);
            grid.set_kind(grid.tile_at(2, 0), TileKind::Void);
            grid
        });
        g.search_until(0, &[1, 3], &mut multi);
        assert!(multi.path_into(1, &mut got));
        assert_eq!(got, [0, 1]);
        assert!(!multi.path_into(3, &mut got));
        assert!(got.is_empty());
    }

    #[test]
    fn disconnection_detected() {
        let mut grid = Grid::filled(5, 1, TileKind::Ancilla);
        grid.set_kind(grid.tile_at(2, 0), TileKind::Void);
        assert!(!ancilla_network_connected(&grid));
        let g = AncillaGraph::from_grid(&grid);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        let grid = Grid::filled(2, 2, TileKind::Void);
        assert!(ancilla_network_connected(&grid));
        let g = AncillaGraph::from_grid(&grid);
        assert!(g.is_connected());
        assert!(g.is_empty());
    }
}
