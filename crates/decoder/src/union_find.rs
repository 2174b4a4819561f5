//! The real union-find syndrome decoder: seeded error channel → bit-packed
//! syndrome → DSU cluster growth → peeling → Pauli frame.
//!
//! Unlike the latency-model decoders, decode cost here is *emergent*: every
//! window samples a fresh error configuration on the tile's detector graph
//! at physical error rate `p`, and the reported latency is derived from the
//! work the decode actually performed (syndrome-word scans, cluster-growth
//! half-steps, peeled erasure edges). Error rate and code distance thereby
//! set decode latency through the decoder's own dynamics instead of through
//! an assumed throughput curve.
//!
//! Everything is deterministic: the error stream of window `w` on tile `t`
//! is a pure function of `(channel seed, t, w)`, and windows are submitted
//! by the engines in schedule order, which is itself a pure function of the
//! seeded run.
//!
//! [`decode_chain`] / [`decode_syndrome`] are the reference implementation:
//! pure functions that allocate their working state per call. The
//! [`UnionFindDecoder`] model reaches the same result per window in held
//! scratch whose cost follows the window's flipped edges: a window with no
//! flip (≈92% of d = 7 windows at p = 1e-4) costs only its sampling, and
//! steady-state decoding never allocates.

use crate::dsu::ClusterDsu;
use crate::graph::DetectorGraph;
use crate::pauli_frame::PauliFrame;
use crate::syndrome::SyndromeBits;
use crate::{DecoderConfig, DecoderModel};
use std::collections::VecDeque;

/// The seeded physical error channel a union-find decoder samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorChannel {
    /// Per-edge flip probability per window (data-qubit and measurement
    /// errors alike — the phenomenological model).
    pub error_rate: f64,
    /// Base seed of the channel. Window streams are derived from
    /// `(seed, tile, window index)`, so the channel is independent of the
    /// scheduler's RNG.
    pub seed: u64,
}

impl Default for ErrorChannel {
    fn default() -> Self {
        ErrorChannel {
            error_rate: 1e-3,
            seed: 0xD6C0DE,
        }
    }
}

impl ErrorChannel {
    /// A channel at rate `p` seeded with `seed`.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        ErrorChannel { error_rate, seed }
    }
}

/// Work and outcome accounting of decode activity, accumulated by the
/// runtime into [`DecoderStats`](crate::DecoderStats). Latency-model
/// decoders report all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Defects (flipped detectors) observed.
    pub defects: u64,
    /// Cluster-growth half-steps performed.
    pub growth_steps: u64,
    /// Cluster merges (DSU unions of distinct clusters).
    pub merges: u64,
    /// Erasure edges peeled into the correction.
    pub peeled_edges: u64,
    /// Windows whose residual (error ⊕ correction) crossed the logical cut.
    pub logical_failures: u64,
    /// Abstract work units the latency derivation charged.
    pub work_units: u64,
}

impl DecodeWork {
    /// Accumulates another window's work into this total.
    pub fn add(&mut self, other: &DecodeWork) {
        self.defects += other.defects;
        self.growth_steps += other.growth_steps;
        self.merges += other.merges;
        self.peeled_edges += other.peeled_edges;
        self.logical_failures += other.logical_failures;
        self.work_units += other.work_units;
    }
}

/// The full result of decoding one sampled window.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The correction chain the decoder produced (edge address space).
    pub correction: SyndromeBits,
    /// Defects in the observed syndrome.
    pub defects: u32,
    /// Cluster-growth half-steps performed.
    pub growth_steps: u64,
    /// DSU merges of distinct clusters during growth.
    pub merges: u64,
    /// Erasure edges peeled into the correction.
    pub peeled_edges: u64,
    /// Correction edges incident to a virtual boundary vertex (a "boundary
    /// peel": parity was absorbed by the code boundary).
    pub boundary_peels: u64,
    /// Work units charged for latency purposes.
    pub work_units: u64,
}

/// SplitMix64: the decoder's own tiny deterministic PRNG, so sampling the
/// channel never touches (or depends on) the scheduler's RNG stream.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The per-window stream seed: a SplitMix64 finalizer over channel seed,
/// tile and window index.
fn window_seed(channel: u64, tile: u32, window: u64) -> u64 {
    let mut z = channel
        ^ (tile as u64).wrapping_mul(0xA24BAED4963EE407)
        ^ window.wrapping_mul(0x9FB21C651E98DF25);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Samples an iid error configuration over `graph`'s edges at rate `p`
/// from the deterministic stream `seed`.
pub fn sample_error(graph: &DetectorGraph, p: f64, seed: u64) -> SyndromeBits {
    let mut error = SyndromeBits::new(graph.num_edges());
    sample_error_into(graph, p, seed, &mut error);
    error
}

/// [`sample_error`] into a held vector, which is reset to `graph`'s edges.
fn sample_error_into(graph: &DetectorGraph, p: f64, seed: u64, error: &mut SyndromeBits) {
    error.reset(graph.num_edges());
    if p <= 0.0 {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    // Saturating f64→u64 cast: p ≥ 1 flips every edge.
    let threshold = (p * 18_446_744_073_709_551_616.0) as u64;
    for e in 0..graph.num_edges() {
        let draw = rng.next_u64();
        if p >= 1.0 || draw < threshold {
            error.set(e);
        }
    }
}

/// Decodes the syndrome of `error` on `graph` with union-find cluster
/// growth and peeling. Pure and deterministic: the same `(graph, error)`
/// always yields the same correction and work counts.
///
/// The produced correction always reproduces the observed syndrome
/// (`graph.syndrome_of(correction) == graph.syndrome_of(error)`); whether
/// the residual crosses the logical cut is the caller's question (see
/// [`DetectorGraph::crosses_logical_cut`]).
pub fn decode_chain(graph: &DetectorGraph, error: &SyndromeBits) -> DecodeOutcome {
    let syndrome = graph.syndrome_of(error);
    decode_syndrome(graph, &syndrome)
}

/// Decodes an explicit syndrome on `graph` (see [`decode_chain`]).
pub fn decode_syndrome(graph: &DetectorGraph, syndrome: &SyndromeBits) -> DecodeOutcome {
    debug_assert_eq!(syndrome.len(), graph.num_detectors());
    let n = graph.num_nodes();
    let mut dsu = ClusterDsu::new(n);
    dsu.set_boundary(graph.top());
    dsu.set_boundary(graph.bottom());
    let defects: Vec<u32> = syndrome.iter_ones().collect();
    for &v in &defects {
        dsu.flip_parity(v);
    }

    // Growth, smallest cluster first (the Delfosse–Nickerson rule): each
    // iteration picks the smallest still-active cluster (odd parity, no
    // boundary contact; ties broken by root id, so growth is fully
    // deterministic) and grows every edge on its boundary by one
    // half-step. Fully grown edges merge their endpoint clusters. Growing
    // one cluster at a time keeps erasures tight — a cluster that reaches
    // even parity or a boundary stops before flooding its neighborhood,
    // which is what makes peeled corrections track minimum-weight ones on
    // low-weight errors.
    //
    // Terminates: an active cluster always has an incident not-fully-grown
    // edge (a cluster closed under full-support adjacency spans the whole
    // connected graph, boundaries included, and boundary contact
    // deactivates it), so every iteration raises some edge's support and
    // total support is bounded by `2·edges`.
    let mut support = vec![0u8; graph.num_edges() as usize];
    let mut growth_steps = 0u64;
    let mut merges = 0u64;
    let mut to_union: Vec<[u32; 2]> = Vec::new();
    loop {
        let mut smallest: Option<(u32, u32)> = None;
        for &v in &defects {
            if dsu.cluster_active(v) {
                let root = dsu.find(v);
                let key = (dsu.cluster_size(root), root);
                if smallest.is_none_or(|best| key < best) {
                    smallest = Some(key);
                }
            }
        }
        let Some((_, root)) = smallest else { break };
        to_union.clear();
        for e in 0..graph.num_edges() {
            if support[e as usize] >= 2 {
                continue;
            }
            let [a, b] = graph.endpoints(e);
            if dsu.find(a) != root && dsu.find(b) != root {
                continue;
            }
            support[e as usize] += 1;
            growth_steps += 1;
            if support[e as usize] >= 2 {
                to_union.push([a, b]);
            }
        }
        for &[a, b] in &to_union {
            if dsu.union(a, b).is_some() {
                merges += 1;
            }
        }
    }

    // Peeling: build a spanning forest of the erasure (fully grown edges),
    // rooting trees at the boundary vertices first so clusters that
    // touched a boundary peel their parity into it. Then walk vertices in
    // reverse discovery order, moving each defect mark up its tree edge.
    let mut parent_edge = vec![u32::MAX; n as usize];
    let mut visited = vec![false; n as usize];
    let mut order: Vec<u32> = Vec::new();
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut erasure_visits = 0u64;
    let roots = [graph.top(), graph.bottom()];
    let starts = roots.iter().copied().chain(0..graph.num_detectors());
    for start in starts {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            erasure_visits += 1;
            for &e in graph.incident(v) {
                if support[e as usize] < 2 {
                    continue;
                }
                let [a, b] = graph.endpoints(e);
                let w = if a == v { b } else { a };
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parent_edge[w as usize] = e;
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
    }
    let mut correction = SyndromeBits::new(graph.num_edges());
    let mut marks = syndrome.clone();
    let mut peeled_edges = 0u64;
    let mut boundary_peels = 0u64;
    for &v in order.iter().rev() {
        if graph.is_boundary(v) || !marks.get(v) {
            continue;
        }
        let e = parent_edge[v as usize];
        debug_assert_ne!(e, u32::MAX, "defect {v} outside the erasure forest");
        correction.set(e);
        peeled_edges += 1;
        marks.clear(v);
        let [a, b] = graph.endpoints(e);
        let u = if a == v { b } else { a };
        if graph.is_boundary(u) {
            boundary_peels += 1;
        } else {
            marks.toggle(u);
        }
    }
    debug_assert_eq!(
        marks.popcount(),
        0,
        "peeling must consume every defect (clusters end even or boundary-attached)"
    );
    debug_assert_eq!(
        graph.syndrome_of(&correction),
        *syndrome,
        "correction must reproduce the observed syndrome"
    );

    // The latency work model: unpack the packed syndrome words
    // (O(words) + O(popcount)), then the growth and peeling work.
    let scan_words = syndrome.num_words() as u64;
    let defect_count = defects.len() as u64;
    let work_units = scan_words + 2 * defect_count + growth_steps + erasure_visits + peeled_edges;
    DecodeOutcome {
        correction,
        defects: defect_count as u32,
        growth_steps,
        merges,
        peeled_edges,
        boundary_peels,
        work_units,
    }
}

/// The window decoder's held working state: every buffer one window needs,
/// sized for the largest chunk seen and left clean after each window (the
/// forest all singletons, every support zero). Cleaning up revisits only
/// the nodes and edges the window's clusters touched, and steady-state
/// decoding never allocates.
#[derive(Debug)]
struct WindowScratch {
    /// The sampled error chain (edge space).
    error: SyndromeBits,
    /// The observed syndrome, consumed by peeling as the defect marks.
    marks: SyndromeBits,
    /// The correction chain (edge space).
    correction: SyndromeBits,
    dsu: ClusterDsu,
    defects: Vec<u32>,
    /// Growth half-steps per edge.
    support: Vec<u8>,
    /// Edges whose support left zero this window: what to reset.
    grown: Vec<u32>,
    to_union: Vec<[u32; 2]>,
    /// Detectors incident to a fully grown edge, ascending: the peeling
    /// BFS starts that can discover anything.
    starts: Vec<u32>,
    queue: VecDeque<u32>,
    order: Vec<u32>,
    parent_edge: Vec<u32>,
    /// Per-node visit stamps; a node is visited this window iff its stamp
    /// equals `stamp`, so starting a window resets nothing.
    visited: Vec<u32>,
    stamp: u32,
}

impl WindowScratch {
    fn new() -> Self {
        WindowScratch {
            error: SyndromeBits::new(0),
            marks: SyndromeBits::new(0),
            correction: SyndromeBits::new(0),
            dsu: ClusterDsu::new(0),
            defects: Vec::new(),
            support: Vec::new(),
            grown: Vec::new(),
            to_union: Vec::new(),
            starts: Vec::new(),
            queue: VecDeque::new(),
            order: Vec::new(),
            parent_edge: Vec::new(),
            visited: Vec::new(),
            stamp: 0,
        }
    }

    /// Sizes every buffer for `graph`'s worst case (every node a defect,
    /// every edge grown), so windows on graphs up to this size never
    /// allocate. Graphs of one decoder grow with their round count.
    fn grow_to(&mut self, graph: &DetectorGraph) {
        let (n, edges) = (graph.num_nodes() as usize, graph.num_edges() as usize);
        self.dsu.reset(n as u32);
        self.parent_edge.resize(n, u32::MAX);
        self.visited.resize(n, 0);
        self.support.resize(edges, 0);
        self.marks.reset(graph.num_detectors());
        self.defects.reserve(n);
        self.grown.reserve(edges);
        self.to_union.reserve(edges);
        self.starts.reserve(2 * edges);
        self.order.reserve(n);
        self.queue.reserve(n);
    }

    /// Decodes the chain in `self.error` on `graph` and leaves the
    /// correction in `self.correction`. Same correction and counts as
    /// [`decode_chain`], plus the logical verdict of the residual.
    ///
    /// A window with no flipped edge has a closed form: no defects, growth,
    /// merges or peels, an empty correction, and `syndrome words +
    /// num_nodes` work units, because the reference peeling BFS visits
    /// every node exactly once (every node is a start). Otherwise only the
    /// flipped edges' clusters are grown and peeled: the growth order
    /// (ascending edges, `(size, root)` tie-break) and the BFS discovery
    /// order are the reference's, and the BFS skips only starts with no
    /// fully grown edge, which discover nothing.
    fn decode(&mut self, graph: &DetectorGraph) -> DecodeWork {
        let n = graph.num_nodes();
        if self.dsu.len() < n {
            self.grow_to(graph);
        }
        let scan_words = graph.num_detectors().div_ceil(64) as u64;
        self.correction.reset(graph.num_edges());
        if self.error.popcount() == 0 {
            return DecodeWork {
                work_units: scan_words + n as u64,
                ..DecodeWork::default()
            };
        }
        self.marks.reset(graph.num_detectors());
        for e in self.error.iter_ones() {
            for v in graph.endpoints(e) {
                if !graph.is_boundary(v) {
                    self.marks.toggle(v);
                }
            }
        }
        self.defects.clear();
        self.defects.extend(self.marks.iter_ones());
        let dsu = &mut self.dsu;
        dsu.set_boundary(graph.top());
        dsu.set_boundary(graph.bottom());
        for &v in &self.defects {
            dsu.flip_parity(v);
        }

        // Growth: the reference loop, recording which edges it touched.
        let mut growth_steps = 0u64;
        let mut merges = 0u64;
        loop {
            let mut smallest: Option<(u32, u32)> = None;
            for &v in &self.defects {
                if dsu.cluster_active(v) {
                    let root = dsu.find(v);
                    let key = (dsu.cluster_size(root), root);
                    if smallest.is_none_or(|best| key < best) {
                        smallest = Some(key);
                    }
                }
            }
            let Some((_, root)) = smallest else { break };
            self.to_union.clear();
            for e in 0..graph.num_edges() {
                let support = self.support[e as usize];
                if support >= 2 {
                    continue;
                }
                let [a, b] = graph.endpoints(e);
                if dsu.find(a) != root && dsu.find(b) != root {
                    continue;
                }
                if support == 0 {
                    self.grown.push(e);
                }
                self.support[e as usize] = support + 1;
                growth_steps += 1;
                if support + 1 >= 2 {
                    self.to_union.push([a, b]);
                }
            }
            for &[a, b] in &self.to_union {
                if dsu.union(a, b).is_some() {
                    merges += 1;
                }
            }
        }

        // Peeling: the reference BFS over the starts that have an erasure
        // edge, in the reference's start order (boundaries, then ascending
        // detectors).
        self.starts.clear();
        for &e in &self.grown {
            if self.support[e as usize] >= 2 {
                let [a, b] = graph.endpoints(e);
                self.starts
                    .extend([a, b].into_iter().filter(|&v| !graph.is_boundary(v)));
            }
        }
        self.starts.sort_unstable();
        self.starts.dedup();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: clear stale stamps so none can equal a new one.
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.order.clear();
        let roots = [graph.top(), graph.bottom()];
        for start in roots.into_iter().chain(self.starts.iter().copied()) {
            if self.visited[start as usize] == self.stamp {
                continue;
            }
            self.visited[start as usize] = self.stamp;
            self.queue.push_back(start);
            while let Some(v) = self.queue.pop_front() {
                for &e in graph.incident(v) {
                    if self.support[e as usize] < 2 {
                        continue;
                    }
                    let [a, b] = graph.endpoints(e);
                    let w = if a == v { b } else { a };
                    if self.visited[w as usize] != self.stamp {
                        self.visited[w as usize] = self.stamp;
                        self.parent_edge[w as usize] = e;
                        self.order.push(w);
                        self.queue.push_back(w);
                    }
                }
            }
        }
        let mut peeled_edges = 0u64;
        for &v in self.order.iter().rev() {
            if graph.is_boundary(v) || !self.marks.get(v) {
                continue;
            }
            let e = self.parent_edge[v as usize];
            self.correction.set(e);
            peeled_edges += 1;
            self.marks.clear(v);
            let [a, b] = graph.endpoints(e);
            let u = if a == v { b } else { a };
            if !graph.is_boundary(u) {
                self.marks.toggle(u);
            }
        }
        debug_assert_eq!(self.marks.popcount(), 0, "peeling consumes every defect");

        // Leave the forest all singletons and every support zero: only
        // erasure endpoints, defects and the boundaries ever left that
        // state (path compression rewrites cluster members only).
        for &e in &self.grown {
            if self.support[e as usize] >= 2 {
                let [a, b] = graph.endpoints(e);
                self.dsu.reset_node(a);
                self.dsu.reset_node(b);
            }
            self.support[e as usize] = 0;
        }
        self.grown.clear();
        for &v in &self.defects {
            self.dsu.reset_node(v);
        }
        self.dsu.reset_node(graph.top());
        self.dsu.reset_node(graph.bottom());

        // The residual's cut parity is linear: error ⊕ correction crosses
        // the cut iff exactly one of them does.
        let logical =
            graph.crosses_logical_cut(&self.error) != graph.crosses_logical_cut(&self.correction);
        let defects = self.defects.len() as u64;
        DecodeWork {
            defects,
            growth_steps,
            merges,
            peeled_edges,
            logical_failures: logical as u64,
            work_units: scan_words + 2 * defects + growth_steps + n as u64 + peeled_edges,
        }
    }
}

/// Per-tile decoder state.
#[derive(Debug)]
struct TileState {
    frame: PauliFrame,
    windows: u64,
    busy_until: u64,
}

/// A real union-find syndrome decoder over per-tile detector graphs.
///
/// Implements [`DecoderModel`]: each submitted window samples a seeded
/// error configuration at the channel's rate `p`, decodes it (DSU growth +
/// peeling), folds the correction into the tile's [`PauliFrame`], and
/// reports a latency derived from the work actually performed:
///
/// ```text
/// latency = base_latency + ceil(work_units / throughput)
/// work_units = syndrome words + 2·defects + growth half-steps
///            + erasure-forest visits + peeled edges
/// ```
///
/// Each tile is one sequential decode pipeline (windows on a busy tile
/// queue behind each other), so back-pressure emerges when the sampled
/// error rate produces more work than `throughput` clears per round.
/// Windows longer than `d` rounds decode as a stream of `≤ d`-round chunks
/// (Triage-style sliding windows).
#[derive(Debug)]
pub struct UnionFindDecoder {
    distance: u32,
    channel: ErrorChannel,
    base_latency: u64,
    throughput: f64,
    /// Detector graphs per chunk length: slot `r - 1` holds the `r`-round
    /// graph once a chunk of that length has been decoded.
    graphs: Vec<Option<DetectorGraph>>,
    /// Per-tile state, indexed by tile id.
    tiles: Vec<Option<TileState>>,
    scratch: WindowScratch,
    last_work: DecodeWork,
}

impl UnionFindDecoder {
    /// Builds the decoder for distance-`d` tiles fed by `channel`.
    /// `throughput`/`base_latency` come from the configuration and define
    /// the work→rounds conversion.
    pub fn new(config: &DecoderConfig, distance: u32, channel: ErrorChannel) -> Self {
        let distance = distance.max(2);
        UnionFindDecoder {
            distance,
            channel,
            base_latency: config.base_latency,
            throughput: config.throughput.max(1e-6),
            graphs: (0..distance).map(|_| None).collect(),
            tiles: Vec::new(),
            scratch: WindowScratch::new(),
            last_work: DecodeWork::default(),
        }
    }

    /// The channel this decoder samples.
    pub fn channel(&self) -> ErrorChannel {
        self.channel
    }

    /// The accumulated Pauli frame of `tile`, if it has decoded anything.
    pub fn frame(&self, tile: u32) -> Option<&PauliFrame> {
        self.tiles
            .get(tile as usize)
            .and_then(Option::as_ref)
            .map(|t| &t.frame)
    }

    /// Decodes one `rounds`-round window on `tile`, returning the work
    /// performed (streamed as `≤ d`-round chunks).
    fn decode_window(&mut self, tile: u32, rounds: u32) -> DecodeWork {
        let distance = self.distance;
        if self.tiles.len() <= tile as usize {
            self.tiles.resize_with(tile as usize + 1, || None);
        }
        let mut total = DecodeWork::default();
        let mut remaining = rounds.max(1);
        while remaining > 0 {
            let chunk = remaining.min(distance);
            remaining -= chunk;
            let graph = self.graphs[chunk as usize - 1]
                .get_or_insert_with(|| DetectorGraph::new(distance, chunk));
            let tile_state = self.tiles[tile as usize].get_or_insert_with(|| TileState {
                frame: PauliFrame::new(graph),
                windows: 0,
                busy_until: 0,
            });
            let seed = window_seed(self.channel.seed, tile, tile_state.windows);
            tile_state.windows += 1;
            sample_error_into(
                graph,
                self.channel.error_rate,
                seed,
                &mut self.scratch.error,
            );
            let work = self.scratch.decode(graph);
            tile_state.frame.absorb(graph, &self.scratch.correction);
            total.add(&work);
        }
        total
    }
}

impl DecoderModel for UnionFindDecoder {
    fn name(&self) -> &'static str {
        "union_find"
    }

    fn decode_ready_at(&mut self, tile: u32, rounds: u32, now: u64) -> u64 {
        let work = self.decode_window(tile, rounds);
        let latency = self.base_latency + (work.work_units as f64 / self.throughput).ceil() as u64;
        let tile_state = self.tiles[tile as usize]
            .as_mut()
            .expect("tile seen in decode");
        let ready = now.max(tile_state.busy_until) + latency;
        tile_state.busy_until = ready;
        self.last_work.add(&work);
        ready
    }

    fn take_work(&mut self) -> DecodeWork {
        std::mem::take(&mut self.last_work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uf(d: u32, p: f64, seed: u64) -> UnionFindDecoder {
        let cfg = DecoderConfig {
            kind: crate::DecoderKind::UnionFind,
            ..DecoderConfig::default()
        };
        UnionFindDecoder::new(&cfg, d, ErrorChannel::new(p, seed))
    }

    #[test]
    fn zero_error_rate_decodes_to_identity() {
        let g = DetectorGraph::new(3, 2);
        let error = sample_error(&g, 0.0, 7);
        assert_eq!(error.popcount(), 0);
        let out = decode_chain(&g, &error);
        assert_eq!(out.correction.popcount(), 0);
        assert_eq!(out.defects, 0);
        assert_eq!(out.growth_steps, 0);
        // Work never reaches zero: the decoder still scans the packed
        // syndrome words.
        assert!(out.work_units > 0);
    }

    #[test]
    fn correction_always_reproduces_the_syndrome() {
        for seed in 0..50u64 {
            let g = DetectorGraph::new(5, 3);
            let error = sample_error(&g, 0.04, seed);
            let out = decode_chain(&g, &error);
            assert_eq!(
                g.syndrome_of(&out.correction),
                g.syndrome_of(&error),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_data_error_is_corrected_exactly() {
        let g = DetectorGraph::new(5, 1);
        // One internal vertical edge: two defects one edge apart. The
        // decoder must remove it with a weight-1 correction and no logical
        // residue.
        let e = g.distance() + 1; // an internal vertical edge (after d top edges)
        let mut error = SyndromeBits::new(g.num_edges());
        error.set(e);
        let out = decode_chain(&g, &error);
        let mut residual = error.clone();
        residual.xor_with(&out.correction);
        assert_eq!(g.syndrome_of(&residual).popcount(), 0);
        assert!(!g.crosses_logical_cut(&residual));
        assert_eq!(out.defects, 2);
        assert!(out.merges >= 1, "the two defect clusters must merge");
    }

    #[test]
    fn boundary_defect_peels_into_the_boundary() {
        let g = DetectorGraph::new(3, 1);
        // A top boundary edge error: a single defect adjacent to TOP. The
        // cluster grows into the boundary and peels its parity there.
        let mut error = SyndromeBits::new(g.num_edges());
        error.set(0);
        let out = decode_chain(&g, &error);
        assert_eq!(out.defects, 1);
        assert!(out.boundary_peels >= 1);
        let mut residual = error.clone();
        residual.xor_with(&out.correction);
        assert_eq!(g.syndrome_of(&residual).popcount(), 0);
        assert!(!g.crosses_logical_cut(&residual));
    }

    /// The model's window path against the reference on every window of a
    /// seeded stream: the same sampled chain, correction, counts and
    /// logical verdict, including the closed form for flip-free windows.
    /// One scratch serves every graph, interleaving chunk lengths, so a
    /// reset that misses a touched node or edge shows up on a later window.
    #[test]
    fn window_scratch_matches_the_reference_on_every_window() {
        let mut scratch = WindowScratch::new();
        let (mut flip_free, mut flipped, mut merged) = (0, 0, 0);
        for d in [3u32, 5, 7] {
            let graphs: Vec<DetectorGraph> = (1..=d).map(|r| DetectorGraph::new(d, r)).collect();
            for (pi, p) in [0.0, 1e-4, 0.003, 0.02, 0.2, 1.0].into_iter().enumerate() {
                for w in 0..6 * d as u64 {
                    let g = &graphs[(w % d as u64) as usize];
                    let seed = window_seed(0xFACE ^ d as u64, pi as u32, w);
                    let error = sample_error(g, p, seed);
                    sample_error_into(g, p, seed, &mut scratch.error);
                    assert_eq!(scratch.error, error);
                    let reference = decode_chain(g, &error);
                    let work = scratch.decode(g);
                    let label = format!("d={d} rounds={} p={p} w={w}", g.rounds());
                    assert_eq!(scratch.correction, reference.correction, "{label}");
                    assert_eq!(work.defects, reference.defects as u64, "{label}");
                    assert_eq!(work.growth_steps, reference.growth_steps, "{label}");
                    assert_eq!(work.merges, reference.merges, "{label}");
                    assert_eq!(work.peeled_edges, reference.peeled_edges, "{label}");
                    assert_eq!(work.work_units, reference.work_units, "{label}");
                    let mut residual = error.clone();
                    residual.xor_with(&reference.correction);
                    let logical = g.crosses_logical_cut(&residual) as u64;
                    assert_eq!(work.logical_failures, logical, "{label}");
                    // The scratch is clean again: all singletons, no support.
                    assert!(scratch.support.iter().all(|&s| s == 0), "{label}");
                    for v in 0..scratch.dsu.len() {
                        assert_eq!(scratch.dsu.find(v), v, "{label}");
                        assert_eq!(scratch.dsu.cluster_size(v), 1, "{label}");
                        assert!(!scratch.dsu.cluster_parity(v), "{label}");
                        assert!(!scratch.dsu.cluster_boundary(v), "{label}");
                    }
                    if error.popcount() == 0 {
                        flip_free += 1;
                    } else {
                        flipped += 1;
                    }
                    merged += (work.merges > 0) as u32;
                }
            }
        }
        // The stream must exercise both paths, and real cluster merges.
        assert!(flip_free >= 40 && flipped >= 40 && merged >= 20);
    }

    #[test]
    fn window_streams_are_deterministic_per_tile_and_window() {
        let mut a = uf(3, 0.02, 99);
        let mut b = uf(3, 0.02, 99);
        for (tile, rounds, now) in [(0, 3, 0), (1, 3, 0), (0, 5, 10), (2, 1, 11)] {
            assert_eq!(
                a.decode_ready_at(tile, rounds, now),
                b.decode_ready_at(tile, rounds, now)
            );
            assert_eq!(a.take_work(), b.take_work());
        }
        // A different channel seed produces a different stream somewhere.
        let mut c = uf(3, 0.5, 100);
        let mut d = uf(3, 0.5, 101);
        let differs = (0..20).any(|w| {
            c.decode_ready_at(0, 3, w * 100) != d.decode_ready_at(0, 3, w * 100)
                || c.take_work() != d.take_work()
        });
        assert!(differs, "seeds must matter at p = 0.5");
    }

    #[test]
    fn busy_tile_queues_windows_sequentially() {
        let mut m = uf(3, 0.0, 1);
        let r1 = m.decode_ready_at(0, 3, 100);
        let r2 = m.decode_ready_at(0, 3, 100);
        assert!(r2 > r1, "same tile decodes serially");
        let other = m.decode_ready_at(1, 3, 100);
        assert!(other <= r1, "tiles decode independently");
    }

    #[test]
    fn long_windows_decode_as_chunks() {
        let mut m = uf(3, 0.0, 1);
        m.decode_ready_at(0, 3, 0);
        let one = m.take_work();
        let mut m = uf(3, 0.0, 1);
        m.decode_ready_at(0, 9, 0);
        let three = m.take_work();
        assert_eq!(three.work_units, 3 * one.work_units);
    }

    #[test]
    fn pauli_frame_accumulates() {
        let mut m = uf(3, 0.2, 5);
        for w in 0..20 {
            m.decode_ready_at(7, 3, w * 1000);
        }
        let frame = m.frame(7).expect("tile 7 decoded");
        assert!(frame.total_flips() > 0, "p=0.2 must produce corrections");
        assert!(m.frame(3).is_none());
    }
}
