//! STAR-architecture fabric layouts and grid compression (paper §2.2, §5.3).
//!
//! The baseline STAR architecture [1] tiles the fabric with atomic blocks:
//!
//! - **2×2 STAR block** — 1 data tile + 3 ancilla tiles,
//! - **2×1 compressed block** — 1 data + 1 ancilla.
//!
//! §5.3's hardware/software co-design experiment *compresses* a 2×2 grid by
//! repeatedly picking a random data qubit and shrinking its block to 2×1
//! "while still ensuring the grid remains connected". [`Layout::compress`]
//! implements exactly that: removals that would disconnect the global ancilla
//! network (or strand a data qubit with no adjacent ancilla) are skipped, and
//! the achieved removal fraction is reported — for multi-row grids, perfect
//! 100 % compression is geometrically impossible while staying connected, so
//! requested and achieved fractions can differ slightly at the top end.

use crate::graph::ancilla_network_connected;
use crate::{Corner, Grid, Side, TileId, TileKind};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::QubitId;
use std::fmt;

/// Ancillas a 2×2 block can lose under compression (it keeps one).
const REMOVABLE_PER_BLOCK: usize = 2;

/// Error from layout construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutError {
    msg: &'static str,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for LayoutError {}

/// Geometric adjacency of a data tile: the raw material for prep-candidate
/// selection (paper Fig 7: ancillas 1,2,3 prepare; 4,5 route/help).
#[derive(Debug, Clone, Default)]
pub struct DataAdjacency {
    /// Edge-adjacent ancilla tiles with the side of the data tile they touch.
    pub side: Vec<(Side, TileId)>,
    /// Diagonal ancilla tiles with the edge-adjacent ancillas (helpers) that
    /// connect them to the data tile.
    pub diagonal: Vec<(Corner, TileId, Vec<TileId>)>,
}

/// A mapped surface-code fabric: the tile grid plus the data-qubit placement
/// and per-block bookkeeping.
///
/// # Example
///
/// ```
/// use rescq_lattice::Layout;
///
/// let layout = Layout::new(8).unwrap();
/// assert_eq!(layout.num_qubits(), 8);
/// assert_eq!(layout.ancilla_tiles().len(), 24); // 3 per data qubit
/// assert!(layout.is_routable());
/// ```
#[derive(Debug, Clone)]
pub struct Layout {
    grid: Grid,
    data_tiles: Vec<TileId>,
    /// Per qubit: ancilla tiles belonging to its block (shrinks on compression).
    block_ancillas: Vec<Vec<TileId>>,
    /// Fraction of compressible ancillas removed so far (0 = none, 1 = two
    /// ancillas removed per block).
    removed_ancillas: usize,
}

impl Layout {
    /// Builds a fabric of `num_qubits` 2×2 STAR blocks, arranged in a
    /// near-square grid of blocks, row-major (qubit `i` is at block
    /// `(i % cols, i / cols)` — the paper's "numerically close indices are
    /// physically close" one-to-one mapping, §5.1).
    ///
    /// # Errors
    ///
    /// Returns an error when `num_qubits == 0`.
    pub fn new(num_qubits: u32) -> Result<Self, LayoutError> {
        if num_qubits == 0 {
            return Err(LayoutError {
                msg: "layout requires at least one data qubit",
            });
        }
        let cols = (num_qubits as f64).sqrt().ceil() as u32;
        let rows = num_qubits.div_ceil(cols);
        let mut grid = Grid::filled(cols * 2, rows * 2, TileKind::Void);
        let mut data_tiles = Vec::with_capacity(num_qubits as usize);
        let mut block_ancillas = Vec::with_capacity(num_qubits as usize);

        for q in 0..num_qubits {
            let (x0, y0) = ((q % cols) * 2, (q / cols) * 2);
            // TL, TR, BR ancilla; BL data.
            let tl = grid.tile_at(x0, y0);
            let tr = grid.tile_at(x0 + 1, y0);
            let br = grid.tile_at(x0 + 1, y0 + 1);
            let bl = grid.tile_at(x0, y0 + 1);
            for a in [tl, tr, br] {
                grid.set_kind(a, TileKind::Ancilla);
            }
            grid.set_kind(bl, TileKind::Data(QubitId(q)));
            data_tiles.push(bl);
            // Order matters: the *first* entry is kept longest under
            // compression (TL is the data's Z-edge neighbour); the baseline's
            // designated prep ancilla is TR ("the upper right ancilla",
            // Fig 1d).
            block_ancillas.push(vec![tl, tr, br]);
        }

        Ok(Layout {
            grid,
            data_tiles,
            block_ancillas,
            removed_ancillas: 0,
        })
    }

    /// The underlying tile grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of data qubits.
    pub fn num_qubits(&self) -> u32 {
        self.data_tiles.len() as u32
    }

    /// The tile hosting program qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn data_tile(&self, q: QubitId) -> TileId {
        self.data_tiles[q.index()]
    }

    /// The program qubit on tile `t`, if it is a data tile.
    pub fn qubit_at(&self, t: TileId) -> Option<QubitId> {
        match self.grid.kind(t) {
            TileKind::Data(q) => Some(q),
            _ => None,
        }
    }

    /// All ancilla tiles, in tile order.
    pub fn ancilla_tiles(&self) -> Vec<TileId> {
        self.grid.ancilla_tiles().collect()
    }

    /// The surviving ancillas of qubit `q`'s own block.
    pub fn block_ancillas(&self, q: QubitId) -> &[TileId] {
        &self.block_ancillas[q.index()]
    }

    /// The baseline's designated prep ancilla for `q`: the "upper right"
    /// ancilla of its STAR block (Fig 1d), or the first surviving block
    /// ancilla after compression.
    pub fn designated_prep_ancilla(&self, q: QubitId) -> Option<TileId> {
        let block = &self.block_ancillas[q.index()];
        match block.len() {
            3 => Some(block[1]), // TR
            _ => block.last().copied().or_else(|| {
                // Block fully stripped: fall back to any adjacent ancilla.
                self.grid.ancilla_neighbors(self.data_tile(q)).next()
            }),
        }
    }

    /// Geometric adjacency of `q`'s data tile (side + diagonal ancillas).
    pub fn data_adjacency(&self, q: QubitId) -> DataAdjacency {
        let t = self.data_tile(q);
        let mut adj = DataAdjacency::default();
        for side in Side::ALL {
            if let Some(n) = self.grid.neighbor(t, side) {
                if self.grid.kind(n).is_ancilla() {
                    adj.side.push((side, n));
                }
            }
        }
        for corner in Corner::ALL {
            if let Some(d) = self.grid.diag_neighbor(t, corner) {
                if self.grid.kind(d).is_ancilla() {
                    let helpers: Vec<TileId> = corner
                        .adjacent_sides()
                        .into_iter()
                        .filter_map(|s| self.grid.neighbor(t, s))
                        .filter(|&h| {
                            self.grid.kind(h).is_ancilla() && self.grid.neighbors(h).any(|x| x == d)
                        })
                        .collect();
                    if !helpers.is_empty() {
                        adj.diagonal.push((corner, d, helpers));
                    }
                }
            }
        }
        adj
    }

    /// Whether the ancilla network is connected and every data qubit touches
    /// at least one ancilla — the precondition for simulation.
    pub fn is_routable(&self) -> bool {
        ancilla_network_connected(&self.grid)
            && self
                .data_tiles
                .iter()
                .all(|&t| self.grid.ancilla_neighbors(t).next().is_some())
    }

    /// Ancillas per data qubit (3.0 for an uncompressed 2×2 STAR grid).
    pub fn ancilla_ratio(&self) -> f64 {
        self.grid.ancilla_tiles().count() as f64 / self.data_tiles.len() as f64
    }

    /// Fraction of compressible ancillas removed (§5.3's x-axis): `0.0` for
    /// the pristine grid, `1.0` when every block is down to a single ancilla.
    pub fn compression(&self) -> f64 {
        let max_removable = REMOVABLE_PER_BLOCK * self.data_tiles.len();
        self.removed_ancillas as f64 / max_removable as f64
    }

    /// Compresses the grid towards `fraction` (paper §5.3): data qubits are
    /// visited in a seeded random order and their blocks shrunk towards a
    /// single ancilla, skipping any removal that would disconnect the ancilla
    /// network or strand a data qubit. Returns the achieved compression.
    ///
    /// `fraction` is clamped to `[0, 1]`.
    pub fn compress(&mut self, fraction: f64, seed: u64) -> f64 {
        let fraction = fraction.clamp(0.0, 1.0);
        let max_removable = REMOVABLE_PER_BLOCK * self.data_tiles.len();
        let target = (fraction * max_removable as f64).round() as usize;

        let mut order: Vec<usize> = (0..self.data_tiles.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        order.shuffle(&mut rng);

        for &qi in &order {
            if self.removed_ancillas >= target {
                break;
            }
            // Shrink this block towards one ancilla, last-listed first (the
            // first entry is the data's Z-edge neighbour; keep it longest).
            while self.block_ancillas[qi].len() > 1 && self.removed_ancillas < target {
                let mut removed = false;
                for pos in (0..self.block_ancillas[qi].len()).rev() {
                    let cand = self.block_ancillas[qi][pos];
                    self.grid.set_kind(cand, TileKind::Void);
                    if self.is_routable() {
                        self.block_ancillas[qi].remove(pos);
                        self.removed_ancillas += 1;
                        removed = true;
                        break;
                    }
                    self.grid.set_kind(cand, TileKind::Ancilla);
                }
                if !removed {
                    break; // this block cannot shrink further safely
                }
            }
        }
        self.compression()
    }

    /// Renders the fabric as ASCII art (Fig 15 style): `D` = data, `.` =
    /// ancilla, space = void.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for y in 0..self.grid.height() {
            for x in 0..self.grid.width() {
                let c = match self.grid.kind(self.grid.tile_at(x, y)) {
                    TileKind::Data(_) => 'D',
                    TileKind::Ancilla => '.',
                    TileKind::Void => ' ',
                };
                out.push(c);
                out.push(' ');
            }
            // Trim the trailing space for clean diffs.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_grid_shape() {
        let l = Layout::new(9).unwrap();
        assert_eq!(l.grid().width(), 6);
        assert_eq!(l.grid().height(), 6);
        assert_eq!(l.ancilla_tiles().len(), 27);
        assert!((l.ancilla_ratio() - 3.0).abs() < 1e-12);
        assert!(l.is_routable());
        // Data is at the block's bottom-left.
        assert_eq!(l.data_tile(QubitId(0)), l.grid().tile_at(0, 1));
        assert_eq!(l.data_tile(QubitId(4)), l.grid().tile_at(2, 3));
    }

    #[test]
    fn star_data_has_z_and_x_neighbors() {
        let l = Layout::new(4).unwrap();
        let adj = l.data_adjacency(QubitId(0));
        // q0's data tile is (0,1): N = TL ancilla, E = BR ancilla.
        let sides: Vec<Side> = adj.side.iter().map(|&(s, _)| s).collect();
        assert!(sides.contains(&Side::North));
        assert!(sides.contains(&Side::East));
        // NE diagonal (the TR prep ancilla) reachable via two helpers.
        let diag = adj
            .diagonal
            .iter()
            .find(|(c, _, _)| *c == Corner::NorthEast)
            .expect("NE diagonal present");
        assert_eq!(diag.2.len(), 2);
    }

    #[test]
    fn designated_prep_is_upper_right() {
        let l = Layout::new(4).unwrap();
        // q0 block at origin: TR = (1,0).
        assert_eq!(
            l.designated_prep_ancilla(QubitId(0)),
            Some(l.grid().tile_at(1, 0))
        );
    }

    #[test]
    fn compression_reduces_ratio_and_stays_routable() {
        let mut l = Layout::new(16).unwrap();
        let achieved = l.compress(0.5, 7);
        assert!(achieved > 0.3, "achieved {achieved}");
        assert!(l.is_routable());
        assert!(l.ancilla_ratio() < 3.0);
        assert!((l.compression() - achieved).abs() < 1e-12);
    }

    #[test]
    fn full_compression_capped_by_connectivity() {
        let mut l = Layout::new(16).unwrap();
        let achieved = l.compress(1.0, 3);
        // Some removals are vetoed to keep the network connected, but most
        // succeed.
        assert!(achieved > 0.5, "achieved {achieved}");
        assert!(achieved <= 1.0);
        assert!(l.is_routable());
    }

    #[test]
    fn compression_zero_is_noop() {
        let mut l = Layout::new(8).unwrap();
        assert_eq!(l.compress(0.0, 1), 0.0);
        assert!((l.ancilla_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compression_deterministic_per_seed() {
        let mut a = Layout::new(16).unwrap();
        let mut b = Layout::new(16).unwrap();
        a.compress(0.75, 42);
        b.compress(0.75, 42);
        assert_eq!(a.render_ascii(), b.render_ascii());
    }

    #[test]
    fn render_shows_all_kinds() {
        let mut l = Layout::new(3).unwrap();
        l.compress(0.4, 1);
        let art = l.render_ascii();
        assert!(art.contains('D'));
        assert!(art.contains('.'));
        assert_eq!(art.lines().count(), l.grid().height() as usize);
    }

    #[test]
    fn zero_qubits_rejected() {
        assert!(Layout::new(0).is_err());
    }

    #[test]
    fn single_qubit_layout() {
        let l = Layout::new(1).unwrap();
        assert!(l.is_routable());
        assert_eq!(l.ancilla_tiles().len(), 3);
    }
}
