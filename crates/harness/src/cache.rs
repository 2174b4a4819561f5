//! Content-addressed artifact cache shared by every worker of a sweep.
//!
//! Two independent key spaces, because they have different granularity:
//!
//! - **circuits** (and their dependency DAGs) are keyed by
//!   `(workload, circuit_seed)` — every sweep point over the same workload
//!   shares one parse/transpile;
//! - **layouts** (and their ancilla routing graphs) are keyed by
//!   `(qubits, compression)`, the only inputs of
//!   [`build_layout`](rescq_sim::build_layout) — a layout is shared across
//!   *workloads* of the same width and across every scheduler/decoder/seed
//!   point on it.
//!
//! Each map slot holds an `Arc<OnceLock<…>>`: the map lock is only held to
//! fetch the slot, and the first worker to reach a slot builds the artifact
//! while later workers block on the `OnceLock` instead of duplicating the
//! work. Failures are cached too (a workload that does not generate fails
//! every job that needs it, once).

use rescq_circuit::{Circuit, DependencyDag};
use rescq_lattice::{AncillaGraph, Layout};
use rescq_sim::{build_layout, SimConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cached circuit with its dependency DAG.
pub type CircuitArtifact = Result<(Arc<Circuit>, Arc<DependencyDag>), String>;
/// A cached layout with its ancilla routing graph.
pub type LayoutArtifact = Result<(Arc<Layout>, Arc<AncillaGraph>), String>;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CircuitKey {
    workload: String,
    seed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LayoutKey {
    qubits: u32,
    /// Bit pattern of the compression fraction (exact, hashable).
    compression_bits: u64,
}

impl LayoutKey {
    fn of(qubits: u32, config: &SimConfig) -> Self {
        LayoutKey {
            qubits,
            compression_bits: config.compression.to_bits(),
        }
    }
}

/// Cache hit/build counters (one sweep's sharing factor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct circuits built.
    pub circuit_builds: u64,
    /// Circuit requests served from the cache.
    pub circuit_hits: u64,
    /// Distinct layouts built.
    pub layout_builds: u64,
    /// Layout requests served from the cache.
    pub layout_hits: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuits {} built / {} reused; layouts {} built / {} reused",
            self.circuit_builds, self.circuit_hits, self.layout_builds, self.layout_hits
        )
    }
}

/// The shared artifact cache of one sweep execution.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    circuits: Mutex<HashMap<CircuitKey, Arc<OnceLock<CircuitArtifact>>>>,
    layouts: Mutex<HashMap<LayoutKey, Arc<OnceLock<LayoutArtifact>>>>,
    circuit_builds: AtomicU64,
    circuit_hits: AtomicU64,
    layout_builds: AtomicU64,
    layout_hits: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// The circuit (and DAG) for `workload`, building it on first request.
    ///
    /// `file:<path>` workloads are read and parsed from disk; everything
    /// else resolves through [`rescq_workloads::generate`].
    ///
    /// # Errors
    ///
    /// Returns the (cached) build error for unknown workloads or unreadable
    /// files.
    pub fn circuit(&self, workload: &str, circuit_seed: u64) -> CircuitArtifact {
        let key = CircuitKey {
            workload: workload.to_string(),
            seed: circuit_seed,
        };
        let cell = {
            let mut map = self.circuits.lock().expect("circuit cache poisoned");
            match map.entry(key) {
                Entry::Occupied(e) => {
                    self.circuit_hits.fetch_add(1, Ordering::Relaxed);
                    e.get().clone()
                }
                Entry::Vacant(v) => {
                    self.circuit_builds.fetch_add(1, Ordering::Relaxed);
                    v.insert(Arc::new(OnceLock::new())).clone()
                }
            }
        };
        cell.get_or_init(|| build_circuit(workload, circuit_seed))
            .clone()
    }

    /// The layout (and routing graph) for a configuration over a
    /// `qubits`-wide circuit, building it on first request.
    ///
    /// # Errors
    ///
    /// Returns the (cached) build error for unroutable geometries.
    pub fn layout(&self, qubits: u32, config: &SimConfig) -> LayoutArtifact {
        let key = LayoutKey::of(qubits, config);
        let cell = {
            let mut map = self.layouts.lock().expect("layout cache poisoned");
            match map.entry(key) {
                Entry::Occupied(e) => {
                    self.layout_hits.fetch_add(1, Ordering::Relaxed);
                    e.get().clone()
                }
                Entry::Vacant(v) => {
                    self.layout_builds.fetch_add(1, Ordering::Relaxed);
                    v.insert(Arc::new(OnceLock::new())).clone()
                }
            }
        };
        cell.get_or_init(|| {
            let layout = build_layout(qubits, config).map_err(|e| e.to_string())?;
            let graph = AncillaGraph::from_grid(layout.grid());
            Ok((Arc::new(layout), Arc::new(graph)))
        })
        .clone()
    }

    /// A snapshot of the hit/build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            circuit_builds: self.circuit_builds.load(Ordering::Relaxed),
            circuit_hits: self.circuit_hits.load(Ordering::Relaxed),
            layout_builds: self.layout_builds.load(Ordering::Relaxed),
            layout_hits: self.layout_hits.load(Ordering::Relaxed),
        }
    }
}

fn build_circuit(workload: &str, circuit_seed: u64) -> CircuitArtifact {
    let circuit = if let Some(path) = workload.strip_prefix("file:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        rescq_circuit::parse_circuit(&text, None).map_err(|e| e.to_string())?
    } else {
        rescq_workloads::generate(workload, circuit_seed)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?
    };
    let dag = Arc::new(DependencyDag::new(&circuit));
    Ok((Arc::new(circuit), dag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_built_once_per_key() {
        let cache = ArtifactCache::new();
        let (a, _) = cache.circuit("dnn_n16", 1).unwrap();
        let (b, _) = cache.circuit("dnn_n16", 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one build");
        let (c, _) = cache.circuit("dnn_n16", 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different artifact");
        let s = cache.stats();
        assert_eq!(s.circuit_builds, 2);
        assert_eq!(s.circuit_hits, 1);
    }

    #[test]
    fn layouts_keyed_by_geometry() {
        let cache = ArtifactCache::new();
        let base = SimConfig::default();
        let (l1, g1) = cache.layout(9, &base).unwrap();
        let (l2, g2) = cache.layout(9, &base).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2) && Arc::ptr_eq(&g1, &g2));
        // Scheduler and seed do not affect the key…
        let mut other = base.clone();
        other.scheduler = rescq_core::SchedulerKind::Greedy;
        other.seed = 99;
        let (l3, _) = cache.layout(9, &other).unwrap();
        assert!(Arc::ptr_eq(&l1, &l3));
        // …but compression does.
        let mut compressed = base.clone();
        compressed.compression = 0.5;
        let (l4, _) = cache.layout(9, &compressed).unwrap();
        assert!(!Arc::ptr_eq(&l1, &l4));
        assert!(l4.compression() > 0.0);
        let s = cache.stats();
        assert_eq!(s.layout_builds, 2);
        assert_eq!(s.layout_hits, 2);
    }

    #[test]
    fn unknown_workload_error_is_cached() {
        let cache = ArtifactCache::new();
        assert!(cache.circuit("nope_n0", 1).is_err());
        assert!(cache.circuit("nope_n0", 1).is_err());
        let s = cache.stats();
        assert_eq!(s.circuit_builds, 1);
        assert_eq!(s.circuit_hits, 1);
    }
}
