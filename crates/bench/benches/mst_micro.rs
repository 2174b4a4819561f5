//! §5.4.1 micro-benchmark: incremental MST maintenance cost.
//!
//! The paper reports ≈92 µs per k=200 update batch on a 100×100 grid and
//! ≈330 µs on 1000×1000 (M2 MacBook Air). This bench measures our
//! `IncrementalMst` on the same shapes, plus the full-rebuild alternative the
//! incremental scheme replaces.
//!
//! The simulator applies a whole completed recomputation at once, and
//! activity changes a large share of the weights between snapshots: the
//! ising_n420 fabric's ancilla graph has 1260 nodes and 1639 edges, of
//! which ≈650 (≈40%) change per completion, with weights in 0..=100 (the
//! activity window). `mst_completion_*` compares applying such a snapshot
//! per edge against one `set_weights` Kruskal pass on that fabric, and
//! `mst_pipeline_read_*` times a route read through `MstPipeline` after
//! one completion and after two, where only the newer one is built.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rescq_core::{KPolicy, MstPipeline, TauModel};
use rescq_lattice::{AncillaGraph, IncrementalMst, Layout};

fn grid_edges(w: u32, h: u32) -> Vec<(u32, u32, u32)> {
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

fn bench_updates(c: &mut Criterion, side: u32, k: usize) {
    let edges = grid_edges(side, side);
    let mst = IncrementalMst::new((side * side) as usize, &edges);
    let mut rng = ChaCha8Rng::seed_from_u64(54);
    let updates: Vec<(u32, u32)> = (0..k)
        .map(|_| {
            (
                rng.gen_range(0..edges.len() as u32),
                rng.gen_range(0..100u32),
            )
        })
        .collect();
    c.bench_function(&format!("mst_incremental_{side}x{side}_k{k}"), |b| {
        b.iter_batched(
            || mst.clone(),
            |mut m| {
                for &(e, w) in &updates {
                    m.update_weight(e, w);
                }
                m
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_rebuild(c: &mut Criterion, side: u32) {
    let edges = grid_edges(side, side);
    c.bench_function(&format!("mst_full_kruskal_{side}x{side}"), |b| {
        b.iter(|| IncrementalMst::new((side * side) as usize, &edges))
    });
}

/// Activity-like weights in 0..=100 with about 40% redrawn from `prev`.
fn next_snapshot(rng: &mut ChaCha8Rng, prev: &[u32]) -> Vec<u32> {
    prev.iter()
        .map(|&w| {
            if rng.gen_range(0..5u32) < 2 {
                rng.gen_range(0..101u32)
            } else {
                w
            }
        })
        .collect()
}

fn bench_completion(c: &mut Criterion, qubits: u32) {
    // The fabric the simulator routes on (uncompressed).
    let layout = Layout::new(qubits).unwrap();
    let graph = AncillaGraph::from_grid(layout.grid());
    let mut rng = ChaCha8Rng::seed_from_u64(55);
    let zero = vec![0; graph.edges().len()];
    let warm = next_snapshot(&mut rng, &zero);
    let before = next_snapshot(&mut rng, &warm);
    let weighted: Vec<(u32, u32, u32)> = graph
        .edges()
        .iter()
        .zip(&before)
        .map(|(&(a, b), &w)| (a, b, w))
        .collect();
    let mst = IncrementalMst::new(graph.len(), &weighted);
    let snapshot = next_snapshot(&mut rng, &before);
    let name = format!("ising_n{qubits}");
    c.bench_function(&format!("mst_completion_per_edge_{name}"), |b| {
        b.iter_batched(
            || mst.clone(),
            |mut m| {
                for (id, &w) in snapshot.iter().enumerate() {
                    if m.weight(id as u32) != w {
                        m.update_weight(id as u32, w);
                    }
                }
                m
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function(&format!("mst_completion_set_weights_{name}"), |b| {
        b.iter_batched(
            || mst.clone(),
            |mut m| {
                m.set_weights(&snapshot);
                m
            },
            BatchSize::LargeInput,
        )
    });

    // k = 1 and τ = 1: the computation started at cycle c completes at
    // c + 1. The pipeline has read the tree of `before`; each measured
    // cycle completes one more snapshot, and the tree is read after the
    // last.
    let tau = TauModel {
        per_k: 1.0,
        per_sqrt_n: 0.0,
    };
    let mut pipeline = MstPipeline::new(graph.len(), graph.edges(), KPolicy::Fixed(1), tau);
    pipeline.on_cycle(0, |_, out| out.extend_from_slice(&before));
    pipeline.on_cycle(1, |_, out| out.extend_from_slice(&snapshot));
    assert_eq!(pipeline.current().weight(0), before[0]);
    let newer = next_snapshot(&mut rng, &snapshot);
    for completions in [1u64, 2] {
        c.bench_function(
            &format!("mst_pipeline_read_after_{completions}_completions_{name}"),
            |b| {
                b.iter_batched(
                    || pipeline.clone(),
                    |mut p| {
                        for cycle in 2..2 + completions {
                            p.on_cycle(cycle, |_, out| out.extend_from_slice(&newer));
                        }
                        assert_eq!(p.completed_computations(), 1 + completions);
                        p.current().tree_size();
                        p
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
}

fn benches(c: &mut Criterion) {
    // The paper's two measurement points at k = 200.
    bench_updates(c, 100, 200);
    bench_rebuild(c, 100);
    bench_updates(c, 1000, 200);
    bench_rebuild(c, 1000);
    // A grid about as large as the 420-qubit fabric's 1260 ancillas.
    bench_updates(c, 36, 200);
    bench_completion(c, 420);
}

criterion_group! {
    name = mst;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(mst);
