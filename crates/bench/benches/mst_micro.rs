//! §5.4.1 micro-benchmark: incremental MST maintenance cost.
//!
//! The paper reports ≈92 µs per k=200 update batch on a 100×100 grid and
//! ≈330 µs on 1000×1000 (M2 MacBook Air). This bench measures our
//! `IncrementalMst` on the same shapes, plus the full-rebuild alternative the
//! incremental scheme replaces.
//!
//! The simulator applies a whole completed recomputation at once, and
//! activity changes a large share of the weights between snapshots (≈665
//! of ≈2.5k edges per completion on ising_n420). `mst_completion_*`
//! compares applying such a snapshot per edge against one
//! `set_weights` Kruskal pass on the fabric-sized grid.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rescq_lattice::IncrementalMst;

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

fn bench_completion(c: &mut Criterion, side: u32) {
    let edges = grid_edges(side, side);
    let mut rng = ChaCha8Rng::seed_from_u64(55);
    let before: Vec<(u32, u32, u32)> = edges
        .iter()
        .map(|&(a, b, _)| (a, b, rng.gen_range(0..100u32)))
        .collect();
    let mst = IncrementalMst::new((side * side) as usize, &before);
    // A snapshot in which about a quarter of the weights changed.
    let snapshot: Vec<u32> = before
        .iter()
        .map(|&(_, _, w)| {
            if rng.gen_range(0..4u32) == 0 {
                rng.gen_range(0..100u32)
            } else {
                w
            }
        })
        .collect();
    c.bench_function(&format!("mst_completion_per_edge_{side}x{side}"), |b| {
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
    c.bench_function(&format!("mst_completion_set_weights_{side}x{side}"), |b| {
        b.iter_batched(
            || mst.clone(),
            |mut m| {
                m.set_weights(&snapshot);
                m
            },
            BatchSize::LargeInput,
        )
    });
}

fn benches(c: &mut Criterion) {
    // The paper's two measurement points at k = 200.
    bench_updates(c, 100, 200);
    bench_rebuild(c, 100);
    if std::env::var("RESCQ_BENCH_FULL").is_ok() {
        bench_updates(c, 1000, 200);
        bench_rebuild(c, 1000);
    }
    // A fabric-sized grid (420-qubit benchmark ⇒ ~36×36 ancilla network).
    bench_updates(c, 36, 200);
    bench_completion(c, 36);
}

criterion_group! {
    name = mst;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(mst);
