//! §5.4.2 micro-benchmark: Algorithm-1 path selection (the floor-ordered
//! branch and bound over endpoint pairs, tree paths climbed from the MST)
//! with a cold and a warm geometric-path memo, plus ancilla-queue
//! operations.

use criterion::{criterion_group, criterion_main, Criterion};
use rescq_circuit::{Angle, QubitId};
use rescq_core::{
    plan_cnot_route, AncillaQueue, PathCache, QueueEntry, Role, SurgeryCosts, TaskId,
};
use rescq_lattice::{AncillaGraph, IncrementalMst, Layout, Orientation};

fn setup(n: u32) -> (Layout, AncillaGraph, IncrementalMst) {
    let layout = Layout::new(n).unwrap();
    let graph = AncillaGraph::from_grid(layout.grid());
    let edges: Vec<(u32, u32, u32)> = graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
    let mst = IncrementalMst::new(graph.len(), &edges);
    (layout, graph, mst)
}

fn benches(c: &mut Criterion) {
    let (layout, graph, mst) = setup(100);
    let orientations = vec![Orientation::Standard; 100];
    let costs = SurgeryCosts::default();

    c.bench_function("algorithm1_cold_cache", |b| {
        b.iter(|| {
            let mut cache = PathCache::new();
            plan_cnot_route(
                &layout,
                &graph,
                &mst,
                0,
                &mut cache,
                QubitId(3),
                QubitId(87),
                &orientations,
                &costs,
                7,
                |_| 0,
            )
        })
    });

    let mut cache = PathCache::new();
    c.bench_function("algorithm1_warm_cache", |b| {
        b.iter(|| {
            plan_cnot_route(
                &layout,
                &graph,
                &mst,
                0,
                &mut cache,
                QubitId(3),
                QubitId(87),
                &orientations,
                &costs,
                7,
                |_| 0,
            )
        })
    });

    c.bench_function("queue_push_update_remove", |b| {
        b.iter(|| {
            let mut q = AncillaQueue::new();
            for i in 0..16u32 {
                q.push(QueueEntry::new(TaskId(i), Role::PrepZz, Angle::T));
            }
            for i in 0..16u32 {
                q.update_angle(TaskId(i), Angle::S);
            }
            for i in 0..16u32 {
                q.remove_task(TaskId(i));
            }
            q
        })
    });
}

criterion_group! {
    name = routing;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(routing);
