//! Allocation-regression harness: a counting [`GlobalAlloc`] shim wraps the
//! system allocator (counting per thread, so tests running side by side do
//! not see each other's allocations), and a cycle probe snapshots the
//! running allocation count at every fabric cycle tick. The steady-state contract is that the dispatch
//! loop recycles everything — event slots, candidate lists, route scratch,
//! ledger queue nodes — so whole cycles pass without a single heap allocation.
//!
//! The test pins a long *streak* of zero-allocation cycles rather than
//! demanding every cycle be clean: the latency histogram is BTreeMap-backed
//! and legitimately allocates the first time a novel latency bucket appears,
//! and warm-up cycles grow the pools to their high-water marks. Once warm,
//! the loop must be allocation-free.
//!
//! The shim also sums the bytes each allocation asks for, which pins the
//! total a whole run requests, warm-up included — for a wide realtime run
//! and for one run of each static engine (greedy, AutoBraid), whose routing
//! reuses held buffers across layers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rescq_core::{PathCache, SchedulerKind};
use rescq_decoder::DecoderConfig;
use rescq_lattice::AncillaGraph;
use rescq_sim::{simulate_prepared, simulate_with_cycle_probe, SimArtifacts, SimConfig};

/// Counts every `alloc`/`realloc` passed through to the system allocator,
/// and the bytes each one requests.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised without a
    /// destructor, so the allocator may touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by this thread's allocations (a `realloc` counts
    /// its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Diagnostic trap: while armed, this thread's next allocation prints
    /// a backtrace (one-shot; capturing the backtrace itself allocates,
    /// which is safe because the flag is already cleared). Armed past
    /// warm-up so a failing run names the offending call site instead of
    /// just a count.
    static ARM: Cell<bool> = const { Cell::new(false) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn count(kind: &str, size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
    if ARM.with(|armed| armed.replace(false)) {
        eprintln!(
            "{kind} TRAP size={size}:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count("ALLOC", layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count("REALLOC", new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fixed-capacity per-cycle snapshot store: the probe itself must not
/// allocate, or it would pollute the very counts it is sampling.
const MAX_CYCLES: usize = 4096;
static SNAPSHOTS: [AtomicU64; MAX_CYCLES] = {
    // The const is only a repeat-initializer for the static array; each
    // array element is its own atomic, so the interior-mutability lint's
    // "every use sees a fresh copy" hazard does not apply.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; MAX_CYCLES]
};
static SNAPSHOT_COUNT: AtomicU64 = AtomicU64::new(0);

#[test]
fn steady_state_cycles_allocate_nothing_on_ising_n34() {
    // Eight Trotter steps of ising_n34: one step finishes in ~40 cycles,
    // too short to demonstrate a steady state past warm-up.
    let mut circuit = rescq_circuit::Circuit::new(34);
    for step in 0..8 {
        for gate in rescq_workloads::families::ising::generate(34, 1 + step).gates() {
            circuit.push(*gate);
        }
    }
    let config = SimConfig::builder()
        .scheduler(SchedulerKind::Rescq)
        .seed(1)
        .build();

    let probe = |cycle: u64| {
        // Arm the one-shot backtrace trap well past warm-up: if the steady
        // state regresses, the failure output names the allocation site.
        if cycle == 200 {
            ARM.with(|armed| armed.set(true));
        }
        let i = cycle as usize;
        if i < MAX_CYCLES {
            SNAPSHOTS[i].store(allocs(), Ordering::Relaxed);
            SNAPSHOT_COUNT.fetch_max(cycle + 1, Ordering::Relaxed);
        }
    };
    let report = simulate_with_cycle_probe(&circuit, &config, &probe).unwrap();
    // Disarm: allocations after the run (assert formatting, harness
    // teardown) are not the engine's.
    ARM.with(|armed| armed.set(false));
    assert_eq!(report.gates_executed, circuit.len());

    let n = SNAPSHOT_COUNT.load(Ordering::Relaxed) as usize;
    assert!(n >= 60, "expected a longer run, saw only {n} cycle ticks");

    // Per-cycle allocation deltas between consecutive ticks.
    let mut best_streak = 0usize;
    let mut streak = 0usize;
    let mut zero_cycles = 0usize;
    for i in 1..n {
        let delta = SNAPSHOTS[i].load(Ordering::Relaxed) - SNAPSHOTS[i - 1].load(Ordering::Relaxed);
        if delta == 0 {
            streak += 1;
            zero_cycles += 1;
            best_streak = best_streak.max(streak);
        } else {
            streak = 0;
        }
    }

    // The pinned regression contract: once pools and histogram buckets are
    // warm, at least 50 consecutive cycles run with zero heap allocations.
    assert!(
        best_streak >= 50,
        "longest zero-allocation streak was {best_streak} of {n} cycles \
         ({zero_cycles} clean in total) — the hot loop has started allocating"
    );
    // MST computations complete every k cycles, so a streak longer than k
    // spans at least one completion, and `mst_incremental_updates > 0`
    // shows that completions carried changed weights. A completion is
    // applied only when a route next reads the tree, so these asserts do
    // not show that a tree rebuild itself ran inside the streak.
    assert!(report.counters.mst_computations >= 1);
    assert!(report.counters.mst_incremental_updates > 0);
    assert!(
        best_streak as u64 > u64::from(report.k_used),
        "streak {best_streak} does not span an MST completion (k = {})",
        report.k_used
    );
}

#[test]
fn cold_geometric_path_miss_allocates_only_the_cached_path() {
    let mut layout = rescq_lattice::Layout::new(16).unwrap();
    layout.compress(0.5, 3);
    let graph = AncillaGraph::from_grid(layout.grid());
    let n = graph.len() as u32;
    let mut cache = PathCache::new();
    let mut out = Vec::with_capacity(graph.len());
    // Warm-up miss: the BFS scratch grows to the node count once.
    assert!(cache.geo_path_into(&graph, 0, 1, &mut out));

    // Cold misses from one source to every other node (a fresh pair
    // each). A miss may allocate the cached copy of its path, plus a new
    // table whenever the memo map grows, which happens once per doubling.
    let (mut total, mut misses) = (0u64, 0u64);
    for b in 2..n {
        let before = allocs();
        assert!(cache.geo_path_into(&graph, 0, b, &mut out));
        let delta = allocs() - before;
        assert!(delta <= 2, "a cold miss 0 -> {b} allocated {delta} times");
        total += delta;
        misses += 1;
    }
    let growths = u64::from(misses.ilog2()) + 2;
    assert!(
        total <= misses + growths,
        "{misses} cold misses allocated {total} times"
    );
    // A hit allocates nothing.
    let before = allocs();
    assert!(cache.geo_path_into(&graph, n - 1, 0, &mut out));
    assert_eq!(allocs(), before);
}

#[test]
fn ising_n420_union_find_run_requests_bounded_bytes() {
    // The widest Table 3 circuit with the union-find decoder: every byte
    // the run itself requests, from engine construction to the report.
    // Per-run state is sized once from the circuit and fabric; nothing may
    // grow with the number of endpoint pairs routed or cycles ticked.
    let circuit = rescq_workloads::generate("ising_n420", 1).expect("known benchmark");
    let config = SimConfig::builder()
        .decoder(DecoderConfig::union_find(1.0))
        .seed(1)
        .build();
    let artifacts = SimArtifacts::prepare(std::sync::Arc::new(circuit), &config).unwrap();
    let (calls, requested) = (allocs(), bytes());
    let report = simulate_prepared(&artifacts, &config).unwrap();
    let (calls, requested) = (allocs() - calls, bytes() - requested);
    assert_eq!(report.gates_executed, artifacts.circuit.len());
    eprintln!("ising_n420 + union_find:1.0 run: {calls} allocations, {requested} bytes");
    // Measured at 3.05 MB (15.2k allocations) when this bound was set; the
    // bound leaves 2x headroom. With a tree-path cache slot per endpoint
    // pair, the same run requested 32.2 MB.
    const MAX_BYTES: u64 = 6_100_000;
    assert!(
        requested <= MAX_BYTES,
        "the run requested {requested} bytes in {calls} allocations (bound {MAX_BYTES})"
    );
}

#[test]
fn static_engine_runs_allocate_boundedly_on_gcm_n13() {
    // One greedy and one AutoBraid run of gcm_n13 on the 50%-compressed
    // fabric, from engine construction to the report. Both engines build
    // their per-qubit tables once, search routes in a held BFS scratch and
    // recycle their layer buffers, so what remains is per-run state and
    // the latency histograms' buckets; nothing may grow per layer or per
    // route attempt. Measured at 142 / 139 allocations (17.1 / 16.7 kB)
    // when these bounds were set; the bounds leave about 2x headroom. The
    // engines that rebuilt both endpoints' adjacency and a fresh BFS per
    // route attempt made 37,928 / 49,050 allocations (1.77 / 2.23 MB) in
    // this test; a per-run count taken outside it, before it existed, read
    // 43,782 / 54,259.
    const MAX_ALLOCS: u64 = 300;
    const MAX_BYTES: u64 = 40_000;
    let circuit = rescq_workloads::generate("gcm_n13", 1).expect("known benchmark");
    let circuit = std::sync::Arc::new(circuit);
    for scheduler in [SchedulerKind::Greedy, SchedulerKind::Autobraid] {
        let config = SimConfig::builder()
            .scheduler(scheduler)
            .compression(0.5)
            .seed(1)
            .build();
        let artifacts = SimArtifacts::prepare(circuit.clone(), &config).unwrap();
        let (calls, requested) = (allocs(), bytes());
        let report = simulate_prepared(&artifacts, &config).unwrap();
        let (calls, requested) = (allocs() - calls, bytes() - requested);
        assert_eq!(report.gates_executed, circuit.len());
        eprintln!("gcm_n13 @ 50% {scheduler:?} run: {calls} allocations, {requested} bytes");
        assert!(
            calls <= MAX_ALLOCS && requested <= MAX_BYTES,
            "{scheduler:?}: {calls} allocations (bound {MAX_ALLOCS}), \
             {requested} bytes (bound {MAX_BYTES})"
        );
    }
}
