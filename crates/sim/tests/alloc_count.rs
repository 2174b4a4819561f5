//! Allocation-regression harness: a counting [`GlobalAlloc`] shim wraps the
//! system allocator, and a cycle probe snapshots the running allocation count
//! at every fabric cycle tick. The steady-state contract is that the dispatch
//! loop recycles everything — event slots, candidate lists, route scratch,
//! ledger queue nodes — so whole cycles pass without a single heap allocation.
//!
//! The test pins a long *streak* of zero-allocation cycles rather than
//! demanding every cycle be clean: the latency histogram is BTreeMap-backed
//! and legitimately allocates the first time a novel latency bucket appears,
//! and warm-up cycles grow the pools to their high-water marks. Once warm,
//! the loop must be allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rescq_core::SchedulerKind;
use rescq_sim::{simulate_with_cycle_probe, SimConfig};

/// Counts every `alloc`/`realloc` passed through to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Diagnostic trap: while armed, the next allocation prints a backtrace
/// (one-shot; capturing the backtrace itself allocates, which is safe
/// because the flag is already cleared). Armed past warm-up so a failing
/// run names the offending call site instead of just a count.
static ARM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn trap(kind: &str, size: usize) {
    if ARM.swap(false, Ordering::Relaxed) {
        eprintln!(
            "{kind} TRAP size={size}:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        trap("ALLOC", layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        trap("REALLOC", new_size);
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
            ARM.store(true, Ordering::Relaxed);
        }
        let i = cycle as usize;
        if i < MAX_CYCLES {
            SNAPSHOTS[i].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            SNAPSHOT_COUNT.fetch_max(cycle + 1, Ordering::Relaxed);
        }
    };
    let report = simulate_with_cycle_probe(&circuit, &config, &probe).unwrap();
    // Disarm: allocations after the run (assert formatting, harness
    // teardown) are not the engine's.
    ARM.store(false, Ordering::Relaxed);
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
    // spans at least one completion; changed weights mean completions
    // really rebuild the tree (the batch Kruskal apply) rather than skip.
    assert!(report.counters.mst_computations >= 1);
    assert!(report.counters.mst_incremental_updates > 0);
    assert!(
        best_streak as u64 > u64::from(report.k_used),
        "streak {best_streak} does not span an MST completion (k = {})",
        report.k_used
    );
}
