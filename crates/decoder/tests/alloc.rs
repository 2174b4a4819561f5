//! Allocation pin for the union-find decoder model: a counting
//! [`GlobalAlloc`] shim wraps the system allocator (counting per thread, so
//! tests running side by side do not see each other's allocations).
//!
//! The contract: once every (tile, chunk length) pair has decoded one
//! window, further `decode_ready_at` calls allocate nothing — the detector
//! graphs, tile states and window scratch are all held by the model — both
//! on flip-free windows (p = 0) and on windows that grow and peel clusters
//! (p = 0.02).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rescq_decoder::{DecoderConfig, DecoderModel, ErrorChannel, UnionFindDecoder};

/// Counts every `alloc`/`realloc` passed through to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised without a
    /// destructor, so the allocator may touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DISTANCE: u32 = 7;
const TILES: u32 = 16;

#[test]
fn warm_decoder_windows_allocate_nothing() {
    for p in [0.0, 0.02] {
        let mut model = UnionFindDecoder::new(
            &DecoderConfig::union_find(1.0),
            DISTANCE,
            ErrorChannel::new(p, 0xA110C),
        );
        let mut now = 0u64;
        for tile in 0..TILES {
            for chunk in 1..=DISTANCE {
                model.decode_ready_at(tile, chunk, now);
                now += 1;
            }
        }
        let before = allocs();
        let mut defects = 0;
        for i in 0..2000u32 {
            let tile = (i * 7) % TILES;
            let rounds = 1 + (i * 5) % (2 * DISTANCE);
            now = now.max(model.decode_ready_at(tile, rounds, now));
            defects += model.take_work().defects;
        }
        let made = allocs() - before;
        assert_eq!(made, 0, "p = {p}: {made} allocations after warm-up");
        if p > 0.0 {
            assert!(defects > 1000, "p = {p} must decode real defects");
        }
    }
}
