//! Host-speed reference for the end-to-end host times.
//!
//! On a shared host the same code runs at two or more speeds, depending on
//! what other tenants do with the core's SMT sibling, caches and memory (a
//! fixed integer loop measured 7.7 ms or 11.1 ms per pass on the reference
//! VM, switching every few seconds). A fixed reference loop, which runs no
//! code of the program, is therefore timed between consecutive calls, and
//! each call's wall is scaled by `REF_MS / (mean of the reference times
//! before and after it)`. The scaled time is what the call would take at
//! the reference host's quiet speed: close to the raw time on a quiet host,
//! and steady on a busy one. The loop mixes a pointer chase over
//! 4 MiB, branchy integer arithmetic over 256 KiB and a 16 MiB stream, so
//! it slows down with the simulator's own mix of cache misses, ALU work and
//! memory bandwidth. An untimed pass first re-warms the caches. The call's
//! aftermath (memory it freed, caches it filled) still slows the timed pass
//! somewhat, so a change that shrinks that aftermath shows a smaller gain
//! scaled than raw; the raw times are printed beside the scaled ones.

use std::time::Instant;

/// The reference loop's median pass time between `ising_wide` calls on the
/// reference host (2-vCPU Intel Xeon VM) at a quiet time, in milliseconds,
/// so that scaled and raw times roughly agree there.
pub const REF_MS: f64 = 5.3;

const CHASE_NODES: usize = 1 << 20;
const CHASE_STEPS: usize = 20_000;
const WORDS: usize = 32_768;
const WORD_PASSES: u64 = 24;
const STREAM_WORDS: usize = 2 << 20;

/// One thread's reference buffers.
struct Loop {
    next: Vec<u32>,
    words: Vec<u64>,
    stream: Vec<u64>,
}

impl Loop {
    fn new() -> Self {
        // A single random cycle over all nodes (xorshift-shuffled), so the
        // chase never settles into a cached short loop.
        let mut perm: Vec<u32> = (0..CHASE_NODES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_NODES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE_NODES];
        for i in 0..CHASE_NODES {
            next[perm[i] as usize] = perm[(i + 1) % CHASE_NODES];
        }
        Loop {
            next,
            words: (0..WORDS as u64).collect(),
            stream: vec![1; STREAM_WORDS],
        }
    }

    /// A warm-up pass, then a timed one; returns the latter's wall in
    /// milliseconds.
    fn run(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64() * 1e3
    }

    fn pass(&mut self) {
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        let mut acc = 0u64;
        for r in 0..WORD_PASSES {
            for w in self.words.iter_mut() {
                *w = w.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(r);
                acc ^= *w >> 7;
                if acc & 1 == 0 {
                    acc = acc.rotate_left(3);
                }
            }
        }
        let mut sum = 0u64;
        for (i, w) in self.stream.iter_mut().enumerate() {
            *w = w.wrapping_add(i as u64);
            sum = sum.wrapping_add(*w);
        }
        std::hint::black_box((p, acc, sum));
    }
}

/// Times calls and scales them to the reference host speed. With several
/// threads the reference runs on all of them at once, like the harness
/// workers it stands in for, and reports the mean pass time.
pub struct ScaledTimer {
    loops: Vec<Loop>,
    last_ref_ms: f64,
}

impl ScaledTimer {
    pub fn new(threads: usize) -> Self {
        let mut timer = ScaledTimer {
            loops: (0..threads.max(1)).map(|_| Loop::new()).collect(),
            last_ref_ms: 0.0,
        };
        timer.reference();
        timer.last_ref_ms = timer.reference();
        timer
    }

    fn reference(&mut self) -> f64 {
        if let [one] = self.loops.as_mut_slice() {
            return one.run();
        }
        let passes: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .loops
                .iter_mut()
                .map(|l| s.spawn(move || l.run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference loop panicked"))
                .collect()
        });
        passes.iter().sum::<f64>() / passes.len() as f64
    }

    /// Runs `f`, then the reference. Returns `f`'s result, its raw wall
    /// and its scaled wall, both in milliseconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let after = self.reference();
        let scaled = raw * REF_MS / ((self.last_ref_ms + after) / 2.0);
        self.last_ref_ms = after;
        (out, raw, scaled)
    }
}
