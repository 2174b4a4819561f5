//! Steady-state allocation-free scratch storage for the hot cycle loop.
//!
//! The realtime engine's dispatch loop runs once per event and several times
//! per cycle; any `Vec::new`/`clone` inside it shows up directly in the
//! wall-clock of a run (such churn once slowed a traced `ising_n420` run
//! from 246 to 328 ms; see CHANGES.md). This module provides the two
//! building blocks the engine uses to reach zero heap allocations at steady
//! state:
//!
//! - [`VecPool`]: a free-list of reusable `Vec<T>` buffers. Task bodies
//!   borrow a vector when a task is scheduled and return it when the task
//!   completes, so after warm-up every "fresh" vector is a recycled one
//!   with its old capacity intact.
//! - [`Bitset`]: a bit-packed membership set over dense `u32`/`usize` ids
//!   (`u64` words, word-parallel scans). Replaces per-task `HashSet` probes
//!   in stall attribution and reachability walks; `clear` is a word-fill,
//!   not a rehash.
//!
//! Neither type ever shrinks: capacity plateaus at the workload's high-water
//! mark, which is exactly the arena lifetime rule documented in
//! ARCHITECTURE.md ("Hot path memory model").

/// A free-list pool of reusable `Vec<T>` buffers.
///
/// [`VecPool::take`] pops a cleared, capacity-retaining vector (or a fresh
/// empty one the first time); [`VecPool::put`] returns it. At steady state —
/// once as many vectors are pooled as are ever simultaneously live — `take`
/// never allocates.
///
/// ```
/// use rescq_core::VecPool;
///
/// let mut pool: VecPool<u32> = VecPool::new();
/// let mut v = pool.take();
/// v.extend([1, 2, 3]);
/// let cap = v.capacity();
/// pool.put(v);
/// let v2 = pool.take(); // same buffer, cleared
/// assert!(v2.is_empty());
/// assert_eq!(v2.capacity(), cap);
/// ```
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VecPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        VecPool { free: Vec::new() }
    }

    /// Pops a cleared buffer from the pool, or a fresh empty one.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; its contents are dropped, its capacity
    /// kept.
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// A bit-packed membership set over dense ids, stored as `u64` words.
///
/// Operations never shrink the word vector. The set also keeps a low and a
/// high word watermark: every word outside `lo..hi` is zero. [`Self::insert`]
/// moves them out, [`Self::first`] moves the low one in past zero words, and
/// [`Self::next_from`] and [`Self::clear`] touch only the words between
/// them, so a walk or a reset costs the span of ids recently set, not the
/// span of ids ever reserved. Use [`Bitset::reserve`] up front (e.g. with
/// the circuit's task count) so steady-state inserts never grow.
///
/// ```
/// use rescq_core::Bitset;
///
/// let mut s = Bitset::new();
/// s.reserve(128);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3) && s.contains(64) && !s.contains(4));
/// s.remove(3);
/// assert!(!s.contains(3));
/// assert_eq!(s.first(), Some(64));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Bitset {
    words: Vec<u64>,
    /// Every word below `lo` is zero.
    lo: usize,
    /// Every word at or above `hi` is zero; `lo >= hi` means empty.
    hi: usize,
}

impl Bitset {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures ids `0..n` can be inserted without reallocating.
    pub fn reserve(&mut self, n: usize) {
        let need = n.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Inserts `id`, growing the word vector if needed.
    pub fn insert(&mut self, id: usize) {
        let w = id / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id % 64);
        if self.lo >= self.hi {
            (self.lo, self.hi) = (w, w + 1);
        } else {
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w + 1);
        }
    }

    /// Removes `id` (no-op if absent).
    pub fn remove(&mut self, id: usize) {
        if let Some(w) = self.words.get_mut(id / 64) {
            *w &= !(1u64 << (id % 64));
        }
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Zeroes the words between the watermarks (capacity retained).
    pub fn clear(&mut self) {
        if self.lo < self.hi {
            self.words[self.lo..self.hi].fill(0);
        }
        (self.lo, self.hi) = (0, 0);
    }

    /// The packed words (LSB of word 0 is id 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The smallest id in the set, if any. Moves the low watermark up to
    /// that id's word, so later walks skip the zero words below it.
    pub fn first(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let w = self.words[self.lo];
            if w != 0 {
                return Some(self.lo * 64 + w.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        None
    }

    /// The smallest id `>= from` in the set, if any. Walking a set with
    /// `next_from(last + 1)` visits ids in ascending order and sees
    /// inserts and removals made between steps, unlike
    /// [`for_each_set_bit`] over a borrowed word slice. Reads only the
    /// words between the watermarks.
    ///
    /// ```
    /// use rescq_core::Bitset;
    ///
    /// let mut s = Bitset::new();
    /// s.insert(3);
    /// s.insert(70);
    /// assert_eq!(s.next_from(0), Some(3));
    /// assert_eq!(s.next_from(4), Some(70));
    /// assert_eq!(s.next_from(71), None);
    /// ```
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let start = from / 64;
        let mut wi = start.max(self.lo);
        if wi >= self.hi {
            return None;
        }
        let mut w = self.words[wi];
        if wi == start {
            w &= !0u64 << (from % 64);
        }
        while w == 0 {
            wi += 1;
            if wi >= self.hi {
                return None;
            }
            w = self.words[wi];
        }
        Some(wi * 64 + w.trailing_zeros() as usize)
    }
}

/// Iterates the set bits of packed `u64` words in ascending id order.
///
/// This is the word-parallel scan primitive: callers test 64 ids per
/// word-compare and only pay per-bit work for ids that are actually set.
///
/// ```
/// use rescq_core::for_each_set_bit;
///
/// let words = [0b1010u64, 1u64];
/// let mut ids = Vec::new();
/// for_each_set_bit(&words, |id| ids.push(id));
/// assert_eq!(ids, [1, 3, 64]);
/// ```
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            f(wi * 64 + bit);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_recycles_capacity() {
        let mut pool: VecPool<u64> = VecPool::new();
        let mut v = pool.take();
        v.extend(0..100);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.put(v);
        assert_eq!(pool.pooled(), 1);
        let v2 = pool.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = Bitset::new();
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(200);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(200));
        assert!(!s.contains(1) && !s.contains(65) && !s.contains(199));
        s.remove(64);
        assert!(!s.contains(64));
        s.remove(1000); // absent: no-op, no panic
        s.clear();
        assert!(!s.contains(0) && !s.contains(200));
    }

    #[test]
    fn bitset_reserve_prevents_growth() {
        let mut s = Bitset::new();
        s.reserve(500);
        let words_ptr = s.words().as_ptr();
        for id in 0..500 {
            s.insert(id);
        }
        assert_eq!(s.words().as_ptr(), words_ptr);
        assert_eq!(s.words().len(), 8);
    }

    #[test]
    fn set_bit_iteration_is_ascending_and_complete() {
        let mut s = Bitset::new();
        let ids = [0usize, 5, 63, 64, 127, 128, 300];
        for &id in &ids {
            s.insert(id);
        }
        let mut seen = Vec::new();
        for_each_set_bit(s.words(), |id| seen.push(id));
        assert_eq!(seen, ids);
        // `next_from` walks the same ids, including across word edges.
        let mut walked = Vec::new();
        let mut next = s.next_from(0);
        while let Some(id) = next {
            walked.push(id);
            next = s.next_from(id + 1);
        }
        assert_eq!(walked, ids);
        assert_eq!(s.next_from(64), Some(64));
        assert_eq!(s.next_from(301), None);
        assert_eq!(s.next_from(10_000), None);
    }

    /// SplitMix64: a self-contained stream for the seeded property test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The watermarked set against a `Vec<bool>` reference on seeded op
    /// streams: insert, remove, clear, `first` and `next_from`, with ids
    /// drawn both near the current low mark and far below it (so inserts
    /// land below an advanced low watermark). After every op the two must
    /// agree on membership, on `first`, and on `next_from` from a random
    /// start and from 0; every word outside the watermarks must be zero.
    #[test]
    fn watermarked_bitset_matches_a_bool_vector() {
        const N: usize = 700;
        let mut inserts_below_lo = 0u32;
        for seed in 0..40u64 {
            let mut st = seed;
            let mut s = Bitset::new();
            if seed.is_multiple_of(2) {
                s.reserve(N);
            }
            let mut reference = vec![false; N];
            for _ in 0..600 {
                let r = next(&mut st);
                let id = match r % 4 {
                    // Near the lowest member: exercises the low mark.
                    0 => reference.iter().position(|&b| b).unwrap_or(0) + (r >> 8) as usize % 70,
                    _ => (r >> 8) as usize % N,
                }
                .min(N - 1);
                match (r >> 40) % 16 {
                    0..=6 => {
                        if s.lo < s.hi && id / 64 < s.lo {
                            inserts_below_lo += 1;
                        }
                        s.insert(id);
                        reference[id] = true;
                    }
                    7..=12 => {
                        s.remove(id);
                        reference[id] = false;
                    }
                    13 if r.is_multiple_of(7) => {
                        s.clear();
                        reference.fill(false);
                    }
                    _ => {
                        let want = reference.iter().position(|&b| b);
                        assert_eq!(s.first(), want, "seed {seed}");
                    }
                }
                for (wi, &w) in s.words().iter().enumerate() {
                    assert!(
                        w == 0 || (s.lo..s.hi).contains(&wi),
                        "seed {seed}: word {wi}"
                    );
                }
                assert!(s.lo >= s.hi || s.hi <= s.words().len(), "seed {seed}");
                let from = (next(&mut st) % (N as u64 + 70)) as usize;
                let want = |from: usize| (from..N).find(|&i| reference[i]);
                assert_eq!(s.next_from(from), want(from), "seed {seed} from {from}");
                assert_eq!(s.next_from(0), want(0), "seed {seed}");
                assert_eq!(s.contains(id), reference[id], "seed {seed} id {id}");
            }
            let walked: Vec<usize> =
                std::iter::successors(s.next_from(0), |&i| s.next_from(i + 1)).collect();
            let want: Vec<usize> = (0..N).filter(|&i| reference[i]).collect();
            assert_eq!(walked, want, "seed {seed}");
        }
        assert!(
            inserts_below_lo > 100,
            "only {inserts_below_lo} inserts below the low mark"
        );
    }
}
