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
/// Operations never shrink the word vector; [`Bitset::clear`] zeroes the
/// existing words in place. Use [`Bitset::reserve`] up front (e.g. with the
/// circuit's task count) so steady-state inserts never grow.
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
/// ```
#[derive(Debug, Default, Clone)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// An empty set.
    pub fn new() -> Self {
        Bitset { words: Vec::new() }
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

    /// Zeroes every word in place (capacity retained).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The packed words (LSB of word 0 is id 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The smallest id `>= from` in the set, if any. Walking a set with
    /// `next_from(last + 1)` visits ids in ascending order and sees
    /// inserts and removals made between steps, unlike
    /// [`for_each_set_bit`] over a borrowed word slice.
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
        let mut wi = from / 64;
        let mut w = *self.words.get(wi)? & (!0u64 << (from % 64));
        while w == 0 {
            wi += 1;
            w = *self.words.get(wi)?;
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
}
