//! Bit-packed syndrome words: the decoder's working representation of
//! detector outcomes and error/correction chains.
//!
//! A [`SyndromeBits`] is a fixed-length bit vector stored as `u64` words —
//! the same layout the firmware reference pushes through its SPMC ring
//! (syndrome packets are unpacked with `O(popcount)` work, touching set bits
//! only). Indices address detector nodes when the vector holds a syndrome
//! and graph edges when it holds an error or correction chain; the decoder
//! never mixes the two address spaces in one vector.

/// A fixed-length bit vector packed into `u64` words.
///
/// Cleared on construction; every operation is bounds-checked against the
/// declared length in debug builds. XOR (`^=` via [`SyndromeBits::xor_with`])
/// is the chain-composition operator: error ⊕ correction = residual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromeBits {
    words: Vec<u64>,
    len: u32,
}

impl SyndromeBits {
    /// An all-zero vector of `len` bits.
    pub fn new(len: u32) -> Self {
        SyndromeBits {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
        }
    }

    /// Makes this an all-zero vector of `len` bits, keeping the
    /// allocation (it grows only past the largest length seen).
    pub(crate) fn reset(&mut self, len: u32) {
        self.words.clear();
        self.words.resize((len as usize).div_ceil(64), 0);
        self.len = len;
    }

    /// Number of addressable bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the vector has zero addressable bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing `u64` words (the unit of decoder scan work).
    pub fn num_words(&self) -> u32 {
        self.words.len() as u32
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: u32) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: u32) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Toggles bit `i` and returns its new value.
    pub fn toggle(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] ^= 1u64 << (i % 64);
        self.get(i)
    }

    /// Reads bit `i`.
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Number of set bits (word-parallel popcount).
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Parity of the whole vector (popcount mod 2).
    pub fn parity(&self) -> bool {
        self.popcount() % 2 == 1
    }

    /// Resets every bit to zero, keeping the allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// XORs `other` into `self` (chain composition). Lengths must match.
    pub fn xor_with(&mut self, other: &SyndromeBits) {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
    }

    /// Iterates the indices of set bits in ascending order, `O(popcount)`
    /// per the unpack stage of the decoder pipeline: whole zero words are
    /// skipped and set bits are extracted with `trailing_zeros`.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Deterministic model-based check: every set/clear/toggle sequence on
    /// the packed words must round-trip against a naive `HashSet` model.
    #[test]
    fn packed_words_match_hashset_model() {
        let len = 203u32; // straddles word boundaries, last word partial
        let mut bits = SyndromeBits::new(len);
        let mut model: HashSet<u32> = HashSet::new();
        // SplitMix64-driven op sequence: index and op derived from the
        // stream so the case list is stable.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as u32 % len;
            match state % 3 {
                0 => {
                    bits.set(i);
                    model.insert(i);
                }
                1 => {
                    bits.clear(i);
                    model.remove(&i);
                }
                _ => {
                    let now = bits.toggle(i);
                    if now {
                        model.insert(i);
                    } else {
                        model.remove(&i);
                    }
                    assert_eq!(now, model.contains(&i));
                }
            }
            assert_eq!(bits.popcount() as usize, model.len());
        }
        for i in 0..len {
            assert_eq!(bits.get(i), model.contains(&i), "bit {i}");
        }
        let mut ones: Vec<u32> = model.iter().copied().collect();
        ones.sort_unstable();
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), ones);
        assert_eq!(bits.parity(), model.len() % 2 == 1);
    }

    #[test]
    fn xor_composes_chains() {
        let mut a = SyndromeBits::new(130);
        let mut b = SyndromeBits::new(130);
        for i in [0, 63, 64, 129] {
            a.set(i);
        }
        for i in [63, 64, 100] {
            b.set(i);
        }
        a.xor_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 100, 129]);
        // Self-inverse: XORing again restores the original.
        a.xor_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn reset_changes_length_and_clears() {
        let mut a = SyndromeBits::new(130);
        a.set(129);
        a.reset(65);
        assert_eq!((a.len(), a.num_words(), a.popcount()), (65, 2, 0));
        a.reset(200);
        assert_eq!(a, SyndromeBits::new(200));
    }

    #[test]
    fn clear_all_keeps_length() {
        let mut a = SyndromeBits::new(65);
        a.set(64);
        assert_eq!(a.num_words(), 2);
        a.clear_all();
        assert_eq!(a.popcount(), 0);
        assert_eq!(a.len(), 65);
    }
}
