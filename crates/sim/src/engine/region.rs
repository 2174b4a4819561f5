//! Contiguous regions of the ancilla network.
//!
//! [`RegionPartition`] splits the ancilla index space into contiguous
//! regions of roughly [`REGION_TARGET`] ancillas. The partition is a
//! property of the **fabric alone**, so every region-derived quantity —
//! the analyze region-utilisation report and the priority-class region
//! overrides — is a pure function of the circuit and fabric.

use rescq_core::TaskClass;

/// Target ancillas per region: small enough that modest benchmarks span
/// several regions, large enough that a region is a meaningful share of
/// the fabric.
const REGION_TARGET: usize = 32;

/// A partition of the ancilla index space `0..n` into contiguous regions.
///
/// Regions are balanced to within one ancilla and depend only on `n`, so
/// the same fabric always produces the same partition. A region may carry
/// an optional **urgency override** — a [`TaskClass`] that work homed in
/// the region is promoted to (e.g. regions hosting T-gate factory tiles
/// outranking compute regions). Overrides are derived from the circuit and
/// fabric alone.
#[derive(Debug, Clone)]
pub(crate) struct RegionPartition {
    /// Region boundaries: region `r` covers `bounds[r]..bounds[r + 1]`.
    bounds: Vec<u32>,
    /// Per-region urgency override (`None` = no promotion). Only populated
    /// when priority classes are enabled.
    class_override: Vec<Option<TaskClass>>,
}

impl RegionPartition {
    /// Partitions `num_ancillas` indices into regions of roughly
    /// [`REGION_TARGET`] ancillas.
    pub(crate) fn for_fabric(num_ancillas: usize) -> Self {
        Self::with_regions(num_ancillas, num_ancillas.div_ceil(REGION_TARGET).max(1))
    }

    /// Partitions `num_ancillas` indices into exactly `regions` contiguous,
    /// balanced ranges (sizes differ by at most one).
    fn with_regions(num_ancillas: usize, regions: usize) -> Self {
        let regions = regions.clamp(1, num_ancillas.max(1));
        let base = num_ancillas / regions;
        let extra = num_ancillas % regions;
        let mut bounds = Vec::with_capacity(regions + 1);
        let mut at = 0usize;
        bounds.push(0);
        for r in 0..regions {
            at += base + usize::from(r < extra);
            bounds.push(at as u32);
        }
        debug_assert_eq!(at, num_ancillas);
        RegionPartition {
            class_override: vec![None; regions],
            bounds,
        }
    }

    /// Number of regions.
    pub(crate) fn num_regions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total ancillas partitioned.
    #[cfg(test)]
    pub(crate) fn num_ancillas(&self) -> usize {
        self.bounds[self.num_regions()] as usize
    }

    /// Promotes region `r` to at least `class` (an existing higher override
    /// wins — overrides only ever raise urgency).
    pub(crate) fn raise_region_class(&mut self, r: u32, class: TaskClass) {
        let slot = &mut self.class_override[r as usize];
        if slot.is_none_or(|current| current < class) {
            *slot = Some(class);
        }
    }

    /// The urgency override of region `r`, if any.
    pub(crate) fn region_class(&self, r: u32) -> Option<TaskClass> {
        self.class_override[r as usize]
    }

    /// The ancilla index range of region `r`.
    #[cfg(test)]
    pub(crate) fn range(&self, r: usize) -> std::ops::Range<u32> {
        self.bounds[r]..self.bounds[r + 1]
    }

    /// The region hosting ancilla `a`.
    pub(crate) fn region_of(&self, a: u32) -> u32 {
        // Partition sizes differ by at most one, so a binary search over
        // `bounds` is exact and O(log regions).
        match self.bounds.binary_search(&a) {
            // `a` is a boundary: it starts the region at that index (the
            // final boundary equals `n` and is never a valid ancilla).
            Ok(i) => (i as u32).min(self.num_regions() as u32 - 1),
            Err(i) => i as u32 - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        for n in [1usize, 5, 31, 32, 33, 100, 421] {
            let p = RegionPartition::for_fabric(n);
            assert_eq!(p.range(0).start, 0);
            assert_eq!(p.range(p.num_regions() - 1).end as usize, n);
            assert_eq!(p.num_ancillas(), n);
            let mut sizes = Vec::new();
            for r in 0..p.num_regions() {
                let range = p.range(r);
                assert!(range.start <= range.end);
                if r > 0 {
                    assert_eq!(p.range(r - 1).end, range.start, "contiguous");
                }
                sizes.push(range.len());
                for a in range {
                    assert_eq!(p.region_of(a), r as u32, "n={n} a={a}");
                }
            }
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
        // Region count follows the fabric size alone.
        assert_eq!(RegionPartition::for_fabric(64).num_regions(), 2);
        assert_eq!(RegionPartition::for_fabric(65).num_regions(), 3);
    }

    #[test]
    fn explicit_region_counts_clamp() {
        assert_eq!(RegionPartition::with_regions(4, 9).num_regions(), 4);
        assert_eq!(RegionPartition::with_regions(0, 3).num_regions(), 1);
        assert_eq!(RegionPartition::with_regions(10, 3).num_regions(), 3);
    }
}
