//! Analytic cost model for streaming sparse updates.
//!
//! This prices the two strategies the paper contrasts:
//!
//! * **flat** — every update is a point access into one large structure of
//!   `nnz` entries (random access priced at the latency of the level the
//!   whole structure resides in), plus the amortised cost of periodically
//!   rebuilding that large structure; and
//! * **hierarchical** — updates go to a small level-1 structure; every
//!   `c_i` updates level `i` is merged into level `i+1`, which streams both
//!   structures once through the level they reside in.
//!
//! The model is intentionally coarse — it exists to predict the *shape*
//! (orders of magnitude and crossovers) that the measured benchmarks then
//! confirm.

use crate::hierarchy::MemoryHierarchy;

/// Estimated cost of one logical streaming update, broken into components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateCost {
    /// Nanoseconds spent on the in-fast-memory append/accumulate work.
    pub fast_ns: f64,
    /// Nanoseconds (amortised per update) spent merging into slower levels.
    pub merge_ns: f64,
}

impl UpdateCost {
    /// Total nanoseconds per update.
    pub fn total_ns(&self) -> f64 {
        self.fast_ns + self.merge_ns
    }

    /// Updates per second implied by the cost.
    pub fn updates_per_second(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            f64::INFINITY
        } else {
            1e9 / self.total_ns()
        }
    }
}

/// Cost model bound to a memory hierarchy.
#[derive(Debug, Clone)]
pub struct CostModel {
    hierarchy: MemoryHierarchy,
    /// Bytes stored per sparse entry (index + value), default 24
    /// (two u64 indices + one f64/u64 value).
    pub bytes_per_entry: u64,
}

impl CostModel {
    /// Build a model over a hierarchy with the default entry size.
    pub fn new(hierarchy: MemoryHierarchy) -> Self {
        Self {
            hierarchy,
            bytes_per_entry: 24,
        }
    }

    /// The memory hierarchy used by the model.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Bytes held by `entries` entries, saturating: a structure too large to
    /// count in `u64` bytes resides in the last level all the same.
    fn bytes(&self, entries: u64) -> u64 {
        entries.saturating_mul(self.bytes_per_entry)
    }

    /// Bytes one merge streams: both structures read and written once.
    /// Priced in `f64`, so a cut near `u64::MAX` costs what its size says.
    fn merge_bytes(&self, a: u64, b: u64) -> f64 {
        2.0 * (a as f64 + b as f64) * self.bytes_per_entry as f64
    }

    /// Cost per update of the flat strategy with a settled structure of
    /// `nnz` entries and a pending buffer merged every `pending_limit`
    /// updates.
    pub fn flat_update_cost(&self, nnz: u64, pending_limit: u64) -> UpdateCost {
        let pending_limit = pending_limit.max(1);
        // Append to the pending buffer: sequential access to a small buffer.
        let fast_ns = self
            .hierarchy
            .access_latency_ns(self.bytes(pending_limit).min(64 * 1024));
        // Every pending_limit updates the whole settled structure is re-read
        // and re-written (two-pointer merge) along with the pending buffer.
        let level = self.hierarchy.residence(self.bytes(nnz).max(1));
        let merge_total_ns = level.stream_time_ns(self.merge_bytes(nnz, pending_limit));
        UpdateCost {
            fast_ns,
            merge_ns: merge_total_ns / pending_limit as f64,
        }
    }

    /// Cost per update of an N-level hierarchy with cuts `cuts[0..N-1]`
    /// (level N is unbounded and holds `total_nnz` entries at steady state).
    pub fn hierarchical_update_cost(&self, cuts: &[u64], total_nnz: u64) -> UpdateCost {
        if cuts.is_empty() {
            return self.flat_update_cost(total_nnz, 1 << 20);
        }
        // Level-1 append.
        let fast_ns = self
            .hierarchy
            .access_latency_ns(self.bytes(cuts[0]).min(64 * 1024));

        // Each level i cascades into level i+1 once every `cuts[i]` updates
        // (approximately: level i fills after cuts[i] new entries arrive).
        // The cascade streams level i and level i+1 once.
        let mut merge_ns = 0.0;
        for (i, &cut) in cuts.iter().enumerate() {
            let next_size = if i + 1 < cuts.len() {
                cuts[i + 1]
            } else {
                total_nnz.max(cut)
            };
            let level = self.hierarchy.residence(self.bytes(next_size).max(1));
            let cascade_ns = level.stream_time_ns(self.merge_bytes(cut, next_size));
            // Amortise over the cut[i] updates between cascades at this level.
            merge_ns += cascade_ns / cut.max(1) as f64;
        }
        UpdateCost { fast_ns, merge_ns }
    }

    /// Predicted speed-up of the hierarchical strategy over the flat one for
    /// a matrix of `total_nnz` stored entries.
    pub fn predicted_speedup(&self, cuts: &[u64], total_nnz: u64, pending_limit: u64) -> f64 {
        let flat = self.flat_update_cost(total_nnz, pending_limit).total_ns();
        let hier = self.hierarchical_update_cost(cuts, total_nnz).total_ns();
        flat / hier
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(MemoryHierarchy::xeon_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric_cuts(levels: usize, base: u64, ratio: u64) -> Vec<u64> {
        (0..levels).map(|i| base * ratio.pow(i as u32)).collect()
    }

    #[test]
    fn flat_cost_grows_with_nnz() {
        let m = CostModel::default();
        let small = m.flat_update_cost(10_000, 1024).total_ns();
        let large = m.flat_update_cost(100_000_000, 1024).total_ns();
        assert!(large > small * 10.0, "large {large} vs small {small}");
    }

    #[test]
    fn hierarchical_cost_nearly_flat_in_nnz() {
        let m = CostModel::default();
        let cuts = geometric_cuts(4, 1 << 13, 8);
        let small = m.hierarchical_update_cost(&cuts, 1_000_000).total_ns();
        let large = m.hierarchical_update_cost(&cuts, 100_000_000).total_ns();
        assert!(
            large < small * 5.0,
            "hierarchical cost should grow sub-linearly: {small} -> {large}"
        );
    }

    #[test]
    fn hierarchy_beats_flat_at_scale() {
        let m = CostModel::default();
        let cuts = geometric_cuts(4, 1 << 13, 8);
        let speedup = m.predicted_speedup(&cuts, 100_000_000, 1 << 10);
        assert!(speedup > 5.0, "predicted speedup {speedup}");
    }

    #[test]
    fn empty_cuts_falls_back_to_flat() {
        let m = CostModel::default();
        let a = m.hierarchical_update_cost(&[], 1_000_000);
        let b = m.flat_update_cost(1_000_000, 1 << 20);
        assert_eq!(a, b);
    }

    #[test]
    fn updates_per_second_inverse_of_cost() {
        let c = UpdateCost {
            fast_ns: 50.0,
            merge_ns: 50.0,
        };
        assert!((c.updates_per_second() - 1e7).abs() < 1.0);
        assert!(UpdateCost::default().updates_per_second().is_infinite());
    }

    #[test]
    fn single_instance_rate_above_one_million_per_second() {
        // Sanity-check against the paper's headline single-instance figure:
        // the model should predict > 1M updates/s for reasonable cuts.
        let m = CostModel::default();
        let cuts = geometric_cuts(4, 1 << 15, 8);
        let cost = m.hierarchical_update_cost(&cuts, 100_000_000);
        assert!(
            cost.updates_per_second() > 1.0e6,
            "model predicts only {} updates/s",
            cost.updates_per_second()
        );
    }

    #[test]
    fn huge_cuts_price_like_any_dram_cut() {
        // Every cut from 2^30 up resides in DRAM, where a cascade's cost per
        // update is the same streamed bytes over the same bandwidth.
        let m = CostModel::default();
        let merge_ns = |cut: u64| m.hierarchical_update_cost(&[cut], 1_000_000).merge_ns;
        let dram = merge_ns(1 << 40);
        // `HierConfig::effectively_flat()`'s cut.
        let flat = merge_ns(u64::MAX / 2);
        assert!((flat / dram - 1.0).abs() < 0.01, "{flat} ns vs {dram} ns");
        let pending = |limit: u64| m.flat_update_cost(1_000_000, limit).merge_ns;
        let (huge, large) = (pending(1 << 60), pending(1 << 40));
        assert!((huge / large - 1.0).abs() < 0.01, "{huge} ns vs {large} ns");
    }

    #[test]
    fn deeper_hierarchy_reduces_merge_cost_for_huge_matrices() {
        let m = CostModel::default();
        let shallow = m.hierarchical_update_cost(&geometric_cuts(1, 1 << 13, 8), 1_000_000_000);
        let deep = m.hierarchical_update_cost(&geometric_cuts(5, 1 << 13, 8), 1_000_000_000);
        assert!(deep.total_ns() < shallow.total_ns());
    }
}
