//! Cut-schedule tuning.
//!
//! The paper notes that "the cut values c_i can be selected so as to
//! optimize the performance with respect to particular applications".  This
//! module provides two tools:
//!
//! * [`recommend_cuts`] — an analytic recommendation derived from the
//!   memory-hierarchy cost model (level 1 sized to the L2 working set,
//!   geometric growth up the hierarchy); and
//! * [`sweep_cut_schedules`] — an exhaustive sweep of candidate schedules
//!   under the cost model, a starting point for empirical tuning
//!   (`examples/cut_tuning.rs`).

use crate::config::HierConfig;
use hyperstream_memsim::{CostModel, MemoryHierarchy};

/// One evaluated cut schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CutRecommendation {
    /// The cut values (levels `1..N-1`).
    pub cuts: Vec<u64>,
    /// Predicted updates per second under the cost model.
    pub predicted_updates_per_sec: f64,
    /// Predicted speed-up over a flat (single-level) matrix with the same
    /// total nonzero count.
    pub predicted_speedup_vs_flat: f64,
}

/// Analytically recommend a cut schedule for a stream expected to
/// accumulate `expected_nnz` stored entries.
///
/// Level 1 is sized so its tuple buffer fits comfortably in the L2 cache
/// (half of L2 by default), and each higher level is `ratio` times larger,
/// stopping once the next cut would exceed `expected_nnz` (the top level is
/// unbounded anyway).
pub fn recommend_cuts(hierarchy: &MemoryHierarchy, expected_nnz: u64, ratio: u64) -> HierConfig {
    let model = CostModel::new(hierarchy.clone());
    let bytes_per_entry = model.bytes_per_entry.max(1);
    // Use the second level of the hierarchy (L2) as the residence target for
    // level 1; fall back to the first level for exotic hierarchies.
    let levels = hierarchy.levels();
    let target = levels.get(1).unwrap_or(&levels[0]);
    let base = (target.capacity_bytes / 2 / bytes_per_entry).max(1024);

    let ratio = ratio.max(2);
    let mut cuts = vec![base];
    loop {
        let next = cuts.last().unwrap().saturating_mul(ratio);
        if next >= expected_nnz || cuts.len() >= 6 {
            break;
        }
        cuts.push(next);
    }
    HierConfig::from_cuts(cuts).expect("generated schedule is strictly increasing")
}

/// Evaluate a family of candidate schedules under the cost model and return
/// them sorted best-first by predicted update rate.
///
/// Candidates are geometric schedules with `levels` ∈ `level_counts`,
/// base cut ∈ `base_cuts` and growth ratio `ratio`.
pub fn sweep_cut_schedules(
    hierarchy: &MemoryHierarchy,
    expected_nnz: u64,
    level_counts: &[usize],
    base_cuts: &[u64],
    ratio: u64,
) -> Vec<CutRecommendation> {
    let model = CostModel::new(hierarchy.clone());
    let mut out = Vec::new();
    for &levels in level_counts {
        for &base in base_cuts {
            let Ok(cfg) = HierConfig::geometric(levels.max(2), base, ratio.max(2)) else {
                continue;
            };
            let cost = model.hierarchical_update_cost(cfg.cuts(), expected_nnz);
            let speedup = model.predicted_speedup(cfg.cuts(), expected_nnz, 1 << 20);
            out.push(CutRecommendation {
                cuts: cfg.cuts().to_vec(),
                predicted_updates_per_sec: cost.updates_per_second(),
                predicted_speedup_vs_flat: speedup,
            });
        }
    }
    out.sort_by(|a, b| {
        b.predicted_updates_per_sec
            .partial_cmp(&a.predicted_updates_per_sec)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendation_is_valid_config() {
        let h = MemoryHierarchy::xeon_node();
        let cfg = recommend_cuts(&h, 100_000_000, 8);
        assert!(cfg.levels() >= 2);
        // First cut should fit comfortably in L2 when expressed in bytes.
        let first_bytes = cfg.cuts()[0] * 24;
        assert!(first_bytes <= h.levels()[1].capacity_bytes);
        // Cuts strictly increasing is enforced by construction.
        for w in cfg.cuts().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn recommendation_caps_levels() {
        let h = MemoryHierarchy::xeon_node();
        let cfg = recommend_cuts(&h, u64::MAX / 4, 4);
        assert!(cfg.levels() <= 7);
    }

    #[test]
    fn small_streams_get_shallow_hierarchies() {
        let h = MemoryHierarchy::xeon_node();
        let small = recommend_cuts(&h, 10_000, 8);
        let large = recommend_cuts(&h, 1_000_000_000, 8);
        assert!(small.levels() <= large.levels());
    }

    #[test]
    fn sweep_sorted_best_first_and_prefers_hierarchies() {
        let h = MemoryHierarchy::xeon_node();
        let recs = sweep_cut_schedules(
            &h,
            100_000_000,
            &[2, 3, 4, 5],
            &[1 << 12, 1 << 15, 1 << 18],
            8,
        );
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].predicted_updates_per_sec >= w[1].predicted_updates_per_sec);
        }
        // The best schedule should beat the flat baseline.
        assert!(recs[0].predicted_speedup_vs_flat > 1.0);
    }

    #[test]
    fn sweep_skips_invalid_candidates() {
        let h = MemoryHierarchy::xeon_node();
        // level count 0/1 coerced to 2; base 0 is invalid and skipped.
        let recs = sweep_cut_schedules(&h, 1_000_000, &[1], &[0, 1024], 8);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cuts, vec![1024]);
    }
}
