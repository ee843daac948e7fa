//! Hierarchy configuration: number of levels and nonzero-count cuts.

use hyperstream_graphblas::{GrbError, GrbResult};

/// Configuration of an N-level hierarchical hypersparse matrix.
///
/// `cuts[i]` is the nonzero threshold `c_{i+1}` of level `i + 1` (0-based
/// level `i`); when `nnz(A_i) > cuts[i]` the level cascades into `A_{i+1}`.
/// The last level has no cut — it simply accumulates (the paper stops the
/// cascade at `i = N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierConfig {
    cuts: Vec<u64>,
}

impl HierConfig {
    /// Build from explicit cut values for levels `1..N-1`.
    ///
    /// The resulting hierarchy has `cuts.len() + 1` levels.  Cuts must be
    /// non-zero and strictly increasing (a non-increasing schedule would
    /// cascade on every update).
    pub fn from_cuts(cuts: Vec<u64>) -> GrbResult<Self> {
        if cuts.is_empty() {
            return Err(GrbError::EmptyObject("cut list"));
        }
        if cuts.contains(&0) {
            return Err(GrbError::InvalidValue("cuts must be non-zero".into()));
        }
        for w in cuts.windows(2) {
            if w[0] >= w[1] {
                return Err(GrbError::InvalidValue(format!(
                    "cuts must be strictly increasing, got {} then {}",
                    w[0], w[1]
                )));
            }
        }
        Ok(Self { cuts })
    }

    /// A geometric cut schedule: `levels` total levels, first cut `base`,
    /// each subsequent cut `ratio` times larger.
    ///
    /// The paper tunes cuts per application; a geometric schedule whose
    /// first level fits in L2 and whose ratio is ~8 is the default used by
    /// the benchmarks.
    pub fn geometric(levels: usize, base: u64, ratio: u64) -> GrbResult<Self> {
        if levels < 2 {
            return Err(GrbError::InvalidValue(
                "a hierarchy needs at least 2 levels".into(),
            ));
        }
        if base == 0 || ratio < 2 {
            return Err(GrbError::InvalidValue(
                "base must be non-zero and ratio at least 2".into(),
            ));
        }
        let cuts = (0..levels - 1)
            .map(|i| {
                // Checked all the way: `pow` overflows before `checked_mul`
                // ever sees its result.
                ratio
                    .checked_pow(i as u32)
                    .and_then(|p| base.checked_mul(p))
                    .ok_or_else(|| GrbError::InvalidValue("cut schedule overflows u64".into()))
            })
            .collect::<GrbResult<Vec<u64>>>()?;
        Self::from_cuts(cuts)
    }

    /// The default configuration used throughout the benchmarks: four
    /// levels with cuts 2^17, 2^20, 2^23 (first level ~3 MiB of tuples —
    /// cache resident; upper levels amortise DRAM traffic).
    pub fn paper_default() -> Self {
        Self::from_cuts(vec![1 << 17, 1 << 20, 1 << 23]).expect("static schedule is valid")
    }

    /// A single-level "hierarchy" (no cuts is not representable, so this is
    /// two levels with an enormous first cut): effectively the flat
    /// baseline expressed in the same API, used by ablation benchmarks.
    pub fn effectively_flat() -> Self {
        Self::from_cuts(vec![u64::MAX / 2]).expect("static schedule is valid")
    }

    /// Number of levels (`cuts.len() + 1`).
    pub fn levels(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The cut for level `i` (0-based).  The last level has no cut.
    pub fn cut(&self, level: usize) -> Option<u64> {
        self.cuts.get(level).copied()
    }

    /// All cuts.
    pub fn cuts(&self) -> &[u64] {
        &self.cuts
    }
}

impl Default for HierConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cuts_valid() {
        let c = HierConfig::from_cuts(vec![100, 1000, 10_000]).unwrap();
        assert_eq!(c.levels(), 4);
        assert_eq!(c.cut(0), Some(100));
        assert_eq!(c.cut(2), Some(10_000));
        assert_eq!(c.cut(3), None);
        assert_eq!(c.cuts(), &[100, 1000, 10_000]);
    }

    #[test]
    fn invalid_cuts_rejected() {
        assert!(HierConfig::from_cuts(vec![]).is_err());
        assert!(HierConfig::from_cuts(vec![0, 10]).is_err());
        assert!(HierConfig::from_cuts(vec![10, 10]).is_err());
        assert!(HierConfig::from_cuts(vec![100, 50]).is_err());
    }

    #[test]
    fn geometric_schedule() {
        let c = HierConfig::geometric(4, 1024, 8).unwrap();
        assert_eq!(c.cuts(), &[1024, 8192, 65536]);
        assert_eq!(c.levels(), 4);
    }

    #[test]
    fn geometric_invalid_params() {
        assert!(HierConfig::geometric(1, 1024, 8).is_err());
        assert!(HierConfig::geometric(4, 0, 8).is_err());
        assert!(HierConfig::geometric(4, 1024, 1).is_err());
        assert!(HierConfig::geometric(12, u64::MAX / 2, 8).is_err());
        // The power alone overflows (8^22 = 2^66, 3^41 > 2^64): `Err`, not a
        // debug panic or a wrapped cut.  3^40 is the last power that fits.
        assert!(HierConfig::geometric(24, 1, 8).is_err());
        assert!(HierConfig::geometric(43, 1, 3).is_err());
        let widest = HierConfig::geometric(42, 1, 3).unwrap();
        assert_eq!(widest.cuts().last(), Some(&3u64.pow(40)));
    }

    #[test]
    fn default_schedules() {
        let d = HierConfig::default();
        assert_eq!(d, HierConfig::paper_default());
        assert_eq!(d.levels(), 4);
        let flat = HierConfig::effectively_flat();
        assert_eq!(flat.levels(), 2);
        assert!(flat.cut(0).unwrap() > 1 << 60);
    }
}
