//! Hierarchical associative arrays — the "Hierarchical D4M" baseline.
//!
//! This is the data structure of Kepner et al., HPEC 2019 ("Streaming 1.9
//! billion hypersparse network updates per second with D4M"): the same
//! N-level cut-and-cascade design as the hierarchical GraphBLAS matrix, but
//! with D4M associative arrays (string keys) at every level.  The Fig. 2
//! comparison between the "Hierarchical D4M" and "Hierarchical GraphBLAS"
//! curves isolates the cost of string keys versus integer keys, so this
//! implementation intentionally keeps the string machinery on the update
//! path.

use crate::assoc::Assoc;
use hyperstream_graphblas::{GrbError, GrbResult, Index, ScalarType, StreamingSink};

/// Cut schedule for a hierarchical associative array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierAssocConfig {
    cuts: Vec<u64>,
}

impl HierAssocConfig {
    /// Build from explicit cuts (strictly increasing, non-zero); the
    /// hierarchy has `cuts.len() + 1` levels.
    pub fn from_cuts(cuts: Vec<u64>) -> GrbResult<Self> {
        if cuts.is_empty() {
            return Err(GrbError::EmptyObject("cut list"));
        }
        if cuts.contains(&0) {
            return Err(GrbError::InvalidValue("cuts must be non-zero".into()));
        }
        for w in cuts.windows(2) {
            if w[0] >= w[1] {
                return Err(GrbError::InvalidValue(
                    "cuts must be strictly increasing".into(),
                ));
            }
        }
        Ok(Self { cuts })
    }

    /// The default schedule used by the D4M baseline benchmarks.
    pub fn default_schedule() -> Self {
        Self::from_cuts(vec![1 << 14, 1 << 17, 1 << 20]).expect("static schedule is valid")
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Cut for level `i` (none for the top level).
    pub fn cut(&self, level: usize) -> Option<u64> {
        self.cuts.get(level).copied()
    }
}

impl Default for HierAssocConfig {
    fn default() -> Self {
        Self::default_schedule()
    }
}

/// An N-level hierarchical associative array accumulating under `+`.
#[derive(Debug, Clone)]
pub struct HierAssoc {
    config: HierAssocConfig,
    levels: Vec<Assoc>,
    updates: u64,
    cascades: Vec<u64>,
}

impl HierAssoc {
    /// Create an empty hierarchical associative array.
    pub fn new(config: HierAssocConfig) -> Self {
        let n = config.levels();
        Self {
            config,
            levels: (0..n).map(|_| Assoc::new()).collect(),
            updates: 0,
            cascades: vec![0; n],
        }
    }

    /// Create with the default cut schedule.
    pub fn with_default_config() -> Self {
        Self::new(HierAssocConfig::default())
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Total updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Cascades out of each level.
    pub fn cascades(&self) -> &[u64] {
        &self.cascades
    }

    /// Apply one streaming update `A(row_key, col_key) += value`.
    pub fn update(&mut self, row_key: &str, col_key: &str, value: f64) {
        self.levels[0].accum(row_key, col_key, value);
        self.updates += 1;
        self.maybe_cascade();
    }

    /// Apply a batch of updates.
    pub fn update_batch(&mut self, triples: &[(String, String, f64)]) {
        for (r, c, v) in triples {
            self.levels[0].accum(r, c, *v);
        }
        self.updates += triples.len() as u64;
        self.maybe_cascade();
    }

    /// Value of the represented array at `(row_key, col_key)`.
    pub fn get(&self, row_key: &str, col_key: &str) -> Option<f64> {
        let mut acc: Option<f64> = None;
        for level in &self.levels {
            if let Some(v) = level.get(row_key, col_key) {
                acc = Some(acc.unwrap_or(0.0) + v);
            }
        }
        acc
    }

    /// Materialise the full array `A = Σ_i A_i`.
    pub fn materialize(&self) -> Assoc {
        let mut acc = Assoc::new();
        for level in &self.levels {
            acc.merge_in(level);
        }
        acc
    }

    /// Sum of all stored values (linear across levels, so no
    /// materialisation is needed).
    pub fn total(&self) -> f64 {
        self.levels.iter().map(|l| l.total()).sum()
    }

    /// Per-level entry counts.
    pub fn entries_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.nnz()).collect()
    }

    fn maybe_cascade(&mut self) {
        let mut i = 0;
        while i + 1 < self.levels.len() {
            let cut = self.config.cut(i).expect("non-top level has a cut");
            // Cheap O(1) fill proxy first: counting the exact nnz of an
            // unsettled level clones and settles it, which made every update
            // O(level size).  The proxy over-counts duplicates, so when it
            // trips we settle (cheap — the level is cache resident by
            // construction) and let the exact count decide, exactly like
            // `HierMatrix::maybe_cascade`.  Decisions are unchanged because
            // bound >= exact.
            if (self.levels[i].nnz_bound() as u64) <= cut {
                break;
            }
            self.levels[i].settle();
            if (self.levels[i].nnz() as u64) <= cut {
                break;
            }
            let lower = std::mem::take(&mut self.levels[i]);
            self.levels[i + 1].merge_in(&lower);
            self.cascades[i] += 1;
            i += 1;
        }
    }
}

impl Default for HierAssoc {
    fn default() -> Self {
        Self::with_default_config()
    }
}

/// The D4M insert path driven by integer indices: keys are the decimal
/// strings of `row` / `col`, the way the paper's Fig. 2 feeds this
/// comparison system.  Keeping the string formatting *inside* the sink keeps the
/// string-machinery cost on the measured path, which is the point of the
/// "Hierarchical D4M vs Hierarchical GraphBLAS" comparison.  One generic
/// impl covers every weight type: the array stores `f64` natively, so
/// weights go through [`ScalarType::to_f64`].
impl<V: ScalarType> StreamingSink<V> for HierAssoc {
    fn sink_name(&self) -> &str {
        "hier-d4m"
    }

    fn insert(&mut self, row: Index, col: Index, val: V) -> GrbResult<()> {
        self.update(&row.to_string(), &col.to_string(), val.to_f64());
        Ok(())
    }

    fn flush(&mut self) -> GrbResult<()> {
        // Cascades run eagerly on update; nothing is deferred.
        Ok(())
    }

    fn nvals(&self) -> usize {
        self.materialize().nnz()
    }

    fn total_weight(&self) -> f64 {
        self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HierAssoc {
        HierAssoc::new(HierAssocConfig::from_cuts(vec![8, 64]).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(HierAssocConfig::from_cuts(vec![]).is_err());
        assert!(HierAssocConfig::from_cuts(vec![0]).is_err());
        assert!(HierAssocConfig::from_cuts(vec![10, 5]).is_err());
        assert_eq!(HierAssocConfig::from_cuts(vec![4, 8]).unwrap().levels(), 3);
        assert_eq!(HierAssocConfig::default().levels(), 4);
    }

    #[test]
    fn updates_accumulate_across_levels() {
        let mut h = small();
        for i in 0..200u32 {
            h.update(&format!("src{}", i % 37), &format!("dst{}", i % 23), 1.0);
        }
        assert_eq!(h.updates(), 200);
        assert!(h.cascades()[0] > 0, "expected level-0 cascades");
        assert_eq!(h.total(), 200.0);
        // Content equals a flat associative array built from the same stream.
        let mut flat = Assoc::new();
        for i in 0..200u32 {
            flat.accum(&format!("src{}", i % 37), &format!("dst{}", i % 23), 1.0);
        }
        let m = h.materialize();
        assert_eq!(m.triples(), flat.triples());
    }

    #[test]
    fn streaming_sink_uses_decimal_string_keys() {
        let mut h = small();
        let sink: &mut dyn StreamingSink<u64> = &mut h;
        sink.insert(17, 23, 2).unwrap();
        sink.insert(17, 23, 3).unwrap();
        sink.insert_batch(&[4, 5], &[4, 5], &[1, 1]).unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "hier-d4m");
        assert_eq!(sink.nvals(), 3);
        assert_eq!(sink.total_weight(), 7.0);
        assert_eq!(h.get("17", "23"), Some(5.0));
    }

    #[test]
    fn streaming_sink_f64_weights() {
        let mut h = small();
        let sink: &mut dyn StreamingSink<f64> = &mut h;
        sink.insert(1, 1, 0.25).unwrap();
        sink.insert(1, 1, 0.5).unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.total_weight(), 0.75);
        assert_eq!(h.get("1", "1"), Some(0.75));
    }

    #[test]
    fn get_sums_across_levels() {
        let mut h = small();
        // Push enough distinct keys to force a cascade, then update one of
        // the cascaded keys again so it exists in two levels.
        for i in 0..20u32 {
            h.update(&format!("k{i}"), "c", 1.0);
        }
        h.update("k0", "c", 5.0);
        assert_eq!(h.get("k0", "c"), Some(6.0));
        assert_eq!(h.get("missing", "c"), None);
    }

    #[test]
    fn batch_equivalent_to_singles() {
        let triples: Vec<(String, String, f64)> = (0..50)
            .map(|i| (format!("r{}", i % 7), format!("c{}", i % 5), 1.0))
            .collect();
        let mut a = small();
        a.update_batch(&triples);
        let mut b = small();
        for (r, c, v) in &triples {
            b.update(r, c, *v);
        }
        assert_eq!(a.materialize().triples(), b.materialize().triples());
        assert_eq!(a.updates(), b.updates());
    }

    #[test]
    fn duplicate_heavy_stream_stays_in_level_zero() {
        let mut h = small();
        for _ in 0..1000 {
            h.update("hot_src", "hot_dst", 1.0);
        }
        assert_eq!(h.cascades().iter().sum::<u64>(), 0);
        assert_eq!(h.entries_per_level()[0], 1);
        assert_eq!(h.get("hot_src", "hot_dst"), Some(1000.0));
    }
}
