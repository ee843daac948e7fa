//! The reusable sparse accumulator (SPA) behind the semiring kernels.
//!
//! A row-wise Gustavson product accumulates an unpredictable set of output
//! columns per row.  A fresh `BTreeMap` per row (what the references of the
//! `oracle` module still do) costs one heap allocation per node plus
//! pointer-chasing on every product.
//! [`SpaScratch`] replaces it with two allocation-reusing strategies picked
//! per row from the row's column span and flop count:
//!
//! | condition | strategy | cost per row |
//! |-----------|----------|--------------|
//! | narrow span (`span ≤ 4096`) or dense band (`span ≤ 4·flops`), span ≤ 2^18 | **dense band**: value array + epoch-stamped marks indexed by `col - lo`; collisions fold in place, drain scans the band | `O(flops + span)` |
//! | otherwise (hypersparse row at 2^64 dims) | **sorted scatter**: push every product, `sort_unstable` by `(col, seq)`, fold runs left-to-right | `O(flops · log flops)` |
//!
//! Both strategies reproduce the `BTreeMap` fold *exactly*: products for a
//! column are combined in arrival order (the `seq` tiebreak keeps the
//! unstable sort order-preserving), so results are byte-identical to the
//! `*_btree` references for any `⊕` — the equivalence proptests pin this.
//! The scratch is allocation-free across rows and across calls when held by
//! the caller (mirroring `MergeScratch`): the band, marks and scatter buffer
//! only ever grow.
//!
//! Strategy counters (process-global, relaxed atomics, committed once per
//! kernel call) record rows and flops per strategy so a benchmark can
//! report *why* a workload got faster — see [`spa_kernel_stats`].

use crate::index::Index;
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spans at or below this width always use the dense band: the drain scan
/// is cheap enough that the `O(flops · log flops)` sort can never win.
const SPA_DENSE_SPAN: u64 = 4096;

/// Above [`SPA_DENSE_SPAN`], the band is used while the scan cost stays
/// within this factor of the flops (band occupancy ≥ 1/4).
const SPA_DENSE_OCCUPANCY: u64 = 4;

/// Hard cap on the band width (2^18 entries) so a single skewed row cannot
/// balloon the scratch; wider rows fall back to sorted scatter.
const SPA_DENSE_SPAN_CAP: u64 = 1 << 18;

static DENSE_ROWS: AtomicU64 = AtomicU64::new(0);
static DENSE_FLOPS: AtomicU64 = AtomicU64::new(0);
static SCATTER_ROWS: AtomicU64 = AtomicU64::new(0);
static SCATTER_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global SPA strategy counters: accumulator rows
/// and multiply–add products routed through each strategy since process
/// start (readers take before/after deltas).
///
/// Like [`merge_kernel_stats`](crate::formats::merge::merge_kernel_stats),
/// the counters are process-wide and updated with relaxed atomics once per
/// kernel call — a reporting facility, cheap enough to stay always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaKernelStats {
    /// Accumulator rows answered by the dense band.
    pub dense_rows: u64,
    /// Products folded through the dense band.
    pub dense_flops: u64,
    /// Accumulator rows answered by sorted scatter.
    pub scatter_rows: u64,
    /// Products folded through sorted scatter.
    pub scatter_flops: u64,
}

/// Read the process-global SPA strategy counters.
pub fn spa_kernel_stats() -> SpaKernelStats {
    SpaKernelStats {
        dense_rows: DENSE_ROWS.load(Ordering::Relaxed),
        dense_flops: DENSE_FLOPS.load(Ordering::Relaxed),
        scatter_rows: SCATTER_ROWS.load(Ordering::Relaxed),
        scatter_flops: SCATTER_FLOPS.load(Ordering::Relaxed),
    }
}

/// Accumulation strategy chosen for one output row — see the module docs
/// for the selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaStrategy {
    /// Epoch-marked value band over the row's column span.
    DenseBand,
    /// Push-all then `sort_unstable` + fold.
    SortedScatter,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Idle,
    Dense { lo: Index, hi: Index },
    Scatter,
}

/// The reusable sparse accumulator.  One output row at a time:
/// [`begin`](SpaScratch::begin) with the strategy from
/// [`choose`](SpaScratch::choose), [`push`](SpaScratch::push) every
/// product, [`drain`](SpaScratch::drain) the combined entries in ascending
/// column order.  Call [`commit_stats`](SpaScratch::commit_stats) once per
/// kernel call to flush the local tally to the process-global counters.
#[derive(Debug)]
pub struct SpaScratch<T> {
    // Dense band: `band[col - lo]` is live when `mark[col - lo] == epoch`.
    band: Vec<T>,
    mark: Vec<u32>,
    epoch: u32,
    // Sorted scatter: `(col, arrival seq, product)`.  The seq tiebreak
    // makes the unstable sort reproduce arrival order within a column.
    pairs: Vec<(Index, u32, T)>,
    mode: Mode,
    pushed: u64,
    // Local tally, committed to the process-global atomics once per call.
    dense_rows: u64,
    dense_flops: u64,
    scatter_rows: u64,
    scatter_flops: u64,
}

impl<T: ScalarType> Default for SpaScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ScalarType> SpaScratch<T> {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            band: Vec::new(),
            mark: Vec::new(),
            epoch: 0,
            pairs: Vec::new(),
            mode: Mode::Idle,
            pushed: 0,
            dense_rows: 0,
            dense_flops: 0,
            scatter_rows: 0,
            scatter_flops: 0,
        }
    }

    /// Pick the strategy for a row whose products fall in `lo..=hi` and
    /// number `flops`.
    pub fn choose(&self, lo: Index, hi: Index, flops: usize) -> SpaStrategy {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        if span <= SPA_DENSE_SPAN_CAP
            && (span <= SPA_DENSE_SPAN
                || span <= (flops as u64).saturating_mul(SPA_DENSE_OCCUPANCY))
        {
            SpaStrategy::DenseBand
        } else {
            SpaStrategy::SortedScatter
        }
    }

    /// Start accumulating a row under `strategy`; `lo..=hi` is only read by
    /// the dense band (and must cover every pushed column).
    pub fn begin(&mut self, strategy: SpaStrategy, lo: Index, hi: Index) {
        self.pushed = 0;
        match strategy {
            SpaStrategy::DenseBand => {
                let width = (hi - lo + 1) as usize;
                if self.mark.len() < width {
                    self.mark.resize(width, 0);
                    self.band.resize(width, T::zero());
                }
                // Epoch stamping skips the O(width) clear; on wrap, clear
                // once and restart at epoch 1.
                self.epoch = self.epoch.wrapping_add(1);
                if self.epoch == 0 {
                    self.mark.iter_mut().for_each(|m| *m = 0);
                    self.epoch = 1;
                }
                self.mode = Mode::Dense { lo, hi };
            }
            SpaStrategy::SortedScatter => {
                self.pairs.clear();
                self.mode = Mode::Scatter;
            }
        }
    }

    /// Accumulate one product into column `col` under `add`.
    #[inline]
    pub fn push<A: BinaryOp<T>>(&mut self, col: Index, val: T, add: A) {
        self.pushed += 1;
        match self.mode {
            Mode::Dense { lo, .. } => {
                let k = (col - lo) as usize;
                if self.mark[k] == self.epoch {
                    self.band[k] = add.apply(self.band[k], val);
                } else {
                    self.mark[k] = self.epoch;
                    self.band[k] = val;
                }
            }
            Mode::Scatter => {
                // Rows beyond 2^32 products would alias the seq tiebreak;
                // such a row is out of reach for this workload (hours of
                // flops) and only affects non-commutative ⊕ ordering.
                let seq = self.pairs.len() as u32;
                self.pairs.push((col, seq, val));
            }
            Mode::Idle => unreachable!("SpaScratch::push before begin"),
        }
    }

    /// Emit the combined `(col, value)` entries in ascending column order
    /// and return the scratch to idle.
    pub fn drain<A: BinaryOp<T>>(&mut self, add: A, out: &mut dyn FnMut(Index, T)) {
        match self.mode {
            Mode::Dense { lo, hi } => {
                self.dense_rows += 1;
                self.dense_flops += self.pushed;
                let width = (hi - lo + 1) as usize;
                for k in 0..width {
                    if self.mark[k] == self.epoch {
                        out(lo + k as Index, self.band[k]);
                    }
                }
            }
            Mode::Scatter => {
                self.scatter_rows += 1;
                self.scatter_flops += self.pushed;
                self.pairs.sort_unstable_by_key(|&(c, s, _)| (c, s));
                let mut it = self.pairs.iter();
                if let Some(&(first_col, _, first_val)) = it.next() {
                    let (mut col, mut acc) = (first_col, first_val);
                    for &(c, _, v) in it {
                        if c == col {
                            acc = add.apply(acc, v);
                        } else {
                            out(col, acc);
                            col = c;
                            acc = v;
                        }
                    }
                    out(col, acc);
                }
            }
            Mode::Idle => {}
        }
        self.mode = Mode::Idle;
    }

    /// Flush the per-call tally into the process-global counters.
    pub fn commit_stats(&mut self) {
        if self.dense_rows != 0 {
            DENSE_ROWS.fetch_add(self.dense_rows, Ordering::Relaxed);
            DENSE_FLOPS.fetch_add(self.dense_flops, Ordering::Relaxed);
        }
        if self.scatter_rows != 0 {
            SCATTER_ROWS.fetch_add(self.scatter_rows, Ordering::Relaxed);
            SCATTER_FLOPS.fetch_add(self.scatter_flops, Ordering::Relaxed);
        }
        self.dense_rows = 0;
        self.dense_flops = 0;
        self.scatter_rows = 0;
        self.scatter_flops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Min, Plus};

    fn run_row<T: ScalarType, A: BinaryOp<T>>(
        spa: &mut SpaScratch<T>,
        strategy: SpaStrategy,
        pushes: &[(Index, T)],
        add: A,
    ) -> Vec<(Index, T)> {
        let lo = pushes.iter().map(|p| p.0).min().unwrap();
        let hi = pushes.iter().map(|p| p.0).max().unwrap();
        spa.begin(strategy, lo, hi);
        for &(c, v) in pushes {
            spa.push(c, v, add);
        }
        let mut out = Vec::new();
        spa.drain(add, &mut |c, v| out.push((c, v)));
        out
    }

    #[test]
    fn both_strategies_fold_identically() {
        let pushes: &[(Index, u64)] = &[(9, 1), (3, 2), (9, 4), (3, 8), (7, 16), (9, 32)];
        let mut spa = SpaScratch::new();
        let dense = run_row(&mut spa, SpaStrategy::DenseBand, pushes, Plus);
        let scatter = run_row(&mut spa, SpaStrategy::SortedScatter, pushes, Plus);
        assert_eq!(dense, vec![(3, 10), (7, 16), (9, 37)]);
        assert_eq!(dense, scatter);
        let dense = run_row(&mut spa, SpaStrategy::DenseBand, pushes, Min);
        let scatter = run_row(&mut spa, SpaStrategy::SortedScatter, pushes, Min);
        assert_eq!(dense, vec![(3, 2), (7, 16), (9, 1)]);
        assert_eq!(dense, scatter);
    }

    #[test]
    fn epoch_reuse_does_not_leak_between_rows() {
        let mut spa = SpaScratch::<u64>::new();
        let a = run_row(&mut spa, SpaStrategy::DenseBand, &[(5, 1), (6, 2)], Plus);
        assert_eq!(a, vec![(5, 1), (6, 2)]);
        // Same band slots, different row: nothing from the first row shows.
        let b = run_row(&mut spa, SpaStrategy::DenseBand, &[(6, 7)], Plus);
        assert_eq!(b, vec![(6, 7)]);
    }

    #[test]
    fn hypersparse_columns_take_scatter() {
        let spa = SpaScratch::<u64>::new();
        // Two columns 2^40 apart: span blows the cap regardless of flops.
        assert_eq!(
            spa.choose(0, 1 << 40, 1_000_000),
            SpaStrategy::SortedScatter
        );
        // A tight band is dense even with few flops.
        assert_eq!(spa.choose(100, 200, 2), SpaStrategy::DenseBand);
        // Mid-width band: dense only when occupancy is high enough.
        assert_eq!(spa.choose(0, 99_999, 30_000), SpaStrategy::DenseBand);
        assert_eq!(spa.choose(0, 99_999, 10), SpaStrategy::SortedScatter);
    }

    #[test]
    fn stats_tally_commits_once() {
        let mut spa = SpaScratch::<u64>::new();
        run_row(&mut spa, SpaStrategy::DenseBand, &[(1, 1), (2, 2)], Plus);
        run_row(&mut spa, SpaStrategy::SortedScatter, &[(1, 1)], Plus);
        // Nothing global until the commit (other test threads may also be
        // committing, so check deltas as lower bounds).
        let pre = spa_kernel_stats();
        spa.commit_stats();
        let post = spa_kernel_stats();
        assert!(post.dense_rows - pre.dense_rows >= 1);
        assert!(post.scatter_rows - pre.scatter_rows >= 1);
        assert!(post.dense_flops - pre.dense_flops >= 2);
        assert!(post.scatter_flops - pre.scatter_flops >= 1);
    }
}
