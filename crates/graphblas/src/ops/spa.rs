//! The reusable sparse accumulator (SPA) behind the pattern push.
//!
//! A push accumulates an unpredictable set of output columns, spread over
//! a `2^64` index space.  A fresh `BTreeMap` per push (what the references
//! of the `oracle` module still do) costs one heap allocation per node plus
//! pointer-chasing on every product.  [`SpaScratch`] is a **sorted
//! scatter** instead: push every product with its arrival sequence number,
//! `sort_unstable` by `(col, seq)`, fold each column's run left to right —
//! `O(flops · log flops)` a row, whatever the column span.
//!
//! The scatter reproduces the `BTreeMap` fold *exactly*: products for a
//! column combine in arrival order (the `seq` tiebreak keeps the unstable
//! sort order-preserving), so results are byte-identical to the references
//! for any `⊕`.  The scatter buffer only grows, so a scratch the caller
//! holds is allocation-free across rows and calls (mirroring
//! `MergeScratch`).
//!
//! Counters (process-global, relaxed atomics, committed once per kernel
//! call) record rows and products so a benchmark can attribute the work —
//! see [`spa_kernel_stats`].

use crate::index::Index;
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::sync::atomic::{AtomicU64, Ordering};

static SCATTER_ROWS: AtomicU64 = AtomicU64::new(0);
static SCATTER_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global SPA counters: accumulator rows and
/// products folded since process start (readers take before/after deltas).
///
/// Like [`merge_kernel_stats`](crate::formats::merge::merge_kernel_stats),
/// the counters are process-wide and updated with relaxed atomics once per
/// kernel call — a reporting facility, cheap enough to stay always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaKernelStats {
    /// Always 0: there is no dense band.  Kept while the benchmark report
    /// reads it.
    pub dense_rows: u64,
    /// Always 0: there is no dense band.  Kept while the benchmark report
    /// reads it.
    pub dense_flops: u64,
    /// Accumulator rows answered by sorted scatter.
    pub scatter_rows: u64,
    /// Products folded through sorted scatter.
    pub scatter_flops: u64,
}

/// Read the process-global SPA counters.
pub fn spa_kernel_stats() -> SpaKernelStats {
    SpaKernelStats {
        scatter_rows: SCATTER_ROWS.load(Ordering::Relaxed),
        scatter_flops: SCATTER_FLOPS.load(Ordering::Relaxed),
        ..SpaKernelStats::default()
    }
}

/// The reusable sparse accumulator.  One output row at a time:
/// [`begin`](SpaScratch::begin), [`push`](SpaScratch::push) every product,
/// [`drain`](SpaScratch::drain) the combined entries in ascending column
/// order.  Call [`commit_stats`](SpaScratch::commit_stats) once per kernel
/// call to flush the local tally to the process-global counters.
#[derive(Debug)]
pub struct SpaScratch<T> {
    // `(col, arrival seq, product)`.  The seq tiebreak makes the unstable
    // sort reproduce arrival order within a column.
    pairs: Vec<(Index, u32, T)>,
    // Local tally, committed to the process-global atomics once per call.
    rows: u64,
    flops: u64,
}

impl<T: ScalarType> Default for SpaScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ScalarType> SpaScratch<T> {
    /// An empty scratch; the buffer grows on first use and is then reused.
    pub fn new() -> Self {
        Self {
            pairs: Vec::new(),
            rows: 0,
            flops: 0,
        }
    }

    /// Start accumulating a row.
    pub fn begin(&mut self) {
        self.pairs.clear();
    }

    /// Accumulate one product into column `col`.
    #[inline]
    pub fn push(&mut self, col: Index, val: T) {
        // Rows beyond 2^32 products would alias the seq tiebreak; such a
        // row is out of reach for this workload (hours of flops) and only
        // affects non-commutative ⊕ ordering.
        let seq = self.pairs.len() as u32;
        self.pairs.push((col, seq, val));
    }

    /// Emit the row's entries in ascending column order, each column's
    /// products folded under `add` in arrival order.
    pub fn drain<A: BinaryOp<T>>(&mut self, add: A, out: &mut dyn FnMut(Index, T)) {
        self.rows += 1;
        self.flops += self.pairs.len() as u64;
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

    /// Flush the per-call tally into the process-global counters.
    pub fn commit_stats(&mut self) {
        if self.rows != 0 {
            SCATTER_ROWS.fetch_add(self.rows, Ordering::Relaxed);
            SCATTER_FLOPS.fetch_add(self.flops, Ordering::Relaxed);
        }
        self.rows = 0;
        self.flops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{First, Min, Plus};

    fn run_row<T: ScalarType, A: BinaryOp<T>>(
        spa: &mut SpaScratch<T>,
        pushes: &[(Index, T)],
        add: A,
    ) -> Vec<(Index, T)> {
        spa.begin();
        for &(c, v) in pushes {
            spa.push(c, v);
        }
        let mut out = Vec::new();
        spa.drain(add, &mut |c, v| out.push((c, v)));
        out
    }

    #[test]
    fn scatter_folds_each_column_in_arrival_order() {
        let big = 1 << 40;
        let pushes: &[(Index, u64)] = &[(9, 1), (big, 2), (9, 4), (big, 8), (7, 16), (9, 32)];
        let mut spa = SpaScratch::new();
        assert_eq!(
            run_row(&mut spa, pushes, Plus),
            vec![(7, 16), (9, 37), (big, 10)]
        );
        assert_eq!(
            run_row(&mut spa, pushes, Min),
            vec![(7, 16), (9, 1), (big, 2)]
        );
        // `First` keeps each column's earliest arrival.
        assert_eq!(
            run_row(&mut spa, pushes, First),
            vec![(7, 16), (9, 1), (big, 2)]
        );
    }

    #[test]
    fn no_entry_of_one_row_leaks_into_the_next() {
        let mut spa = SpaScratch::<u64>::new();
        assert_eq!(
            run_row(&mut spa, &[(5, 1), (6, 2)], Plus),
            vec![(5, 1), (6, 2)]
        );
        assert_eq!(run_row(&mut spa, &[(6, 7)], Plus), vec![(6, 7)]);
        assert_eq!(run_row(&mut spa, &[], Plus), vec![]);
    }

    #[test]
    fn stats_tally_commits_once() {
        let mut spa = SpaScratch::<u64>::new();
        run_row(&mut spa, &[(1, 1), (2, 2)], Plus);
        run_row(&mut spa, &[(1, 1)], Plus);
        // Nothing global until the commit (other test threads may also be
        // committing, so check deltas as lower bounds).
        let pre = spa_kernel_stats();
        spa.commit_stats();
        let post = spa_kernel_stats();
        assert!(post.scatter_rows - pre.scatter_rows >= 2);
        assert!(post.scatter_flops - pre.scatter_flops >= 3);
        assert_eq!((post.dense_rows, post.dense_flops), (0, 0));
    }
}
