//! K-way merged cursors over [`Dcsr`] levels — the read-side dual of the
//! cascade's merge kernel.
//!
//! A hierarchical hypersparse matrix represents `A = Σ_i A_i` but stores the
//! levels separately, so every read of the sum is a k-way merge of sorted
//! parts.  This module takes each step of that merge one way, without
//! building a merged copy:
//!
//! * the next row: [`LevelCursors::next_row`] walks the settled levels
//!   together, one sorted position per level, and hands out the slices of
//!   every level that holds the next row of the union;
//! * the columns of one row: `merge_k_way` merges a row's parts as a
//!   balanced tree of the cascade's skew-aware two-way merges, neighbours
//!   first, its half-merges written into planes drawn from a reusable pool.
//!   Every row sweep ([`LevelCursors::fold_row`],
//!   [`LevelCursors::row_degree`]), every row read ([`merged_row_into`],
//!   [`merged_row_degree`], the pattern push's rows) and
//!   [`merged_col_into`]'s per-level hit planes go through it.
//!
//! Point gets, row and column extracts, degree counts, top-k scans, nnz and
//! full sorted iteration are built on these two steps.
//!
//! The same layer also *produces* merged structures: [`merge_levels`]
//! materialises `Σ levels` smallest-first through one reused
//! [`MergeScratch`](crate::formats::dcsr::MergeScratch), so a snapshot
//! performs O(1) allocations regardless of the level count.
//!
//! Collision order: where several levels store the same `(row, col)` cell
//! the operator sees their values in the order the levels appear in the
//! slice, paired as the tree pairs them (`(a ⊕ b) ⊕ (c ⊕ d)`).  Every reader
//! in the workspace uses the `Plus` monoid, for which neither order nor
//! grouping matters (the paper's linearity argument).

use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::Dcsr;
use crate::formats::merge::{merge_row_adaptive, MergeSink, MergeTally, PairSink, PlaneSink};
use crate::index::Index;
use crate::ops::binary::First;
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of synchronised cursors, one per level, yielding the merged rows
/// of `Σ levels` in ascending row order.
///
/// Usage: call [`LevelCursors::next_row`] — the one step every sweep of
/// the crate takes to the next non-empty row of the union; then
/// [`LevelCursors::row_degree`], [`LevelCursors::single_part`] or
/// [`LevelCursors::fold_row`] inspect that row's columns without
/// materialising anything.  A row held by several levels merges through the
/// one k-way column merge (a balanced tree of two-way merges), whose
/// half-merge planes the cursors keep, so a full sweep performs no per-row
/// allocation.
pub struct LevelCursors<'a, T> {
    levels: Vec<&'a Dcsr<T>>,
    /// Next unread row-slot per level.
    slot: Vec<usize>,
    /// The current row's column/value slices, one per level holding it, in
    /// level order.
    parts: Vec<(&'a [Index], &'a [T])>,
    /// Planes the column merge's tree reuses from row to row.
    pool: Vec<(Vec<Index>, Vec<T>)>,
}

impl<'a, T: ScalarType> LevelCursors<'a, T> {
    /// Open cursors over `levels`.
    pub fn new(levels: &[&'a Dcsr<T>]) -> Self {
        Self {
            levels: levels.to_vec(),
            slot: vec![0; levels.len()],
            parts: Vec::with_capacity(levels.len()),
            pool: Vec::new(),
        }
    }

    /// Open cursors positioned at the first row `>= lo` of each level — the
    /// range-scan entry point.  Each level skips its leading rows with one
    /// binary search instead of cursor steps.
    fn new_at(levels: &[&'a Dcsr<T>], lo: Index) -> Self {
        let mut c = Self::new(levels);
        for (l, d) in c.levels.iter().enumerate() {
            c.slot[l] = d.row_ids().partition_point(|&r| r < lo);
        }
        c
    }

    /// Advance to the next non-empty row of the union and return its id;
    /// `None` when every level is exhausted.
    pub fn next_row(&mut self) -> Option<Index> {
        let heads = self.levels.iter().zip(&self.slot);
        let row = *heads.filter_map(|(d, &s)| d.row_ids().get(s)).min()?;
        self.parts.clear();
        for (d, s) in self.levels.iter().zip(&mut self.slot) {
            if d.row_ids().get(*s) == Some(&row) {
                self.parts.push(d.row_slot(*s));
                *s += 1;
            }
        }
        Some(row)
    }

    /// When exactly one level holds the current row, its slices — the
    /// common hypersparse case (row collisions between levels are rare),
    /// which callers bulk-copy instead of merging element-wise.
    pub fn single_part(&self) -> Option<(&'a [Index], &'a [T])> {
        match self.parts[..] {
            [part] => Some(part),
            _ => None,
        }
    }

    /// Number of distinct columns in the current row.
    pub fn row_degree(&mut self) -> usize {
        if let Some((cols, _)) = self.single_part() {
            return cols.len();
        }
        let mut n = 0;
        self.fold_row(First, &mut |_, _| n += 1);
        n
    }

    /// Merge the current row's columns under `op`, emitting
    /// `(col, combined value)` in ascending column order.
    pub fn fold_row<Op: BinaryOp<T>>(&mut self, op: Op, emit: &mut dyn FnMut(Index, T)) {
        merge_k_way(&self.parts, op, &mut |c, v| emit(c, v), &mut self.pool);
    }

    /// Column-seek within the current row: binary-search each part for
    /// `col`, folding the hits under `op` — the inner step of the transpose
    /// (column-extract) kernels.  `None` when the current row stores
    /// nothing in `col`.
    fn col_in_row<Op: BinaryOp<T>>(&self, col: Index, op: Op) -> Option<T> {
        let mut acc: Option<T> = None;
        for (cols, vals) in &self.parts {
            if let Ok(j) = cols.binary_search(&col) {
                acc = Some(match acc {
                    Some(a) => op.apply(a, vals[j]),
                    None => vals[j],
                });
            }
        }
        acc
    }
}

/// Verify that every level matches the `nrows x ncols` target.
fn check_dims<T: ScalarType>(nrows: Index, ncols: Index, levels: &[&Dcsr<T>]) -> GrbResult<()> {
    for d in levels {
        if d.nrows() != nrows || d.ncols() != ncols {
            return Err(GrbError::DimensionMismatch {
                detail: format!("{nrows}x{ncols} vs level of {}x{}", d.nrows(), d.ncols()),
            });
        }
    }
    Ok(())
}

/// Merge `levels` into one [`Dcsr`] — the materialisation kernel
/// `A = Σ_i A_i`.
///
/// Builds smallest-first through one reused
/// [`MergeScratch`](crate::formats::dcsr::MergeScratch)
/// (the cascade's allocation-discipline applied to the read side): every
/// step is a two-way bulk-run merge whose staging buffers ping-pong with
/// the accumulator, so the whole materialisation performs O(1) allocations
/// regardless of the level count — the old query path allocated a rebuilt
/// accumulator per level.
///
/// `op` must be associative and commutative (a monoid operation, like the
/// `Plus` every reader uses): the merge order is chosen by size, not by
/// level position.
pub fn merge_levels<T: ScalarType, Op: BinaryOp<T>>(
    nrows: Index,
    ncols: Index,
    levels: &[&Dcsr<T>],
    op: Op,
) -> GrbResult<Dcsr<T>> {
    check_dims(nrows, ncols, levels)?;
    let mut order: Vec<usize> = (0..levels.len()).collect();
    order.sort_by_key(|&i| levels[i].nvals());
    let mut acc = Dcsr::try_new(nrows, ncols)?;
    let mut scratch = crate::formats::dcsr::MergeScratch::new();
    for &i in &order {
        acc.merge_into(levels[i], op, &mut scratch)?;
    }
    Ok(acc)
}

/// Number of distinct `(row, col)` cells in `Σ levels`: one cursor sweep
/// summing row degrees — no merged structure is built.
pub fn merged_nnz<T: ScalarType>(levels: &[&Dcsr<T>]) -> usize {
    let mut cur = LevelCursors::new(levels);
    let mut n = 0;
    while cur.next_row().is_some() {
        n += cur.row_degree();
    }
    n
}

/// Sorted row-major iteration over `Σ levels` under `op`.
pub fn for_each_merged<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    op: Op,
    f: &mut dyn FnMut(Index, Index, T),
) {
    // A single non-empty level (a flat matrix, a flushed hierarchy) is its
    // own union: walk it without the per-row cursor bookkeeping.
    let mut nonempty = levels.iter().filter(|d| !d.is_empty());
    if let (Some(only), None) = (nonempty.next(), nonempty.next()) {
        let (ids, ptr, cols, vals) = only.raw_parts();
        for (slot, &row) in ids.iter().enumerate() {
            let (lo, hi) = (ptr[slot] as usize, ptr[slot + 1] as usize);
            for (&c, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                f(row, c, v);
            }
        }
        return;
    }
    let mut cur = LevelCursors::new(levels);
    while let Some(row) = cur.next_row() {
        cur.fold_row(op, &mut |c, v| f(row, c, v));
    }
}

/// Value of `Σ levels` at `(row, col)`: per-level binary-search gets
/// combined under `op`.
pub fn merged_point<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    row: Index,
    col: Index,
    op: Op,
) -> Option<T> {
    let mut acc: Option<T> = None;
    for d in levels {
        if let Some(v) = d.get(row, col) {
            acc = Some(match acc {
                Some(a) => op.apply(a, v),
                None => v,
            });
        }
    }
    acc
}

/// Merge one logical row of `Σ levels` into `out` (cleared first), sorted
/// by column, values combined under `op`.
pub fn merged_row_into<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    row: Index,
    op: Op,
    out: &mut Vec<(Index, T)>,
) {
    out.clear();
    let parts: Vec<(&[Index], &[T])> = levels.iter().filter_map(|d| d.row(row)).collect();
    merge_k_way(&parts, op, &mut PairSink { out }, &mut Vec::new());
}

/// The one k-way column merge of the workspace: `parts` (sorted, unique
/// columns each) merged into `sink` under `op` by [`merge_tree`], its
/// strategy tally committed once.  `pool` lends the tree's half-merge
/// planes: a sweep passes the same pool for every row, a one-shot read an
/// empty one.
pub(crate) fn merge_k_way<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    parts: &[(&[Index], &[T])],
    op: Op,
    sink: &mut S,
    pool: &mut Vec<(Vec<Index>, Vec<T>)>,
) {
    let mut tally = MergeTally::default();
    merge_tree(parts, op, sink, &mut tally, pool);
    tally.commit();
}

/// `parts` merged into `sink` left to right as a balanced tree of two-way
/// merges (neighbours first): no element passes more than
/// `⌈log₂ parts⌉` of them.  Each half above two parts merges into a plane
/// taken from `pool` and returned to it.
fn merge_tree<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    parts: &[(&[Index], &[T])],
    op: Op,
    sink: &mut S,
    tally: &mut MergeTally,
    pool: &mut Vec<(Vec<Index>, Vec<T>)>,
) {
    match parts {
        [] => {}
        [(cols, vals)] => sink.push_run(cols, vals),
        [(ca, va), (cb, vb)] => merge_row_adaptive(ca, va, cb, vb, op, sink, tally),
        _ => {
            let (left, right) = parts.split_at(parts.len() / 2);
            let [(ca, va), (cb, vb)] = [left, right].map(|half| {
                let len = half.iter().map(|(cols, _)| cols.len()).sum();
                let (mut cols, mut vals) = pool.pop().unwrap_or_default();
                cols.clear();
                vals.clear();
                cols.reserve(len);
                vals.reserve(len);
                let mut sink = PlaneSink {
                    cols: &mut cols,
                    vals: &mut vals,
                };
                merge_tree(half, op, &mut sink, tally, pool);
                (cols, vals)
            });
            merge_row_adaptive(&ca, &va, &cb, &vb, op, sink, tally);
            pool.extend([(ca, va), (cb, vb)]);
        }
    }
}

/// Number of distinct columns in row `row` of `Σ levels`.
pub fn merged_row_degree<T: ScalarType>(levels: &[&Dcsr<T>], row: Index) -> usize {
    let parts: Vec<(&[Index], &[T])> = levels.iter().filter_map(|d| d.row(row)).collect();
    if let [(cols, _)] = parts[..] {
        return cols.len();
    }
    let mut n = 0;
    merge_k_way(&parts, First, &mut |_, _: T| n += 1, &mut Vec::new());
    n
}

/// Reduce row `row` of `Σ levels` to a scalar under `op` (`None` when the
/// row is empty).  For an associative, commutative `op` the collisions need
/// no column merge: every stored value folds in directly.
pub fn merged_row_reduce<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    row: Index,
    op: Op,
) -> Option<T> {
    let mut acc: Option<T> = None;
    for d in levels {
        if let Some((_, vals)) = d.row(row) {
            for &v in vals {
                acc = Some(match acc {
                    Some(a) => op.apply(a, v),
                    None => v,
                });
            }
        }
    }
    acc
}

/// The `k` rows of `Σ levels` with the most distinct columns, sorted by
/// degree descending then row id ascending — the "top talkers by fan-out"
/// query.  One cursor sweep with a size-`k` min-heap; no materialisation.
pub fn merged_top_k<T: ScalarType>(levels: &[&Dcsr<T>], k: usize) -> Vec<(Index, usize)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap = BinaryHeap::new();
    let mut cur = LevelCursors::new(levels);
    while let Some(row) = cur.next_row() {
        let d = cur.row_degree();
        heap.push(Reverse((d, Reverse(row))));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<(Index, usize)> = heap
        .into_iter()
        .map(|Reverse((d, Reverse(r)))| (r, d))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// The degree histogram of `Σ levels` (`degree -> number of rows`),
/// counted through one cursor sweep — the fallback twin of the degree
/// index's O(distinct degrees) answer.
pub fn merged_degree_histogram<T: ScalarType>(
    levels: &[&Dcsr<T>],
) -> std::collections::BTreeMap<u64, u64> {
    let mut counts = std::collections::BTreeMap::new();
    let mut cur = LevelCursors::new(levels);
    while cur.next_row().is_some() {
        *counts.entry(cur.row_degree() as u64).or_insert(0u64) += 1;
    }
    counts
}

/// Sorted row-major iteration over the rows `lo..hi` (half-open) of
/// `Σ levels` under `op` — the subnet-style range scan.  Each level's
/// leading rows skip with one binary search; the sweep stops at the first
/// merged row `>= hi`, so cost is proportional to the *range's* content,
/// not the matrix's.
pub fn merged_row_range<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    lo: Index,
    hi: Index,
    op: Op,
    f: &mut dyn FnMut(Index, Index, T),
) {
    if lo >= hi {
        return;
    }
    let mut cur = LevelCursors::new_at(levels, lo);
    while let Some(row) = cur.next_row() {
        if row >= hi {
            break;
        }
        cur.fold_row(op, &mut |c, v| f(row, c, v));
    }
}

/// Extract one logical *column* of `Σ levels` into `out` (cleared first),
/// sorted by row, values combined under `op` — the transpose twin of
/// [`merged_row_into`].  Row-major storage cannot seek a column directly,
/// so each level is column-seeked independently (one binary search per
/// non-empty row), producing a sorted per-level hit plane; the planes then
/// go through the one k-way merge in level order — levels rarely store the
/// same column in the same rows, so its two-way steps are mostly disjoint
/// bulk copies or galloped skips.  `O(rows · log degree)` for the seeks;
/// this is the retained fallback, the column-shadow fast path answers in
/// `O(column degree)`.
pub fn merged_col_into<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    col: Index,
    op: Op,
    out: &mut Vec<(Index, T)>,
) {
    out.clear();
    let mut hits: Vec<(Vec<Index>, Vec<T>)> = Vec::new();
    for d in levels {
        let (ids, ptr, cols, vals) = d.raw_parts();
        let (mut hit_rows, mut hit_vals) = (Vec::new(), Vec::new());
        for slot in 0..ids.len() {
            let (lo, hi) = (ptr[slot] as usize, ptr[slot + 1] as usize);
            if let Ok(j) = cols[lo..hi].binary_search(&col) {
                hit_rows.push(ids[slot]);
                hit_vals.push(vals[lo + j]);
            }
        }
        if !hit_rows.is_empty() {
            hits.push((hit_rows, hit_vals));
        }
    }
    let parts: Vec<(&[Index], &[T])> = hits.iter().map(|(r, v)| (&r[..], &v[..])).collect();
    merge_k_way(&parts, op, &mut PairSink { out }, &mut Vec::new());
}

/// Number of distinct rows storing something in column `col` of
/// `Σ levels` (the column's in-degree), by column-seek sweep.
pub fn merged_col_degree<T: ScalarType>(levels: &[&Dcsr<T>], col: Index) -> usize {
    let mut cur = LevelCursors::new(levels);
    let mut n = 0;
    while cur.next_row().is_some() {
        if cur.col_in_row(col, First).is_some() {
            n += 1;
        }
    }
    n
}

/// Reduce column `col` of `Σ levels` to a scalar under `op` (`None` when
/// the column is empty).  For an associative, commutative `op` the
/// cross-level collisions need no merge: every stored value folds in.
pub fn merged_col_reduce<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    col: Index,
    op: Op,
) -> Option<T> {
    let mut acc: Option<T> = None;
    for d in levels {
        let (ids, ptr, cols, vals) = d.raw_parts();
        for slot in 0..ids.len() {
            let (lo, hi) = (ptr[slot] as usize, ptr[slot + 1] as usize);
            if let Ok(j) = cols[lo..hi].binary_search(&col) {
                acc = Some(match acc {
                    Some(a) => op.apply(a, vals[lo + j]),
                    None => vals[lo + j],
                });
            }
        }
    }
    acc
}

/// Distinct-row degree of every non-empty column of `Σ levels` — one full
/// merged sweep (cells are unique after the merge, so each counts once).
fn merged_col_degrees<T: ScalarType>(
    levels: &[&Dcsr<T>],
) -> std::collections::BTreeMap<Index, u64> {
    let mut degs = std::collections::BTreeMap::new();
    for_each_merged(levels, First, &mut |_, c, _| {
        *degs.entry(c).or_insert(0u64) += 1;
    });
    degs
}

/// The `k` columns of `Σ levels` with the most distinct rows, sorted by
/// in-degree descending then column id ascending — the "top talkers by
/// fan-in" query's full-sweep fallback (`O(nnz)` plus a rank).
pub fn merged_in_top_k<T: ScalarType>(levels: &[&Dcsr<T>], k: usize) -> Vec<(Index, usize)> {
    if k == 0 {
        return Vec::new();
    }
    let mut all: Vec<(Index, usize)> = merged_col_degrees(levels)
        .into_iter()
        .map(|(c, d)| (c, d as usize))
        .collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// The in-degree histogram of `Σ levels` (`in-degree -> column count`),
/// by full sweep — the fallback twin of the column index's answer.
pub fn merged_in_degree_histogram<T: ScalarType>(
    levels: &[&Dcsr<T>],
) -> std::collections::BTreeMap<u64, u64> {
    let mut counts = std::collections::BTreeMap::new();
    for (_, d) in merged_col_degrees(levels) {
        *counts.entry(d).or_insert(0u64) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Max, Plus};

    fn dcsr(entries: &[(u64, u64, u64)]) -> Dcsr<u64> {
        let rows: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<u64> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<u64> = entries.iter().map(|e| e.2).collect();
        Dcsr::from_tuples(1 << 40, 1 << 40, &rows, &cols, &vals, Plus).unwrap()
    }

    fn sample_levels() -> Vec<Dcsr<u64>> {
        vec![
            dcsr(&[(1, 1, 10), (5, 2, 1), (5, 9, 2)]),
            dcsr(&[(5, 2, 100), (5, 3, 3), (900_000_000, 0, 7)]),
            dcsr(&[(0, 4, 4), (5, 9, 200)]),
        ]
    }

    fn pairwise_reference(levels: &[&Dcsr<u64>]) -> Dcsr<u64> {
        let mut acc = Dcsr::new(levels[0].nrows(), levels[0].ncols());
        for d in levels {
            acc = acc.merge(d, Plus).unwrap();
        }
        acc
    }

    #[test]
    fn merge_levels_matches_pairwise_merge() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let merged = merge_levels(1 << 40, 1 << 40, &levels, Plus).unwrap();
        merged.check_invariants().unwrap();
        assert_eq!(merged, pairwise_reference(&levels));
        assert_eq!(merged.get(5, 2), Some(101));
        assert_eq!(merged.get(5, 9), Some(202));
    }

    #[test]
    fn merge_levels_empty_and_single() {
        let merged = merge_levels::<u64, _>(10, 10, &[], Plus).unwrap();
        assert!(merged.is_empty());
        let a = dcsr(&[(1, 1, 1), (2, 2, 2)]);
        let merged = merge_levels(1 << 40, 1 << 40, &[&a], Plus).unwrap();
        assert_eq!(merged, a);
        let empty = Dcsr::<u64>::new(1 << 40, 1 << 40);
        let merged = merge_levels(1 << 40, 1 << 40, &[&empty, &a, &empty], Plus).unwrap();
        assert_eq!(merged, a);
    }

    #[test]
    fn merge_levels_dimension_mismatch() {
        let a = Dcsr::<u64>::new(10, 10);
        assert!(merge_levels(10, 11, &[&a], Plus).is_err());
    }

    #[test]
    fn merge_levels_other_ops() {
        let a = dcsr(&[(1, 1, 10)]);
        let b = dcsr(&[(1, 1, 3), (1, 2, 5)]);
        let merged = merge_levels(1 << 40, 1 << 40, &[&a, &b], Max).unwrap();
        assert_eq!(merged.get(1, 1), Some(10));
        assert_eq!(merged.get(1, 2), Some(5));
    }

    #[test]
    fn merged_nnz_counts_distinct_cells() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        assert_eq!(merged_nnz(&levels), pairwise_reference(&levels).nvals());
        assert_eq!(merged_nnz::<u64>(&[]), 0);
    }

    /// `cells` sorted, each repeated key once with its values summed — what
    /// `Σ levels` under `Plus` holds.
    fn folded<K: Ord + Copy>(mut cells: Vec<(K, u64)>) -> Vec<(K, u64)> {
        cells.sort_unstable();
        let mut out: Vec<(K, u64)> = Vec::with_capacity(cells.len());
        for (k, v) in cells {
            match out.last_mut() {
                Some(last) if last.0 == k => last.1 += v,
                _ => out.push((k, v)),
            }
        }
        out
    }

    /// One level a part, each level holding row 7 at its part's columns:
    /// every row read and sweep of `Σ levels` (and `merged_col_into` over
    /// the transposed levels) against the folded sort of the parts'
    /// concatenation; the `*_into` reads fill reused non-empty buffers.
    fn check_parts(parts: Vec<Vec<(Index, u64)>>) {
        assert!((3..=8).contains(&parts.len()));
        let n = parts.len();
        let level = |p: &Vec<(Index, u64)>, at: fn(Index, u64) -> (u64, u64, u64)| {
            dcsr(&p.iter().map(|&(c, v)| at(c, v)).collect::<Vec<_>>())
        };
        let owned: Vec<Dcsr<u64>> = parts.iter().map(|p| level(p, |c, v| (7, c, v))).collect();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let want = folded(parts.concat());
        let mut got = vec![(1, 1)];
        merged_row_into(&levels, 7, Plus, &mut got);
        assert_eq!(got, want, "{n} parts");
        assert_eq!(merged_row_degree(&levels, 7), want.len(), "{n} parts");
        assert_eq!(merged_nnz(&levels), want.len(), "{n} parts");

        let cells: Vec<(Index, Index, u64)> = want.iter().map(|&(c, v)| (7, c, v)).collect();
        let mut swept = Vec::new();
        for_each_merged(&levels, Plus, &mut |r, c, v| swept.push((r, c, v)));
        assert_eq!(swept, cells, "{n} parts");
        swept.clear();
        merged_row_range(&levels, 7, 8, Plus, &mut |r, c, v| swept.push((r, c, v)));
        assert_eq!(swept, cells, "{n} parts");
        let (top, hist) = match want.len() {
            0 => (vec![], Default::default()),
            d => (vec![(7, d)], [(d as u64, 1)].into()),
        };
        assert_eq!(merged_top_k(&levels, 3), top, "{n} parts");
        assert_eq!(merged_degree_histogram(&levels), hist, "{n} parts");

        let owned_t: Vec<Dcsr<u64>> = parts.iter().map(|p| level(p, |c, v| (c, 7, v))).collect();
        let levels_t: Vec<&Dcsr<u64>> = owned_t.iter().collect();
        got = vec![(1, 1)];
        merged_col_into(&levels_t, 7, Plus, &mut got);
        assert_eq!(got, want, "{n} transposed parts");
    }

    /// `n` key-disjoint parts of `len` columns dealt from one ascending run
    /// by `owner`.
    fn dealt(n: usize, len: u64, owner: impl Fn(u64) -> usize) -> Vec<Vec<(Index, u64)>> {
        let mut parts = vec![Vec::new(); n];
        for c in 0..len {
            parts[owner(c)].push((c * 3 + 1, c));
        }
        parts
    }

    #[test]
    fn merged_row_over_disjoint_parts_equals_a_sort_of_the_concatenation() {
        // Empty parts among full ones.
        check_parts(vec![
            Vec::new(),
            vec![(1, 1), (5, 1)],
            Vec::new(),
            vec![(7, 1)],
        ]);
        check_parts(vec![vec![(2, 1), (6, 1)], Vec::new(), vec![(1, 1), (5, 1)]]);
        let mut three = dealt(3, 40, |c| (c % 3) as usize);
        three.insert(1, Vec::new());
        check_parts(three);
        // Banded parts, given in band order and out of it.
        let bands = dealt(4, 100, |c| (c / 25) as usize);
        check_parts(bands.clone());
        check_parts(bands.into_iter().rev().collect());
        // Parts interleaved one by one, in runs, and one under the others.
        for n in 3..=8 {
            check_parts(dealt(n, 1000, |c| (c % n as u64) as usize));
            check_parts(dealt(n, 1000, |c| (c / 7 % n as u64) as usize));
        }
        check_parts(dealt(3, 1000, |c| usize::from(c == 500) * 2));
        // Hashed, with and without empty parts.
        let hash = |c: u64| (c.wrapping_mul(0x9E37_79B9) >> 7) as usize;
        check_parts(dealt(5, 1000, |c| hash(c) % 5));
        check_parts(dealt(8, 1000, |c| hash(c) % 6));
        check_parts(dealt(7, 1000, |c| hash(c) % 7));
        check_parts(dealt(5, 1000, |c| (c / 13 % 5) as usize));
    }

    /// Parts `0..n`, part `i` given by `part(i)`.
    fn parts_by(n: u64, part: impl Fn(u64) -> Vec<(Index, u64)>) -> Vec<Vec<(Index, u64)>> {
        (0..n).map(part).collect()
    }

    #[test]
    fn merged_row_over_overlapping_parts_folds_collisions_under_plus() {
        // Every part the same, with distinct values per part.
        check_parts(parts_by(5, |i| vec![(3, i), (9, 10 + i), (40, 20 + i)]));
        // Sliding windows, nested prefixes and one column every part holds.
        for n in 3..=8 {
            check_parts(parts_by(n, |i| {
                (i * 5..i * 5 + 40).map(|c| (c, i + 1)).collect()
            }));
            check_parts(parts_by(n, |i| {
                (0..(i + 1) * 30).map(|c| (c, c ^ i)).collect()
            }));
            check_parts(parts_by(n, |i| {
                let mut p: Vec<(Index, u64)> = (0..50).map(|c| (c * n + i, 1)).collect();
                p.push((1_000_000, i));
                p
            }));
        }
        // Hashed membership: each column in any subset of the parts.
        let hash = |c: u64, i: u64| (c ^ i << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
        for n in [3, 4, 6, 8] {
            check_parts(parts_by(n, |i| {
                (0..1000)
                    .filter(|&c| hash(c, i) < 3)
                    .map(|c| (c, c + i))
                    .collect()
            }));
        }
        // A dense part under sparse ones, and empty parts among colliding ones.
        let dense: Vec<(Index, u64)> = (0..2000).map(|c| (c, 1)).collect();
        check_parts(vec![
            vec![(7, 5)],
            dense.clone(),
            vec![(1999, 2), (5000, 3)],
            vec![(0, 4)],
        ]);
        check_parts(vec![
            Vec::new(),
            dense.clone(),
            Vec::new(),
            dense,
            vec![(3, 3)],
        ]);
    }

    #[test]
    fn a_sweep_whose_rows_change_their_part_count_reuses_the_pool() {
        // Row r is held by `counts[r % 8]` of eight levels, starting at
        // level `r % 8`, its columns overlapping from level to level.
        let counts = [1usize, 3, 5, 2, 8, 4, 7, 6];
        let mut cells: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); 8];
        for r in 0..200u64 {
            let start = (r % 8) as usize;
            for k in 0..counts[start] {
                let l = (start + k) % 8;
                cells[l]
                    .extend((0..20 + r % 13).map(|j| (r, j * (k as u64 + 1), r + j + l as u64)));
            }
        }
        let owned: Vec<Dcsr<u64>> = cells.iter().map(|c| dcsr(c)).collect();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let want: Vec<((u64, u64), u64)> = folded(
            cells
                .concat()
                .into_iter()
                .map(|(r, c, v)| ((r, c), v))
                .collect(),
        );
        let mut got = Vec::new();
        let mut cur = LevelCursors::new(&levels);
        while let Some(r) = cur.next_row() {
            let parts = cur.parts.len();
            assert_eq!(parts, counts[(r % 8) as usize], "row {r}");
            let degree = cur.row_degree();
            let before = got.len();
            cur.fold_row(Plus, &mut |c, v| got.push(((r, c), v)));
            assert_eq!(got.len() - before, degree, "row {r}");
            // Two planes per tree level above the two-part merges.
            assert!(cur.pool.len() <= 4, "row {r}: {} planes", cur.pool.len());
        }
        assert_eq!(cur.pool.len(), 4, "the eight-part rows left their planes");
        assert_eq!(got, want);
        assert_eq!(merged_nnz(&levels), want.len());
        let mut degree = std::collections::BTreeMap::<u64, usize>::new();
        for &((r, _), _) in &want {
            *degree.entry(r).or_default() += 1;
        }
        let mut hist = std::collections::BTreeMap::new();
        for &d in degree.values() {
            *hist.entry(d as u64).or_insert(0u64) += 1;
        }
        assert_eq!(merged_degree_histogram(&levels), hist);
        let mut ranked: Vec<(Index, usize)> = degree.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(10);
        assert_eq!(merged_top_k(&levels, 10), ranked);
    }

    #[test]
    fn for_each_merged_is_sorted_row_major() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let mut got = Vec::new();
        for_each_merged(&levels, Plus, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<_> = pairwise_reference(&levels).iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn merged_point_and_row() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        assert_eq!(merged_point(&levels, 5, 2, Plus), Some(101));
        assert_eq!(merged_point(&levels, 5, 7, Plus), None);
        let mut row = Vec::new();
        merged_row_into(&levels, 5, Plus, &mut row);
        assert_eq!(row, vec![(2, 101), (3, 3), (9, 202)]);
        merged_row_into(&levels, 123, Plus, &mut row);
        assert!(row.is_empty());
        assert_eq!(merged_row_degree(&levels, 5), 3);
        assert_eq!(merged_row_degree(&levels, 1), 1);
        assert_eq!(merged_row_degree(&levels, 123), 0);
        assert_eq!(merged_row_reduce(&levels, 5, Plus), Some(306));
        assert_eq!(merged_row_reduce(&levels, 123, Plus), None);
    }

    #[test]
    fn merged_top_k_orders_by_degree_then_row() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        // Degrees: row 5 -> 3, rows 0, 1, 900_000_000 -> 1 each.
        let top = merged_top_k(&levels, 3);
        assert_eq!(top, vec![(5, 3), (0, 1), (1, 1)]);
        let all = merged_top_k(&levels, 100);
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], (900_000_000, 1));
        assert!(merged_top_k(&levels, 0).is_empty());
    }

    #[test]
    fn merged_row_range_skips_and_stops() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let reference = pairwise_reference(&levels);
        for (lo, hi) in [
            (0u64, u64::MAX),
            (1, 6),
            (5, 6),
            (6, 900_000_001),
            (2, 2),
            (7, 3),
            (1_000_000_000, u64::MAX),
        ] {
            let mut got = Vec::new();
            merged_row_range(&levels, lo, hi, Plus, &mut |r, c, v| got.push((r, c, v)));
            let expect: Vec<_> = reference
                .iter()
                .filter(|&(r, _, _)| r >= lo && r < hi)
                .collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
        let mut none = Vec::new();
        merged_row_range::<u64, _>(&[], 0, 10, Plus, &mut |r, c, v| none.push((r, c, v)));
        assert!(none.is_empty());
    }

    #[test]
    fn merged_col_kernels_match_transposed_reference() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let reference = pairwise_reference(&levels);
        // Column 2 is stored by rows 5 (two levels: 1 + 100) only; column 9
        // by row 5 (two levels); column 4 by row 0.
        let mut col = Vec::new();
        merged_col_into(&levels, 2, Plus, &mut col);
        assert_eq!(col, vec![(5, 101)]);
        merged_col_into(&levels, 9, Plus, &mut col);
        assert_eq!(col, vec![(5, 202)]);
        merged_col_into(&levels, 77, Plus, &mut col);
        assert!(col.is_empty());
        assert_eq!(merged_col_degree(&levels, 2), 1);
        assert_eq!(merged_col_degree(&levels, 77), 0);
        assert_eq!(merged_col_reduce(&levels, 2, Plus), Some(101));
        assert_eq!(merged_col_reduce(&levels, 77, Plus), None);
        // Exhaustive check against the materialised reference, per column.
        let mut by_col: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for (r, c, v) in reference.iter() {
            by_col.entry(c).or_default().push((r, v));
        }
        for (&c, expect) in &by_col {
            merged_col_into(&levels, c, Plus, &mut col);
            assert_eq!(&col, expect, "column {c}");
            assert_eq!(merged_col_degree(&levels, c), expect.len());
            assert_eq!(
                merged_col_reduce(&levels, c, Plus),
                Some(expect.iter().map(|&(_, v)| v).sum())
            );
        }
        let degs = merged_col_degrees(&levels);
        for (&c, expect) in &by_col {
            assert_eq!(degs.get(&c), Some(&(expect.len() as u64)));
        }
        assert_eq!(degs.len(), by_col.len());
    }

    #[test]
    fn merged_in_top_k_and_histogram_order() {
        // Columns: 7 appears in rows 1, 2, 3; 8 in rows 1, 2; 9 in row 9.
        let a = dcsr(&[(1, 7, 1), (1, 8, 1), (2, 7, 1)]);
        let b = dcsr(&[(2, 8, 1), (3, 7, 1), (9, 9, 1)]);
        let levels = [&a, &b];
        assert_eq!(merged_in_top_k(&levels, 2), vec![(7, 3), (8, 2)]);
        assert_eq!(merged_in_top_k(&levels, 10), vec![(7, 3), (8, 2), (9, 1)]);
        assert!(merged_in_top_k(&levels, 0).is_empty());
        let hist = merged_in_degree_histogram(&levels);
        assert_eq!(hist.get(&3), Some(&1));
        assert_eq!(hist.get(&2), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));
    }

    #[test]
    fn cursor_scratch_reuse_across_rows() {
        // Many rows with collisions: exercises the take/restore scratch path.
        let a = dcsr(&(0..100u64).map(|i| (i, i % 7, 1)).collect::<Vec<_>>());
        let b = dcsr(&(0..100u64).map(|i| (i, (i + 1) % 7, 2)).collect::<Vec<_>>());
        let levels = [&a, &b];
        let merged = merge_levels(1 << 40, 1 << 40, &levels, Plus).unwrap();
        assert_eq!(merged, pairwise_reference(&levels));
        assert_eq!(merged_nnz(&levels), merged.nvals());
    }
}
