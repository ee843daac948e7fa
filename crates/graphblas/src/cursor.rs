//! K-way merged cursors over [`Dcsr`] levels — the read-side dual of the
//! cascade's merge kernel.
//!
//! A hierarchical hypersparse matrix represents `A = Σ_i A_i` but stores the
//! levels separately; every query used to *materialise* that sum into a
//! fresh matrix before answering.  The cursor kernel answers queries by
//! walking the L settled level structures simultaneously — one sorted
//! position per level, the duplicate-combination operator applied on the
//! fly where levels collide — so point gets, row extracts, degree counts,
//! top-k scans, nnz and full sorted iteration all run without allocating a
//! merged copy.
//!
//! The same layer also *produces* merged structures: [`merge_levels`]
//! materialises `Σ levels` smallest-first through one reused
//! [`MergeScratch`](crate::formats::dcsr::MergeScratch), so a snapshot
//! performs O(1) allocations regardless of the level count — previously
//! the query path rebuilt the accumulator once per level.
//!
//! Collision order: where several levels store the same `(row, col)` cell
//! the operator is applied left-to-right in the order the levels appear in
//! the slice.  Every reader in the workspace uses the `Plus` monoid, for
//! which the order is immaterial (the paper's linearity argument).

use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::Dcsr;
use crate::formats::merge::{gallop_while, merge_row_adaptive, MergeTally, PairSink, PlaneSink};
use crate::index::Index;
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of synchronised cursors, one per level, yielding the merged rows
/// of `Σ levels` in ascending row order.
///
/// Usage: call [`LevelCursors::next_row`] to advance to the next non-empty
/// row of the union; then [`LevelCursors::row_degree`],
/// [`LevelCursors::single_part`] or [`LevelCursors::fold_row`] inspect that
/// row's columns without materialising anything.  All scratch state is
/// reused across rows, so a full sweep performs no per-row allocation.
pub struct LevelCursors<'a, T> {
    levels: Vec<&'a Dcsr<T>>,
    /// Next unread row-slot per level.
    slot: Vec<usize>,
    /// Level indices that hold the current row (their `slot` already points
    /// one past it).
    active: Vec<usize>,
    /// Per-active-part column positions, reused by the column merges.
    pos: Vec<usize>,
    /// The active parts' slices, reused by the column merges.
    parts: Vec<(&'a [Index], &'a [T])>,
}

/// M-way column merge of one row's sorted parts: each distinct column is
/// emitted once, the values of every part holding it folded left-to-right
/// under `op`.  This is the *one* merge loop every cursor query shares —
/// degree counts pass an emit that only counts.  `pos` is caller scratch
/// (cleared here) so repeated sweeps reuse a single allocation.
fn merge_parts<T: ScalarType, Op: BinaryOp<T>>(
    parts: &[(&[Index], &[T])],
    pos: &mut Vec<usize>,
    op: Op,
    emit: &mut dyn FnMut(Index, T),
) {
    if parts.len() == 2 {
        // The common collision width (two levels share a row) dispatches to
        // the skew-aware two-way kernel — parts[0] stays the left operand,
        // preserving the left-to-right collision order.
        let mut tally = MergeTally::default();
        merge_row_adaptive(
            parts[0].0,
            parts[0].1,
            parts[1].0,
            parts[1].1,
            op,
            &mut |c, v| emit(c, v),
            &mut tally,
        );
        tally.commit();
        return;
    }
    pos.clear();
    pos.resize(parts.len(), 0);
    loop {
        let mut min: Option<Index> = None;
        for (i, &p) in pos.iter().enumerate() {
            if let Some(&c) = parts[i].0.get(p) {
                min = Some(match min {
                    Some(m) if m <= c => m,
                    _ => c,
                });
            }
        }
        let Some(col) = min else { break };
        let mut acc: Option<T> = None;
        for (i, p) in pos.iter_mut().enumerate() {
            if parts[i].0.get(*p) == Some(&col) {
                acc = Some(match acc {
                    Some(a) => op.apply(a, parts[i].1[*p]),
                    None => parts[i].1[*p],
                });
                *p += 1;
            }
        }
        emit(
            col,
            acc.expect("at least one part holds the minimum column"),
        );
    }
}

impl<'a, T: ScalarType> LevelCursors<'a, T> {
    /// Open cursors over `levels`.
    pub fn new(levels: &[&'a Dcsr<T>]) -> Self {
        Self {
            levels: levels.to_vec(),
            slot: vec![0; levels.len()],
            active: Vec::with_capacity(levels.len()),
            pos: Vec::with_capacity(levels.len()),
            parts: Vec::with_capacity(levels.len()),
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
        let mut min: Option<Index> = None;
        for (l, d) in self.levels.iter().enumerate() {
            if let Some(&r) = d.row_ids().get(self.slot[l]) {
                min = Some(match min {
                    Some(m) if m <= r => m,
                    _ => r,
                });
            }
        }
        let row = min?;
        self.active.clear();
        for l in 0..self.levels.len() {
            if self.levels[l].row_ids().get(self.slot[l]) == Some(&row) {
                self.active.push(l);
                self.slot[l] += 1;
            }
        }
        Some(row)
    }

    /// The `i`-th part (column/value slices) of the current row.
    fn part(&self, i: usize) -> (&'a [Index], &'a [T]) {
        let l = self.active[i];
        self.levels[l].row_slot(self.slot[l] - 1)
    }

    /// When exactly one level holds the current row, its slices — the
    /// common hypersparse case (row collisions between levels are rare),
    /// which callers bulk-copy instead of merging element-wise.
    pub fn single_part(&self) -> Option<(&'a [Index], &'a [T])> {
        if self.active.len() == 1 {
            Some(self.part(0))
        } else {
            None
        }
    }

    /// Gather the active parts' slices into the reusable buffer and run
    /// the shared m-way merge over them.
    fn merge_active<Op: BinaryOp<T>>(&mut self, op: Op, emit: &mut dyn FnMut(Index, T)) {
        let mut parts = std::mem::take(&mut self.parts);
        parts.clear();
        for i in 0..self.active.len() {
            parts.push(self.part(i));
        }
        let mut pos = std::mem::take(&mut self.pos);
        merge_parts(&parts, &mut pos, op, emit);
        self.pos = pos;
        self.parts = parts;
    }

    /// Number of distinct columns in the current row.
    pub fn row_degree(&mut self) -> usize {
        if self.active.len() == 1 {
            return self.part(0).0.len();
        }
        let mut n = 0;
        self.merge_active(crate::ops::binary::First, &mut |_, _| n += 1);
        n
    }

    /// Merge the current row's columns under `op`, emitting
    /// `(col, combined value)` in ascending column order.
    pub fn fold_row<Op: BinaryOp<T>>(&mut self, op: Op, emit: &mut dyn FnMut(Index, T)) {
        if self.active.len() == 1 {
            let (cols, vals) = self.part(0);
            for j in 0..cols.len() {
                emit(cols[j], vals[j]);
            }
            return;
        }
        self.merge_active(op, emit);
    }

    /// Column-seek within the current row: binary-search each active part
    /// for `col`, folding the hits under `op` — the inner step of the
    /// transpose (column-extract) kernels.  `None` when the current row
    /// stores nothing in `col`.
    fn col_in_row<Op: BinaryOp<T>>(&self, col: Index, op: Op) -> Option<T> {
        let mut acc: Option<T> = None;
        for i in 0..self.active.len() {
            let (cols, vals) = self.part(i);
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

/// Per-level raw-array view used by the run-skipping sweeps: the cursor
/// position plus direct access to the four compressed arrays, so a *run*
/// of rows unique to one level costs three slice copies (or one pointer
/// subtraction, for counting) instead of a visit per row — the same trick
/// the cascade's two-way merge uses (`push_rows_bulk`), generalised to a
/// k-way frontier.
struct RawLevel<'a, T> {
    ids: &'a [Index],
    ptr: &'a [usize],
    cols: &'a [Index],
    vals: &'a [T],
    slot: usize,
}

impl<'a, T: ScalarType> RawLevel<'a, T> {
    fn open(levels: &[&'a Dcsr<T>]) -> Vec<Self> {
        levels
            .iter()
            .map(|d| {
                let (ids, ptr, cols, vals) = d.raw_parts();
                RawLevel {
                    ids,
                    ptr,
                    cols,
                    vals,
                    slot: 0,
                }
            })
            .collect()
    }

    fn head(&self) -> Option<Index> {
        self.ids.get(self.slot).copied()
    }

    /// One past the last slot whose row id stays below `bound`, found by
    /// galloping (the run is usually long when one level dominates a region
    /// of the row space, and short otherwise — gallop pays `O(log run)`
    /// either way).
    fn run_end(&self, bound: Option<Index>) -> usize {
        match bound {
            None => self.ids.len(),
            Some(b) => gallop_while(self.ids, self.slot + 1, |x| x < b),
        }
    }

    /// The column/value slices of the current head row.
    fn head_row(&self) -> (&'a [Index], &'a [T]) {
        let (lo, hi) = (self.ptr[self.slot], self.ptr[self.slot + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }
}

/// The k-way frontier state: the minimum head row, how many levels share
/// it, and the second-smallest distinct head row (the bulk-run bound).
fn frontier<T: ScalarType>(lvs: &[RawLevel<'_, T>]) -> Option<(Index, usize, Option<Index>)> {
    let mut min: Option<Index> = None;
    let mut count = 0usize;
    let mut second: Option<Index> = None;
    for lv in lvs {
        let Some(r) = lv.head() else { continue };
        match min {
            None => {
                min = Some(r);
                count = 1;
            }
            Some(m) if r == m => count += 1,
            Some(m) if r < m => {
                second = Some(m);
                min = Some(r);
                count = 1;
            }
            Some(_) => {
                if second.map_or(true, |s| r < s) {
                    second = Some(r);
                }
            }
        }
    }
    min.map(|m| (m, count, second))
}

/// Merge `levels` into one [`Dcsr`] — the materialisation kernel
/// `A = Σ_i A_i`.
///
/// Builds smallest-first through one reused [`MergeScratch`]
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

/// Number of distinct `(row, col)` cells in `Σ levels`, counted through the
/// cursors — no merged structure is built.  Runs of rows unique to one
/// level count as one `row_ptr` subtraction.
pub fn merged_nnz<T: ScalarType>(levels: &[&Dcsr<T>]) -> usize {
    let mut lvs = RawLevel::open(levels);
    let mut parts: Vec<(&[Index], &[T])> = Vec::with_capacity(levels.len());
    let mut pos: Vec<usize> = Vec::with_capacity(levels.len());
    let mut n = 0usize;
    while let Some((row, sharers, second)) = frontier(&lvs) {
        if sharers == 1 {
            let lv = lvs
                .iter_mut()
                .find(|lv| lv.head() == Some(row))
                .expect("frontier level present");
            let end = lv.run_end(second);
            n += lv.ptr[end] - lv.ptr[lv.slot];
            lv.slot = end;
        } else {
            parts.clear();
            for lv in lvs.iter_mut() {
                if lv.head() == Some(row) {
                    parts.push(lv.head_row());
                    lv.slot += 1;
                }
            }
            merge_parts(&parts, &mut pos, crate::ops::binary::First, &mut |_, _| {
                n += 1
            });
        }
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
            let (lo, hi) = (ptr[slot], ptr[slot + 1]);
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
    match parts.len() {
        0 => {}
        1 => {
            let (cols, vals) = parts[0];
            out.extend(cols.iter().copied().zip(vals.iter().copied()));
        }
        2 => {
            // Two colliding parts: the skew-aware kernel with a tuple sink,
            // so skipped spans bulk-extend `out` instead of pushing one
            // element at a time.
            let mut tally = MergeTally::default();
            let mut sink = PairSink { out };
            merge_row_adaptive(
                parts[0].0, parts[0].1, parts[1].0, parts[1].1, op, &mut sink, &mut tally,
            );
            tally.commit();
        }
        _ => {
            let mut pos = Vec::with_capacity(parts.len());
            merge_parts(&parts, &mut pos, op, &mut |c, v| out.push((c, v)));
        }
    }
}

/// Number of distinct columns in row `row` of `Σ levels`.
pub fn merged_row_degree<T: ScalarType>(levels: &[&Dcsr<T>], row: Index) -> usize {
    let parts: Vec<(&[Index], &[T])> = levels.iter().filter_map(|d| d.row(row)).collect();
    match parts.len() {
        0 => 0,
        1 => parts[0].0.len(),
        _ => {
            let mut pos = Vec::with_capacity(parts.len());
            let mut n = 0;
            merge_parts(&parts, &mut pos, crate::ops::binary::First, &mut |_, _| {
                n += 1
            });
            n
        }
    }
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
/// fold left-to-right (level order, preserving the collision order)
/// through the same skew-aware merge kernel the cascade uses — levels
/// rarely store the same column in the same rows, so the folds are mostly
/// disjoint bulk copies or galloped skips.  `O(rows · log degree)` for the
/// seeks; this is the retained fallback, the column-shadow fast path
/// answers in `O(column degree)`.
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
        let mut hit_rows: Vec<Index> = Vec::new();
        let mut hit_vals: Vec<T> = Vec::new();
        for slot in 0..ids.len() {
            let (lo, hi) = (ptr[slot], ptr[slot + 1]);
            if let Ok(j) = cols[lo..hi].binary_search(&col) {
                hit_rows.push(ids[slot]);
                hit_vals.push(vals[lo + j]);
            }
        }
        if !hit_rows.is_empty() {
            hits.push((hit_rows, hit_vals));
        }
    }
    let mut iter = hits.into_iter();
    let Some((mut acc_rows, mut acc_vals)) = iter.next() else {
        return;
    };
    let mut tally = MergeTally::default();
    let mut alt_rows: Vec<Index> = Vec::new();
    let mut alt_vals: Vec<T> = Vec::new();
    for (hit_rows, hit_vals) in iter {
        alt_rows.clear();
        alt_vals.clear();
        {
            let mut sink = PlaneSink {
                cols: &mut alt_rows,
                vals: &mut alt_vals,
            };
            merge_row_adaptive(
                &acc_rows, &acc_vals, &hit_rows, &hit_vals, op, &mut sink, &mut tally,
            );
        }
        std::mem::swap(&mut acc_rows, &mut alt_rows);
        std::mem::swap(&mut acc_vals, &mut alt_vals);
    }
    tally.commit();
    out.extend(acc_rows.iter().copied().zip(acc_vals.iter().copied()));
}

/// Number of distinct rows storing something in column `col` of
/// `Σ levels` (the column's in-degree), by column-seek sweep.
pub fn merged_col_degree<T: ScalarType>(levels: &[&Dcsr<T>], col: Index) -> usize {
    let mut cur = LevelCursors::new(levels);
    let mut n = 0;
    while cur.next_row().is_some() {
        if cur.col_in_row(col, crate::ops::binary::First).is_some() {
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
            let (lo, hi) = (ptr[slot], ptr[slot + 1]);
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
    for_each_merged(levels, crate::ops::binary::First, &mut |_, c, _| {
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

/// Column-major iteration over the columns `lo..hi` (half-open) of
/// `Σ levels` under `op`: `f(row, col, value)` fires in (col asc, row asc)
/// order.  Row-major levels cannot stream a column range directly, so this
/// fallback collects the matching cells from one merged row sweep and
/// sorts them into column-major order — the shadow fast path streams the
/// same order with no sort.
pub fn merged_col_range<T: ScalarType, Op: BinaryOp<T>>(
    levels: &[&Dcsr<T>],
    lo: Index,
    hi: Index,
    op: Op,
    f: &mut dyn FnMut(Index, Index, T),
) {
    if lo >= hi {
        return;
    }
    let mut hits: Vec<(Index, Index, T)> = Vec::new();
    for_each_merged(levels, op, &mut |r, c, v| {
        if c >= lo && c < hi {
            hits.push((c, r, v));
        }
    });
    hits.sort_unstable_by_key(|&(c, r, _)| (c, r));
    for (c, r, v) in hits {
        f(r, c, v);
    }
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
    fn merged_col_range_is_column_major() {
        let owned = sample_levels();
        let levels: Vec<&Dcsr<u64>> = owned.iter().collect();
        let reference = pairwise_reference(&levels);
        for (lo, hi) in [(0u64, u64::MAX), (2, 4), (9, 10), (5, 5), (100, 2)] {
            let mut got = Vec::new();
            merged_col_range(&levels, lo, hi, Plus, &mut |r, c, v| got.push((r, c, v)));
            let mut expect: Vec<_> = reference
                .iter()
                .filter(|&(_, c, _)| c >= lo && c < hi)
                .collect();
            expect.sort_by_key(|&(r, c, _)| (c, r));
            assert_eq!(got, expect, "cols {lo}..{hi}");
        }
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
