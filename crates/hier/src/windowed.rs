//! Time-windowed hierarchical matrices.
//!
//! The traffic-matrix applications the paper cites analyse *temporal
//! fluctuations* — packet counts per origin/destination per time window.
//! [`WindowedHierMatrix`] keeps one [`HierMatrix`] per fixed-length window
//! of the update stream, rotating automatically, so an analysis pipeline can
//! ask for "the matrix of the last window" or "the sum over the last k
//! windows" while the stream keeps flowing.  Each window is itself a full
//! hierarchical matrix, so per-window ingest keeps the paper's fast-memory
//! behaviour.
//!
//! Reads cover the retained windows as one level store: every window's
//! levels are the level list, so the shared read path
//! ([`hyperstream_graphblas::level_read`]) and the reader-native graph
//! algorithms run over "the last k windows" without materialising them.

use crate::config::HierConfig;
use crate::matrix::HierMatrix;
use hyperstream_graphblas::cursor::{for_each_merged, merge_levels, LevelCursors};
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::{
    DegreeIndex, DegreeIndexView, GrbResult, Index, LevelStore, Matrix, ScalarType, StreamingSink,
};
use std::collections::{BTreeMap, VecDeque};

/// A rotating sequence of hierarchical matrices, one per time window.
///
/// The reader's degree-centric answers come from a **union degree index**
/// over the retained windows.  Unlike a single hierarchy — whose index
/// maintains itself incrementally because cells never leave the union —
/// rotation *evicts* whole windows, and a cell may or may not survive in
/// other retained windows; the union index therefore follows the
/// decrement-or-rebuild rule in its simplest exact form: any mutation
/// (update, rotation, eviction) marks it stale and the next degree query
/// rebuilds it in one merged cursor sweep.  Within a query burst (the
/// analytics pattern: a batch arrives, then many queries) every answer
/// after the first is O(1)/O(k).
#[derive(Debug, Clone)]
pub struct WindowedHierMatrix<T> {
    nrows: Index,
    ncols: Index,
    config: HierConfig,
    /// Number of updates per window.
    window_updates: u64,
    /// Maximum number of retained windows (older windows are dropped).
    max_windows: usize,
    /// Closed windows, oldest first.
    closed: VecDeque<HierMatrix<T>>,
    /// The window currently receiving updates.
    current: HierMatrix<T>,
    /// Updates received by the current window.
    current_count: u64,
    /// Total windows ever closed (including dropped ones).
    windows_closed: u64,
    /// Lazily rebuilt union degree index over the retained windows.
    index: DegreeIndex<T>,
    /// True when a mutation has outdated `index`.
    index_stale: bool,
    /// Column twin of `index`: union in-degree stats over the retained
    /// windows, following the same stale-mark + wholesale-rebuild rule
    /// (eviction can remove a column's cells from one window while they
    /// survive in another, so incremental maintenance is not exact here).
    /// Rebuilt only by column-side degree queries, so row-only workloads
    /// never pay for it.
    col_index: DegreeIndex<T>,
    /// True when a mutation has outdated `col_index`.
    col_index_stale: bool,
}

impl<T: ScalarType> WindowedHierMatrix<T> {
    /// Create a windowed matrix: each window absorbs `window_updates`
    /// updates; at most `max_windows` closed windows are retained.
    pub fn new(
        nrows: Index,
        ncols: Index,
        config: HierConfig,
        window_updates: u64,
        max_windows: usize,
    ) -> GrbResult<Self> {
        Ok(Self {
            current: HierMatrix::new(nrows, ncols, config.clone())?,
            nrows,
            ncols,
            config,
            window_updates: window_updates.max(1),
            max_windows: max_windows.max(1),
            closed: VecDeque::new(),
            current_count: 0,
            windows_closed: 0,
            index: DegreeIndex::new(),
            index_stale: false,
            col_index: DegreeIndex::new(),
            col_index_stale: false,
        })
    }

    /// Number of closed windows currently retained.
    pub fn retained_windows(&self) -> usize {
        self.closed.len()
    }

    /// Total windows closed since construction (including evicted ones).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Updates absorbed by the in-progress window so far.
    pub fn current_window_updates(&self) -> u64 {
        self.current_count
    }

    /// Apply one streaming update to the current window, rotating first if
    /// the window is full.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        if self.current_count >= self.window_updates {
            self.rotate()?;
        }
        self.current.update(row, col, val)?;
        self.current_count += 1;
        self.index_stale = true;
        self.col_index_stale = true;
        Ok(())
    }

    /// Close the current window immediately (e.g. at a wall-clock boundary)
    /// and start a new one.
    pub fn rotate(&mut self) -> GrbResult<()> {
        let fresh = HierMatrix::new(self.nrows, self.ncols, self.config.clone())?;
        let finished = std::mem::replace(&mut self.current, fresh);
        self.closed.push_back(finished);
        self.windows_closed += 1;
        self.current_count = 0;
        while self.closed.len() > self.max_windows {
            // Eviction removes cells whose survival depends on the other
            // retained windows — exactly the case the union index answers
            // by rebuilding.
            self.closed.pop_front();
        }
        self.index_stale = true;
        self.col_index_stale = true;
        Ok(())
    }

    /// Materialise the `k`-th most recent *closed* window (0 = most recent).
    pub fn window(&self, k: usize) -> Option<Matrix<T>> {
        let idx = self.closed.len().checked_sub(1 + k)?;
        Some(self.closed[idx].materialize_ref())
    }

    /// Materialise the in-progress window.
    pub fn current_window(&self) -> Matrix<T> {
        self.current.materialize_ref()
    }

    /// The hierarchies covering the last `k` closed windows plus the
    /// current one (current first).
    fn recent_windows(&self, k: usize) -> Vec<&HierMatrix<T>> {
        let mut ws = vec![&self.current];
        for i in 0..k.min(self.closed.len()) {
            ws.push(&self.closed[self.closed.len() - 1 - i]);
        }
        ws
    }

    /// Materialise the sum of the last `k` closed windows plus the current
    /// one — the "recent traffic" view used for background models.
    ///
    /// All the involved windows' levels merge through the k-way cursor
    /// kernel in one pass (previously: one full `ewise_add` rebuild per
    /// window).
    pub fn recent(&self, k: usize) -> GrbResult<Matrix<T>> {
        let ws = self.recent_windows(k);
        let dcsrs: Vec<&Dcsr<T>> = ws.iter().flat_map(|w| w.level_dcsrs()).collect();
        // All windows are constructed with this matrix's dimensions, so the
        // merge cannot mismatch; the error is propagated rather than
        // swallowed so a future invariant break surfaces as a typed error.
        let merged = merge_levels(self.nrows, self.ncols, &dcsrs, Plus)?;
        let mut acc = Matrix::from_dcsr(merged);
        for w in &ws {
            w.fold_pending_into(&mut acc);
        }
        Ok(acc)
    }

    /// Per-window total weights (oldest retained first, then the current
    /// window) — the raw series for temporal-fluctuation analysis.
    pub fn weight_series(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.closed.iter().map(|w| w.total_weight()).collect();
        out.push(self.current.total_weight());
        out
    }

    /// Total weight across all *retained* windows plus the current one
    /// (weight in evicted windows is gone by design).
    pub fn total_weight_f64(&self) -> f64 {
        self.closed
            .iter()
            .map(|w| w.total_weight_f64())
            .sum::<f64>()
            + self.current.total_weight_f64()
    }

    /// Materialised union of all retained windows plus the current one.
    pub fn materialize_retained(&self) -> GrbResult<Matrix<T>> {
        self.recent(self.closed.len())
    }
}

/// The windowed insert path: `insert` feeds the current window (rotating on
/// schedule); counts and weights cover the retained windows, so a sink
/// driven past its retention horizon reports less than it ingested — by
/// design, since windowing is the paper's temporal-analysis mode.
impl<T: ScalarType> StreamingSink<T> for WindowedHierMatrix<T> {
    fn sink_name(&self) -> &str {
        "hier-graphblas-windowed"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.update(row, col, val)
    }

    fn flush(&mut self) -> GrbResult<()> {
        // Completing deferred work means finishing cascades in every
        // retained hierarchy; the window schedule itself is not advanced.
        for w in &mut self.closed {
            w.flush()?;
        }
        self.current.flush()
    }

    fn nvals(&self) -> usize {
        // Infallible trait signature over a now-fallible materialisation:
        // the merge can only fail on a dimension-invariant break, in which
        // case report nothing rather than panic.
        self.materialize_retained().map(|m| m.nvals()).unwrap_or(0)
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

/// The windowed read path: queries cover the *retained* windows plus the
/// current one (evicted windows are gone by design, matching the sink's
/// totals).  The level list is every retained window's levels, the twins
/// every window's per-level column shadows (Arc-cached, so a query burst
/// between rotations builds them once), and the stats the two lazily
/// rebuilt union indexes.  Every `read_*` body — and `CursorReader`, so
/// the graph algorithms run over the retained windows — is the shared one.
impl<T: ScalarType> LevelStore for WindowedHierMatrix<T> {
    type Value = T;

    fn store_name(&self) -> &str {
        "hier-graphblas-windowed"
    }

    fn store_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        self.settle_windows();
        f(&Self::retained_dcsrs(&self.closed, &self.current))
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        let mut shadows = Vec::new();
        for w in self.closed.iter_mut().chain([&mut self.current]) {
            shadows.extend(w.settled_col_shadows());
        }
        let twins: Vec<&Dcsr<T>> = shadows.iter().map(|s| s.as_ref()).collect();
        f(&twins)
    }

    fn row_stats(&mut self) -> Option<&mut DegreeIndexView<T>> {
        self.refresh_index();
        Some(self.index.view_mut())
    }

    fn col_stats(&mut self) -> Option<&mut DegreeIndexView<T>> {
        self.refresh_col_index();
        Some(self.col_index.view_mut())
    }
}

impl<T: ScalarType> WindowedHierMatrix<T> {
    /// Settle every retained window's pending tuples.
    fn settle_windows(&mut self) {
        for w in self.closed.iter_mut().chain([&mut self.current]) {
            w.settle_levels();
        }
    }

    /// Every retained window's level DCSRs, oldest window first — callers
    /// must have settled first ([`WindowedHierMatrix::settle_windows`]).
    /// Borrows only the windows, so an index can be refilled alongside.
    fn retained_dcsrs<'a>(
        closed: &'a VecDeque<HierMatrix<T>>,
        current: &'a HierMatrix<T>,
    ) -> Vec<&'a Dcsr<T>> {
        closed
            .iter()
            .chain([current])
            .flat_map(|w| w.level_dcsrs())
            .collect()
    }

    /// Rebuild the union index if any mutation outdated it: one merged
    /// cursor sweep over every retained window's levels, emitting each
    /// union row's degree and weight straight into the index (the entries
    /// are already deduplicated, so the rebuild skips the cell oracle).
    fn refresh_index(&mut self) {
        if !self.index_stale {
            return;
        }
        self.settle_windows();
        self.index.clear();
        let dcsrs = Self::retained_dcsrs(&self.closed, &self.current);
        let mut cur = LevelCursors::new(&dcsrs);
        while let Some(row) = cur.next_row() {
            let mut degree = 0u64;
            let mut weight = T::default();
            cur.fold_row(Plus, &mut |_, v| {
                degree += 1;
                weight = weight.add(v);
            });
            self.index.add_unique_row(row, degree, weight);
        }
        self.index_stale = false;
    }

    /// Rebuild the union *column* index if any mutation outdated it — the
    /// transpose mirror of [`WindowedHierMatrix::refresh_index`].  A
    /// row-major union sweep does not group columns the way it groups rows,
    /// so the rebuild first accumulates per-column (degree, weight) in a
    /// map, then bulk-loads the already-deduplicated stats.
    fn refresh_col_index(&mut self) {
        if !self.col_index_stale {
            return;
        }
        self.settle_windows();
        self.col_index.clear();
        let mut cols: BTreeMap<Index, (u64, T)> = BTreeMap::new();
        let dcsrs = Self::retained_dcsrs(&self.closed, &self.current);
        for_each_merged(&dcsrs, Plus, &mut |_, c, v| {
            let slot = cols.entry(c).or_insert((0, T::default()));
            slot.0 += 1;
            slot.1 = slot.1.add(v);
        });
        for (c, (degree, weight)) in cols {
            self.col_index.add_unique_row(c, degree, weight);
        }
        self.col_index_stale = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperstream_graphblas::cursor::*;
    use hyperstream_graphblas::MatrixReader;

    fn windowed(window: u64, max: usize) -> WindowedHierMatrix<u64> {
        WindowedHierMatrix::new(
            1 << 20,
            1 << 20,
            HierConfig::from_cuts(vec![16, 128]).unwrap(),
            window,
            max,
        )
        .unwrap()
    }

    #[test]
    fn windows_rotate_automatically() {
        let mut w = windowed(100, 8);
        for i in 0..350u64 {
            w.update(i % 50, i % 70, 1).unwrap();
        }
        assert_eq!(w.windows_closed(), 3);
        assert_eq!(w.retained_windows(), 3);
        assert_eq!(w.current_window_updates(), 50);
        let series = w.weight_series();
        assert_eq!(series, vec![100, 100, 100, 50]);
    }

    #[test]
    fn eviction_respects_max_windows() {
        let mut w = windowed(10, 2);
        for i in 0..100u64 {
            w.update(i, i, 1).unwrap();
        }
        assert_eq!(w.retained_windows(), 2);
        assert_eq!(w.windows_closed(), 9);
    }

    #[test]
    fn window_access_most_recent_first() {
        let mut w = windowed(10, 4);
        // First window hits cell (1,1), second hits (2,2).
        for _ in 0..10 {
            w.update(1, 1, 1).unwrap();
        }
        for _ in 0..10 {
            w.update(2, 2, 1).unwrap();
        }
        w.rotate().unwrap();
        let most_recent = w.window(0).unwrap();
        assert_eq!(most_recent.get(2, 2), Some(10));
        assert_eq!(most_recent.get(1, 1), None);
        let older = w.window(1).unwrap();
        assert_eq!(older.get(1, 1), Some(10));
        assert!(w.window(2).is_none());
    }

    #[test]
    fn recent_sums_windows_and_current() {
        let mut w = windowed(10, 4);
        for _ in 0..25 {
            w.update(7, 7, 1).unwrap();
        }
        // Two closed windows (10 + 10) and 5 in the current one.
        let last1 = w.recent(1).unwrap();
        assert_eq!(last1.get(7, 7), Some(15));
        let last2 = w.recent(2).unwrap();
        assert_eq!(last2.get(7, 7), Some(25));
        let current_only = w.recent(0).unwrap();
        assert_eq!(current_only.get(7, 7), Some(5));
    }

    #[test]
    fn streaming_sink_reports_retained_totals() {
        let mut w = windowed(10, 4);
        let sink: &mut dyn StreamingSink<u64> = &mut w;
        for i in 0..25u64 {
            sink.insert(i % 3, i % 3, 1).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "hier-graphblas-windowed");
        // Nothing evicted yet (2 closed + current ≤ 4 retained).
        assert_eq!(sink.total_weight(), 25.0);
        assert_eq!(sink.nvals(), 3);
    }

    #[test]
    fn sink_totals_drop_evicted_windows() {
        let mut w = windowed(10, 2);
        for i in 0..50u64 {
            StreamingSink::insert(&mut w, i, i, 1).unwrap();
        }
        // 4 closed windows (2 evicted) + current: 2 * 10 + 10 remain.
        assert_eq!(w.total_weight_f64(), 30.0);
        assert_eq!(w.materialize_retained().unwrap().nvals(), 30);
    }

    #[test]
    fn reader_covers_retained_windows() {
        let mut w = windowed(10, 2);
        for i in 0..50u64 {
            w.update(i % 4, 7, 1).unwrap();
        }
        // 4 closed (2 evicted) + current: reader answers must equal the
        // materialised retained union.
        let snap = w.materialize_retained().unwrap();
        assert_eq!(w.read_nnz(), snap.nvals());
        assert_eq!(w.read_get(0, 7), snap.get(0, 7));
        let mut row = Vec::new();
        w.read_row(2, &mut row);
        let (cols, vals) = snap.dcsr().row(2).unwrap();
        let expect: Vec<(u64, u64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        assert_eq!(row, expect);
        assert_eq!(w.read_row_degree(2), 1);
        assert_eq!(w.read_row_reduce(2), snap.get(2, 7));
        assert_eq!(w.read_top_k(1).len(), 1);
        let mut total = 0u64;
        w.read_entries(&mut |_, _, v| total += v);
        assert_eq!(total as f64, w.total_weight_f64());
    }

    #[test]
    fn union_index_survives_rotation_and_eviction() {
        let mut w = windowed(25, 2);
        for i in 0..170u64 {
            // Cells recur across windows, so eviction removes some cells
            // that survive in other windows and some that do not.
            w.update(i % 7, (i * 3) % 11, 1).unwrap();
            if i % 40 == 39 {
                assert_eq!(w.read_nnz(), w.with_levels(merged_nnz), "at update {i}");
                assert_eq!(
                    w.read_top_k(4),
                    w.with_levels(|lv| merged_top_k(lv, 4)),
                    "at update {i}"
                );
            }
        }
        // Evictions happened (6 closed, 2 retained).
        assert_eq!(w.windows_closed(), 6);
        assert_eq!(w.retained_windows(), 2);
        for row in 0u64..8 {
            assert_eq!(
                w.read_row_degree(row),
                w.with_levels(|lv| merged_row_degree(lv, row)),
                "{row}"
            );
            assert_eq!(
                w.read_row_reduce(row),
                w.with_levels(|lv| merged_row_reduce(lv, row, Plus)),
                "{row}"
            );
        }
        assert_eq!(
            w.read_degree_histogram(),
            w.with_levels(merged_degree_histogram)
        );
        // Manual rotation invalidates the cached index too.
        let before = w.read_nnz();
        w.rotate().unwrap();
        w.rotate().unwrap();
        w.rotate().unwrap();
        // All content evicted: three empty windows pushed the full ones out.
        assert_eq!(w.read_nnz(), w.with_levels(merged_nnz));
        assert!(w.read_nnz() < before);
    }

    #[test]
    fn union_col_index_survives_rotation_and_eviction() {
        let mut w = windowed(25, 2);
        for i in 0..170u64 {
            w.update(i % 7, (i * 3) % 11, 1).unwrap();
            if i % 40 == 39 {
                assert_eq!(
                    w.read_in_top_k(4),
                    w.with_levels(|lv| merged_in_top_k(lv, 4)),
                    "at update {i}"
                );
            }
        }
        assert_eq!(w.windows_closed(), 6);
        for col in 0u64..12 {
            assert_eq!(
                w.read_col_degree(col),
                w.with_levels(|lv| merged_col_degree(lv, col)),
                "{col}"
            );
            assert_eq!(
                w.read_col_reduce(col),
                w.with_levels(|lv| merged_col_reduce(lv, col, Plus)),
                "{col}"
            );
            let mut got = Vec::new();
            w.read_col(col, &mut got);
            let mut sweep = Vec::new();
            w.with_levels(|lv| merged_col_into(lv, col, Plus, &mut sweep));
            assert_eq!(got, sweep, "{col}");
        }
        assert_eq!(
            w.read_in_degree_histogram(),
            w.with_levels(merged_in_degree_histogram)
        );
        // Rotating everything out empties the column answers too.
        w.rotate().unwrap();
        w.rotate().unwrap();
        w.rotate().unwrap();
        assert!(w.read_in_top_k(3).is_empty());
        assert_eq!(w.read_col_degree(5), 0);
    }

    #[test]
    fn windowed_col_range_and_batched_reads() {
        let mut w = windowed(30, 3);
        for i in 0..100u64 {
            w.update(i % 50, i % 9, 1).unwrap();
        }
        let mut all = Vec::new();
        w.read_entries(&mut |r, c, v| all.push((r, c, v)));
        // Column-range answers are column-major over the union.
        let mut got = Vec::new();
        w.read_col_range(3, 7, &mut |r, c, v| got.push((r, c, v)));
        let mut expect: Vec<_> = all
            .iter()
            .copied()
            .filter(|&(_, c, _)| (3..7).contains(&c))
            .collect();
        expect.sort_by_key(|&(r, c, _)| (c, r));
        assert_eq!(got, expect);
        // Batched reads match their single-query counterparts.
        let rows = [0u64, 13, 49, 60];
        let batch = w.read_rows(&rows);
        for (i, &row) in rows.iter().enumerate() {
            let mut single = Vec::new();
            w.read_row(row, &mut single);
            assert_eq!(batch[i], single, "row {row}");
        }
        let keys = [(0u64, 0u64), (13, 4), (49, 8), (60, 1)];
        let got = w.read_get_many(&keys);
        let expect: Vec<Option<u64>> = keys.iter().map(|&(r, c)| w.read_get(r, c)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn windowed_row_range_matches_filter() {
        let mut w = windowed(30, 3);
        for i in 0..100u64 {
            w.update(i % 50, i % 9, 1).unwrap();
        }
        let mut all = Vec::new();
        w.read_entries(&mut |r, c, v| all.push((r, c, v)));
        let mut got = Vec::new();
        w.read_row_range(10, 20, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<_> = all
            .iter()
            .copied()
            .filter(|&(r, _, _)| (10..20).contains(&r))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn manual_rotate_on_empty_window_is_allowed() {
        let mut w = windowed(10, 4);
        w.rotate().unwrap();
        assert_eq!(w.windows_closed(), 1);
        assert_eq!(w.weight_series(), vec![0, 0]);
    }
}
