//! Consistent point-in-time read snapshots of a streaming matrix.
//!
//! A [`MatrixSnapshot`] is the answer to the read path's `&mut self`
//! exclusivity: every [`MatrixReader`] method may settle or drain before
//! answering, so a long full-matrix sweep holds the matrix (or a shard
//! worker's whole channel) for its entire duration.  A snapshot instead
//! captures, in O(levels):
//!
//! * **Arc'd settled levels** — shared handles to the levels' compressed
//!   structures
//!   ([`Matrix::settled_arc`](crate::matrix::Matrix::settled_arc)); the
//!   owning matrix keeps cascading and settling, copy-on-writing its own
//!   copies, while the snapshot keeps reading the captured ones; and
//! * an optional **degree-index view** per side — the Arc-shared stats of
//!   the source's [`DegreeIndex`], so `top_k`/`nnz`/degree answers stay
//!   O(k)/O(1) off the live path too.
//!
//! A source settles before it captures, so the levels are the whole
//! content and a view, when the source holds one, is current with them.
//! The snapshot is a [`LevelStore`] — captured levels, their column twins,
//! the captured views as stats — so it reads through
//! the same [`crate::level_read`] implementation as the live stores, and
//! every generic analytic (the `algo` module, the mixed-workload harness)
//! runs against it unchanged — the "analytics while ingest" overlap of the
//! roadmap: take a snapshot at a drain barrier, answer the sweep from it,
//! and let the ingest channel keep draining underneath.
//!
//! A level's twin is captured with it when the source held one; a level
//! captured without is transposed by the snapshot's first column read,
//! once.
//!
//! [`Matrix`]: crate::matrix::Matrix
//! [`MatrixReader`]: crate::reader::MatrixReader
//! [`DegreeIndex`]: crate::degree_index::DegreeIndex

use crate::degree_index::DegreeIndexView;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::level_read::{LevelStore, Side};
use crate::types::ScalarType;
use std::sync::Arc;

/// A settled level and its column twin, when the source held one.
type Captured<V> = (Arc<Dcsr<V>>, Option<Arc<Dcsr<V>>>);

/// A side's captured stats view, when it serves that side.
type Stats<'a, V> = Option<&'a mut DegreeIndexView<V>>;

/// A point-in-time, independently owned view of a matrix: Arc'd settled
/// levels with their twins + optional degree-index views.  See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct MatrixSnapshot<V> {
    name: String,
    nrows: Index,
    ncols: Index,
    /// The captured levels, lowest first.
    levels: Vec<Arc<Dcsr<V>>>,
    /// `twins[i]` is level `i` transposed: captured, or built by the first
    /// column read.
    twins: Vec<Option<Arc<Dcsr<V>>>>,
    /// The source's row stats, when it held them — serves the O(1)/O(k)
    /// degree-centric answers.
    index: Option<DegreeIndexView<V>>,
    /// Arc-shared *column* stats (in-degree index), when the source held
    /// them.
    col_index: Option<DegreeIndexView<V>>,
}

impl<V: ScalarType> MatrixSnapshot<V> {
    /// Assemble a snapshot from settled `levels`, each with its column twin
    /// when the source holds one, and the `(row, column)` stats views the
    /// source holds current with them.
    pub fn new(
        name: impl Into<String>,
        nrows: Index,
        ncols: Index,
        levels: Vec<Captured<V>>,
        (index, col_index): (Option<DegreeIndexView<V>>, Option<DegreeIndexView<V>>),
    ) -> Self {
        let (levels, twins) = levels.into_iter().unzip();
        Self {
            name: name.into(),
            nrows,
            ncols,
            levels,
            twins,
            index,
            col_index,
        }
    }

    /// The captured level structures, lowest first — for
    /// engines that k-way merge several snapshots (e.g. per-shard
    /// snapshots whose rows are disjoint).
    pub fn level_dcsrs(&self) -> Vec<&Dcsr<V>> {
        self.levels.iter().map(|a| a.as_ref()).collect()
    }

    /// The captured `(row, column)` stats views, each present when the
    /// source held that side's index.
    pub fn stats_mut(&mut self) -> (Stats<'_, V>, Stats<'_, V>) {
        (self.index.as_mut(), self.col_index.as_mut())
    }
}

/// Snapshot queries run over the captured levels only — by construction
/// nothing here ever settles, drains or otherwise disturbs the source.  The
/// captured views are the stats (a side captured without one sweeps); the
/// twins are the levels' own.
impl<V: ScalarType> LevelStore for MatrixSnapshot<V> {
    type Value = V;

    fn store_name(&self) -> &str {
        &self.name
    }

    fn store_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<V>]) -> R) -> R {
        f(&self.level_dcsrs())
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<V>]) -> R) -> R {
        let twins: Vec<&Dcsr<V>> = self
            .levels
            .iter()
            .zip(&mut self.twins)
            .map(|(level, twin)| &**twin.get_or_insert_with(|| Arc::new(level.transposed())))
            .collect();
        f(&twins)
    }

    fn with_stats<R>(
        &mut self,
        side: Side,
        f: impl FnOnce(&mut [&mut DegreeIndexView<V>]) -> R,
    ) -> Option<R> {
        let (rows, cols) = self.stats_mut();
        Some(f(&mut [if side == Side::Rows { rows } else { cols }?]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;
    use crate::reader::MatrixReader;

    #[test]
    fn snapshot_is_immune_to_source_mutation() {
        let mut m = Matrix::<u64>::new(1 << 20, 1 << 20);
        m.accum_tuples(&[1, 1, 5], &[1, 2, 5], &[10, 20, 50])
            .unwrap();
        m.wait();
        let mut snap = MatrixSnapshot::new(
            "snap",
            m.nrows(),
            m.ncols(),
            vec![(m.settled_arc(), None)],
            (None, None),
        );
        // Mutate the source: copy-on-write must leave the snapshot alone.
        m.accum_element(9, 9, 99).unwrap();
        m.wait();
        assert_eq!(m.nvals(), 4);
        assert_eq!(snap.read_nnz(), 3);
        assert_eq!(snap.read_get(1, 2), Some(20));
        assert_eq!(snap.read_get(9, 9), None);
        assert_eq!(snap.read_row_degree(1), 2);
        assert_eq!(snap.read_row_reduce(1), Some(30));
        assert_eq!(snap.read_top_k(1), vec![(1, 2)]);
        let mut got = Vec::new();
        snap.read_entries(&mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, vec![(1, 1, 10), (1, 2, 20), (5, 5, 50)]);
        assert_eq!(snap.read_dims(), (1 << 20, 1 << 20));
        assert_eq!(snap.reader_name(), "snap");
        assert!(snap.stats_mut().0.is_none());
    }

    #[test]
    fn snapshot_column_reads_with_and_without_view() {
        use crate::degree_index::DegreeIndex;
        let mut m = Matrix::<u64>::new(1 << 20, 1 << 20);
        m.accum_tuples(&[1, 2, 5, 9], &[7, 7, 7, 2], &[1, 2, 3, 4])
            .unwrap();
        m.wait();
        // An Arc-shared column view captured alongside the levels.
        let mut cix = DegreeIndex::<u64>::new();
        cix.observe(&[7, 7, 7, 2], &[1, 2, 3, 4], &[true; 4]);
        let mut snap = MatrixSnapshot::new(
            "snap",
            m.nrows(),
            m.ncols(),
            vec![(m.settled_arc(), None)],
            (None, Some(cix.view().clone())),
        );
        assert!(snap.stats_mut().1.is_some());
        assert_eq!(snap.read_col_degree(7), 3);
        assert_eq!(snap.read_col_reduce(7), Some(6));
        assert_eq!(snap.read_in_top_k(1), vec![(7, 3)]);
        let mut col = Vec::new();
        snap.read_col(7, &mut col);
        assert_eq!(col, vec![(1, 1), (2, 2), (5, 3)]);
        // The source keeps mutating; the snapshot keeps its capture.
        m.accum_element(3, 7, 9).unwrap();
        m.wait();
        snap.read_col(7, &mut col);
        assert_eq!(col, vec![(1, 1), (2, 2), (5, 3)]);
        assert_eq!(snap.read_col_degree(7), 3);
        // Without a view the lazily-built shadow serves the same answers.
        let mut plain = MatrixSnapshot::new(
            "plain",
            m.nrows(),
            m.ncols(),
            vec![(m.settled_arc(), None)],
            (None, None),
        );
        assert!(plain.stats_mut().1.is_none());
        assert_eq!(plain.read_col_degree(7), 4);
        assert_eq!(plain.read_in_top_k(1), vec![(7, 4)]);
        let hist = plain.read_in_degree_histogram();
        assert_eq!(hist.get(&4), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));
        let mut got = Vec::new();
        plain.read_col_range(0, 8, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(
            got,
            vec![(9, 2, 4), (1, 7, 1), (2, 7, 2), (3, 7, 9), (5, 7, 3)]
        );
    }

    /// Column answers off a level whose twin was captured and a level whose
    /// twin the snapshot transposes itself, against a fresh transpose of the
    /// whole content.
    #[test]
    fn captured_and_lazy_twins_answer_like_a_fresh_transpose() {
        use crate::ops::ewise_add::ewise_add;
        use crate::ops::transpose::transpose;
        let n = 1 << 20;
        let mut held = Matrix::<u64>::new(n, n);
        held.accum_tuples(&[1, 2, 5, 9, 9], &[7, 7, 3, 2, 7], &[1, 2, 3, 4, 5])
            .unwrap();
        let twin = held.col_shadow();
        assert!(held
            .held_col_shadow()
            .is_some_and(|t| Arc::ptr_eq(&t, &twin)));
        let mut bare = Matrix::<u64>::new(n, n);
        bare.accum_tuples(&[2, 4, 9], &[7, 7, 11], &[10, 20, 30])
            .unwrap();
        bare.wait();
        assert!(bare.held_col_shadow().is_none());
        let mut snap = MatrixSnapshot::new(
            "twins",
            n,
            n,
            vec![
                (held.settled_arc(), held.held_col_shadow()),
                (bare.settled_arc(), None),
            ],
            (None, None),
        );
        let all = ewise_add(&held, &bare, Plus).unwrap();
        let t = transpose(&all);
        let mut col = Vec::new();
        for c in [2, 3, 7, 11, 12] {
            snap.read_col(c, &mut col);
            let want: Vec<(u64, u64)> = t
                .dcsr()
                .row(c)
                .map(|(rows, vals)| rows.iter().copied().zip(vals.iter().copied()).collect())
                .unwrap_or_default();
            assert_eq!(col, want, "column {c}");
        }
        let mut got = Vec::new();
        snap.read_col_range(0, n, &mut |r, c, v| got.push((c, r, v)));
        let (tr, tc, tv) = t.extract_tuples();
        let want: Vec<(u64, u64, u64)> = tr
            .into_iter()
            .zip(tc)
            .zip(tv)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        assert_eq!(got, want);
        // The captured twin is the one read; the other was built once.
        assert!(Arc::ptr_eq(snap.twins[0].as_ref().unwrap(), &twin));
        assert!(snap.twins.iter().all(Option::is_some));
    }
}
