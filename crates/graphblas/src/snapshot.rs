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
//!   copies, while the snapshot keeps reading the captured ones;
//! * an optional **pending-tail copy** — pending tuples captured through
//!   `&self` are settled into one private tail level; and
//! * an optional **degree-index view** — the Arc-shared row stats of the
//!   source's [`DegreeIndex`], so `top_k`/`nnz`/degree answers stay
//!   O(k)/O(1) off the live path too.
//!
//! The snapshot is a [`LevelStore`] — captured levels (tail included),
//! their column twins, the captured views as stats — so it reads through
//! the same [`crate::level_read`] implementation as the live stores, and
//! every generic analytic (the `algo` module, the mixed-workload harness)
//! runs against it unchanged — the "analytics while ingest" overlap of the
//! roadmap: take a snapshot at a drain barrier, answer the sweep from it,
//! and let the ingest channel keep draining underneath.
//!
//! A level's twin is captured with it when the source held one; a level
//! captured without (the tail always) is transposed by the snapshot's
//! first column read, once.
//!
//! [`Matrix`]: crate::matrix::Matrix
//! [`MatrixReader`]: crate::reader::MatrixReader
//! [`DegreeIndex`]: crate::degree_index::DegreeIndex

use crate::degree_index::DegreeIndexView;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::level_read::LevelStore;
use crate::ops::binary::Plus;
use crate::types::ScalarType;
use std::sync::Arc;

/// A settled level and its column twin, when the source held one.
type Captured<V> = (Arc<Dcsr<V>>, Option<Arc<Dcsr<V>>>);

/// A point-in-time, independently owned view of a matrix: Arc'd settled
/// levels with their twins + optional pending tail + optional degree-index
/// views.  See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct MatrixSnapshot<V> {
    name: String,
    nrows: Index,
    ncols: Index,
    /// The captured levels, lowest first; pending tuples captured
    /// un-settled are compressed into one extra level at the end.
    levels: Vec<Arc<Dcsr<V>>>,
    /// `twins[i]` is level `i` transposed: captured, or built by the first
    /// column read.
    twins: Vec<Option<Arc<Dcsr<V>>>>,
    /// Present when the source settled before capturing (no tail then) —
    /// serves the O(1)/O(k) degree-centric answers.
    index: Option<DegreeIndexView<V>>,
    /// Arc-shared *column* stats (in-degree index) captured from sources
    /// that maintain one; same tail rule as `index`.
    col_index: Option<DegreeIndexView<V>>,
}

impl<V: ScalarType> MatrixSnapshot<V> {
    /// Assemble a snapshot from settled `levels`, each with its column twin
    /// when the source holds one.  `tail_tuples` are pending tuples not yet
    /// settled at capture (any order, duplicates allowed — they compress
    /// under `+` here); when a tail exists the degree-centric queries fall
    /// back to cursor sweeps and the `(row, column)` stats views are
    /// dropped, so sources that can settle first should.
    pub fn new(
        name: impl Into<String>,
        nrows: Index,
        ncols: Index,
        levels: Vec<Captured<V>>,
        tail_tuples: (&[Index], &[Index], &[V]),
        (index, col_index): (Option<DegreeIndexView<V>>, Option<DegreeIndexView<V>>),
    ) -> Self {
        let (mut levels, mut twins): (Vec<_>, Vec<_>) = levels.into_iter().unzip();
        let (tr, tc, tv) = tail_tuples;
        let settled = tr.is_empty();
        if !settled {
            let tail = Dcsr::from_tuples(nrows, ncols, tr, tc, tv, Plus)
                .expect("snapshot tail tuples are within bounds");
            levels.push(Arc::new(tail));
            twins.push(None);
        }
        Self {
            name: name.into(),
            nrows,
            ncols,
            levels,
            twins,
            index: index.filter(|_| settled),
            col_index: col_index.filter(|_| settled),
        }
    }

    /// The captured level structures (tail included), lowest first — for
    /// engines that k-way merge several snapshots (e.g. per-shard
    /// snapshots whose rows are disjoint).
    pub fn level_dcsrs(&self) -> Vec<&Dcsr<V>> {
        self.levels.iter().map(|a| a.as_ref()).collect()
    }

    /// True when the degree-index view serves this snapshot's degree
    /// answers (no pending tail was captured).
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// True when a column-stats view serves the in-degree answers.
    pub fn has_col_index(&self) -> bool {
        self.col_index.is_some()
    }
}

/// Snapshot queries run over the captured levels only — by construction
/// nothing here ever settles, drains or otherwise disturbs the source.  The
/// captured views are the stats (absent when a pending tail was captured,
/// so those snapshots sweep); the twins are the levels' own.
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

    fn row_stats(&mut self) -> Option<&mut DegreeIndexView<V>> {
        self.index.as_mut()
    }

    fn col_stats(&mut self) -> Option<&mut DegreeIndexView<V>> {
        self.col_index.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
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
            (&[], &[], &[]),
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
        assert!(!snap.has_index());
    }

    #[test]
    fn pending_tail_copy_compresses_and_answers() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_tuples(&[3], &[3], &[3]).unwrap();
        m.wait();
        // Captured through &self with a live pending tail (duplicates on
        // (7, 7) must combine under +).
        m.accum_tuples(&[7, 7, 3], &[7, 7, 4], &[1, 2, 4]).unwrap();
        let (pr, pc, pv) = m.pending_parts();
        let mut snap = MatrixSnapshot::new(
            "snap",
            m.nrows(),
            m.ncols(),
            vec![(m.settled_arc(), None)],
            (pr, pc, pv),
            (None, None),
        );
        assert_eq!(snap.read_nnz(), 3);
        assert_eq!(snap.read_get(7, 7), Some(3));
        assert_eq!(snap.read_get(3, 4), Some(4));
        assert_eq!(snap.read_row_degree(3), 2);
        let hist = snap.read_degree_histogram();
        assert_eq!(hist.get(&2), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));
        let mut range = Vec::new();
        snap.read_row_range(4, 100, &mut |r, c, v| range.push((r, c, v)));
        assert_eq!(range, vec![(7, 7, 3)]);
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
        cix.activate();
        cix.observe(&[7, 7, 7, 2], &[1, 2, 3, 4], &[true; 4]);
        let mut snap = MatrixSnapshot::new(
            "snap",
            m.nrows(),
            m.ncols(),
            vec![(m.settled_arc(), None)],
            (&[], &[], &[]),
            (None, Some(cix.view())),
        );
        assert!(snap.has_col_index());
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
            (&[], &[], &[]),
            (None, None),
        );
        assert!(!plain.has_col_index());
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

    /// Column answers off a level whose twin was captured, a level whose
    /// twin the snapshot transposes itself, and a pending tail, against a
    /// fresh transpose of the whole content.
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
        let tail = ([4u64, 6, 6], [7u64, 3, 3], [1u64, 1, 1]);
        let mut snap = MatrixSnapshot::new(
            "twins",
            n,
            n,
            vec![
                (held.settled_arc(), held.held_col_shadow()),
                (bare.settled_arc(), None),
            ],
            (&tail.0, &tail.1, &tail.2),
            (None, None),
        );
        let mut all = ewise_add(&held, &bare, Plus).unwrap();
        all.accum_tuples(&tail.0, &tail.1, &tail.2).unwrap();
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
        // The captured twin is the one read; the others were built once.
        assert!(Arc::ptr_eq(snap.twins[0].as_ref().unwrap(), &twin));
        assert!(snap.twins.iter().all(Option::is_some));
    }
}
