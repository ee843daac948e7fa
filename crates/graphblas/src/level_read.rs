//! The one read path of every store whose content is `Σ levels`.
//!
//! A flat [`Matrix`](crate::matrix::Matrix), a
//! [`MatrixSnapshot`](crate::snapshot::MatrixSnapshot), a hierarchy and a
//! windowed hierarchy all represent their matrix as a list of settled
//! row-major [`Dcsr`] levels summed under `+`.  How such a store answers
//! each read kind is one decision, made here once:
//!
//! * **extracts and scans** (point, row, entries, row range, batched rows
//!   and gets) fold the level list through the [`crate::cursor`] kernels;
//! * **degree-centric answers** (nnz, degree, reduce, top-k, histogram)
//!   come from the store's [`DegreeIndexView`] when it has one, else from
//!   a cursor sweep — which is observed ("is a stats view present"), never
//!   configured.  In debug builds every indexed answer is re-derived from
//!   the row-major levels;
//! * **the column half of the vocabulary is the row half on the other
//!   side**: the column twins are the levels of the transpose, row-major
//!   in `(col, row)`, so `read_col` is a row extract on the twins,
//!   `read_col_range` a row range with the emit swapped back, and the
//!   column degree answers the stats-or-sweep answer of the column side.
//!
//! A store implements [`LevelStore`] — only what actually differs: name
//! and dims, where its levels, twins and optional stats come from — and
//! gets [`MatrixReader`] and [`CursorReader`] from the blanket impls below.

use crate::cursor::{
    for_each_merged, merged_col_degree, merged_col_into, merged_col_reduce,
    merged_degree_histogram, merged_in_degree_histogram, merged_in_top_k, merged_nnz, merged_point,
    merged_row_degree, merged_row_into, merged_row_range, merged_row_reduce, merged_top_k,
};
use crate::degree_index::DegreeIndexView;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::ops::binary::Plus;
use crate::reader::{CursorReader, MatrixReader};
use crate::types::ScalarType;
use std::collections::BTreeMap;

/// A store whose represented matrix is `Σ levels` under the `+` monoid of
/// its [`Value`](LevelStore::Value) type.  Every accessor first completes the store's cheap deferred work
/// (settle a pending buffer, refresh a stale index, build a missing twin);
/// none of them changes the represented matrix.
///
/// Levels and stats are separate accessors so that an index-served answer
/// never pays for collecting the level list.
pub trait LevelStore {
    /// The stored scalar type.
    type Value: ScalarType;

    /// Short system name used in reports.
    fn store_name(&self) -> &str;

    /// Logical `(nrows, ncols)`.
    fn store_dims(&self) -> (Index, Index);

    /// The settled row-major levels.  Row ids and in-row columns are sorted
    /// within each level; a cell may sit in several levels.
    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<Self::Value>]) -> R) -> R;

    /// The column twins: the levels of the transpose, row-major in
    /// `(col, row)`.  Any level decomposition of the transposed content
    /// will do — one twin per level, or one for the whole store.
    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<Self::Value>]) -> R) -> R;

    /// Per-row stats covering the whole content, when the store keeps them.
    fn row_stats(&mut self) -> Option<&mut DegreeIndexView<Self::Value>> {
        None
    }

    /// Per-column stats covering the whole content, when the store keeps
    /// them.
    fn col_stats(&mut self) -> Option<&mut DegreeIndexView<Self::Value>> {
        None
    }

    /// Value at `(row, col)`.  Override only to answer without settling.
    fn point_get(&mut self, row: Index, col: Index) -> Option<Self::Value> {
        self.with_levels(|lv| merged_point(lv, row, col, Plus))
    }
}

/// Which half of the vocabulary a read belongs to: keyed by row over the
/// levels, or keyed by column over the twins.
#[derive(Clone, Copy)]
enum Side {
    Rows,
    Cols,
}

impl Side {
    fn stats<S: LevelStore>(self, s: &mut S) -> Option<&mut DegreeIndexView<S::Value>> {
        match self {
            Side::Rows => s.row_stats(),
            Side::Cols => s.col_stats(),
        }
    }

    fn with_levels<S: LevelStore, R>(
        self,
        s: &mut S,
        f: impl FnOnce(&[&Dcsr<S::Value>]) -> R,
    ) -> R {
        match self {
            Side::Rows => s.with_levels(f),
            Side::Cols => s.with_twins(f),
        }
    }
}

/// Two `+`-reductions agree: exactly for the integer scalars, to relative
/// rounding for `f64` (the stats fold in arrival order, a sweep in level
/// order).
fn reduce_agrees<V: ScalarType>(a: &Option<V>, b: &Option<V>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let (x, y) = (x.to_f64(), y.to_f64());
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => false,
    }
}

/// A degree-centric answer for `side`: `indexed` off the side's stats when
/// the store has them, else `sweep` — a row kernel — over the side's own
/// levels.  Debug builds re-derive every indexed answer from the row-major
/// levels (`sweep` again for the row side, `col_sweep` for the column
/// side, so the check never builds a twin) and compare with `agrees`.
fn stats_or_sweep<S: LevelStore, R: std::fmt::Debug>(
    s: &mut S,
    side: Side,
    indexed: impl FnOnce(&mut DegreeIndexView<S::Value>) -> R,
    sweep: impl Fn(&[&Dcsr<S::Value>]) -> R,
    col_sweep: impl Fn(&[&Dcsr<S::Value>]) -> R,
    agrees: impl Fn(&R, &R) -> bool,
) -> R {
    let Some(stats) = side.stats(s) else {
        return side.with_levels(s, sweep);
    };
    let answer = indexed(stats);
    debug_assert!(
        {
            let swept = s.with_levels(|lv| match side {
                Side::Rows => sweep(lv),
                Side::Cols => col_sweep(lv),
            });
            agrees(&answer, &swept)
        },
        "stats answer {answer:?} diverged from the level sweep"
    );
    answer
}

fn degree<S: LevelStore>(s: &mut S, side: Side, key: Index) -> usize {
    stats_or_sweep(
        s,
        side,
        |ix| ix.row_degree(key),
        |lv| merged_row_degree(lv, key),
        |lv| merged_col_degree(lv, key),
        PartialEq::eq,
    )
}

fn reduce<S: LevelStore>(s: &mut S, side: Side, key: Index) -> Option<S::Value> {
    stats_or_sweep(
        s,
        side,
        |ix| ix.row_weight(key),
        |lv| merged_row_reduce(lv, key, Plus),
        |lv| merged_col_reduce(lv, key, Plus),
        reduce_agrees,
    )
}

fn top_k<S: LevelStore>(s: &mut S, side: Side, k: usize) -> Vec<(Index, usize)> {
    stats_or_sweep(
        s,
        side,
        |ix| ix.top_k(k),
        |lv| merged_top_k(lv, k),
        |lv| merged_in_top_k(lv, k),
        PartialEq::eq,
    )
}

fn histogram<S: LevelStore>(s: &mut S, side: Side) -> BTreeMap<u64, u64> {
    stats_or_sweep(
        s,
        side,
        |ix| ix.degree_histogram(),
        merged_degree_histogram,
        merged_in_degree_histogram,
        PartialEq::eq,
    )
}

impl<S: LevelStore> MatrixReader<S::Value> for S {
    fn reader_name(&self) -> &str {
        self.store_name()
    }

    fn read_dims(&self) -> (Index, Index) {
        self.store_dims()
    }

    fn read_get(&mut self, row: Index, col: Index) -> Option<S::Value> {
        self.point_get(row, col)
    }

    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, S::Value)>) {
        self.with_levels(|lv| merged_row_into(lv, row, Plus, out));
    }

    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_levels(|lv| for_each_merged(lv, Plus, f));
    }

    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_levels(|lv| merged_row_range(lv, lo, hi, Plus, f));
    }

    fn read_nnz(&mut self) -> usize {
        stats_or_sweep(
            self,
            Side::Rows,
            |ix| ix.nnz(),
            merged_nnz,
            merged_nnz,
            PartialEq::eq,
        )
    }

    fn read_row_degree(&mut self, row: Index) -> usize {
        degree(self, Side::Rows, row)
    }

    fn read_row_reduce(&mut self, row: Index) -> Option<S::Value> {
        reduce(self, Side::Rows, row)
    }

    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        top_k(self, Side::Rows, k)
    }

    fn read_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        histogram(self, Side::Rows)
    }

    /// A row extract on the twins: one binary search per twin, then a
    /// k-way merge of the per-twin column runs.
    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, S::Value)>) {
        self.with_twins(|lv| merged_row_into(lv, col, Plus, out));
        debug_assert_eq!(
            *out,
            self.with_levels(|lv| {
                let mut swept = Vec::new();
                merged_col_into(lv, col, Plus, &mut swept);
                swept
            }),
            "column twin diverged from the row-major levels for column {col}"
        );
    }

    fn read_col_degree(&mut self, col: Index) -> usize {
        degree(self, Side::Cols, col)
    }

    fn read_col_reduce(&mut self, col: Index) -> Option<S::Value> {
        reduce(self, Side::Cols, col)
    }

    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        top_k(self, Side::Cols, k)
    }

    fn read_in_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        histogram(self, Side::Cols)
    }

    /// A row-range walk over the twins is already the column-major
    /// contract order; only the emit swaps back to `(row, col, value)`.
    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_twins(|lv| merged_row_range(lv, lo, hi, Plus, &mut |c, r, v| f(r, c, v)));
    }

    /// One settle for the whole batch.
    fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, S::Value)>> {
        self.with_levels(|lv| {
            rows.iter()
                .map(|&row| {
                    let mut out = Vec::new();
                    merged_row_into(lv, row, Plus, &mut out);
                    out
                })
                .collect()
        })
    }

    /// One settle, then two binary searches per key per level.
    fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<S::Value>> {
        self.with_levels(|lv| {
            keys.iter()
                .map(|&(row, col)| merged_point(lv, row, col, Plus))
                .collect()
        })
    }
}

/// The settled levels *are* the cursor form the reader-native semiring
/// kernels build on.
impl<S: LevelStore> CursorReader<S::Value> for S {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<S::Value>])) {
        self.with_levels(|lv| f(lv));
    }
}
