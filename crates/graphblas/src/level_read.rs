//! The one read path of every store whose content is `Σ levels`.
//!
//! A flat [`Matrix`](crate::matrix::Matrix), a
//! [`MatrixSnapshot`](crate::snapshot::MatrixSnapshot), a hierarchy and a
//! sharded engine's joined captures all represent their matrix as a list
//! of settled row-major [`Dcsr`] levels summed under `+`.  How such a
//! store answers each [`Query`] kind is one decision, made here once, in
//! one `match` ([`MatrixReader::answer`] of the blanket impl below):
//!
//! * **extracts and scans** (point, row, entries, row range) fold the level
//!   list through the [`crate::cursor`] kernels;
//!   the visitor kinds' answers collect what the visit emits;
//! * **degree-centric answers** (nnz, degree, reduce, top-k, histogram)
//!   come from the store's stats when it has them, else from a cursor
//!   sweep — which is observed ("are stats present"), never configured.
//!   Stats are key-disjoint [`DegreeIndexView`] parts, combined here alone:
//!   counts add, a top-k is the top-k of the parts' top-k's, bins add.  In
//!   debug builds every indexed answer, combined or not, is re-derived
//!   from the row-major levels;
//! * **the column half of the vocabulary is the row half on the other
//!   side**: the column twins are the levels of the transpose, row-major
//!   in `(col, row)`, so a column is a row extract on the twins (checked
//!   against the row-major levels in debug builds), a column range a row
//!   range with the emit swapped back, and the column degree answers the
//!   stats-or-sweep answer of the column side.
//!
//! Besides `answer` the impl keeps `read_row` and `read_col`, on the same
//! helpers as the `Row` and `Col` arms, so an extract into a caller's
//! reused buffer allocates nothing, and the three visitors
//! (`read_entries`, `read_row_range`, `read_col_range`), which hand each
//! entry straight to the caller and which the `Entries`, `RowRange` and
//! `ColRange` arms collect through.
//!
//! A store implements [`LevelStore`] — only what actually differs: name
//! and dims, where its levels, twins and optional stats come from — and
//! gets [`MatrixReader`] and [`CursorReader`] from the blanket impls below
//! (a sharded engine's captures, joined, are one such store).

use crate::cursor::{
    for_each_merged, merged_col_degree, merged_col_into, merged_col_reduce,
    merged_degree_histogram, merged_in_degree_histogram, merged_in_top_k, merged_nnz, merged_point,
    merged_row_degree, merged_row_into, merged_row_range, merged_row_reduce, merged_top_k,
};
use crate::degree_index::{rank, DegreeIndexView};
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::ops::binary::Plus;
use crate::reader::{Answer, CursorReader, MatrixReader, Query};
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

    /// `f` over `side`'s per-key stats covering the whole content, as
    /// key-disjoint parts (every key's stats in one part; a store with one
    /// index hands it alone), or `None` when the store keeps none.
    fn with_stats<R>(
        &mut self,
        _side: Side,
        _f: impl FnOnce(&mut [&mut DegreeIndexView<Self::Value>]) -> R,
    ) -> Option<R> {
        None
    }

    /// Value at `(row, col)`.  Override only to answer without settling.
    fn point_get(&mut self, row: Index, col: Index) -> Option<Self::Value> {
        self.with_levels(|lv| merged_point(lv, row, col, Plus))
    }
}

/// Which half of the vocabulary a read belongs to: keyed by row over the
/// levels, or keyed by column over the twins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Keyed by row: the levels and the row stats.
    Rows,
    /// Keyed by column: the twins and the column stats.
    Cols,
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

/// A degree-centric answer for `side`: `indexed` combining the side's
/// stats parts when the store has them, else `sweep` — a row kernel — over
/// the side's own levels.  Debug builds re-derive every indexed answer,
/// combined or not, from the row-major levels (`sweep` again for the row
/// side, `col_sweep` for the column side, so the check never builds a
/// twin) and compare with `agrees`.
fn stats_or_sweep<S: LevelStore, R: std::fmt::Debug>(
    s: &mut S,
    side: Side,
    indexed: impl FnOnce(&mut [&mut DegreeIndexView<S::Value>]) -> R,
    sweep: impl Fn(&[&Dcsr<S::Value>]) -> R,
    col_sweep: impl Fn(&[&Dcsr<S::Value>]) -> R,
    agrees: impl Fn(&R, &R) -> bool,
) -> R {
    let Some(answer) = s.with_stats(side, indexed) else {
        return match side {
            Side::Rows => s.with_levels(sweep),
            Side::Cols => s.with_twins(sweep),
        };
    };
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
        |parts| parts.iter().map(|ix| ix.row_degree(key)).sum(),
        |lv| merged_row_degree(lv, key),
        |lv| merged_col_degree(lv, key),
        PartialEq::eq,
    )
}

fn reduce<S: LevelStore>(s: &mut S, side: Side, key: Index) -> Option<S::Value> {
    stats_or_sweep(
        s,
        side,
        |parts| {
            let weights = parts.iter().filter_map(|ix| ix.row_weight(key));
            weights.reduce(|a, b| a.add(b))
        },
        |lv| merged_row_reduce(lv, key, Plus),
        |lv| merged_col_reduce(lv, key, Plus),
        reduce_agrees,
    )
}

fn top_k<S: LevelStore>(s: &mut S, side: Side, k: usize) -> Vec<(Index, usize)> {
    stats_or_sweep(
        s,
        side,
        |parts| match parts {
            [one] => one.top_k(k),
            parts => {
                let mut all: Vec<_> = parts.iter_mut().flat_map(|ix| ix.top_k(k)).collect();
                all.sort_unstable_by(rank);
                all.truncate(k);
                all
            }
        },
        |lv| merged_top_k(lv, k),
        |lv| merged_in_top_k(lv, k),
        PartialEq::eq,
    )
}

fn histogram<S: LevelStore>(s: &mut S, side: Side) -> BTreeMap<u64, u64> {
    stats_or_sweep(
        s,
        side,
        |parts| {
            let mut bins = BTreeMap::new();
            for (degree, n) in parts.iter_mut().flat_map(|ix| ix.degree_histogram()) {
                *bins.entry(degree).or_insert(0) += n;
            }
            bins
        },
        merged_degree_histogram,
        merged_in_degree_histogram,
        PartialEq::eq,
    )
}

/// Row `row` into `out`: a k-way merge of the per-level row runs.
fn row_into<S: LevelStore>(s: &mut S, row: Index, out: &mut Vec<(Index, S::Value)>) {
    s.with_levels(|lv| merged_row_into(lv, row, Plus, out));
}

/// Column `col` into `out`: a row extract on the twins — one binary search
/// per twin, then a k-way merge of the per-twin column runs.
fn col_into<S: LevelStore>(s: &mut S, col: Index, out: &mut Vec<(Index, S::Value)>) {
    s.with_twins(|lv| merged_row_into(lv, col, Plus, out));
    debug_assert_eq!(
        *out,
        s.with_levels(|lv| {
            let mut swept = Vec::new();
            merged_col_into(lv, col, Plus, &mut swept);
            swept
        }),
        "column twin diverged from the row-major levels for column {col}"
    );
}

/// What a line kernel fills, as an answer.
fn line<V>(fill: impl FnOnce(&mut Vec<(Index, V)>)) -> Answer<V> {
    let mut out = Vec::new();
    fill(&mut out);
    Answer::Line(out)
}

/// What a visitor kernel emits, collected in visiting order.
fn collected<V>(walk: impl FnOnce(&mut dyn FnMut(Index, Index, V))) -> Answer<V> {
    let mut all = Vec::new();
    walk(&mut |r, c, v| all.push((r, c, v)));
    Answer::Entries(all)
}

impl<S: LevelStore> MatrixReader<S::Value> for S {
    fn reader_name(&self) -> &str {
        self.store_name()
    }

    fn read_dims(&self) -> (Index, Index) {
        self.store_dims()
    }

    fn answer(&mut self, q: &Query) -> Answer<S::Value> {
        match q {
            Query::Get(row, col) => Answer::Value(self.point_get(*row, *col)),
            Query::Row(row) => line(|out| row_into(self, *row, out)),
            Query::RowDegree(row) => Answer::Count(degree(self, Side::Rows, *row)),
            Query::RowReduce(row) => Answer::Value(reduce(self, Side::Rows, *row)),
            Query::TopK(k) => Answer::Ranked(top_k(self, Side::Rows, *k)),
            Query::Nnz => Answer::Count(stats_or_sweep(
                self,
                Side::Rows,
                |parts| parts.iter().map(|ix| ix.nnz()).sum(),
                merged_nnz,
                merged_nnz,
                PartialEq::eq,
            )),
            Query::Entries => collected(|f| self.read_entries(f)),
            Query::RowRange(lo, hi) => collected(|f| self.read_row_range(*lo, *hi, f)),
            Query::DegreeHistogram => Answer::Histogram(histogram(self, Side::Rows)),
            Query::Col(col) => line(|out| col_into(self, *col, out)),
            Query::ColDegree(col) => Answer::Count(degree(self, Side::Cols, *col)),
            Query::ColReduce(col) => Answer::Value(reduce(self, Side::Cols, *col)),
            Query::InTopK(k) => Answer::Ranked(top_k(self, Side::Cols, *k)),
            Query::InDegreeHistogram => Answer::Histogram(histogram(self, Side::Cols)),
            Query::ColRange(lo, hi) => collected(|f| self.read_col_range(*lo, *hi, f)),
        }
    }

    /// Kept beside [`answer`](MatrixReader::answer) so that an extract into
    /// a reused buffer allocates nothing.
    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, S::Value)>) {
        row_into(self, row, out);
    }

    /// Kept beside [`answer`](MatrixReader::answer) for the same reason as
    /// `read_row`.
    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, S::Value)>) {
        col_into(self, col, out);
    }

    /// Visits the merged levels straight into `f`, so a count or a filter
    /// holds no copy of the entries.
    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_levels(|lv| for_each_merged(lv, Plus, f));
    }

    /// Visits like `read_entries`.
    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_levels(|lv| merged_row_range(lv, lo, hi, Plus, f));
    }

    /// A row-range walk over the twins is already the column-major
    /// contract order; only the emit swaps back to `(row, col, value)`.
    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, S::Value)) {
        self.with_twins(|lv| merged_row_range(lv, lo, hi, Plus, &mut |c, r, v| f(r, c, v)));
    }
}

/// The settled levels *are* the cursor form the graph algorithms build on.
impl<S: LevelStore> CursorReader<S::Value> for S {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<S::Value>])) {
        self.with_levels(|lv| f(lv));
    }
}
