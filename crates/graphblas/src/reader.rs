//! The [`MatrixReader`] trait: one materialisation-free query interface for
//! every system under test — the read-side dual of [`StreamingSink`].
//!
//! The paper's motivation for sustaining extreme ingest rates is to
//! *analyse* network traffic while it arrives: row extracts ("who does this
//! source talk to?"), degree counts ("how many distinct destinations?"),
//! top-k fan-out scans ("scanner candidates"), point gets and full sorted
//! sweeps — all interleaved with the update stream.  `MatrixReader` is that
//! contract.  A read is a [`Query`] value, and a reader implements one data
//! method, [`MatrixReader::answer`], as one `match` over the query kinds;
//! the `read_*` methods wrap it.  Every store whose content is a list of
//! settled levels (the flat matrix, snapshots, the hierarchy, a sharded
//! engine's per-shard captures joined) answers through
//! the single implementation in [`crate::level_read`], from its native
//! structures and without building a merged copy of the matrix first; the
//! sharded engine only picks the captures a read is routed to.
//!
//! Query methods take `&mut self`: a reader may complete cheap deferred
//! work (settle a pending-tuple buffer, refresh an index segment, drain an
//! ingest channel) before answering, exactly as the real systems do.  None
//! of that changes the represented matrix — only the cost of reading it.
//!
//! [`StreamingSink`]: crate::sink::StreamingSink

use crate::index::Index;
use crate::sink::StreamingSink;
use crate::types::ScalarType;
use std::collections::BTreeMap;

/// A queryable matrix of `V` values: point get, row and column extracts,
/// degrees and reductions, top-k by degree, histograms, nnz, sorted entry
/// and range scans.
///
/// A reader implements [`reader_name`](Self::reader_name),
/// [`read_dims`](Self::read_dims) and [`answer`](Self::answer).  Each
/// `read_*` method wraps `answer`, asking it the [`Query`] of its kind; a
/// reader overrides one only to fill a caller's buffer without allocating.
///
/// ## Contract
///
/// * Answers reflect every update accepted so far (staged, pending, in
///   flight or settled) — a reader must not require an explicit
///   [`flush`](StreamingSink::flush) first.
/// * [`read_entries`](MatrixReader::read_entries) visits entries in
///   row-major `(row, col)` ascending order with duplicates already
///   combined.
/// * [`read_top_k`](MatrixReader::read_top_k) orders by degree descending,
///   ties broken by ascending row id, so answers are byte-identical across
///   systems.
/// * Column-side answers mirror the row-side ones through the transpose:
///   [`read_col`](MatrixReader::read_col) visits rows ascending,
///   [`read_in_top_k`](MatrixReader::read_in_top_k) orders by in-degree
///   descending then column ascending, and
///   [`read_col_range`](MatrixReader::read_col_range) visits column-major.
/// * Values accumulate under the `+` monoid of `V` (the paper's update
///   model); [`read_row_reduce`](MatrixReader::read_row_reduce) reduces
///   with the same monoid.
/// * A `k` comes from the caller and may exceed anything that could be
///   allocated: it never sizes an allocation.
///
/// The trait is object-safe: the measurement harness queries every system
/// through `Box<dyn StreamingSystem<u64>>`.
pub trait MatrixReader<V: ScalarType> {
    /// Short system name used in reports (matches the sink name).
    fn reader_name(&self) -> &str;

    /// Logical `(nrows, ncols)` bound of the index space.  Unbounded
    /// key–value systems report the workspace dimension cap
    /// ([`crate::index::MAX_DIM`]).
    fn read_dims(&self) -> (Index, Index);

    /// Answer `q` in the shape of its kind (see [`Answer`]): the one read
    /// every `read_*` method goes through.
    fn answer(&mut self, q: &Query) -> Answer<V>;

    /// Value at `(row, col)`, duplicates combined, or `None`.
    fn read_get(&mut self, row: Index, col: Index) -> Option<V> {
        self.answer(&Query::Get(row, col)).into_value()
    }

    /// Extract row `row` into `out` (cleared first): `(col, value)` pairs
    /// sorted by column, duplicates combined.
    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, V)>) {
        *out = self.answer(&Query::Row(row)).into_line();
    }

    /// Visit every stored entry in row-major sorted order, duplicates
    /// combined.
    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, V)) {
        visit(self.answer(&Query::Entries), f);
    }

    /// Visit the stored entries of rows `lo..hi` (half-open) in row-major
    /// sorted order, duplicates combined — the subnet-style range scan.
    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, V)) {
        visit(self.answer(&Query::RowRange(lo, hi)), f);
    }

    /// The degree histogram of the stored pattern: `degree -> number of
    /// rows with that many distinct columns`.
    fn read_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        self.answer(&Query::DegreeHistogram).into_histogram()
    }

    /// Number of distinct `(row, col)` cells stored.
    fn read_nnz(&mut self) -> usize {
        self.answer(&Query::Nnz).into_count()
    }

    /// Number of distinct columns stored in row `row`.
    fn read_row_degree(&mut self, row: Index) -> usize {
        self.answer(&Query::RowDegree(row)).into_count()
    }

    /// Reduce row `row` to a scalar under `+` (`None` when empty).
    fn read_row_reduce(&mut self, row: Index) -> Option<V> {
        self.answer(&Query::RowReduce(row)).into_value()
    }

    /// The `k` rows with the most distinct columns, sorted by degree
    /// descending then row ascending.
    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.answer(&Query::TopK(k)).into_ranked()
    }

    /// Extract column `col` into `out` (cleared first): `(row, value)`
    /// pairs sorted by row, duplicates combined — the transpose of
    /// [`read_row`](MatrixReader::read_row), "who talks *to* this host?".
    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, V)>) {
        *out = self.answer(&Query::Col(col)).into_line();
    }

    /// Number of distinct rows stored in column `col` (the in-degree).
    fn read_col_degree(&mut self, col: Index) -> usize {
        self.answer(&Query::ColDegree(col)).into_count()
    }

    /// Reduce column `col` to a scalar under `+` (`None` when empty).
    fn read_col_reduce(&mut self, col: Index) -> Option<V> {
        self.answer(&Query::ColReduce(col)).into_value()
    }

    /// The `k` columns with the most distinct rows (highest in-degree),
    /// sorted by degree descending then column ascending — the
    /// destination-centric dual of [`read_top_k`](MatrixReader::read_top_k)
    /// (DDoS-victim candidates instead of scanner candidates).
    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.answer(&Query::InTopK(k)).into_ranked()
    }

    /// The in-degree histogram of the stored pattern: `in-degree -> number
    /// of columns with that many distinct rows`.
    fn read_in_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        self.answer(&Query::InDegreeHistogram).into_histogram()
    }

    /// Visit the stored entries of columns `lo..hi` (half-open) in
    /// **column-major** `(col, row)` ascending order, duplicates combined —
    /// the destination-subnet range scan.  The callback still receives
    /// `(row, col, value)` like every other visitor.
    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, V)) {
        visit(self.answer(&Query::ColRange(lo, hi)), f);
    }
}

/// Hand an [`Answer::Entries`] to a visitor, in order.
fn visit<V: ScalarType>(a: Answer<V>, f: &mut dyn FnMut(Index, Index, V)) {
    match a {
        Answer::Entries(all) => all.into_iter().for_each(|(r, c, v)| f(r, c, v)),
        other => other.mismatch("Entries"),
    }
}

/// One read question, as a value: one kind per data-returning `read_*`
/// method of [`MatrixReader`].  What [`MatrixReader::answer`] takes, and
/// what anything that splits a read over several readers routes and
/// combines by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// [`MatrixReader::read_get`].
    Get(Index, Index),
    /// [`MatrixReader::read_row`].
    Row(Index),
    /// [`MatrixReader::read_row_degree`].
    RowDegree(Index),
    /// [`MatrixReader::read_row_reduce`].
    RowReduce(Index),
    /// [`MatrixReader::read_top_k`].
    TopK(usize),
    /// [`MatrixReader::read_nnz`].
    Nnz,
    /// [`MatrixReader::read_entries`].
    Entries,
    /// [`MatrixReader::read_row_range`], half-open.
    RowRange(Index, Index),
    /// [`MatrixReader::read_degree_histogram`].
    DegreeHistogram,
    /// [`MatrixReader::read_col`].
    Col(Index),
    /// [`MatrixReader::read_col_degree`].
    ColDegree(Index),
    /// [`MatrixReader::read_col_reduce`].
    ColReduce(Index),
    /// [`MatrixReader::read_in_top_k`].
    InTopK(usize),
    /// [`MatrixReader::read_in_degree_histogram`].
    InDegreeHistogram,
    /// [`MatrixReader::read_col_range`], half-open.
    ColRange(Index, Index),
}

/// What a reader says to a [`Query`], in the shape the matching `read_*`
/// method returns (visitor methods collect into a list).
#[derive(Debug, Clone, PartialEq)]
pub enum Answer<V> {
    /// One cell or one reduction: `Get`, `RowReduce`, `ColReduce`.
    Value(Option<V>),
    /// `Nnz`, `RowDegree`, `ColDegree`.
    Count(usize),
    /// One row as `(col, value)` or one column as `(row, value)`.
    Line(Vec<(Index, V)>),
    /// `(id, degree)` by degree descending, then id ascending: `TopK`,
    /// `InTopK`.
    Ranked(Vec<(Index, usize)>),
    /// `(row, col, value)` in the order the method visits: `Entries`,
    /// `RowRange`, `ColRange`.
    Entries(Vec<(Index, Index, V)>),
    /// `degree -> how many`: `DegreeHistogram`, `InDegreeHistogram`.
    Histogram(BTreeMap<u64, u64>),
}

impl<V: ScalarType> Answer<V> {
    /// What an empty matrix answers to `q` — also what stands in for a
    /// reader that could not be asked.
    pub fn empty_for(q: &Query) -> Self {
        match q {
            Query::Get(..) | Query::RowReduce(_) | Query::ColReduce(_) => Answer::Value(None),
            Query::Nnz | Query::RowDegree(_) | Query::ColDegree(_) => Answer::Count(0),
            Query::Row(_) | Query::Col(_) => Answer::Line(Vec::new()),
            Query::TopK(_) | Query::InTopK(_) => Answer::Ranked(Vec::new()),
            Query::Entries | Query::RowRange(..) | Query::ColRange(..) => {
                Answer::Entries(Vec::new())
            }
            Query::DegreeHistogram | Query::InDegreeHistogram => {
                Answer::Histogram(Default::default())
            }
        }
    }

    /// An answer of another shape than its query's: a bug in whatever
    /// produced it, never a property of the data.
    fn mismatch(&self, want: &str) -> ! {
        unreachable!("a {want} answer was expected, got {self:?}")
    }

    /// The payload of a [`Answer::Value`].
    pub fn into_value(self) -> Option<V> {
        match self {
            Answer::Value(v) => v,
            other => other.mismatch("Value"),
        }
    }

    /// The payload of a [`Answer::Count`].
    pub fn into_count(self) -> usize {
        match self {
            Answer::Count(n) => n,
            other => other.mismatch("Count"),
        }
    }

    /// The payload of a [`Answer::Line`].
    pub fn into_line(self) -> Vec<(Index, V)> {
        match self {
            Answer::Line(line) => line,
            other => other.mismatch("Line"),
        }
    }

    /// The payload of a [`Answer::Ranked`].
    pub fn into_ranked(self) -> Vec<(Index, usize)> {
        match self {
            Answer::Ranked(ranks) => ranks,
            other => other.mismatch("Ranked"),
        }
    }

    /// The payload of a [`Answer::Histogram`].
    pub fn into_histogram(self) -> BTreeMap<u64, u64> {
        match self {
            Answer::Histogram(counts) => counts,
            other => other.mismatch("Histogram"),
        }
    }
}

/// A reader whose settled content is reachable as DCSR level slices — the
/// contract the reader-native semiring kernels
/// ([`crate::ops::reader_mx`]) build on.
///
/// The represented matrix is `Σ levels` under the `+` monoid of `V` (the
/// flat matrix is the single-level case, a hierarchy exposes one slice per
/// level, a snapshot the levels it captured).  Handing the
/// slices to a callback lets every implementation complete its cheap
/// deferred work (settle, drain, index refresh) first and keep borrowing
/// local — products over a live structure never materialize `Σ levels`.
/// Every [`LevelStore`](crate::level_read::LevelStore) is one; the sharded
/// engine and its snapshot concatenate their shards' levels.
pub trait CursorReader<V: ScalarType>: MatrixReader<V> {
    /// Complete deferred work, then call `f` once with the settled level
    /// slices.  Row ids and in-row columns are sorted within each level;
    /// the same cell may appear in several levels and combines under `+`.
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&crate::formats::dcsr::Dcsr<V>]));
}

/// A full system under test: ingests a stream *and* answers queries — the
/// combined contract the equivalence suites drive through one
/// `Box<dyn StreamingSystem<u64>>`.
pub trait StreamingSystem<V: ScalarType>: StreamingSink<V> + MatrixReader<V> {}

impl<V: ScalarType, S: StreamingSink<V> + MatrixReader<V> + ?Sized> StreamingSystem<V> for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor;
    use crate::matrix::Matrix;

    fn sample() -> Matrix<u64> {
        let mut m = Matrix::<u64>::new(1 << 32, 1 << 32);
        m.accum_tuples(&[5, 5, 5, 9, 5], &[1, 2, 3, 9, 2], &[10, 20, 30, 1, 5])
            .unwrap();
        m
    }

    #[test]
    fn matrix_reader_answers_with_pending_tuples() {
        let mut m = sample();
        assert!(m.npending() > 0);
        assert_eq!(m.read_get(5, 2), Some(25));
        assert_eq!(m.read_nnz(), 4);
        let mut row = Vec::new();
        m.read_row(5, &mut row);
        assert_eq!(row, vec![(1, 10), (2, 25), (3, 30)]);
        m.read_row(7, &mut row);
        assert!(row.is_empty());
        assert_eq!(m.read_row_degree(5), 3);
        assert_eq!(m.read_row_degree(7), 0);
        assert_eq!(m.read_row_reduce(5), Some(65));
        assert_eq!(m.read_row_reduce(7), None);
        assert_eq!(m.read_top_k(1), vec![(5, 3)]);
        assert_eq!(m.read_top_k(5), vec![(5, 3), (9, 1)]);
    }

    #[test]
    fn read_entries_sorted_row_major() {
        let mut m = sample();
        let mut got = Vec::new();
        m.read_entries(&mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, vec![(5, 1, 10), (5, 2, 25), (5, 3, 30), (9, 9, 1)]);
        assert_eq!(m.answer(&Query::Entries), Answer::Entries(got));
    }

    #[test]
    fn reader_is_object_safe_combined_with_sink() {
        let mut sys: Box<dyn StreamingSystem<u64>> = Box::new(Matrix::<u64>::new(100, 100));
        sys.insert(1, 2, 3).unwrap();
        sys.insert(1, 2, 4).unwrap();
        sys.flush().unwrap();
        assert_eq!(sys.sink_name(), "flat-graphblas");
        assert_eq!(sys.reader_name(), "flat-graphblas");
        assert_eq!(sys.read_get(1, 2), Some(7));
        assert_eq!(sys.read_nnz(), 1);
        assert_eq!(sys.read_dims(), (100, 100));
    }

    #[test]
    fn column_reads_mirror_rows_through_the_twin() {
        let mut m = sample();
        // Entries: (5,1,10) (5,2,25) (5,3,30) (9,9,1).
        let mut col = Vec::new();
        m.read_col(2, &mut col);
        assert_eq!(col, vec![(5, 25)]);
        m.read_col(9, &mut col);
        assert_eq!(col, vec![(9, 1)]);
        m.read_col(4, &mut col);
        assert!(col.is_empty());
        assert_eq!(m.read_col_degree(2), 1);
        assert_eq!(m.read_col_degree(4), 0);
        assert_eq!(m.read_col_reduce(3), Some(30));
        assert_eq!(m.read_col_reduce(4), None);
        assert_eq!(m.read_in_top_k(2), vec![(1, 1), (2, 1)]);
        assert_eq!(
            m.read_in_degree_histogram(),
            std::collections::BTreeMap::from([(1, 4)])
        );
        let mut got = Vec::new();
        m.read_col_range(2, 4, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, vec![(5, 2, 25), (5, 3, 30)]);
        // The twin tracks later updates.
        m.accum_element(7, 2, 2).unwrap();
        m.read_col(2, &mut col);
        assert_eq!(col, vec![(5, 25), (7, 2)]);
        assert_eq!(m.read_in_top_k(1), vec![(2, 2)]);
    }

    #[test]
    fn cursor_reader_exposes_single_level_and_degrees() {
        let mut m = sample();
        let mut nnz = 0;
        let mut swept = Vec::new();
        m.with_level_dcsrs(&mut |levels| {
            assert_eq!(levels.len(), 1);
            nnz = levels[0].nvals();
            let mut cur = cursor::LevelCursors::new(levels);
            while let Some(r) = cur.next_row() {
                swept.push((r, cur.row_degree()));
            }
        });
        assert_eq!(nnz, 4);
        // A cursor sweep of the one level reads the row-pointer degrees.
        assert_eq!(swept, vec![(5, 3), (9, 1)]);
        for &(r, d) in &swept {
            assert_eq!(m.read_row_degree(r), d);
        }
    }
}
