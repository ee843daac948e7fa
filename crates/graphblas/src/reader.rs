//! The [`MatrixReader`] trait: one materialisation-free query interface for
//! every system under test — the read-side dual of [`StreamingSink`].
//!
//! The paper's motivation for sustaining extreme ingest rates is to
//! *analyse* network traffic while it arrives: row extracts ("who does this
//! source talk to?"), degree counts ("how many distinct destinations?"),
//! top-k fan-out scans ("scanner candidates"), point gets and full sorted
//! sweeps — all interleaved with the update stream.  `MatrixReader` is that
//! contract.  Implementations answer from their native structures without
//! building a merged copy of the matrix first: every store whose content is
//! a list of settled levels (the flat matrix, snapshots, the hierarchy, the
//! windowed hierarchy) through the single implementation in
//! [`crate::level_read`]; the sharded engine through its worker pool; the
//! D4M associative array from its string-keyed levels, implementing only
//! the required methods and taking the provided sweep defaults below.
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

/// A queryable matrix of `V` values: point get, row extract, per-row
/// degree/reduce, top-k rows by degree, nnz and sorted entry iteration.
///
/// ## Contract
///
/// * Answers reflect every update accepted so far (staged, pending, in
///   flight or settled) — a reader must not require an explicit
///   [`flush`](StreamingSink::flush) first.
/// * [`read_entries`](MatrixReader::read_entries) visits entries in
///   row-major `(row, col)` ascending order with duplicates already
///   combined — the order the provided defaults rely on.
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

    /// Value at `(row, col)`, duplicates combined, or `None`.
    fn read_get(&mut self, row: Index, col: Index) -> Option<V>;

    /// Extract row `row` into `out` (cleared first): `(col, value)` pairs
    /// sorted by column, duplicates combined.
    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, V)>);

    /// Visit every stored entry in row-major sorted order, duplicates
    /// combined.
    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, V));

    /// Visit the stored entries of rows `lo..hi` (half-open) in row-major
    /// sorted order, duplicates combined — the subnet-style range scan.
    ///
    /// The default filters a full [`read_entries`](MatrixReader::read_entries)
    /// sweep; level-backed readers use a cursor range-skip (cost
    /// proportional to the range's content) and the sharded engine
    /// dispatches only to the workers whose row bands overlap the range.
    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, V)) {
        if lo >= hi {
            return;
        }
        self.read_entries(&mut |r, c, v| {
            if r >= lo && r < hi {
                f(r, c, v);
            }
        });
    }

    /// The degree histogram of the stored pattern: `degree -> number of
    /// rows with that many distinct columns`.
    ///
    /// The default run-counts a full entry sweep (valid because entries
    /// arrive row-major sorted); index-backed readers answer in
    /// O(distinct degrees).
    fn read_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let mut counts = std::collections::BTreeMap::new();
        let mut run: Option<(Index, u64)> = None;
        self.read_entries(&mut |r, _, _| match &mut run {
            Some((cr, n)) if *cr == r => *n += 1,
            _ => {
                if let Some((_, n)) = run.take() {
                    *counts.entry(n).or_insert(0u64) += 1;
                }
                run = Some((r, 1));
            }
        });
        if let Some((_, n)) = run {
            *counts.entry(n).or_insert(0u64) += 1;
        }
        counts
    }

    /// Number of distinct `(row, col)` cells stored.
    fn read_nnz(&mut self) -> usize {
        let mut n = 0;
        self.read_entries(&mut |_, _, _| n += 1);
        n
    }

    /// Number of distinct columns stored in row `row`.
    fn read_row_degree(&mut self, row: Index) -> usize {
        let mut out = Vec::new();
        self.read_row(row, &mut out);
        out.len()
    }

    /// Reduce row `row` to a scalar under `+` (`None` when empty).
    fn read_row_reduce(&mut self, row: Index) -> Option<V> {
        let mut out = Vec::new();
        self.read_row(row, &mut out);
        out.into_iter().map(|(_, v)| v).reduce(|a, b| a.add(b))
    }

    /// The `k` rows with the most distinct columns, sorted by degree
    /// descending then row ascending.
    ///
    /// The default sweeps [`read_entries`](MatrixReader::read_entries)
    /// counting row runs (valid because entries arrive row-major sorted)
    /// through a min-heap that never holds more than `k + 1` rows.  The
    /// heap grows on push: `k` comes from the caller and may exceed
    /// anything that could be allocated, the row count cannot.
    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<Reverse<(usize, Reverse<Index>)>> =
            std::collections::BinaryHeap::new();
        let mut run: Option<(Index, usize)> = None;
        self.read_entries(&mut |r, _, _| match &mut run {
            Some((cr, n)) if *cr == r => *n += 1,
            _ => {
                if let Some((cr, n)) = run.take() {
                    heap.push(Reverse((n, Reverse(cr))));
                    if heap.len() > k {
                        heap.pop();
                    }
                }
                run = Some((r, 1));
            }
        });
        if let Some((cr, n)) = run {
            heap.push(Reverse((n, Reverse(cr))));
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut out: Vec<(Index, usize)> = heap
            .into_iter()
            .map(|Reverse((n, Reverse(r)))| (r, n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Extract column `col` into `out` (cleared first): `(row, value)`
    /// pairs sorted by row, duplicates combined — the transpose of
    /// [`read_row`](MatrixReader::read_row), "who talks *to* this host?".
    ///
    /// The default filters a full entry sweep (O(nnz)); twin-backed
    /// readers override with an O(k) row lookup on their column shadow.
    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, V)>) {
        out.clear();
        self.read_entries(&mut |r, c, v| {
            if c == col {
                out.push((r, v));
            }
        });
    }

    /// Number of distinct rows stored in column `col` (the in-degree).
    fn read_col_degree(&mut self, col: Index) -> usize {
        let mut out = Vec::new();
        self.read_col(col, &mut out);
        out.len()
    }

    /// Reduce column `col` to a scalar under `+` (`None` when empty).
    fn read_col_reduce(&mut self, col: Index) -> Option<V> {
        let mut out = Vec::new();
        self.read_col(col, &mut out);
        out.into_iter().map(|(_, v)| v).reduce(|a, b| a.add(b))
    }

    /// The `k` columns with the most distinct rows (highest in-degree),
    /// sorted by degree descending then column ascending — the
    /// destination-centric dual of [`read_top_k`](MatrixReader::read_top_k)
    /// (DDoS-victim candidates instead of scanner candidates).
    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let mut degs: std::collections::BTreeMap<Index, usize> = Default::default();
        self.read_entries(&mut |_, c, _| *degs.entry(c).or_insert(0) += 1);
        let mut out: Vec<(Index, usize)> = degs.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// The in-degree histogram of the stored pattern: `in-degree -> number
    /// of columns with that many distinct rows`.
    fn read_in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let mut degs: std::collections::BTreeMap<Index, u64> = Default::default();
        self.read_entries(&mut |_, c, _| *degs.entry(c).or_insert(0) += 1);
        let mut counts = std::collections::BTreeMap::new();
        for d in degs.into_values() {
            *counts.entry(d).or_insert(0u64) += 1;
        }
        counts
    }

    /// Visit the stored entries of columns `lo..hi` (half-open) in
    /// **column-major** `(col, row)` ascending order, duplicates combined —
    /// the destination-subnet range scan.  The callback still receives
    /// `(row, col, value)` like every other visitor.
    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, V)) {
        if lo >= hi {
            return;
        }
        let mut hits: Vec<(Index, Index, V)> = Vec::new();
        self.read_entries(&mut |r, c, v| {
            if c >= lo && c < hi {
                hits.push((c, r, v));
            }
        });
        hits.sort_unstable_by_key(|&(c, r, _)| (c, r));
        for (c, r, v) in hits {
            f(r, c, v);
        }
    }

    /// Extract many rows in one call: one `(col, value)` vector per
    /// requested row, in the order given (duplicate keys allowed).
    ///
    /// The default loops [`read_row`](MatrixReader::read_row); batching
    /// readers amortise the per-query setup across keys — one settle and
    /// one cursor walk for the hierarchies, one barrier round-trip per
    /// shard (instead of per key) for the sharded engine.
    fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, V)>> {
        let mut out = Vec::new();
        rows.iter()
            .map(|&r| {
                self.read_row(r, &mut out);
                std::mem::take(&mut out)
            })
            .collect()
    }

    /// Point-get many cells in one call, answers in key order.
    fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<V>> {
        keys.iter().map(|&(r, c)| self.read_get(r, c)).collect()
    }
}

/// One read question, as a value: one kind per data-returning `read_*`
/// method of [`MatrixReader`].  What crosses a shard worker's channel, and
/// what anything that splits a read over several readers routes and
/// combines by.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// [`MatrixReader::read_rows`].
    Rows(Vec<Index>),
    /// [`MatrixReader::read_get_many`].
    GetMany(Vec<(Index, Index)>),
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
    Histogram(std::collections::BTreeMap<u64, u64>),
    /// One line per requested row: `Rows`.
    Lines(Vec<Vec<(Index, V)>>),
    /// One cell per requested key: `GetMany`.
    Values(Vec<Option<V>>),
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
            Query::Rows(rows) => Answer::Lines(vec![Vec::new(); rows.len()]),
            Query::GetMany(keys) => Answer::Values(vec![None; keys.len()]),
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

    /// The payload of a [`Answer::Entries`].
    pub fn into_entries(self) -> Vec<(Index, Index, V)> {
        match self {
            Answer::Entries(entries) => entries,
            other => other.mismatch("Entries"),
        }
    }

    /// The payload of a [`Answer::Histogram`].
    pub fn into_histogram(self) -> std::collections::BTreeMap<u64, u64> {
        match self {
            Answer::Histogram(counts) => counts,
            other => other.mismatch("Histogram"),
        }
    }

    /// The payload of a [`Answer::Lines`].
    pub fn into_lines(self) -> Vec<Vec<(Index, V)>> {
        match self {
            Answer::Lines(lines) => lines,
            other => other.mismatch("Lines"),
        }
    }

    /// The payload of a [`Answer::Values`].
    pub fn into_values(self) -> Vec<Option<V>> {
        match self {
            Answer::Values(values) => values,
            other => other.mismatch("Values"),
        }
    }
}

/// Ask one reader one [`Query`] through the `read_*` method of its kind.
pub fn answer<V: ScalarType, R: MatrixReader<V> + ?Sized>(r: &mut R, q: &Query) -> Answer<V> {
    let mut line = Vec::new();
    let mut entries = Vec::new();
    match q {
        Query::Get(row, col) => Answer::Value(r.read_get(*row, *col)),
        Query::Row(row) => {
            r.read_row(*row, &mut line);
            Answer::Line(line)
        }
        Query::RowDegree(row) => Answer::Count(r.read_row_degree(*row)),
        Query::RowReduce(row) => Answer::Value(r.read_row_reduce(*row)),
        Query::TopK(k) => Answer::Ranked(r.read_top_k(*k)),
        Query::Nnz => Answer::Count(r.read_nnz()),
        Query::Entries => {
            r.read_entries(&mut |i, j, v| entries.push((i, j, v)));
            Answer::Entries(entries)
        }
        Query::RowRange(lo, hi) => {
            r.read_row_range(*lo, *hi, &mut |i, j, v| entries.push((i, j, v)));
            Answer::Entries(entries)
        }
        Query::DegreeHistogram => Answer::Histogram(r.read_degree_histogram()),
        Query::Col(col) => {
            r.read_col(*col, &mut line);
            Answer::Line(line)
        }
        Query::ColDegree(col) => Answer::Count(r.read_col_degree(*col)),
        Query::ColReduce(col) => Answer::Value(r.read_col_reduce(*col)),
        Query::InTopK(k) => Answer::Ranked(r.read_in_top_k(*k)),
        Query::InDegreeHistogram => Answer::Histogram(r.read_in_degree_histogram()),
        Query::ColRange(lo, hi) => {
            r.read_col_range(*lo, *hi, &mut |i, j, v| entries.push((i, j, v)));
            Answer::Entries(entries)
        }
        Query::Rows(rows) => Answer::Lines(r.read_rows(rows)),
        Query::GetMany(keys) => Answer::Values(r.read_get_many(keys)),
    }
}

/// Extract every entry of a reader into parallel tuple vectors (row-major
/// sorted) — the bridge the graph algorithms use to rebuild pattern
/// matrices from any reader.
pub fn read_tuples<V: ScalarType, R: MatrixReader<V> + ?Sized>(
    r: &mut R,
) -> (Vec<Index>, Vec<Index>, Vec<V>) {
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    r.read_entries(&mut |i, j, v| {
        rows.push(i);
        cols.push(j);
        vals.push(v);
    });
    (rows, cols, vals)
}

/// A reader whose settled content is reachable as DCSR level slices — the
/// contract the reader-native semiring kernels
/// ([`crate::ops::reader_mx`]) build on.
///
/// The represented matrix is `Σ levels` under the `+` monoid of `V` (the
/// flat matrix is the single-level case, a hierarchy exposes one slice per
/// level, a snapshot adds its pending tail as an extra level).  Handing the
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
        let (r, c, v) = read_tuples(&mut m);
        assert_eq!(r, vec![5, 5, 5, 9]);
        assert_eq!(c, vec![1, 2, 3, 9]);
        assert_eq!(v, vec![10, 25, 30, 1]);
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
    fn default_top_k_matches_cursor_top_k() {
        // Exercise the provided default through a thin wrapper that only
        // supplies the required methods.
        struct Wrap(Matrix<u64>);
        impl MatrixReader<u64> for Wrap {
            fn reader_name(&self) -> &str {
                "wrap"
            }
            fn read_dims(&self) -> (Index, Index) {
                self.0.read_dims()
            }
            fn read_get(&mut self, r: Index, c: Index) -> Option<u64> {
                self.0.read_get(r, c)
            }
            fn read_row(&mut self, r: Index, out: &mut Vec<(Index, u64)>) {
                self.0.read_row(r, out)
            }
            fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, u64)) {
                self.0.read_entries(f)
            }
        }
        let mut w = Wrap(sample());
        let mut m = sample();
        assert_eq!(w.read_top_k(2), m.read_top_k(2));
        assert_eq!(w.read_nnz(), m.read_nnz());
        assert_eq!(w.read_row_degree(5), 3);
        assert_eq!(w.read_row_reduce(5), Some(65));
        assert!(w.read_top_k(0).is_empty());
        // Column-side defaults (entry sweeps) equal the shadow-served
        // overrides on the same content.
        let mut dw = Vec::new();
        let mut dm = Vec::new();
        for col in [1u64, 2, 3, 9, 77] {
            w.read_col(col, &mut dw);
            m.read_col(col, &mut dm);
            assert_eq!(dw, dm, "col {col}");
            assert_eq!(w.read_col_degree(col), m.read_col_degree(col));
            assert_eq!(w.read_col_reduce(col), m.read_col_reduce(col));
        }
        assert_eq!(w.read_in_top_k(3), m.read_in_top_k(3));
        assert!(w.read_in_top_k(0).is_empty());
        assert!(m.read_in_top_k(0).is_empty());
        assert_eq!(w.read_in_degree_histogram(), m.read_in_degree_histogram());
        let (mut gw, mut gm) = (Vec::new(), Vec::new());
        w.read_col_range(2, 10, &mut |r, c, v| gw.push((r, c, v)));
        m.read_col_range(2, 10, &mut |r, c, v| gm.push((r, c, v)));
        assert_eq!(gw, gm);
        // Batched defaults equal the amortised overrides.
        let rows = [5u64, 7, 9, 5];
        assert_eq!(w.read_rows(&rows), m.read_rows(&rows));
        let keys = [(5u64, 2u64), (9, 9), (0, 0)];
        assert_eq!(w.read_get_many(&keys), m.read_get_many(&keys));
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

    #[test]
    fn batched_reads_answer_in_key_order() {
        let mut m = sample();
        let rows = m.read_rows(&[9, 5, 7]);
        assert_eq!(rows[0], vec![(9, 1)]);
        assert_eq!(rows[1], vec![(1, 10), (2, 25), (3, 30)]);
        assert!(rows[2].is_empty());
        assert_eq!(
            m.read_get_many(&[(5, 3), (0, 0), (5, 2)]),
            vec![Some(30), None, Some(25)]
        );
    }
}
