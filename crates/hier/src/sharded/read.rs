//! The sharded read path — route → ask → combine — written once over a
//! [`ShardSet`], with its two instances: the live engine and
//! [`ShardedSnapshot`].  The paragraph in the [parent module](super) says
//! why each step is what it is.

use super::{owner, Shard, ShardedHierMatrix};
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::reader::{Answer, Query};
use hyperstream_graphblas::{
    CursorReader, DegreeIndex, GrbError, GrbResult, Index, MatrixReader, MatrixSnapshot, ScalarType,
};
use std::collections::BTreeMap;

/// One shard's part of a read: what it is asked, and — for a batched read —
/// the positions in the request its answers go back to.
struct Ask {
    shard: usize,
    query: Query,
    slots: Vec<usize>,
}

/// Whom a read is put to.
enum Route {
    /// The answer is empty whatever the shards hold.
    Nobody,
    /// The one shard that owns the row asked about — one round trip, no
    /// list of targets built.
    Owner(usize),
    /// Several shards at once: every shard, or the owners of a batch of
    /// keys (each asked for its own keys only).
    Each(Vec<Ask>),
}

/// Whom `q` goes to among `shards`.  `warm`: a summed in-degree index is
/// held.
fn route(shards: usize, q: &Query, warm: bool) -> Route {
    let each = |shards: std::ops::Range<usize>, query: &Query| {
        let ask = |shard| Ask {
            shard,
            query: query.clone(),
            slots: Vec::new(),
        };
        Route::Each(shards.map(ask).collect())
    };
    match q {
        Query::Get(row, _) | Query::Row(row) | Query::RowDegree(row) | Query::RowReduce(row) => {
            Route::Owner(owner(*row, shards))
        }
        Query::TopK(0) | Query::InTopK(0) => Route::Nobody,
        Query::RowRange(lo, hi) | Query::ColRange(lo, hi) if lo >= hi => Route::Nobody,
        // The held sum answers; it goes stale only with the content.
        Query::InTopK(_) | Query::InDegreeHistogram if warm => each(0..0, q),
        // A column's cells split over the row-partitioned shards, so a
        // shard's in-degree ranking says nothing about the global one:
        // every shard ships its complete column → degree list instead.
        Query::InTopK(_) | Query::InDegreeHistogram => each(0..shards, &Query::InTopK(usize::MAX)),
        // Range, whole-matrix and column reads touch every shard: hashed
        // rows of any range fall in all of them.
        Query::RowRange(..)
        | Query::Nnz
        | Query::Entries
        | Query::TopK(_)
        | Query::DegreeHistogram
        | Query::Col(_)
        | Query::ColDegree(_)
        | Query::ColReduce(_)
        | Query::ColRange(..) => each(0..shards, q),
        Query::Rows(rows) => scatter(shards, rows, |&row| row, Query::Rows),
        Query::GetMany(keys) => scatter(shards, keys, |&(row, _)| row, Query::GetMany),
    }
}

/// Group `keys` by owning shard: one batched query per involved shard,
/// built by `query` from the keys that shard owns.
fn scatter<K: Copy>(
    shards: usize,
    keys: &[K],
    row_of: impl Fn(&K) -> Index,
    query: impl Fn(Vec<K>) -> Query,
) -> Route {
    let mut groups: Vec<(usize, Vec<usize>, Vec<K>)> = Vec::new();
    for (slot, key) in keys.iter().enumerate() {
        let shard = owner(row_of(key), shards);
        match groups.iter_mut().find(|g| g.0 == shard) {
            Some((_, slots, owned)) => {
                slots.push(slot);
                owned.push(*key);
            }
            None => groups.push((shard, vec![slot], vec![*key])),
        }
    }
    let ask = |(shard, slots, owned)| Ask {
        shard,
        query: query(owned),
        slots,
    };
    Route::Each(groups.into_iter().map(ask).collect())
}

/// The one ranking order of `(id, degree)` pairs: degree descending, then
/// id ascending.
fn by_rank(a: &(Index, usize), b: &(Index, usize)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Per-shard lists end to end, each appended with one exact reservation.
fn concat<A>(mut lists: impl Iterator<Item = Vec<A>>) -> Vec<A> {
    let mut all = lists.next().unwrap_or_default();
    lists.for_each(|list| all.extend(list));
    all
}

/// Whether `list` is strictly ascending in `key`.
fn ascending<E, K: Ord>(list: &[E], key: impl Fn(&E) -> K) -> bool {
    list.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

/// One list ascending in `key` out of per-shard `parts` that each ascend in
/// it and share no key, folded two at a time through [`merge_two`].
fn merge_parts<E: Copy, K: Ord>(parts: Vec<Vec<E>>, key: impl Fn(&E) -> K) -> Vec<E> {
    debug_assert!(
        parts.iter().all(|p| ascending(p, &key)),
        "a shard answered out of order"
    );
    let out = parts
        .into_iter()
        .reduce(|a, b| merge_two(&a, &b, &key))
        .unwrap_or_default();
    debug_assert!(ascending(&out, &key), "the merge is out of order");
    out
}

/// Two parts merged front to back: each step writes the smaller head by a
/// select, not a branch (the keys interleave at random), and what is left
/// of one side once the other runs out is appended whole.
fn merge_two<E: Copy, K: Ord>(a: &[E], b: &[E], key: impl Fn(&E) -> K) -> Vec<E> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_b = key(&b[j]) < key(&a[i]);
        out.push(if take_b { b[j] } else { a[i] });
        (i, j) = (i + usize::from(!take_b), j + usize::from(take_b));
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Batched answers back into request order (every slot is some shard's).
fn gather<A: Clone>(
    n: usize,
    empty: A,
    parts: impl Iterator<Item = (Vec<A>, Vec<usize>)>,
) -> Vec<A> {
    let mut out = vec![empty; n];
    for (answers, slots) in parts {
        for (slot, answer) in slots.into_iter().zip(answers) {
            out[slot] = answer;
        }
    }
    out
}

/// The held in-degree sum, built from `parts` (every shard's complete
/// column → degree list) when none is held: a degree index keyed by
/// column, which ranks and bins the sums.  Summing every shard's list is
/// expensive enough that a burst of in-degree reads must not repeat it, so
/// holders keep the index until their content changes, and its top-k
/// cache serves the burst.
fn summed<T: ScalarType>(
    held: &mut Option<DegreeIndex<T>>,
    parts: impl Iterator<Item = (Answer<T>, Vec<usize>)>,
) -> &mut DegreeIndex<T> {
    held.get_or_insert_with(|| {
        let mut sum = DegreeIndex::new();
        for (col, degree) in parts.flat_map(|p| p.0.into_ranked()) {
            sum.add_unique_row(col, degree as u64, T::default());
        }
        sum
    })
}

/// One answer out of the shards' `(answer, slots)` parts.  Every rule
/// below is exact because shards own disjoint row sets and values combine
/// under an associative, commutative `+`; a shard that holds nothing adds
/// nothing.
fn combine<T: ScalarType>(
    q: &Query,
    mut parts: impl Iterator<Item = (Answer<T>, Vec<usize>)>,
    in_degrees: &mut Option<DegreeIndex<T>>,
) -> Answer<T> {
    match q {
        // One shard holds the row: what it says is the answer.
        Query::Get(..) | Query::Row(_) | Query::RowDegree(_) | Query::RowReduce(_) => {
            parts.next().map_or_else(|| Answer::empty_for(q), |p| p.0)
        }
        // Distinct cells, and the distinct rows of one column, add up.
        Query::Nnz | Query::ColDegree(_) => Answer::Count(parts.map(|p| p.0.into_count()).sum()),
        Query::ColReduce(_) => Answer::Value(
            parts
                .filter_map(|p| p.0.into_value())
                .reduce(|a, b| a.add(b)),
        ),
        // Every row is ranked by exactly one shard, so the global top-k is
        // the top-k of the local top-k's put together.
        Query::TopK(k) => {
            let mut all = concat(parts.map(|p| p.0.into_ranked()));
            all.sort_by(by_rank);
            all.truncate(*k);
            Answer::Ranked(all)
        }
        // Every row is counted by exactly one shard: the bins add.
        Query::DegreeHistogram => {
            let mut counts = BTreeMap::new();
            for (d, n) in parts.flat_map(|p| p.0.into_histogram()) {
                *counts.entry(d).or_insert(0) += n;
            }
            Answer::Histogram(counts)
        }
        // Sorted per shard, no key in two shards: linear merges order them.
        Query::Entries | Query::RowRange(..) => Answer::Entries(merge_parts(
            parts.map(|p| p.0.into_entries()).collect(),
            |&(r, c, _)| (u128::from(r) << 64) | u128::from(c),
        )),
        Query::Col(_) => Answer::Line(merge_parts(
            parts.map(|p| p.0.into_line()).collect(),
            |&(r, _)| r,
        )),
        Query::ColRange(..) => Answer::Entries(merge_parts(
            parts.map(|p| p.0.into_entries()).collect(),
            |&(r, c, _)| (u128::from(c) << 64) | u128::from(r),
        )),
        // In-degrees alone are summed per column *before* they are ranked
        // or binned (see `route`).
        Query::InTopK(k) => Answer::Ranked(summed(in_degrees, parts).top_k(*k)),
        Query::InDegreeHistogram => {
            Answer::Histogram(summed(in_degrees, parts).view_mut().degree_histogram())
        }
        Query::Rows(rows) => {
            let parts = parts.map(|(a, slots)| (a.into_lines(), slots));
            Answer::Lines(gather(rows.len(), Vec::new(), parts))
        }
        Query::GetMany(keys) => {
            let parts = parts.map(|(a, slots)| (a.into_values(), slots));
            Answer::Values(gather(keys.len(), None, parts))
        }
    }
}

/// A set of shards holding disjoint rows of one matrix, each of which can
/// be asked a [`Query`]: the live engine (over its worker channels, under
/// supervision) and its snapshot (directly).
trait ShardSet<T: ScalarType> {
    /// How many shards the rows are hashed over.
    fn shards(&self) -> usize;

    /// The typed error when any of `shards` is lost: a read never answers
    /// without a shard it needs.
    fn check_live(&self, _shards: &mut dyn Iterator<Item = usize>) -> GrbResult<()> {
        Ok(())
    }

    /// Ask one shard.
    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>>;

    /// Ask several shards, each its own query; answers in `asks` order.
    fn ask_each(&mut self, asks: Vec<(usize, Query)>) -> GrbResult<Vec<Answer<T>>> {
        asks.iter().map(|(s, q)| self.ask_owner(*s, q)).collect()
    }

    /// Where the summed in-degree index is held between reads.
    fn in_degrees(&mut self) -> &mut Option<DegreeIndex<T>>;

    /// An error the infallible reader surface could not return.
    fn latch(&self, _e: GrbError) {}
}

/// Answer `q` across `set`: route it, ask the shards it names, combine
/// what they say.
fn across<T: ScalarType, S: ShardSet<T>>(set: &mut S, q: &Query) -> GrbResult<Answer<T>> {
    let warm = set.in_degrees().is_some();
    Ok(match route(set.shards(), q, warm) {
        Route::Nobody => Answer::empty_for(q),
        Route::Owner(shard) => {
            set.check_live(&mut std::iter::once(shard))?;
            let part = (set.ask_owner(shard, q)?, Vec::new());
            combine(q, std::iter::once(part), set.in_degrees())
        }
        Route::Each(asks) => {
            set.check_live(&mut asks.iter().map(|a| a.shard))?;
            let (queries, slots): (Vec<_>, Vec<_>) = asks
                .into_iter()
                .map(|a| ((a.shard, a.query), a.slots))
                .unzip();
            let parts = set.ask_each(queries)?.into_iter().zip(slots);
            combine(q, parts, set.in_degrees())
        }
    })
}

/// [`across`] for the infallible [`MatrixReader::answer`]: an error is
/// latched and the empty answer stands in.
fn read<T: ScalarType, S: ShardSet<T>>(set: &mut S, q: &Query) -> Answer<T> {
    across(set, q).unwrap_or_else(|e| {
        set.latch(e);
        Answer::empty_for(q)
    })
}

impl<T: ScalarType> ShardSet<T> for ShardedHierMatrix<T> {
    fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Fails fast, before any target is asked; a worker that dies *during*
    /// the ask is an error too.
    fn check_live(&self, shards: &mut dyn Iterator<Item = usize>) -> GrbResult<()> {
        self.ensure_live(shards)
    }

    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>> {
        self.dispatch_shard(shard)?;
        self.pushdown_queries += 1;
        self.last_fanout = 1;
        let q = q.clone();
        self.run(shard, move |s| Ok(s.answer(&q)))
    }

    fn ask_each(&mut self, asks: Vec<(usize, Query)>) -> GrbResult<Vec<Answer<T>>> {
        self.ask_workers(asks, |q, s| Ok(s.answer(&q)))
    }

    fn in_degrees(&mut self) -> &mut Option<DegreeIndex<T>> {
        &mut self.in_degrees
    }

    fn latch(&self, e: GrbError) {
        self.latch_err(e);
    }
}

impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Answer one [`Query`] — the fallible form of every [`MatrixReader`]
    /// method.  A lost shard the query is routed to, or a timed-out wait,
    /// is a typed error.
    pub fn try_read(&mut self, q: Query) -> GrbResult<Answer<T>> {
        across(self, &q)
    }

    /// Take a consistent engine-wide snapshot: staged tuples dispatch,
    /// every worker snapshots its shard at its drain barrier (O(levels)
    /// Arc bumps — no entries are copied or shipped), and the producer
    /// receives one [`MatrixSnapshot`] per shard.  A shard's degree views
    /// ride along only when its indexes are already live: a capture
    /// activates none, so pure ingest keeps paying no upkeep.  The returned
    /// [`ShardedSnapshot`] answers every [`MatrixReader`] query from the
    /// captured state while the workers keep draining their channels —
    /// the analytics-while-ingest overlap the roadmap parked here.
    pub fn snapshot(&mut self) -> GrbResult<ShardedSnapshot<T>> {
        self.ensure_live(0..self.workers.len())?;
        let asks = self.every_shard().collect();
        let shards = self.ask_workers(asks, |(), s: &mut Shard<T>| Ok(s.snapshot()))?;
        Ok(ShardedSnapshot {
            nrows: self.nrows,
            ncols: self.ncols,
            shards,
            in_degrees: None,
        })
    }
}

/// For the engine an error (lost shard, timeout) answers empty and latches
/// into [`ShardedHierMatrix::take_read_error`]; [`ShardedHierMatrix::try_read`]
/// returns it instead.
impl<T: ScalarType> MatrixReader<T> for ShardedHierMatrix<T> {
    fn reader_name(&self) -> &str {
        "sharded-hier-graphblas"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn answer(&mut self, q: &Query) -> Answer<T> {
        read(self, q)
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedHierMatrix<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // A consistent engine-wide capture: every worker snapshots its
        // shard at its drain barrier (O(levels) Arc bumps, no copies),
        // and the Arc'd level structures stay alive for the duration of
        // the callback while the workers keep draining.  Shards own
        // disjoint rows, so the concatenated level list is a valid level
        // decomposition of the whole engine.
        match self.snapshot() {
            Ok(mut snap) => snap.with_level_dcsrs(f),
            Err(e) => {
                self.latch_err(e);
                f(&[]);
            }
        }
    }
}

/// One consistent point-in-time view of the whole sharded engine: a
/// [`MatrixSnapshot`] per shard, captured at each worker's drain barrier,
/// read by the same route and combine as the engine itself — and because
/// every per-shard snapshot holds Arc'd level structures, the engine keeps
/// ingesting (and its workers keep draining) while this view answers long
/// sweeps.
#[derive(Debug)]
pub struct ShardedSnapshot<T> {
    nrows: Index,
    ncols: Index,
    /// One capture per shard of the engine.
    shards: Vec<MatrixSnapshot<T>>,
    /// The summed in-degree index, built by the first in-degree read and
    /// good for as long as the capture.
    in_degrees: Option<DegreeIndex<T>>,
}

impl<T: ScalarType> ShardSet<T> for ShardedSnapshot<T> {
    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>> {
        Ok(self.shards[shard].answer(q))
    }

    fn in_degrees(&mut self) -> &mut Option<DegreeIndex<T>> {
        &mut self.in_degrees
    }
}

impl<T: ScalarType> MatrixReader<T> for ShardedSnapshot<T> {
    fn reader_name(&self) -> &str {
        "sharded-hier-graphblas-snapshot"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn answer(&mut self, q: &Query) -> Answer<T> {
        read(self, q)
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedSnapshot<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // Shards hold disjoint rows, so their captured levels concatenate
        // into one valid level decomposition of the whole engine.
        let levels: Vec<&Dcsr<T>> = self.shards.iter().flat_map(|s| s.level_dcsrs()).collect();
        f(&levels);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{stream, tiny_engine, DIM};
    use super::*;
    use hyperstream_graphblas::Matrix;

    /// `merge_parts` against a sort of the concatenation.
    fn check_merge(parts: Vec<Vec<(Index, u64)>>) {
        let mut want = concat(parts.clone().into_iter());
        want.sort_unstable();
        assert_eq!(merge_parts(parts, |&(r, _)| r), want);
    }

    /// `n` parts of `len` rows dealt from one ascending run by `owner`.
    fn dealt(n: usize, len: u64, owner: impl Fn(u64) -> usize) -> Vec<Vec<(Index, u64)>> {
        let mut parts = vec![Vec::new(); n];
        for r in 0..len {
            parts[owner(r)].push((r * 3 + 1, r));
        }
        parts
    }

    #[test]
    fn merge_parts_equals_a_sort_of_the_concatenation() {
        check_merge(Vec::new());
        check_merge(vec![Vec::new(), Vec::new()]);
        check_merge(vec![vec![(4, 1), (9, 2)]]);
        // Empty parts among full ones.
        check_merge(vec![
            Vec::new(),
            vec![(1, 1), (5, 1)],
            Vec::new(),
            vec![(7, 1)],
        ]);
        check_merge(vec![vec![(2, 1), (6, 1)], Vec::new(), vec![(1, 1), (5, 1)]]);
        let mut three = dealt(3, 40, |r| (r % 3) as usize);
        three.insert(1, Vec::new());
        check_merge(three);
        // Banded parts, given in band order and out of it.
        let bands = dealt(4, 100, |r| (r / 25) as usize);
        check_merge(bands.clone());
        check_merge(bands.into_iter().rev().collect());
        // Two parts interleaved one by one, in runs, and one under the other.
        check_merge(dealt(2, 1000, |r| (r % 2) as usize));
        check_merge(dealt(2, 1000, |r| (r / 7 % 2) as usize));
        check_merge(dealt(2, 1000, |r| usize::from(r == 500)));
        // Five parts, hashed and in runs.
        check_merge(dealt(5, 1000, |r| {
            (r.wrapping_mul(0x9E37_79B9) >> 7) as usize % 5
        }));
        check_merge(dealt(5, 1000, |r| (r / 13 % 5) as usize));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a shard answered out of order")]
    fn a_shard_answering_out_of_order_fails_loudly() {
        merge_parts(
            vec![vec![(1u64, 1u64), (3, 1)], vec![(4, 1), (2, 1)]],
            |&(r, _)| r,
        );
    }

    #[test]
    fn reader_pushdown_never_materializes() {
        let mut engine = tiny_engine(3);
        for &(r, c, v) in &stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        let before = engine.pushdown_queries;
        let _ = engine.read_nnz();
        let _ = engine.read_top_k(5);
        let mut row = Vec::new();
        engine.read_row(797_003, &mut row);
        let _ = engine.read_get(797_003, 1);
        let _ = engine.read_row_degree(797_003);
        let mut n = 0usize;
        engine.read_entries(&mut |_, _, _| n += 1);
        assert!(n > 0);
        assert!(engine.pushdown_queries >= before + 6);
        // The whole query battery ran through the worker pool's cursors:
        // no shard ever materialised `Σ levels`.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
        // The snapshot path, by contrast, is counted — proving the counter
        // would have caught a materialising query path.
        let _ = engine.materialize().unwrap();
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 3);
    }

    /// A column-dense stream: 60 columns, ~42 distinct rows each, so
    /// in-degree rankings are non-degenerate.
    fn col_stream(n: u64) -> Vec<(u64, u64, u64)> {
        (0..n)
            .map(|i| ((i * 7919) % 5000 * 797_003, (i * 104_729) % 60, i % 4 + 1))
            .collect()
    }

    #[test]
    fn column_battery_never_materializes() {
        let mut engine = tiny_engine(3);
        for &(r, c, v) in &col_stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        let before = engine.pushdown_queries;
        let mut col = Vec::new();
        engine.read_col(7, &mut col);
        assert!(!col.is_empty());
        let _ = engine.read_col_degree(7);
        let _ = engine.read_col_reduce(7);
        let _ = engine.read_in_top_k(5);
        let _ = engine.read_in_degree_histogram();
        let mut n = 0usize;
        engine.read_col_range(0, 30, &mut |_, _, _| n += 1);
        assert!(n > 0);
        let _ = engine.read_rows(&[0, 797_003]);
        let _ = engine.read_get_many(&[(797_003, 7)]);
        // 7 push-down rounds, not 8: the histogram right after top-k reuses
        // the producer-side summed in-degree cache instead of re-shipping
        // every shard's column stats.
        assert!(engine.pushdown_queries >= before + 7);
        let warm = engine.pushdown_queries;
        let _ = engine.read_in_top_k(5);
        assert_eq!(engine.pushdown_queries, warm, "cache hit expected");
        engine.update(1, 1, 1).unwrap();
        let _ = engine.read_in_top_k(5);
        assert!(
            engine.pushdown_queries > warm,
            "ingest must invalidate the in-degree cache"
        );
        // The whole column battery ran off worker-side twins and cursors:
        // no shard ever materialised `Σ levels`.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }

    #[test]
    fn batched_pushdown_matches_singles() {
        // The row hash spreads the probe rows across different owners,
        // exercising the group-by-shard dispatch and request-order
        // reassembly.
        let mut engine = tiny_engine(4);
        let updates = col_stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let mut probe_rows: Vec<u64> = updates.iter().take(9).map(|u| u.0).collect();
        probe_rows.push(DIM - 1); // absent row
        let batched = engine.read_rows(&probe_rows);
        assert_eq!(batched.len(), probe_rows.len());
        for (&row, got) in probe_rows.iter().zip(&batched) {
            let mut single = Vec::new();
            engine.read_row(row, &mut single);
            assert_eq!(*got, single, "row {row}");
        }
        let mut keys: Vec<(u64, u64)> = updates.iter().take(9).map(|u| (u.0, u.1)).collect();
        keys.push((DIM - 1, DIM - 1)); // absent cell
        let values = engine.read_get_many(&keys);
        assert_eq!(values.len(), keys.len());
        for (&(r, c), got) in keys.iter().zip(&values) {
            assert_eq!(*got, engine.read_get(r, c), "key ({r}, {c})");
        }
        // One batched call is a single push-down round, fanning out to at
        // most one query per owning shard.
        let before = engine.pushdown_queries;
        let _ = engine.read_rows(&probe_rows);
        assert_eq!(engine.pushdown_queries, before + 1);
        assert!(engine.last_query_fanout() <= 4);
    }

    #[test]
    fn cursor_pagerank_matches_flat_oracle() {
        let edges: &[(u64, u64)] = &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 0),
            (3, 4),
            (4, 3),
            (9, 2),
            (1 << 30, 0),
        ];
        let mut engine = tiny_engine(4);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c) in edges {
            engine.update(r, c, 1).unwrap();
            flat.accum_element(r, c, 1).unwrap();
        }
        let pr = hyperstream_graphblas::algo::pagerank(&mut engine, 0.85, 60, 1e-12);
        let oracle = hyperstream_graphblas::algo::pagerank(&mut flat, 0.85, 60, 1e-12);
        assert_eq!(pr.nvals(), oracle.nvals());
        for (v, r) in pr.iter() {
            let s = oracle.get(v).expect("same active set");
            assert!((r - s).abs() < 1e-9, "v={v}: {r} vs {s}");
        }
    }

    #[test]
    fn engine_and_snapshot_serve_cursor_algorithms() {
        // A symmetric triangle plus stragglers, counted straight off the
        // engine (snapshot-backed CursorReader) and off an explicit
        // snapshot while ingest continues.
        let mut engine = tiny_engine(2);
        for (a, b) in [(1u64, 2u64), (2, 3), (1, 3), (3, 900)] {
            engine.update(a, b, 1).unwrap();
            engine.update(b, a, 1).unwrap();
        }
        assert_eq!(hyperstream_graphblas::algo::triangle_count(&mut engine), 1);
        let mut snap = engine.snapshot().unwrap();
        assert_eq!(snap.shards.len(), 2);
        engine.update(5, 6, 1).unwrap(); // ingest continues past the capture
        assert_eq!(hyperstream_graphblas::algo::triangle_count(&mut snap), 1);
        assert_eq!(
            hyperstream_graphblas::oracle::triangle_count_tuples(&mut snap),
            Ok(1)
        );
        // Neither capture materialised any shard.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }
}
