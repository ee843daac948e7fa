//! The sharded read path — route → capture → combine — written once over
//! [`ShardedSnapshot`], the per-shard captures a read is answered from:
//! the live engine holds one, taking a shard's capture when a read first
//! needs it and dropping them all at the next write; a snapshot is one
//! with every shard captured, held for its lifetime.  The paragraph in the
//! [parent module](super) says why each step is what it is.

use super::{owner, ShardedHierMatrix};
use crate::matrix::Live;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::reader::{Answer, Query};
use hyperstream_graphblas::{
    CursorReader, DegreeIndex, GrbResult, Index, MatrixReader, MatrixSnapshot, ScalarType,
};
use std::collections::BTreeMap;
use std::ops::Range;

/// What answering `q` from a capture needs live on the shard: exactly what
/// the query activates on a live [`HierMatrix`](crate::HierMatrix) — a
/// side's degree index for the degree-centric kinds, the column twins for
/// the column extracts and scans.
fn needs(q: &Query) -> Live {
    use Query::*;
    Live {
        rows: matches!(
            q,
            RowDegree(_) | RowReduce(_) | TopK(_) | Nnz | DegreeHistogram
        ),
        cols: matches!(
            q,
            ColDegree(_) | ColReduce(_) | InTopK(_) | InDegreeHistogram
        ),
        twins: matches!(q, Col(_) | ColRange(..)),
    }
}

/// Whom `q` goes to among `shards` — its row's one owner, every shard, or
/// none — and what each of them is asked; `None` when the answer is empty
/// whatever the shards hold.  `warm`: a summed in-degree index is held.
fn route(shards: usize, q: Query, warm: bool) -> Option<(Range<usize>, Query)> {
    match q {
        Query::Get(row, _) | Query::Row(row) | Query::RowDegree(row) | Query::RowReduce(row) => {
            let shard = owner(row, shards);
            Some((shard..shard + 1, q))
        }
        Query::TopK(0) | Query::InTopK(0) => None,
        Query::RowRange(lo, hi) | Query::ColRange(lo, hi) if lo >= hi => None,
        // The held sum answers; it goes stale only with the content.
        Query::InTopK(_) | Query::InDegreeHistogram if warm => Some((0..0, q)),
        // A column's cells split over the row-partitioned shards, so a
        // shard's in-degree ranking says nothing about the global one:
        // every shard ships its complete column → degree list instead.
        Query::InTopK(_) | Query::InDegreeHistogram => Some((0..shards, Query::InTopK(usize::MAX))),
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
        | Query::ColRange(..) => Some((0..shards, q)),
    }
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

/// The held in-degree sum, built from `parts` (every shard's complete
/// column → degree list) when none is held: a degree index keyed by
/// column, which ranks and bins the sums.  Summing every shard's list is
/// expensive enough that a burst of in-degree reads must not repeat it, so
/// holders keep the index until their content changes, and its top-k
/// cache serves the burst.
fn summed<T: ScalarType>(
    held: &mut Option<DegreeIndex<T>>,
    parts: impl Iterator<Item = Answer<T>>,
) -> &mut DegreeIndex<T> {
    held.get_or_insert_with(|| {
        let mut sum = DegreeIndex::new();
        for (col, degree) in parts.flat_map(Answer::into_ranked) {
            sum.add_unique_row(col, degree as u64, T::default());
        }
        sum
    })
}

/// One answer out of the shards' parts.  Every rule below is exact because
/// shards own disjoint row sets and values combine under an associative,
/// commutative `+`; a shard that holds nothing adds nothing.
fn combine<T: ScalarType>(
    q: &Query,
    mut parts: impl Iterator<Item = Answer<T>>,
    in_degrees: &mut Option<DegreeIndex<T>>,
) -> Answer<T> {
    match q {
        // One shard holds the row: what it says is the answer.
        Query::Get(..) | Query::Row(_) | Query::RowDegree(_) | Query::RowReduce(_) => {
            parts.next().unwrap_or_else(|| Answer::empty_for(q))
        }
        // Distinct cells, and the distinct rows of one column, add up.
        Query::Nnz | Query::ColDegree(_) => Answer::Count(parts.map(Answer::into_count).sum()),
        Query::ColReduce(_) => {
            Answer::Value(parts.filter_map(Answer::into_value).reduce(|a, b| a.add(b)))
        }
        // Every row is ranked by exactly one shard, so the global top-k is
        // the top-k of the local top-k's put together.
        Query::TopK(k) => {
            let mut all = concat(parts.map(Answer::into_ranked));
            all.sort_by(by_rank);
            all.truncate(*k);
            Answer::Ranked(all)
        }
        // Every row is counted by exactly one shard: the bins add.
        Query::DegreeHistogram => {
            let mut counts = BTreeMap::new();
            for (d, n) in parts.flat_map(Answer::into_histogram) {
                *counts.entry(d).or_insert(0) += n;
            }
            Answer::Histogram(counts)
        }
        // Sorted per shard, no key in two shards: linear merges order them.
        Query::Entries | Query::RowRange(..) => Answer::Entries(merge_parts(
            parts.map(Answer::into_entries).collect(),
            |&(r, c, _)| (u128::from(r) << 64) | u128::from(c),
        )),
        Query::Col(_) => Answer::Line(merge_parts(
            parts.map(Answer::into_line).collect(),
            |&(r, _)| r,
        )),
        Query::ColRange(..) => Answer::Entries(merge_parts(
            parts.map(Answer::into_entries).collect(),
            |&(r, c, _)| (u128::from(c) << 64) | u128::from(r),
        )),
        // In-degrees alone are summed per column *before* they are ranked
        // or binned (see `route`).
        Query::InTopK(k) => Answer::Ranked(summed(in_degrees, parts).top_k(*k)),
        Query::InDegreeHistogram => {
            Answer::Histogram(summed(in_degrees, parts).view_mut().degree_histogram())
        }
    }
}

/// One consistent point-in-time view of the whole sharded engine: a
/// capture per shard ([`ShardedHierMatrix::snapshot`]), read by the same
/// route and combine as the engine itself — and because every capture
/// holds Arc'd level structures, the engine keeps ingesting (and its
/// workers keep draining) while this view answers long sweeps.  The
/// engine reads through one of these too, filling a shard's slot when a
/// read first needs it and emptying every slot at the next write.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<T> {
    nrows: Index,
    ncols: Index,
    /// Each shard's capture — settled levels and, as far as they are live
    /// on the shard, its degree views and column twins — and what is live.
    shards: Vec<Option<(MatrixSnapshot<T>, Live)>>,
    /// The summed in-degree index, built by the first in-degree read and
    /// good for as long as the captures.
    in_degrees: Option<DegreeIndex<T>>,
}

impl<T: ScalarType> ShardedSnapshot<T> {
    /// No shard captured yet.
    pub(super) fn new(nrows: Index, ncols: Index, shards: usize) -> Self {
        Self {
            nrows,
            ncols,
            shards: vec![None; shards],
            in_degrees: None,
        }
    }

    /// Drop every capture and the in-degree sum.
    pub(super) fn clear(&mut self) {
        self.shards.iter_mut().for_each(|s| *s = None);
        self.in_degrees = None;
    }

    /// Whether shard `s`'s capture is held and has what `need` asks for.
    fn serves(&self, s: usize, need: Live) -> bool {
        self.shards[s].as_ref().is_some_and(|(_, live)| {
            live.rows >= need.rows && live.cols >= need.cols && live.twins >= need.twins
        })
    }

    /// Whom `q` goes to, and what they are asked.
    fn route(&self, q: &Query) -> Option<(Range<usize>, Query)> {
        route(self.shards.len(), *q, self.in_degrees.is_some())
    }

    /// `q` answered as `routed` says, from captures that are all held: each
    /// is asked through [`MatrixReader::answer`], and what they say is
    /// combined.
    fn ask(&mut self, q: &Query, routed: Option<(Range<usize>, Query)>) -> Answer<T> {
        let Some((shards, asked)) = routed else {
            return Answer::empty_for(q);
        };
        let parts = self.shards[shards].iter_mut().map(|s| {
            let (capture, _) = s.as_mut().expect("a routed capture is held");
            capture.answer(&asked)
        });
        combine(q, parts, &mut self.in_degrees)
    }
}

impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Hold a capture of every routed shard that has what `need` asks for,
    /// and hand the captures back.  A lost routed shard is
    /// [`GrbError::ShardsLost`](hyperstream_graphblas::GrbError::ShardsLost)
    /// whether or not its capture is held.  Each shard missing one gets one
    /// capture job behind its staged tuples, all in flight at once; a read
    /// that needs a side's index captures every live shard without it, so
    /// no later read of the burst pays one shard's activation.
    fn capture(&mut self, routed: Range<usize>, need: Live) -> GrbResult<&mut ShardedSnapshot<T>> {
        self.ensure_live(routed.clone())?;
        let stale = |s: &usize| !self.held.serves(*s, need);
        let mut targets: Vec<usize> = routed.clone().filter(stale).collect();
        if !targets.is_empty() && (need.rows || need.cols) {
            let live = (0..self.workers.len()).filter(|&s| self.is_alive(s));
            targets = live.filter(stale).collect();
        }
        for &s in &targets {
            // A hand-off fails only to a lost worker, which its capture
            // job then reports.
            let _ = self.dispatch_shard(s);
        }
        self.capture_jobs += targets.len() as u64;
        let asks = targets.iter().map(|&s| (s, need));
        let captured = self.run_each(asks, |need, shard| Ok(shard.capture(need)));
        for (s, capture) in targets.into_iter().zip(captured) {
            match capture {
                Ok(capture) => self.held.shards[s] = Some(capture),
                Err(e) if routed.contains(&s) => return Err(e),
                // Lost while captured for another shard's read: the read
                // does not need it.
                Err(_) => {}
            }
        }
        Ok(&mut self.held)
    }

    /// Answer one [`Query`] — the fallible form of every [`MatrixReader`]
    /// method.  A lost shard the query is routed to, or a timed-out wait,
    /// is a typed error.
    pub fn try_read(&mut self, q: Query) -> GrbResult<Answer<T>> {
        self.read(&q)
    }

    fn read(&mut self, q: &Query) -> GrbResult<Answer<T>> {
        let routed = self.held.route(q);
        let shards = routed.as_ref().map_or(0..0, |(shards, _)| shards.clone());
        let held = self.capture(shards, needs(q))?;
        Ok(held.ask(q, routed))
    }

    /// Take a consistent engine-wide snapshot: every shard's capture, the
    /// ones the engine holds reused — each taken by its worker at its drain
    /// barrier, staged tuples dispatched first (O(levels) Arc bumps, no
    /// entries copied or shipped).  A shard's degree views and twins ride
    /// along only when already live: a capture activates none, so pure
    /// ingest keeps paying no upkeep.  The [`ShardedSnapshot`] answers every
    /// [`MatrixReader`] query from the captured state while the workers
    /// keep draining their channels.
    pub fn snapshot(&mut self) -> GrbResult<ShardedSnapshot<T>> {
        let every = 0..self.workers.len();
        Ok(self.capture(every, Live::default())?.clone())
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
        self.read(q).unwrap_or_else(|e| {
            self.latch_err(e);
            Answer::empty_for(q)
        })
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedHierMatrix<T> {
    /// Every shard's capture, as for [`ShardedHierMatrix::snapshot`]; the
    /// Arc'd level structures stay alive for the callback while the
    /// workers keep draining.
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        match self.capture(0..self.workers.len(), Live::default()) {
            Ok(held) => held.with_level_dcsrs(f),
            Err(e) => {
                self.latch_err(e);
                f(&[]);
            }
        }
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
        let routed = self.route(q);
        self.ask(q, routed)
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedSnapshot<T> {
    /// Shards hold disjoint rows, so their captured levels concatenate into
    /// one valid level decomposition of the whole engine.
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        let captures = self.shards.iter().flatten();
        let levels: Vec<&Dcsr<T>> = captures.flat_map(|(c, _)| c.level_dcsrs()).collect();
        f(&levels);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{flat_of, stream, tiny_engine, DIM};
    use super::*;
    use hyperstream_graphblas::{GrbError, Matrix};

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

    /// Captures the engine holds.
    fn held(e: &ShardedHierMatrix<u64>) -> usize {
        e.held.shards.iter().flatten().count()
    }

    /// Kill shard `victim`'s worker with a job that panics.
    fn kill(e: &ShardedHierMatrix<u64>, victim: usize) {
        let died = e.run(victim, |_| -> GrbResult<()> {
            panic!("worker killed by a test")
        });
        assert!(matches!(died, Err(GrbError::ShardsLost { .. })), "{died:?}");
    }

    /// `burst` answered exactly by the engine after a write: the first time
    /// at one capture job for each of `routed` shards, a second time at
    /// none, and with nothing materialised.  `burst` runs once before the
    /// write so that what it activates is live already.
    fn one_capture_per_routed_shard(
        engine: &mut ShardedHierMatrix<u64>,
        updates: &mut Vec<(u64, u64, u64)>,
        burst: &[Query],
        routed: u64,
    ) {
        let check = |e: &mut ShardedHierMatrix<u64>, updates: &[(u64, u64, u64)]| {
            let mut flat = flat_of(updates);
            let before = e.capture_jobs();
            for q in burst {
                assert_eq!(e.try_read(*q), Ok(flat.answer(q)), "{q:?}");
            }
            e.capture_jobs() - before
        };
        check(engine, updates);
        let write = (3 * 797_003, 7, 1);
        engine.update(write.0, write.1, write.2).unwrap();
        updates.push(write);
        assert_eq!(held(engine), 0);
        assert_eq!(check(engine, updates), routed, "the burst after a write");
        assert_eq!(check(engine, updates), 0, "a burst with no write before it");
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }

    #[test]
    fn reader_pushdown_never_materializes() {
        let mut engine = tiny_engine(3);
        let mut updates = stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let burst = [
            Query::Row(797_003),
            Query::Get(797_003, 1),
            Query::Nnz,
            Query::TopK(5),
            Query::RowDegree(797_003),
            Query::Entries,
        ];
        one_capture_per_routed_shard(&mut engine, &mut updates, &burst, 3);
        // The materialisation path, by contrast, is counted — proving the
        // counter would have caught a materialising read.
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
        let mut updates = col_stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let burst = [
            Query::Col(7),
            Query::ColDegree(7),
            Query::ColReduce(7),
            Query::InTopK(5),
            Query::InDegreeHistogram,
            Query::ColRange(0, 30),
        ];
        one_capture_per_routed_shard(&mut engine, &mut updates, &burst, 3);
        // The summed in-degree index is held with the captures, and a
        // write drops both.
        assert!(engine.held.in_degrees.is_some());
        engine.update(1, 1, 1).unwrap();
        assert!(engine.held.in_degrees.is_none());
    }

    #[test]
    fn a_burst_of_single_reads_captures_each_shard_once() {
        // The row hash spreads the probe rows over every shard: a burst of
        // row extracts and point gets after a write takes each shard's
        // capture once, however many of its keys the burst asks for.
        let mut engine = tiny_engine(4);
        let mut updates = col_stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let mut keys: Vec<(u64, u64)> = updates.iter().take(24).map(|u| (u.0, u.1)).collect();
        keys.push((DIM - 1, DIM - 1)); // absent row and cell
        let owners = keys.iter().map(|&(r, _)| owner(r, 4));
        assert_eq!(owners.collect::<std::collections::BTreeSet<_>>().len(), 4);
        let burst: Vec<Query> = keys
            .iter()
            .flat_map(|&(r, c)| [Query::Row(r), Query::Get(r, c)])
            .collect();
        one_capture_per_routed_shard(&mut engine, &mut updates, &burst, 4);
    }

    #[test]
    fn a_degree_read_activates_every_shard() {
        let mut engine = tiny_engine(3);
        let updates = stream(3000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let row_on = |shard| updates.iter().find(|u| owner(u.0, 3) == shard).unwrap().0;
        let _ = engine.read_row_degree(row_on(0));
        let before = engine.capture_jobs();
        assert_eq!(before, 3, "every shard captured with its row index live");
        let mut flat = flat_of(&updates);
        assert_eq!(engine.read_top_k(5), flat.read_top_k(5));
        let other = row_on(2);
        assert_eq!(engine.read_row_degree(other), flat.read_row_degree(other));
        assert_eq!(
            engine.capture_jobs(),
            before,
            "no worker job after the first"
        );
    }

    #[test]
    fn writes_leave_no_capture_held() {
        let mut engine = tiny_engine(3);
        let updates = stream(600);
        let rows: Vec<u64> = updates.iter().map(|u| u.0).collect();
        let cols: Vec<u64> = updates.iter().map(|u| u.1).collect();
        let vals: Vec<u64> = updates.iter().map(|u| u.2).collect();
        let capture_all = |e: &mut ShardedHierMatrix<u64>| {
            let _ = e.read_in_top_k(3);
            assert_eq!(held(e), 3);
            assert!(e.held.in_degrees.is_some());
        };
        let none_held = |e: &ShardedHierMatrix<u64>| held(e) == 0 && e.held.in_degrees.is_none();
        capture_all(&mut engine);
        engine.update_batch(&rows, &cols, &vals).unwrap();
        assert!(none_held(&engine), "update_batch");
        capture_all(&mut engine);
        engine.flush().unwrap();
        assert!(none_held(&engine), "flush");
        capture_all(&mut engine);
        // A worker loss is not a write: the captures stay until the respawn.
        kill(&engine, 1);
        assert_eq!(held(&engine), 3);
        engine.respawn_shard(1).unwrap();
        assert!(none_held(&engine), "respawn_shard");
    }

    #[test]
    fn held_captures_refuse_a_lost_route_and_answer_past_it() {
        let mut engine = tiny_engine(3);
        let updates = stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let mut flat = flat_of(&updates);
        let _ = engine.read_nnz();
        let _ = engine.read_col_degree(1);
        let (lost, col, _) = updates[0];
        let victim = owner(lost, 3);
        let live = updates.iter().find(|u| owner(u.0, 3) != victim).unwrap().0;
        kill(&engine, victim);
        let before = engine.capture_jobs();
        for q in [
            Query::Get(lost, col),
            Query::RowDegree(lost),
            Query::Nnz,
            Query::Col(col),
            Query::InTopK(3),
        ] {
            let refused = engine.try_read(q);
            let named = |e: &GrbError| matches!(e, GrbError::ShardsLost { shards, .. } if shards == &vec![victim]);
            assert!(matches!(&refused, Err(e) if named(e)), "{q:?}: {refused:?}");
        }
        for q in [
            Query::Get(live, col),
            Query::Row(live),
            Query::RowDegree(live),
            Query::RowReduce(live),
        ] {
            assert_eq!(engine.try_read(q), Ok(flat.answer(&q)), "{q:?}");
        }
        assert_eq!(
            engine.capture_jobs(),
            before,
            "answered from the held captures"
        );
    }

    /// The capture job's fault site: a worker that dies capturing for a
    /// read routed to another shard — one that needs every shard's row
    /// index — costs that read nothing; only reads routed to it refuse.
    /// Shard 5 of six: no other unit test's engine has a shard 5, so the
    /// process-global arm reaches this engine alone.
    #[test]
    #[cfg(feature = "failpoints")]
    fn a_worker_lost_in_its_capture_job_fails_only_its_own_reads() {
        use crate::failpoint::{self, FailAction};
        let mut engine = tiny_engine(6);
        let updates = stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let row_on = |on: bool| {
            updates
                .iter()
                .find(|u| (owner(u.0, 6) == 5) == on)
                .unwrap()
                .0
        };
        failpoint::arm_at("worker-query", Some(5), 1, FailAction::Panic);
        let live = Query::RowDegree(row_on(false));
        assert_eq!(engine.try_read(live), Ok(flat_of(&updates).answer(&live)));
        assert_eq!(failpoint::fired("worker-query"), 1);
        failpoint::disarm("worker-query");
        assert_eq!(engine.lost_shards(), vec![5]);
        let refused = engine.try_read(Query::RowDegree(row_on(true)));
        assert!(
            matches!(&refused, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![5]),
            "{refused:?}"
        );
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
