//! The sharded read path — route → ask → combine — written once over a
//! [`ShardSet`], with its two instances: the live engine and
//! [`ShardedSnapshot`].  The paragraph in the [parent module](super) says
//! why each step is what it is.

use super::{ShardPartitioner, ShardedHierMatrix, WorkerMsg};
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::reader::{self, Answer, Query};
use hyperstream_graphblas::{
    CursorReader, GrbError, GrbResult, Index, MatrixReader, MatrixSnapshot, ScalarType,
};
use std::collections::BTreeMap;

/// How rows map to shards: all that routing a read needs to know.
struct Partition {
    by: ShardPartitioner,
    nrows: Index,
    shards: usize,
}

impl Partition {
    fn owner(&self, row: Index) -> usize {
        self.by.shard(row, self.nrows, self.shards)
    }

    /// The shards whose rows can fall in the non-empty range `lo..hi`: a
    /// run of bands under `RowRange`, every shard under `RowHash`.
    fn span(&self, lo: Index, hi: Index) -> std::ops::Range<usize> {
        match self.by {
            ShardPartitioner::RowRange => {
                let last = (hi - 1).min(self.nrows.saturating_sub(1));
                self.owner(lo)..self.owner(last) + 1
            }
            ShardPartitioner::RowHash => 0..self.shards,
        }
    }
}

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
    /// Several shards at once: the row bands a range overlaps, every shard,
    /// or the owners of a batch of keys (each asked for its own keys only).
    Each(Vec<Ask>),
}

/// Whom `q` goes to under `p`.  `warm`: a summed in-degree map is held.
fn route(p: &Partition, q: &Query, warm: bool) -> Route {
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
            Route::Owner(p.owner(*row))
        }
        Query::TopK(0) | Query::InTopK(0) => Route::Nobody,
        Query::RowRange(lo, hi) | Query::ColRange(lo, hi) if lo >= hi => Route::Nobody,
        // Only the workers whose row bands overlap the range: a narrow scan
        // of a `RowRange` engine is served by one while the rest ingest.
        Query::RowRange(lo, hi) => each(p.span(*lo, *hi), q),
        // The held sum answers; it goes stale only with the content.
        Query::InTopK(_) | Query::InDegreeHistogram if warm => each(0..0, q),
        // A column's cells split over the row-partitioned shards, so a
        // shard's in-degree ranking says nothing about the global one:
        // every shard ships its complete column → degree list instead.
        Query::InTopK(_) | Query::InDegreeHistogram => {
            each(0..p.shards, &Query::InTopK(usize::MAX))
        }
        // Whole-matrix and column reads touch every row partition.
        Query::Nnz
        | Query::Entries
        | Query::TopK(_)
        | Query::DegreeHistogram
        | Query::Col(_)
        | Query::ColDegree(_)
        | Query::ColReduce(_)
        | Query::ColRange(..) => each(0..p.shards, q),
        Query::Rows(rows) => scatter(p, rows, |&row| row, Query::Rows),
        Query::GetMany(keys) => scatter(p, keys, |&(row, _)| row, Query::GetMany),
    }
}

/// Group `keys` by owning shard: one batched query per involved shard,
/// built by `query` from the keys that shard owns.
fn scatter<K: Copy>(
    p: &Partition,
    keys: &[K],
    row_of: impl Fn(&K) -> Index,
    query: impl Fn(Vec<K>) -> Query,
) -> Route {
    let mut groups: Vec<(usize, Vec<usize>, Vec<K>)> = Vec::new();
    for (slot, key) in keys.iter().enumerate() {
        let owner = p.owner(row_of(key));
        match groups.iter_mut().find(|g| g.0 == owner) {
            Some((_, slots, owned)) => {
                slots.push(slot);
                owned.push(*key);
            }
            None => groups.push((owner, vec![slot], vec![*key])),
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

/// The first `k` of `degrees` by rank: a selection of the `k` best, then a
/// sort of those alone.
fn rank(degrees: &BTreeMap<Index, usize>, k: usize) -> Vec<(Index, usize)> {
    let mut all: Vec<(Index, usize)> = degrees.iter().map(|(&c, &d)| (c, d)).collect();
    if (1..all.len()).contains(&k) {
        all.select_nth_unstable_by(k, by_rank);
    }
    all.truncate(k);
    all.sort_unstable_by(by_rank);
    all
}

/// Ranks of a summed in-degree map that are ranked when it is built — the
/// cover of the degree index's own top-k cache.
const IN_TOP_READY: usize = 128;

/// The column → in-degree map summed over the shards, with its top ranks
/// beside it.  Summing every shard's complete list is expensive enough that
/// a burst of in-degree reads must not repeat it: holders keep the sum
/// until their content changes, and the ranking is done once, here, so a
/// read against a held sum copies a prefix instead of sorting every column.
#[derive(Debug)]
pub(super) struct SummedInDegrees {
    degrees: BTreeMap<Index, usize>,
    /// The first [`IN_TOP_READY`] ranks (or all there are).
    top: Vec<(Index, usize)>,
    /// The lost shards the sum had to leave out: every answer derived from
    /// it is missing exactly their rows, however long it has been held.
    skipped: Vec<usize>,
}

impl SummedInDegrees {
    fn sum(parts: impl Iterator<Item = Vec<(Index, usize)>>, skipped: Vec<usize>) -> Self {
        let mut degrees = BTreeMap::new();
        for (c, d) in parts.flatten() {
            *degrees.entry(c).or_insert(0) += d;
        }
        Self {
            top: rank(&degrees, IN_TOP_READY),
            degrees,
            skipped,
        }
    }

    fn top_k(&self, k: usize) -> Vec<(Index, usize)> {
        if k <= self.top.len() || self.top.len() == self.degrees.len() {
            self.top[..k.min(self.top.len())].to_vec()
        } else {
            rank(&self.degrees, k)
        }
    }

    fn histogram(&self) -> BTreeMap<u64, u64> {
        let mut counts = BTreeMap::new();
        for &d in self.degrees.values() {
            *counts.entry(d as u64).or_insert(0) += 1;
        }
        counts
    }
}

/// Merge per-shard row-major entry lists into one.  Shards own disjoint row
/// sets, so all entries of a row sit contiguously in one list: after
/// picking the list with the smallest head row the whole run of that row is
/// emitted before re-scanning heads.
fn merge_disjoint_entries<T: ScalarType>(
    parts: Vec<Vec<(Index, Index, T)>>,
) -> Vec<(Index, Index, T)> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut pos = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(usize, Index)> = None;
        for (i, p) in parts.iter().enumerate() {
            if let Some(&(r, _, _)) = p.get(pos[i]) {
                if best.map_or(true, |(_, br)| r < br) {
                    best = Some((i, r));
                }
            }
        }
        let Some((i, row)) = best else { break };
        let before = out.len();
        out.extend(parts[i][pos[i]..].iter().take_while(|e| e.0 == row));
        pos[i] += out.len() - before;
    }
    out
}

/// Per-shard lists end to end, each appended with one exact reservation.
fn concat<A>(mut lists: impl Iterator<Item = Vec<A>>) -> Vec<A> {
    let mut all = lists.next().unwrap_or_default();
    lists.for_each(|list| all.extend(list));
    all
}

/// Batched answers back into request order; keys nobody answered for (a
/// lost owner under degraded reads) keep `empty`.
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

/// The held in-degree sum, built from `parts` (every live shard's complete
/// column → degree list) when none is held.  `lost` becomes what the sum
/// left out — on a hit, what it left out when it was built.
fn summed<'a, T: ScalarType>(
    held: &'a mut Option<SummedInDegrees>,
    parts: impl Iterator<Item = (Answer<T>, Vec<usize>)>,
    lost: &mut Vec<usize>,
) -> &'a SummedInDegrees {
    let sum = held.get_or_insert_with(|| {
        SummedInDegrees::sum(parts.map(|p| p.0.into_ranked()), std::mem::take(lost))
    });
    lost.clone_from(&sum.skipped);
    sum
}

/// One answer out of the shards' `(answer, slots)` parts.  Every rule
/// below is exact because shards own disjoint row sets and values combine
/// under an associative, commutative `+`; a skipped shard has no part, so
/// its rows are simply absent.
fn combine<T: ScalarType>(
    q: &Query,
    mut parts: impl Iterator<Item = (Answer<T>, Vec<usize>)>,
    in_degrees: &mut Option<SummedInDegrees>,
    lost: &mut Vec<usize>,
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
        Query::Entries | Query::RowRange(..) => Answer::Entries(merge_disjoint_entries(
            parts.map(|p| p.0.into_entries()).collect(),
        )),
        // Every row is counted by exactly one shard: the bins add.
        Query::DegreeHistogram => {
            let mut counts = BTreeMap::new();
            for (d, n) in parts.flat_map(|p| p.0.into_histogram()) {
                *counts.entry(d).or_insert(0) += n;
            }
            Answer::Histogram(counts)
        }
        // Column slices hold disjoint rows: one sort puts them in order.
        Query::Col(_) => {
            let mut all = concat(parts.map(|p| p.0.into_line()));
            all.sort_unstable_by_key(|&(r, _)| r);
            Answer::Line(all)
        }
        Query::ColRange(..) => {
            let mut all = concat(parts.map(|p| p.0.into_entries()));
            all.sort_unstable_by_key(|&(r, c, _)| (c, r));
            Answer::Entries(all)
        }
        // In-degrees alone are summed per column *before* they are ranked
        // or binned (see `route`).
        Query::InTopK(k) => Answer::Ranked(summed(in_degrees, parts, lost).top_k(*k)),
        Query::InDegreeHistogram => Answer::Histogram(summed(in_degrees, parts, lost).histogram()),
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
    /// How rows map to shards.
    fn partition(&self) -> Partition;

    /// Of `shards`, the ones that are lost and have to be left out — or the
    /// typed error, where answering without them is not allowed.
    fn skipped(&self, shards: &mut dyn Iterator<Item = usize>) -> GrbResult<Vec<usize>>;

    /// Ask one shard that is not lost.
    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>>;

    /// Ask several shards that are not lost, each its own query; answers in
    /// `asks` order.
    fn ask_each(&mut self, asks: Vec<(usize, Query)>) -> GrbResult<Vec<Answer<T>>> {
        asks.iter().map(|(s, q)| self.ask_owner(*s, q)).collect()
    }

    /// Where the summed in-degree map is held between reads.
    fn in_degrees(&mut self) -> &mut Option<SummedInDegrees>;

    /// The shards the answer just given is missing.
    fn note_lost(&mut self, _lost: Vec<usize>) {}

    /// An error the infallible reader surface could not return.
    fn latch(&self, _e: GrbError) {}
}

/// Answer `q` across `set`: route it, ask the shards that are there,
/// combine what they say.
fn across<T: ScalarType, S: ShardSet<T>>(set: &mut S, q: &Query) -> GrbResult<Answer<T>> {
    let warm = set.in_degrees().is_some();
    let mut lost = Vec::new();
    let answer = match route(&set.partition(), q, warm) {
        Route::Nobody => Answer::empty_for(q),
        Route::Owner(shard) => {
            lost = set.skipped(&mut std::iter::once(shard))?;
            let part = if lost.is_empty() {
                Some((set.ask_owner(shard, q)?, Vec::new()))
            } else {
                None
            };
            combine(q, part.into_iter(), set.in_degrees(), &mut lost)
        }
        Route::Each(mut asks) => {
            lost = set.skipped(&mut asks.iter().map(|a| a.shard))?;
            asks.retain(|a| !lost.contains(&a.shard));
            let (queries, slots): (Vec<_>, Vec<_>) = asks
                .into_iter()
                .map(|a| ((a.shard, a.query), a.slots))
                .unzip();
            let parts = set.ask_each(queries)?.into_iter().zip(slots);
            combine(q, parts, set.in_degrees(), &mut lost)
        }
    };
    set.note_lost(lost);
    Ok(answer)
}

/// [`across`] for the infallible [`MatrixReader`] signatures: an error is
/// latched and the empty answer stands in.
fn read<T: ScalarType, S: ShardSet<T>>(set: &mut S, q: Query) -> Answer<T> {
    across(set, &q).unwrap_or_else(|e| {
        set.latch(e);
        Answer::empty_for(&q)
    })
}

impl<T: ScalarType> ShardSet<T> for ShardedHierMatrix<T> {
    fn partition(&self) -> Partition {
        Partition {
            by: self.config.partitioner,
            nrows: self.nrows,
            shards: self.shards.len(),
        }
    }

    /// Strict reads fail fast on any lost target; degraded reads leave it
    /// out.  A worker that dies *during* the ask is always an error.
    fn skipped(&self, shards: &mut dyn Iterator<Item = usize>) -> GrbResult<Vec<usize>> {
        let lost: Vec<usize> = shards.filter(|&s| !self.is_alive(s)).collect();
        if lost.is_empty() || self.config.degraded_reads {
            Ok(lost)
        } else {
            Err(self.lost_error(lost))
        }
    }

    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>> {
        let reply = self.post(shard, |tx| WorkerMsg::Query(q.clone(), tx))?;
        self.pushdown_queries += 1;
        self.last_fanout = 1;
        self.recv_bounded(shard, "query reply", &reply)
    }

    fn ask_each(&mut self, asks: Vec<(usize, Query)>) -> GrbResult<Vec<Answer<T>>> {
        self.ask_workers(asks, WorkerMsg::Query)
    }

    fn in_degrees(&mut self) -> &mut Option<SummedInDegrees> {
        &mut self.in_degrees_cache
    }

    fn note_lost(&mut self, lost: Vec<usize>) {
        self.last_answer_lost = lost;
    }

    fn latch(&self, e: GrbError) {
        self.latch_err(e);
    }
}

impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Answer one [`Query`] — the fallible form of every [`MatrixReader`]
    /// method.  A lost shard or a timed-out wait is a typed error; with
    /// [`degraded_reads`](super::ShardedConfig::degraded_reads) a lost
    /// shard's rows are left out of the answer instead and
    /// [`Self::last_answer_lost`] names it.
    pub fn try_read(&mut self, q: Query) -> GrbResult<Answer<T>> {
        across(self, &q)
    }

    /// Take a consistent engine-wide snapshot: staged tuples dispatch,
    /// every worker snapshots its shard at its drain barrier (O(levels)
    /// Arc bumps — no entries are copied or shipped), and the producer
    /// receives one [`MatrixSnapshot`] per shard.  The returned
    /// [`ShardedSnapshot`] answers every [`MatrixReader`] query from the
    /// captured state while the workers keep draining their channels —
    /// the analytics-while-ingest overlap the roadmap parked here.
    pub fn snapshot(&mut self) -> GrbResult<ShardedSnapshot<T>> {
        let all = 0..self.workers.len();
        let lost = self.skipped(&mut all.clone())?;
        let live = all.clone().filter(|s| !lost.contains(s));
        let mut taken = self
            .ask_workers(live.map(|s| (s, ())).collect(), |(), tx| {
                WorkerMsg::Snapshot(tx)
            })?
            .into_iter();
        self.last_answer_lost = lost.clone();
        Ok(ShardedSnapshot {
            nrows: self.nrows,
            ncols: self.ncols,
            partitioner: self.config.partitioner,
            shards: all
                .map(|s| (!lost.contains(&s)).then(|| taken.next()).flatten())
                .collect(),
            lost,
            in_degrees: None,
        })
    }
}

/// [`MatrixReader`] for a [`ShardSet`]: every method is its [`Query`]
/// through [`read`].  For the engine an error (lost shard, timeout) answers
/// empty and latches into [`ShardedHierMatrix::take_read_error`];
/// [`ShardedHierMatrix::try_read`] returns it instead.
macro_rules! read_across_shards {
    ($store:ident, $name:literal) => {
        impl<T: ScalarType> MatrixReader<T> for $store<T> {
            fn reader_name(&self) -> &str {
                $name
            }
            fn read_dims(&self) -> (Index, Index) {
                (self.nrows, self.ncols)
            }
            fn read_get(&mut self, row: Index, col: Index) -> Option<T> {
                read(self, Query::Get(row, col)).into_value()
            }
            fn read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) {
                *out = read(self, Query::Row(row)).into_line();
            }
            fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, T)) {
                let entries = read(self, Query::Entries).into_entries();
                entries.into_iter().for_each(|(r, c, v)| f(r, c, v));
            }
            fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
                let entries = read(self, Query::RowRange(lo, hi)).into_entries();
                entries.into_iter().for_each(|(r, c, v)| f(r, c, v));
            }
            fn read_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
                read(self, Query::DegreeHistogram).into_histogram()
            }
            fn read_nnz(&mut self) -> usize {
                read(self, Query::Nnz).into_count()
            }
            fn read_row_degree(&mut self, row: Index) -> usize {
                read(self, Query::RowDegree(row)).into_count()
            }
            fn read_row_reduce(&mut self, row: Index) -> Option<T> {
                read(self, Query::RowReduce(row)).into_value()
            }
            fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
                read(self, Query::TopK(k)).into_ranked()
            }
            fn read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
                *out = read(self, Query::Col(col)).into_line();
            }
            fn read_col_degree(&mut self, col: Index) -> usize {
                read(self, Query::ColDegree(col)).into_count()
            }
            fn read_col_reduce(&mut self, col: Index) -> Option<T> {
                read(self, Query::ColReduce(col)).into_value()
            }
            fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
                read(self, Query::InTopK(k)).into_ranked()
            }
            fn read_in_degree_histogram(&mut self) -> BTreeMap<u64, u64> {
                read(self, Query::InDegreeHistogram).into_histogram()
            }
            fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
                let entries = read(self, Query::ColRange(lo, hi)).into_entries();
                entries.into_iter().for_each(|(r, c, v)| f(r, c, v));
            }
            fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, T)>> {
                read(self, Query::Rows(rows.to_vec())).into_lines()
            }
            fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<T>> {
                read(self, Query::GetMany(keys.to_vec())).into_values()
            }
        }
    };
}

read_across_shards!(ShardedHierMatrix, "sharded-hier-graphblas");
read_across_shards!(ShardedSnapshot, "sharded-hier-graphblas-snapshot");

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
    partitioner: ShardPartitioner,
    /// One capture per shard of the engine; `None` for a shard in `lost`.
    shards: Vec<Option<MatrixSnapshot<T>>>,
    /// Shards missing from the capture (degraded snapshot of a degraded
    /// engine); empty for a complete capture.
    lost: Vec<usize>,
    /// The summed in-degree map, built by the first in-degree read and
    /// good for as long as the capture.
    in_degrees: Option<SummedInDegrees>,
}

impl<T: ScalarType> ShardedSnapshot<T> {
    /// Number of captured shard snapshots.
    pub fn num_shards(&self) -> usize {
        self.shards.len() - self.lost.len()
    }

    /// Shards missing from the capture (only non-empty when the snapshot
    /// was taken from a degraded engine with degraded reads enabled).
    pub fn lost_shards(&self) -> &[usize] {
        &self.lost
    }
}

impl<T: ScalarType> ShardSet<T> for ShardedSnapshot<T> {
    fn partition(&self) -> Partition {
        Partition {
            by: self.partitioner,
            nrows: self.nrows,
            shards: self.shards.len(),
        }
    }

    fn skipped(&self, shards: &mut dyn Iterator<Item = usize>) -> GrbResult<Vec<usize>> {
        Ok(shards.filter(|s| self.lost.contains(s)).collect())
    }

    fn ask_owner(&mut self, shard: usize, q: &Query) -> GrbResult<Answer<T>> {
        Ok(match &mut self.shards[shard] {
            Some(captured) => reader::answer(captured, q),
            None => Answer::empty_for(q),
        })
    }

    fn in_degrees(&mut self) -> &mut Option<SummedInDegrees> {
        &mut self.in_degrees
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedSnapshot<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // Shards hold disjoint rows, so their captured levels concatenate
        // into one valid level decomposition of the whole engine.
        let levels: Vec<&Dcsr<T>> = self
            .shards
            .iter()
            .flatten()
            .flat_map(|s| s.level_dcsrs())
            .collect();
        f(&levels);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{stream, tiny_engine, DIM};
    use super::*;
    use hyperstream_graphblas::Matrix;

    #[test]
    fn reader_pushdown_never_materializes() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
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
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
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
        // RowRange spreads consecutive probe rows across different owners,
        // exercising the group-by-shard dispatch and request-order
        // reassembly.
        let mut engine = tiny_engine(4, ShardPartitioner::RowRange);
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
    fn row_range_dispatches_only_overlapping_workers() {
        let mut range_engine = tiny_engine(4, ShardPartitioner::RowRange);
        let mut hash_engine = tiny_engine(4, ShardPartitioner::RowHash);
        let updates = stream(2000);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &updates {
            range_engine.update(r, c, v).unwrap();
            hash_engine.update(r, c, v).unwrap();
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        // A band well inside the first shard's range (rows < DIM / 4).
        let (lo, hi) = (0u64, 1u64 << 26);
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r >= lo && r < hi)
            .collect();
        let mut got = Vec::new();
        range_engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, expect);
        assert_eq!(
            range_engine.last_query_fanout(),
            1,
            "narrow range should visit one RowRange worker"
        );
        // The hash partitioner cannot bound the scan: full fan-out.
        got.clear();
        hash_engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, expect);
        assert_eq!(hash_engine.last_query_fanout(), 4);
        // Wide ranges visit every band worker and agree too.
        got.clear();
        range_engine.read_row_range(0, DIM, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got.len(), flat.nvals());
        assert_eq!(range_engine.last_query_fanout(), 4);
        // Empty range is free.
        got.clear();
        range_engine.read_row_range(5, 5, &mut |r, c, v| got.push((r, c, v)));
        assert!(got.is_empty());
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
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(4, partitioner);
            let mut flat = Matrix::<u64>::new(DIM, DIM);
            for &(r, c) in edges {
                engine.update(r, c, 1).unwrap();
                flat.accum_element(r, c, 1).unwrap();
            }
            let pr = hyperstream_graphblas::algo::pagerank(&mut engine, 0.85, 60, 1e-12);
            let oracle = hyperstream_graphblas::algo::pagerank(&mut flat, 0.85, 60, 1e-12);
            assert_eq!(pr.nvals(), oracle.nvals(), "{partitioner:?}");
            for (v, r) in pr.iter() {
                let s = oracle.get(v).expect("same active set");
                assert!((r - s).abs() < 1e-9, "{partitioner:?} v={v}: {r} vs {s}");
            }
        }
    }

    #[test]
    fn engine_and_snapshot_serve_cursor_algorithms() {
        // A symmetric triangle plus stragglers, counted straight off the
        // engine (snapshot-backed CursorReader) and off an explicit
        // snapshot while ingest continues.
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        for (a, b) in [(1u64, 2u64), (2, 3), (1, 3), (3, 900)] {
            engine.update(a, b, 1).unwrap();
            engine.update(b, a, 1).unwrap();
        }
        assert_eq!(hyperstream_graphblas::algo::triangle_count(&mut engine), 1);
        let mut snap = engine.snapshot().unwrap();
        assert_eq!(snap.num_shards(), 2);
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
