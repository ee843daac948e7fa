//! The sharded read path — route → capture → `level_read` — written once
//! over [`ShardedSnapshot`], the per-shard captures a read is answered
//! from: the live engine holds one, taking a shard's capture when a read
//! first needs it and dropping them all at the next write; a snapshot is
//! one with every shard captured, held for its lifetime.  The paragraph in
//! the [parent module](super) says why each step is what it is.

use super::{owner, ShardedHierMatrix};
use crate::matrix::Live;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::reader::{Answer, Query};
use hyperstream_graphblas::{
    CursorReader, DegreeIndex, DegreeIndexView, GrbResult, Index, LevelStore, MatrixReader,
    MatrixSnapshot, ScalarType, Side,
};
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

/// The shards among `shards` that can hold part of `q`'s answer: a row's
/// one owner for the reads keyed by one row, none when the answer is empty
/// whatever the shards hold, else every shard — hashed rows of any range,
/// and the cells of any column, fall in all of them.
fn route(q: &Query, shards: usize) -> Range<usize> {
    use Query::*;
    match *q {
        // Every held capture could answer, but only the owner's levels
        // need a binary search.
        Get(row, _) | Row(row) | RowDegree(row) | RowReduce(row) => {
            let shard = owner(row, shards);
            shard..shard + 1
        }
        TopK(0) | InTopK(0) => 0..0,
        RowRange(lo, hi) | ColRange(lo, hi) if lo >= hi => 0..0,
        _ => 0..shards,
    }
}

/// A shard's capture, if held, and what is live in it.
type Slot<T> = Option<(MatrixSnapshot<T>, Live)>;

/// A routed slot's capture, which the read path holds before it reads.
fn held<T>(slot: &mut Slot<T>) -> &mut MatrixSnapshot<T> {
    &mut slot.as_mut().expect("a routed capture is held").0
}

/// Row-disjoint shards' captures as one [`LevelStore`]: their levels (and
/// twins) end to end are a level decomposition of the engine's matrix, and
/// their row stats are key-disjoint parts.  Their column stats are not — a
/// column's cells split over the shards — so the column side is one part,
/// the per-column sum, built once per capture set and held in `col_sum`;
/// only a store that joins every shard has one.
struct Joined<'a, T> {
    dims: (Index, Index),
    captures: &'a mut [Slot<T>],
    col_sum: Option<&'a mut Option<DegreeIndex<T>>>,
}

impl<T: ScalarType> LevelStore for Joined<'_, T> {
    type Value = T;

    fn store_name(&self) -> &str {
        "sharded-hier-graphblas-levels"
    }

    fn store_dims(&self) -> (Index, Index) {
        self.dims
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        let captures = self.captures.iter_mut().map(|slot| &*held(slot));
        let levels: Vec<&Dcsr<T>> = captures.flat_map(MatrixSnapshot::level_dcsrs).collect();
        f(&levels)
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        joined_twins(self.captures, &[], f)
    }

    /// Stats only when every capture has the side's view: a side live on
    /// some shards alone sweeps.
    fn with_stats<R>(
        &mut self,
        side: Side,
        f: impl FnOnce(&mut [&mut DegreeIndexView<T>]) -> R,
    ) -> Option<R> {
        let mut views = Vec::with_capacity(self.captures.len());
        for slot in self.captures.iter_mut() {
            let (rows, cols) = held(slot).stats_mut();
            views.push(if side == Side::Rows { rows } else { cols }?);
        }
        if side == Side::Rows {
            return Some(f(&mut views));
        }
        let sum = self.col_sum.as_mut()?.get_or_insert_with(|| {
            let mut sum = DegreeIndex::new();
            views.iter().for_each(|view| sum.absorb(view));
            sum
        });
        Some(f(&mut [sum.view_mut()]))
    }
}

/// `f` over `before` and every capture's twins: a capture lends its twins
/// only inside a call, so the calls nest, one a shard.
fn joined_twins<T: ScalarType, R>(
    captures: &mut [Slot<T>],
    before: &[&Dcsr<T>],
    f: impl FnOnce(&[&Dcsr<T>]) -> R,
) -> R {
    let Some((first, rest)) = captures.split_first_mut() else {
        return f(before);
    };
    held(first).with_twins(|twins| {
        let joined: Vec<&Dcsr<T>> = before.iter().chain(twins).copied().collect();
        joined_twins(rest, &joined, f)
    })
}

/// One consistent point-in-time view of the whole sharded engine: a
/// capture per shard ([`ShardedHierMatrix::snapshot`]), read as one
/// [`LevelStore`] through the same `level_read` path as the engine itself
/// — and because every capture holds Arc'd level structures, the engine
/// keeps ingesting (and its workers keep draining) while this view answers
/// long sweeps.  The engine reads through one of these too, filling a
/// shard's slot when a read first needs it and emptying every slot at the
/// next write.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<T> {
    nrows: Index,
    ncols: Index,
    /// Each shard's capture — settled levels and, as far as they are live
    /// on the shard, its degree views and column twins — and what is live.
    shards: Vec<Slot<T>>,
    /// The per-column sum of the shards' column stats, built by the first
    /// column-stats read and good for as long as the captures.
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

    /// Drop every capture and the column sum.
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

    /// The held captures of `shards`, read as one level store.
    fn joined(&mut self, shards: Range<usize>) -> Joined<'_, T> {
        let every = shards == (0..self.shards.len());
        Joined {
            dims: (self.nrows, self.ncols),
            captures: &mut self.shards[shards],
            col_sum: every.then_some(&mut self.in_degrees),
        }
    }
}

/// Every shard's capture joined.  Reads keyed by one row sweep every
/// shard's levels; a point read goes to its owner alone.
impl<T: ScalarType> LevelStore for ShardedSnapshot<T> {
    type Value = T;

    fn store_name(&self) -> &str {
        "sharded-hier-graphblas-snapshot"
    }

    fn store_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        self.joined(0..self.shards.len()).with_levels(f)
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        self.joined(0..self.shards.len()).with_twins(f)
    }

    fn with_stats<R>(
        &mut self,
        side: Side,
        f: impl FnOnce(&mut [&mut DegreeIndexView<T>]) -> R,
    ) -> Option<R> {
        self.joined(0..self.shards.len()).with_stats(side, f)
    }

    fn point_get(&mut self, row: Index, col: Index) -> Option<T> {
        let shard = owner(row, self.shards.len());
        self.joined(shard..shard + 1).point_get(row, col)
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

    /// `read` over the captures `q` is routed to, joined as one level
    /// store: route → capture → `level_read`.
    fn reading<R>(&mut self, q: Query, read: impl FnOnce(&mut Joined<'_, T>) -> R) -> GrbResult<R> {
        let routed = route(&q, self.workers.len());
        let held = self.capture(routed.clone(), needs(&q))?;
        Ok(read(&mut held.joined(routed)))
    }

    /// Answer one [`Query`] — the fallible form of every [`MatrixReader`]
    /// method.  A lost shard the query is routed to, or a timed-out wait,
    /// is a typed error.
    pub fn try_read(&mut self, q: Query) -> GrbResult<Answer<T>> {
        self.reading(q, |joined| joined.answer(&q))
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
/// returns it instead.  The extracts fill the caller's buffer.
impl<T: ScalarType> MatrixReader<T> for ShardedHierMatrix<T> {
    fn reader_name(&self) -> &str {
        "sharded-hier-graphblas"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn answer(&mut self, q: &Query) -> Answer<T> {
        self.try_read(*q).unwrap_or_else(|e| {
            self.latch_err(e);
            Answer::empty_for(q)
        })
    }

    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) {
        out.clear();
        let read = self.reading(Query::Row(row), |joined| joined.read_row(row, out));
        read.unwrap_or_else(|e| self.latch_err(e));
    }

    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
        out.clear();
        let read = self.reading(Query::Col(col), |joined| joined.read_col(col, out));
        read.unwrap_or_else(|e| self.latch_err(e));
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

#[cfg(test)]
mod tests {
    use super::super::tests::{flat_of, small_cfg, stream, tiny_engine, DIM};
    use super::super::{Shard, ShardedConfig};
    use super::*;
    use hyperstream_graphblas::{GrbError, Matrix};

    /// `read_row` / `read_col` of `rows` / `cols` into a reused, non-empty
    /// buffer, and the scans `scans`, against the flat oracle.
    fn check_buffer_reads(
        reader: &mut dyn MatrixReader<u64>,
        flat: &mut Matrix<u64>,
        (rows, cols, scans): (&[u64], &[u64], &[Query]),
    ) {
        let name = reader.reader_name().to_string();
        let (mut got, mut want) = (vec![(u64::MAX, 9)], Vec::new());
        for &c in cols {
            reader.read_col(c, &mut got);
            flat.read_col(c, &mut want);
            assert_eq!(got, want, "{name}: column {c}");
        }
        for &r in rows {
            reader.read_row(r, &mut got);
            flat.read_row(r, &mut want);
            assert_eq!(got, want, "{name}: row {r}");
        }
        for q in scans {
            assert_eq!(reader.answer(q), flat.answer(q), "{name}: {q:?}");
        }
    }

    #[test]
    fn buffer_reads_and_scans_match_the_flat_oracle_at_every_shard_count() {
        const ONE_SHARD: u64 = 4000; // stored by shard 0's rows only
        const EVERY_SHARD: u64 = 4001; // stored by rows on every shard
        const ABSENT: u64 = 4002;
        for shards in 1..=8 {
            let rows_of = |s: usize| {
                let rows = (0..).map(|i: u64| i * 797_003 + 11);
                rows.filter(move |&r| owner(r, shards) == s)
            };
            let mut updates = stream(1500);
            updates.extend(rows_of(0).take(20).map(|r| (r, ONE_SHARD, 3)));
            for s in 0..shards {
                updates.extend(rows_of(s).take(5).map(|r| (r, EVERY_SHARD, 2)));
            }
            let mut engine = tiny_engine(shards);
            for &(r, c, v) in &updates {
                engine.update(r, c, v).unwrap();
            }
            let mut flat = flat_of(&updates);
            // A range of rows, and one of columns, that several shards hold.
            let (lo, hi) = (
                updates[0].0.min(updates[1].0),
                updates[0].0.max(updates[1].0) + 1,
            );
            let in_range = updates.iter().filter(|u| (lo..hi).contains(&u.0));
            let owners: std::collections::BTreeSet<usize> =
                in_range.map(|u| owner(u.0, shards)).collect();
            assert!(
                owners.len() >= shards.min(2),
                "{shards} shards: rows {lo}..{hi}"
            );
            let scans = [
                Query::RowRange(lo, hi),
                Query::ColRange(7, 12),
                Query::ColRange(ONE_SHARD, ABSENT + 1),
                Query::Entries,
            ];
            let rows: Vec<u64> = (0..shards)
                .flat_map(|s| rows_of(s).next())
                .chain([DIM - 1])
                .collect();
            let keys = (
                &rows[..],
                &[ONE_SHARD, EVERY_SHARD, ABSENT, 7][..],
                &scans[..],
            );
            // Taken before any column read: no capture carries a twin.
            let mut snap = engine.snapshot().unwrap();
            assert!(snap.shards.iter().flatten().all(|(_, live)| !live.twins));
            check_buffer_reads(&mut snap, &mut flat, keys);
            check_buffer_reads(&mut engine, &mut flat, keys);
            assert_eq!(engine.take_read_error(), None);
        }
    }

    #[test]
    fn buffer_reads_after_a_worker_loss_answer_empty_and_latch() {
        let mut engine = tiny_engine(3);
        let updates = stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let (row, col, _) = updates[0];
        let mut out = Vec::new();
        engine.read_col(col, &mut out);
        assert!(!out.is_empty());
        kill(&engine, owner(row, 3));
        let refused = engine.try_read(Query::Col(col));
        assert!(
            matches!(refused, Err(GrbError::ShardsLost { .. })),
            "{refused:?}"
        );
        for read in [ShardedHierMatrix::read_col, ShardedHierMatrix::read_row] {
            out.push((1, 1));
            read(
                &mut engine,
                if out.len() == 1 { col } else { row },
                &mut out,
            );
            assert!(out.is_empty());
            let latched = engine.take_read_error();
            assert!(
                matches!(latched, Some(GrbError::ShardsLost { .. })),
                "{latched:?}"
            );
        }
    }

    /// What replaced the sharded combine's order check: a column answered
    /// off a twin that disagrees with its shard's row-major level fails
    /// `level_read`'s debug re-derivation.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "column twin diverged")]
    fn a_twin_that_disagrees_with_its_level_fails_loudly() {
        let level = |r: &[u64], c: &[u64]| {
            let d = Dcsr::from_tuples(
                DIM,
                DIM,
                r,
                c,
                &[1, 1],
                hyperstream_graphblas::ops::binary::Plus,
            );
            std::sync::Arc::new(d.unwrap())
        };
        let mut snap = ShardedSnapshot::new(DIM, DIM, 2);
        for (s, rows) in [[1, 5], [2, 6]].into_iter().enumerate() {
            // The twin swaps the two cells' columns.
            let captured = (level(&rows, &[3, 4]), Some(level(&[4, 3], &rows)));
            let capture = MatrixSnapshot::new("shard", DIM, DIM, vec![captured], (None, None));
            let live = Live {
                twins: true,
                ..Live::default()
            };
            snap.shards[s] = Some((capture, live));
        }
        let mut out = Vec::new();
        snap.read_col(3, &mut out);
    }

    /// Rows the row hash puts on `shard` of `shards`, ascending.
    fn rows_on(shard: usize, shards: usize) -> impl Iterator<Item = u64> {
        let rows = (0..).map(|i: u64| i * 797_003 + 11);
        rows.filter(move |&r| owner(r, shards) == shard)
    }

    /// A column every row of the combine battery stores.
    const HUB: u64 = 4001;

    /// Three rows on each shard: two of degree 4 — equal degrees on every
    /// shard, so the global top-k breaks ties across shards — and one of
    /// degree 2 to 4 by shard; every row also stores [`HUB`].
    fn combine_cells(shards: usize) -> Vec<(u64, u64)> {
        let mut cells = Vec::new();
        for s in 0..shards {
            for (i, row) in rows_on(s, shards).take(3).enumerate() {
                let degree = if i < 2 { 3 } else { 1 + s as u64 % 3 };
                cells.extend((0..degree).map(|c| (row, 10 + c + i as u64)));
                cells.push((row, HUB));
            }
        }
        cells
    }

    /// Every degree-centric kind over `cells` (weighted by `weight`),
    /// answered by the engine and by its snapshot through the combined
    /// stats, against the flat oracle.  In a debug build `level_read`
    /// re-derives each combined answer from the levels as well.
    fn check_combine<T: ScalarType>(shards: usize, cells: &[(u64, u64)], weight: fn(usize) -> T) {
        let cfg = ShardedConfig::with_shards(shards);
        let mut engine = ShardedHierMatrix::<T>::new(DIM, DIM, small_cfg(), cfg).unwrap();
        let mut flat = Matrix::<T>::new(DIM, DIM);
        for (i, &(r, c)) in cells.iter().enumerate() {
            engine.update(r, c, weight(i)).unwrap();
            flat.accum_element(r, c, weight(i)).unwrap();
        }
        let rows = 3 * shards;
        let (row, col) = cells[0];
        let queries = [
            Query::TopK(1),
            Query::TopK(rows),
            Query::TopK(usize::MAX),
            Query::Nnz,
            Query::DegreeHistogram,
            Query::RowDegree(row),
            Query::RowReduce(row),
            Query::ColDegree(HUB),
            Query::ColReduce(HUB),
            Query::ColDegree(col),
            Query::InTopK(1),
            Query::InTopK(3),
            Query::InTopK(usize::MAX),
            Query::InDegreeHistogram,
        ];
        for q in queries {
            let want = flat.answer(&q);
            assert_eq!(
                engine.try_read(q),
                Ok(want.clone()),
                "{shards} shards: {q:?}"
            );
        }
        // Both sides live on every shard now, so the snapshot combines too.
        let mut snap = engine.snapshot().unwrap();
        let mut live = snap.shards.iter_mut().flatten();
        assert!(live.all(|(capture, _)| matches!(capture.stats_mut(), (Some(_), Some(_)))));
        for q in queries {
            assert_eq!(snap.answer(&q), flat.answer(&q), "{shards} shards: {q:?}");
        }
    }

    #[test]
    fn the_stats_combine_matches_the_flat_oracle_at_every_shard_count() {
        for shards in 1..=8 {
            let cells = combine_cells(shards);
            check_combine(shards, &cells, |i| i as u64 % 5 + 1);
            // Quarters add exactly in any order, as the oracle's sums must.
            check_combine(shards, &cells, |i| (i % 7) as f64 * 0.25 + 0.5);
        }
    }

    /// A snapshot whose row index is live on shard 0 alone and whose column
    /// index is live on the last shard alone answers every degree-centric
    /// kind by the sweep, and exactly.
    #[test]
    fn a_side_live_on_some_shards_only_sweeps() {
        for shards in 2..=8 {
            let cells = combine_cells(shards);
            let weighted = cells.iter().enumerate();
            let updates: Vec<_> = weighted
                .map(|(i, &(r, c))| (r, c, i as u64 % 3 + 1))
                .collect();
            let mut engine = tiny_engine(shards);
            for &(r, c, v) in &updates {
                engine.update(r, c, v).unwrap();
            }
            let mut flat = flat_of(&updates);
            let activate = |s: &mut Shard<u64>, cols: bool| {
                let q = if cols {
                    Query::InTopK(1)
                } else {
                    Query::TopK(1)
                };
                let _ = s.hier.answer(&q);
                Ok(())
            };
            engine.run(0, move |s| activate(s, false)).unwrap();
            engine.run(shards - 1, move |s| activate(s, true)).unwrap();
            let mut snap = engine.snapshot().unwrap();
            let mut views = snap.shards.iter_mut().flatten().map(|(capture, _)| {
                let (rows, cols) = capture.stats_mut();
                (rows.is_some(), cols.is_some())
            });
            let first = views.next();
            let last = views.last();
            assert_eq!((first, last), (Some((true, false)), Some((false, true))));
            let (row, _) = cells[0];
            for q in [
                Query::TopK(2),
                Query::Nnz,
                Query::DegreeHistogram,
                Query::RowDegree(row),
                Query::ColDegree(HUB),
                Query::ColReduce(HUB),
                Query::InTopK(2),
                Query::InDegreeHistogram,
            ] {
                assert_eq!(snap.answer(&q), flat.answer(&q), "{shards} shards: {q:?}");
            }
            assert!(
                snap.in_degrees.is_none(),
                "no column sum without every view"
            );
        }
    }

    /// A read whose answer is empty whatever the shards hold is routed to
    /// none: it takes no capture and activates no index.
    #[test]
    fn empty_reads_capture_nothing_and_activate_nothing() {
        let mut engine = tiny_engine(3);
        let updates = stream(600);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let mut flat = flat_of(&updates);
        for q in [
            Query::TopK(0),
            Query::InTopK(0),
            Query::RowRange(5, 5),
            Query::ColRange(9, 3),
        ] {
            assert_eq!(engine.try_read(q), Ok(flat.answer(&q)), "{q:?}");
            assert_eq!(engine.capture_jobs(), 0, "{q:?}");
        }
        let mut snap = engine.snapshot().unwrap();
        let mut captures = snap.shards.iter_mut().flatten();
        assert!(captures.all(|(capture, _)| matches!(capture.stats_mut(), (None, None))));
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
    #[test]
    #[cfg(feature = "failpoints")]
    fn a_worker_lost_in_its_capture_job_fails_only_its_own_reads() {
        use crate::failpoint::FailAction;
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
        engine
            .failpoints()
            .arm("worker-query", Some(5), 1, FailAction::Panic);
        let live = Query::RowDegree(row_on(false));
        assert_eq!(engine.try_read(live), Ok(flat_of(&updates).answer(&live)));
        assert_eq!(engine.failpoints().fired("worker-query"), 1);
        assert_eq!(engine.lost_shards(), vec![5]);
        let refused = engine.try_read(Query::RowDegree(row_on(true)));
        assert!(
            matches!(&refused, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![5]),
            "{refused:?}"
        );
    }

    /// Fault sites belong to an engine: shard 1 of an unarmed engine,
    /// captured first, fires nothing while the same arm on another engine
    /// loses that engine its shard 1.
    #[test]
    #[cfg(feature = "failpoints")]
    fn an_arm_reaches_its_own_engine_alone() {
        use crate::failpoint::FailAction;
        use crate::EngineHealth;
        let (mut armed, mut other) = (tiny_engine(2), tiny_engine(2));
        let updates = stream(2000);
        for &(r, c, v) in &updates {
            armed.update(r, c, v).unwrap();
            other.update(r, c, v).unwrap();
        }
        armed
            .failpoints()
            .arm("worker-query", Some(1), 1, FailAction::Panic);
        let nnz = Query::Nnz;
        assert_eq!(other.try_read(nnz), Ok(flat_of(&updates).answer(&nnz)));
        assert_eq!(other.health(), EngineHealth::Healthy);
        assert_eq!(other.failpoints().fired("worker-query"), 0);
        let refused = armed.try_read(nnz);
        assert!(
            matches!(&refused, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![1]),
            "{refused:?}"
        );
        assert_eq!(armed.failpoints().fired("worker-query"), 1);
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
