//! The incremental degree index: O(1)/O(k) degree-centric analytics over a
//! streaming hypersparse matrix.
//!
//! The read-path cursor layer ([`crate::cursor`]) made every query
//! materialisation-free, but `top_k`, `degree_distribution` and `nnz` were
//! still full `O(nnz)` sweeps — under a mixed ingest+query workload the
//! top-k quarter of the query mix dominated the whole run.  A
//! [`DegreeIndex`] turns those answers into cheap lookups by maintaining,
//! *incrementally on the existing hot-path events*:
//!
//! * **per-key counters** (`rows`): distinct-cell degree and the
//!   `+`-monoid weight reduction of every non-empty row (or column — the
//!   index is keyed by whichever coordinate its owner feeds it), shared
//!   with snapshots through an [`Arc`] (copy-on-write: maintaining the
//!   index while a snapshot is outstanding clones the stats once,
//!   `O(rows)`).
//! * an exact **`nnz`** counter.
//!
//! The index does **not** know which cells exist.  Whether a settled cell
//! is new to the represented union is a question about `(row, col)` pairs,
//! and its answer serves the row index and the column index alike, so the
//! *owner* answers it once (the hierarchy: its levels' settled structures
//! already hold every cell sorted, and one [`Dcsr::clear_stored`] walk per
//! level clears the flags of the cells some level stores) and hands each
//! index what [`DegreeIndex::observe`] takes: the batch's keys on this
//! index's axis, its values, and one flag per cell saying whether the union
//! grew.
//! Cascades (`merge_into` between levels) move cells without changing the
//! union, so they need **no** index maintenance at all.
//!
//! `top_k` is served from a cache of the top 128 ranks that the settle
//! observer **keeps current**: one bounded-heap scan of the row stats
//! (`O(rows)`, no sort of the full row set) builds it on the first query,
//! and from then on every settle notes which rows it raised past the
//! cache's last entry and re-ranks the cached rows plus those once, when
//! it ends — so a `top_k(k <= 128)` after a batch is `O(k)`, and the
//! upkeep is a compare or two per raised row plus 128 probes and a
//! 128-entry sort per settle.  This is exact, not approximate: degrees
//! only grow over an index's life, so a row the batch did not touch cannot
//! overtake anything, every cached row still ranks at or above the old
//! last entry afterwards, and so a row from outside makes the new top
//! ranks only if the batch raised it above that entry.  What still
//! rebuilds lazily (first query after a mutation
//! scans the row stats once): the cold cache of an index just built by
//! [`DegreeIndex::from_levels`], any `k` above 128
//! (a wide cache is never upkept — re-ranking it costs a probe per covered
//! rank on every settle), and the degree histogram, which no streaming
//! reader asks for between writes.  Answers are deterministic (degree
//! descending, row ascending) and byte-identical to the cursor-sweep
//! fallback, which the read paths keep as a `debug_assert` and the
//! equivalence property tests drive directly.
//!
//! Ordering caveat: per-row weights fold in *arrival* order while a cursor
//! sweep folds in level/column order.  For the integer scalar types every
//! reader uses the `+` monoid is associative and the answers are
//! byte-identical; for `f64` the two paths may differ in the last ulp.

use crate::cursor::for_each_merged;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::level_read::Side;
use crate::ops::binary::Plus;
use crate::types::ScalarType;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiply-rotate hasher (FxHash-style) for the index's hot row probes:
/// the default SipHash is measurably slower on the settle path and the keys
/// here are attacker-free internal coordinates.
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    /// A multiply mixes key bits upward only, and the table picks buckets
    /// from the low bits: keys with shared trailing zeros (`/16` IPv4 rows,
    /// `i << 16`) would share one.  The well-mixed high bits rotate down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// Deterministic builder: no per-process random seed, so iteration order —
/// which never leaks into answers, all of which sort — is reproducible.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Degree and weight-reduce counters of one non-empty row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStat<V> {
    /// Number of distinct columns stored in the row.
    pub degree: u64,
    /// `+`-monoid reduction of every value accumulated into the row.
    pub weight: V,
}

/// The shared (snapshot-visible) part of the index: per-row stats, the
/// exact distinct-cell count, and a version stamp for the lazy caches.
#[derive(Debug, Clone, Default)]
struct RowStatsCore<V> {
    rows: HashMap<Index, RowStat<V>, FxBuildHasher>,
    nnz: usize,
    /// Bumped on every mutation; the query caches compare against it.
    version: u64,
}

impl<V: ScalarType> RowStatsCore<V> {
    /// Fold `new_cells` newly distinct cells and `weight` into `row`'s
    /// stats; returns the row's degree before.
    #[inline]
    fn add(&mut self, row: Index, new_cells: u64, weight: V) -> u64 {
        let stat = self.rows.entry(row).or_insert(RowStat {
            degree: 0,
            weight: V::default(),
        });
        let old = stat.degree;
        stat.degree += new_cells;
        stat.weight = stat.weight.add(weight);
        self.nnz += new_cells as usize;
        old
    }

    /// Close one observed mutation: bump the version and, when the
    /// observer tracked `cache.topk` through it, bring the cache up to
    /// date and carry its stamp.
    fn stamp(&mut self, cache: &mut QueryCache, upkeep: Option<TopkUpkeep>) {
        self.version += 1;
        if let Some(upkeep) = upkeep {
            if upkeep.stale || !upkeep.entrants.is_empty() {
                cache.rerank(&self.rows, &upkeep.entrants);
            }
            cache.topk_version = self.version;
        }
    }
}

/// Query caches, each valid for the core version it is stamped with (not
/// shared: a snapshot's view carries its own copy, warm as captured).
/// The observer re-stamps `topk` when it kept it current; `hist` is
/// always rebuilt on demand.
///
/// Version 0 is the empty core's version, so `Default` (all-empty caches
/// stamped 0) is trivially consistent with a fresh core.
#[derive(Debug, Clone, Default)]
struct QueryCache {
    /// The top `covered` rows by (degree desc, row asc); answers any
    /// `top_k(k)` with `k <= covered` (or when it holds every row).
    topk: Vec<(Index, usize)>,
    /// How many leading ranks `topk` is valid for.
    covered: usize,
    /// True when `topk` holds *every* non-empty row.
    complete: bool,
    topk_version: u64,
    /// degree -> number of rows with that degree.
    hist: BTreeMap<u64, u64>,
    hist_version: u64,
    /// Reusable min-heap buffer for rebuilds.
    heap_buf: Vec<std::cmp::Reverse<(u64, std::cmp::Reverse<Index>)>>,
    /// How many times `rebuild_topk` ran — pins "one rebuild, then upkeep".
    #[cfg(test)]
    rebuilds: usize,
}

/// Ranking order of the top-k cache: degree descending, row ascending.
#[inline]
pub(crate) fn rank(a: &(Index, usize), b: &(Index, usize)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Top-k upkeep across one observer call: how the call moved rows relative
/// to the cache *as it stood when the call began*.  Per row it costs one or
/// two compares against `floor`; [`QueryCache::rerank`] settles the rest
/// once, at the end of the call.
///
/// Exact because degrees only grow between rebuilds: every cached row ends
/// the call ranked at or above `floor`, so a row outside the cache makes the
/// new top ranks only if it ends above `floor` too — and the first rise
/// that takes it there is seen here, whatever order the keys arrive in.
struct TopkUpkeep {
    /// The cache's last entry; `None` while the cache held every row.
    floor: Option<(Index, usize)>,
    /// A cached row rose, so its cached degree is out of date.
    stale: bool,
    /// Rows outside the cache that rose above `floor`, each listed once.
    entrants: Vec<Index>,
}

impl TopkUpkeep {
    /// `row`'s degree went from `old` to `new` (equal when only its weight
    /// changed, which moves nothing).
    #[inline]
    fn raise(&mut self, row: Index, old: u64, new: u64) {
        let at_or_above_floor = |degree: u64| match &self.floor {
            Some(floor) => rank(&(row, degree as usize), floor).is_le(),
            None => degree > 0,
        };
        // Nearly every row of a batch stops at this first compare.
        if new == old || !at_or_above_floor(new) {
            return;
        }
        if at_or_above_floor(old) {
            // Cached at the start, or already listed by an earlier rise.
            self.stale = true;
        } else {
            self.entrants.push(row);
        }
    }
}

impl QueryCache {
    /// Start keeping `topk` current across the mutation an observer is
    /// about to apply, if it is current now (`version` is the core's,
    /// pre-bump) and of the default width.  Wider covers stay lazily
    /// rebuilt: re-ranking one costs a probe per covered rank.
    fn upkeep(&self, version: u64) -> Option<TopkUpkeep> {
        (self.topk_version == version && self.covered == TOPK_MIN_COVER).then(|| TopkUpkeep {
            // An incomplete cache is full, so it has a last entry.
            floor: self.topk.last().filter(|_| !self.complete).copied(),
            stale: false,
            entrants: Vec::new(),
        })
    }

    /// Re-rank the cached rows plus `entrants` by their degrees in `rows`
    /// and keep the top `covered`.  The buffer is refilled in place, so it
    /// never grows past the cover.
    fn rerank<V>(&mut self, rows: &HashMap<Index, RowStat<V>, FxBuildHasher>, entrants: &[Index]) {
        let cached = self.topk.iter().map(|&(row, _)| row);
        let mut ranked: Vec<(Index, usize)> = cached
            .chain(entrants.iter().copied())
            .map(|row| (row, rows[&row].degree as usize))
            .collect();
        ranked.sort_unstable_by(rank);
        self.complete &= ranked.len() <= self.covered;
        ranked.truncate(self.covered);
        self.topk.clear();
        self.topk.extend_from_slice(&ranked);
    }
}

/// Smallest top-k cache width: rebuilding for a tiny `k` would re-scan the
/// row stats again as soon as a slightly larger `k` arrives, so rebuilds
/// always cover at least this many ranks.  Also the only width the settle
/// observer upkeeps ([`QueryCache::upkeep`]).
const TOPK_MIN_COVER: usize = 128;

/// A read-only view of a [`DegreeIndex`]: the `Arc`-shared row stats plus
/// private query caches.  This is what a [`MatrixSnapshot`] carries — the
/// writer keeps maintaining its index (copy-on-write on the shared core)
/// while the view keeps answering from the captured state.
///
/// [`MatrixSnapshot`]: crate::snapshot::MatrixSnapshot
#[derive(Debug, Clone, Default)]
pub struct DegreeIndexView<V> {
    core: Arc<RowStatsCore<V>>,
    cache: QueryCache,
}

impl<V: ScalarType> DegreeIndexView<V> {
    /// Distinct `(row, col)` cells — O(1).
    pub fn nnz(&self) -> usize {
        self.core.nnz
    }

    /// Distinct columns stored in `row` — O(1).
    pub fn row_degree(&self, row: Index) -> usize {
        self.core.rows.get(&row).map_or(0, |s| s.degree as usize)
    }

    /// `+`-reduction of `row`'s accumulated values — O(1), `None` when the
    /// row is empty.
    pub fn row_weight(&self, row: Index) -> Option<V> {
        self.core.rows.get(&row).map(|s| s.weight)
    }

    /// The `k` rows with the most distinct columns (degree descending, row
    /// ascending) — O(k) when the cache is current, which for `k <= 128`
    /// it stays across settles once built; otherwise one O(rows)
    /// bounded-heap scan rebuilds it.
    pub fn top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let stale = self.cache.topk_version != self.core.version
            || (self.cache.covered < k && !self.cache.complete);
        if stale {
            self.rebuild_topk(k.max(TOPK_MIN_COVER));
        }
        let take = k.min(self.cache.topk.len());
        self.cache.topk[..take].to_vec()
    }

    /// One bounded-heap pass over the row stats: collects the top `cover`
    /// ranks exactly as a full sort would order them.
    fn rebuild_topk(&mut self, cover: usize) {
        use std::cmp::Reverse;
        // Clear before heapifying: `from` on an empty Vec is free.
        self.cache.heap_buf.clear();
        let mut heap = std::collections::BinaryHeap::from(std::mem::take(&mut self.cache.heap_buf));
        for (&row, stat) in &self.core.rows {
            heap.push(Reverse((stat.degree, Reverse(row))));
            if heap.len() > cover {
                heap.pop();
            }
        }
        self.cache.complete = heap.len() == self.core.rows.len();
        self.cache.covered = cover;
        let mut buf = heap.into_vec();
        self.cache.topk.clear();
        self.cache.topk.extend(
            buf.drain(..)
                .map(|Reverse((d, Reverse(r)))| (r, d as usize)),
        );
        self.cache.heap_buf = buf;
        self.cache.topk.sort_unstable_by(rank);
        self.cache.topk_version = self.core.version;
        #[cfg(test)]
        {
            self.cache.rebuilds += 1;
        }
    }

    /// The degree histogram (`degree -> row count`) — O(distinct degrees)
    /// when warm, one O(rows) scan to rebuild after a mutation.
    pub fn degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        if self.cache.hist_version != self.core.version {
            self.cache.hist.clear();
            for stat in self.core.rows.values() {
                *self.cache.hist.entry(stat.degree).or_insert(0) += 1;
            }
            self.cache.hist_version = self.core.version;
        }
        self.cache.hist.clone()
    }
}

/// The incremental degree index a hierarchical matrix maintains alongside
/// its levels.  See the [module documentation](self) for the design.
///
/// An index is held only while it is current: its owner keeps an
/// `Option<DegreeIndex>` per side, empty until the first degree question
/// on that side and again whenever the content changes in a way the
/// observer cannot follow (a cleared matrix).  The question builds it
/// ([`DegreeIndex::from_levels`], one deduplicated sweep of the current
/// content), so streams that are never
/// asked one pay no maintenance; from then on the owner's settle observer
/// keeps it current through [`DegreeIndex::observe`].
#[derive(Debug, Clone, Default)]
pub struct DegreeIndex<V> {
    view: DegreeIndexView<V>,
}

impl<V: ScalarType> DegreeIndex<V> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of the union of `levels` on `side` (keyed by row, or by
    /// column): one deduplicated sweep, so a cell that sits in several
    /// levels arrives once with its values summed, and every cell is new.
    /// A run of equal keys (a whole row, on the row side) is one update of
    /// the index.
    pub fn from_levels(levels: &[&Dcsr<V>], side: Side) -> Self {
        let mut index = Self::new();
        let mut end_run = |run: Option<(Index, u64, V)>| {
            if let Some((key, n, weight)) = run {
                index.add_unique_row(key, n, weight);
            }
        };
        let mut run: Option<(Index, u64, V)> = None;
        for_each_merged(levels, Plus, &mut |r, c, v| {
            let key = if side == Side::Rows { r } else { c };
            match &mut run {
                Some((at, n, weight)) if *at == key => {
                    *n += 1;
                    *weight = weight.add(v);
                }
                _ => end_run(run.replace((key, 1, V::default().add(v)))),
            }
        });
        end_run(run);
        index
    }

    /// The index's view, read-only: what a snapshot clones (the row stats
    /// shared, the caches warm) and what a count through `&self` reads.
    pub fn view(&self) -> &DegreeIndexView<V> {
        &self.view
    }

    /// The index's own view, for querying in place: the stats a live
    /// [`LevelStore`](crate::level_read::LevelStore) answers from.  Its
    /// query caches warm across calls; the row stats stay writable only
    /// through the observer.
    pub fn view_mut(&mut self) -> &mut DegreeIndexView<V> {
        &mut self.view
    }

    /// Bytes held by the index structures (stats table + caches), for the
    /// memory accounting of the owning matrix.
    pub fn memory_bytes(&self) -> usize {
        self.view.core.rows.capacity()
            * (std::mem::size_of::<Index>() + std::mem::size_of::<RowStat<V>>())
            + self.view.cache.topk.capacity() * std::mem::size_of::<(Index, usize)>()
    }

    /// Observe cells entering or re-entering the represented union: cell
    /// `i` lies on this index's axis at `keys[i]`, carries `vals[i]`, and
    /// `new[i]` says whether the union did not hold it before (the owner
    /// decides that, once, for both axes).  The settle
    /// dedup-unpack feeds this — a sorted, in-batch-deduplicated pending
    /// batch with values already combined under `+` — and so does a bulk
    /// matrix update.
    ///
    /// Cost: one stat update per *run of equal keys* (the row index sees a
    /// row-major batch, so a row's deltas accumulate in registers before
    /// touching the map), and — while the top-k cache is current — a
    /// compare or two per key whose degree rose plus one re-rank of the
    /// cache at the end.  Grouping is a fast path, not a requirement: the
    /// column index is fed the batch's columns, where a key recurs often.
    pub fn observe(&mut self, keys: &[Index], vals: &[V], new: &[bool]) {
        if keys.is_empty() {
            return;
        }
        let (core, cache) = (Arc::make_mut(&mut self.view.core), &mut self.view.cache);
        let mut upkeep = cache.upkeep(core.version);
        let mut i = 0;
        while i < keys.len() {
            let key = keys[i];
            let mut new_cells = 0u64;
            let mut weight = V::default();
            while i < keys.len() && keys[i] == key {
                new_cells += new[i] as u64;
                weight = weight.add(vals[i]);
                i += 1;
            }
            let old = core.add(key, new_cells, weight);
            if let Some(upkeep) = upkeep.as_mut() {
                upkeep.raise(key, old, old + new_cells);
            }
        }
        core.stamp(cache, upkeep);
    }

    /// Record one key's worth of cells that are *known distinct and new* —
    /// the fill path of [`DegreeIndex::from_levels`]'s deduplicated sweep.
    /// The top-k cache is left to its next lazy rebuild.
    fn add_unique_row(&mut self, row: Index, degree: u64, weight: V) {
        let core = Arc::make_mut(&mut self.view.core);
        core.add(row, degree, weight);
        core.version += 1;
    }

    /// Add every key of `part` — its degree and its weight — to this
    /// index's: the per-key sum of stats whose keys may recur across parts
    /// (a sharded engine's per-shard column stats).  The top-k cache is
    /// left to its next lazy rebuild.
    pub fn absorb(&mut self, part: &DegreeIndexView<V>) {
        let core = Arc::make_mut(&mut self.view.core);
        for (&key, stat) in &part.core.rows {
            core.add(key, stat.degree, stat.weight);
        }
        core.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// An index keyed by row (`by_col`: by column) together with the cell
    /// oracle its owner keeps for it.
    #[derive(Default)]
    struct Owned {
        ix: DegreeIndex<u64>,
        cells: HashSet<(u64, u64)>,
        by_col: bool,
    }

    /// Queries read the index's own view, as a live store's do.
    impl std::ops::Deref for Owned {
        type Target = DegreeIndexView<u64>;
        fn deref(&self) -> &Self::Target {
            &self.ix.view
        }
    }

    impl std::ops::DerefMut for Owned {
        fn deref_mut(&mut self) -> &mut Self::Target {
            self.ix.view_mut()
        }
    }

    /// What the owner does on a settle: ask the oracle which cells are new
    /// and feed the index its axis.  Batches arrive sorted row-major and
    /// deduplicated, like the real settle produces.
    fn settle(o: &mut Owned, batch: &[(u64, u64, u64)]) {
        let key = |e: &(u64, u64, u64)| if o.by_col { e.1 } else { e.0 };
        let keys: Vec<u64> = batch.iter().map(key).collect();
        let vals: Vec<u64> = batch.iter().map(|e| e.2).collect();
        let new: Vec<bool> = batch.iter().map(|e| o.cells.insert((e.0, e.1))).collect();
        o.ix.observe(&keys, &vals, &new);
    }

    #[test]
    fn incremental_counters_match_reality() {
        let mut ix = Owned::default();
        assert_eq!(ix.nnz(), 0);
        assert_eq!(ix.row_degree(5), 0);
        assert_eq!(ix.row_weight(5), None);
        assert!(ix.top_k(3).is_empty());

        settle(&mut ix, &[(5, 1, 10), (5, 2, 20), (9, 9, 1)]);
        assert_eq!(ix.nnz(), 3);
        assert_eq!(ix.row_degree(5), 2);
        assert_eq!(ix.row_weight(5), Some(30));
        assert_eq!(ix.row_weight(9), Some(1));

        // A later settle revisits one cell (weight grows, degree does not)
        // and adds one new cell.
        settle(&mut ix, &[(5, 2, 5), (5, 3, 7)]);
        assert_eq!(ix.nnz(), 4);
        assert_eq!(ix.row_degree(5), 3);
        assert_eq!(ix.row_weight(5), Some(42));
        assert_eq!(ix.top_k(2), vec![(5, 3), (9, 1)]);
        assert_eq!(ix.top_k(100), vec![(5, 3), (9, 1)]);

        let hist = ix.degree_histogram();
        assert_eq!(hist.get(&3), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));
    }

    #[test]
    fn top_k_deterministic_ordering_and_cache_reuse() {
        let mut ix = Owned::default();
        // Rows 1..=40 with degree i % 4 + 1: plenty of ties.
        for r in 1u64..=40 {
            let deg = r % 4 + 1;
            let batch: Vec<(u64, u64, u64)> = (0..deg).map(|c| (r, c, 1)).collect();
            settle(&mut ix, &batch);
        }
        let top = ix.top_k(10);
        // Ties break by ascending row id.
        let mut expect: Vec<(u64, usize)> =
            (1u64..=40).map(|r| (r, (r % 4 + 1) as usize)).collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(10);
        assert_eq!(top, expect);
        // Warm-cache answers for smaller and equal k agree with prefixes.
        assert_eq!(ix.top_k(3), expect[..3].to_vec());
        assert_eq!(ix.top_k(10), expect);
        // A mutation invalidates the cache.
        settle(
            &mut ix,
            &[(7, 100, 1), (7, 101, 1), (7, 102, 1), (7, 103, 1)],
        );
        // Row 7 had degree 7 % 4 + 1 = 4; four new cells make 8.
        assert_eq!(ix.top_k(1), vec![(7, 8)]);
    }

    #[test]
    fn topk_beyond_cached_cover_rebuilds() {
        let mut ix = Owned::default();
        for r in 0u64..300 {
            settle(&mut ix, &[(r, 0, 1)]);
        }
        // First query caches TOPK_MIN_COVER ranks; a wider ask rebuilds.
        assert_eq!(ix.top_k(2).len(), 2);
        assert_eq!(ix.top_k(250).len(), 250);
        assert_eq!(ix.top_k(1000).len(), 300);
    }

    /// From-scratch ranking of `(row, col)` cells — the oracle for upkeep.
    fn ranking(cells: &HashSet<(u64, u64)>) -> Vec<(u64, usize)> {
        let mut deg: HashMap<u64, usize> = HashMap::new();
        for &(r, _) in cells {
            *deg.entry(r).or_insert(0) += 1;
        }
        let mut all: Vec<(u64, usize)> = deg.into_iter().collect();
        all.sort_by(rank);
        all
    }

    #[test]
    fn settles_upkeep_the_topk_cache_with_a_single_rebuild() {
        let mut ix = Owned::default();
        // 400 rows against a 128-entry cache: rows enter, get displaced
        // and re-enter; ties at the boundary are common.
        let seed: Vec<(u64, u64, u64)> = (0..400).map(|r| (r, 1000, 1)).collect();
        settle(&mut ix, &seed);
        let mut cells: HashSet<(u64, u64)> = seed.iter().map(|e| (e.0, e.1)).collect();
        let mut state = 7u64;
        for step in 0..50u64 {
            let mut batch: Vec<(u64, u64, u64)> = (0..40)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 400, (state >> 13) % (4 + step), 1)
                })
                .collect();
            batch.sort_unstable();
            batch.dedup_by_key(|e| (e.0, e.1));
            cells.extend(batch.iter().map(|e| (e.0, e.1)));
            settle(&mut ix, &batch);
            let expect = ranking(&cells);
            assert_eq!(ix.top_k(10), expect[..10.min(expect.len())], "step {step}");
            assert_eq!(
                ix.top_k(128),
                expect[..128.min(expect.len())],
                "step {step}"
            );
        }
        // The first query built the cache; 49 settles kept it current and
        // never grew it (its capacity is in `memory_bytes`).
        assert_eq!(ix.ix.view.cache.rebuilds, 1);
        assert_eq!(ix.ix.view.cache.topk.capacity(), TOPK_MIN_COVER);
    }

    #[test]
    fn upkeep_fills_a_complete_cache_then_overflows_it() {
        // Fewer rows than the cover: the cache is complete and admits every
        // new row; the 129th row makes it incomplete.
        let mut ix = Owned::default();
        settle(&mut ix, &[(0, 0, 1)]);
        assert_eq!(ix.top_k(1), vec![(0, 1)]);
        let mut cells: HashSet<(u64, u64)> = [(0, 0)].into();
        for r in 1..200u64 {
            let batch = [(r, 0, 1), (r / 2, r, 1)];
            let mut sorted = batch.to_vec();
            sorted.sort_unstable();
            cells.extend(sorted.iter().map(|e| (e.0, e.1)));
            settle(&mut ix, &sorted);
            let expect = ranking(&cells);
            assert_eq!(ix.top_k(128), expect[..128.min(expect.len())], "row {r}");
        }
        assert_eq!(ix.ix.view.cache.rebuilds, 1);
        assert!(!ix.ix.view.cache.complete);
        // Beyond the cover the answer comes from a rebuild, and the wide
        // cache it leaves is not upkept: the next narrow query rebuilds.
        assert_eq!(ix.top_k(usize::MAX), ranking(&cells));
        assert_eq!(ix.ix.view.cache.rebuilds, 2);
        settle(&mut ix, &[(500, 0, 1)]);
        cells.insert((500, 0));
        // (the settle left the 200-entry cache alone and merely stale)
        assert_eq!(ix.ix.view.cache.topk.len(), 200);
        assert_ne!(ix.ix.view.cache.topk_version, ix.ix.view.core.version);
        assert_eq!(ix.top_k(3), ranking(&cells)[..3]);
        assert_eq!(ix.ix.view.cache.rebuilds, 3);
        // ...after which upkeep resumes at the default width.
        settle(&mut ix, &[(500, 1, 1), (501, 0, 1)]);
        cells.extend([(500, 1), (501, 0)]);
        assert_eq!(ix.top_k(128), ranking(&cells)[..128]);
        assert_eq!(ix.ix.view.cache.rebuilds, 3);
    }

    #[test]
    fn upkeep_handles_ungrouped_keys() {
        // The column index's feed: keys recur across runs of one call.
        let mut ix = Owned {
            by_col: true,
            ..Owned::default()
        };
        settle(&mut ix, &[(10, 1, 1), (10, 2, 1), (11, 1, 1)]);
        assert_eq!(ix.top_k(2), vec![(1, 2), (2, 1)]);
        settle(
            &mut ix,
            &[(20, 2, 1), (20, 3, 1), (21, 2, 1), (21, 3, 1), (22, 2, 1)],
        );
        assert_eq!(ix.top_k(3), vec![(2, 4), (1, 2), (3, 2)]);
        settle(&mut ix, &[(2, 9, 1), (30, 3, 1), (31, 3, 1)]);
        assert_eq!(ix.top_k(3), vec![(2, 4), (3, 4), (1, 2)]);
        assert_eq!(ix.ix.view.cache.rebuilds, 1);
        // A refill through `add_unique_row` is not upkept.
        ix.ix.add_unique_row(77, 9, 9);
        assert_eq!(ix.top_k(1), vec![(77, 9)]);
        assert_eq!(ix.ix.view.cache.rebuilds, 2);
    }

    #[test]
    fn view_is_stable_under_writer_mutation() {
        let mut ix = Owned::default();
        settle(&mut ix, &[(1, 1, 5), (2, 1, 6), (2, 2, 7)]);
        let mut view = ix.ix.view().clone();
        settle(&mut ix, &[(3, 1, 1), (3, 2, 1), (3, 3, 1)]);
        // The view still answers from the captured state...
        assert_eq!(view.nnz(), 3);
        assert_eq!(view.row_degree(3), 0);
        assert_eq!(view.top_k(1), vec![(2, 2)]);
        // ...while the writer reflects the mutation.
        assert_eq!(ix.nnz(), 6);
        assert_eq!(ix.top_k(1), vec![(3, 3)]);
        assert_eq!(view.degree_histogram().get(&1), Some(&1));
    }

    #[test]
    fn a_cell_seen_again_adds_weight_not_degree() {
        // (4,1) (4,2) (9,2): row degrees {4: 2, 9: 1}, column degrees
        // {1: 1, 2: 2} — one type, either axis.
        let batch = [(4, 1, 10), (4, 2, 20), (9, 2, 30)];
        let mut by_row = Owned::default();
        let mut by_col = Owned {
            by_col: true,
            ..Owned::default()
        };
        for _ in 0..2 {
            settle(&mut by_row, &batch);
            settle(&mut by_col, &batch);
            assert_eq!((by_row.nnz(), by_col.nnz()), (3, 3));
            assert_eq!((by_row.row_degree(4), by_col.row_degree(2)), (2, 2));
            assert_eq!(by_col.top_k(1), vec![(2, 2)]);
        }
        assert_eq!(by_row.row_weight(4), Some(60));
        assert_eq!(by_col.row_weight(2), Some(100));
        settle(&mut by_col, &[(2, 8, 5), (7, 1, 5)]);
        assert_eq!((by_col.row_degree(8), by_col.row_degree(1)), (1, 2));
        assert_eq!(by_col.nnz(), 5);
    }

    #[test]
    fn add_unique_row_rebuild_path() {
        let mut ix = DegreeIndex::<u64>::new();
        ix.add_unique_row(8, 3, 15);
        ix.add_unique_row(2, 1, 4);
        let view = ix.view_mut();
        assert_eq!(view.nnz(), 4);
        assert_eq!(view.row_degree(8), 3);
        assert_eq!(view.top_k(2), vec![(8, 3), (2, 1)]);
    }

    /// Three levels whose cells overlap, each cell's values summing across
    /// the levels it sits in: the sweep-built index equals the one an owner
    /// feeds level by level through its cell oracle, on either side, in
    /// every answer — including a column side whose keys the row-major
    /// sweep hands over one cell at a time, and ranks past the cache.
    #[test]
    fn from_levels_equals_the_observed_index_on_both_sides() {
        let n = 1 << 20;
        let cells = |salt: u64| -> Vec<(u64, u64, u64)> {
            (0..600u64)
                .map(|i| ((i * salt) % 157, (i * 7 + salt) % 211, i % 5 + 1))
                .collect()
        };
        let levels: Vec<Dcsr<u64>> = [3u64, 5, 11]
            .iter()
            .map(|&salt| {
                let c = cells(salt);
                let (r, c, v): (Vec<_>, Vec<_>, Vec<_>) = (
                    c.iter().map(|e| e.0).collect(),
                    c.iter().map(|e| e.1).collect(),
                    c.iter().map(|e| e.2).collect(),
                );
                Dcsr::from_tuples(n, n, &r, &c, &v, Plus).unwrap()
            })
            .collect();
        let refs: Vec<&Dcsr<u64>> = levels.iter().collect();
        let shared: usize = levels.iter().map(|l| l.nvals()).sum();
        for (side, by_col) in [(Side::Rows, false), (Side::Cols, true)] {
            let mut fed = Owned {
                by_col,
                ..Owned::default()
            };
            for level in &levels {
                settle(&mut fed, &level.iter().collect::<Vec<_>>());
            }
            assert!(fed.nnz() < shared, "some cells sit in several levels");
            let mut built = DegreeIndex::from_levels(&refs, side);
            let view = built.view_mut();
            assert_eq!(view.nnz(), fed.nnz());
            for key in 0..300 {
                assert_eq!(view.row_degree(key), fed.row_degree(key), "{side:?} {key}");
                assert_eq!(view.row_weight(key), fed.row_weight(key), "{side:?} {key}");
            }
            for k in [3, 150, usize::MAX] {
                assert_eq!(view.top_k(k), fed.top_k(k), "{side:?} k = {k}");
            }
            assert!(view.top_k(usize::MAX).len() > TOPK_MIN_COVER);
            assert_eq!(view.degree_histogram(), fed.degree_histogram());
        }
    }

    #[test]
    fn absorb_sums_the_stats_of_keys_shared_across_parts() {
        let (mut a, mut b) = (DegreeIndex::<u64>::new(), DegreeIndex::<u64>::new());
        a.add_unique_row(7, 2, 5);
        a.add_unique_row(3, 1, 1);
        b.add_unique_row(7, 1, 4);
        b.add_unique_row(9, 3, 3);
        let mut sum = DegreeIndex::new();
        assert_eq!(sum.view_mut().top_k(1), vec![]);
        sum.absorb(a.view());
        sum.absorb(b.view());
        let view = sum.view_mut();
        assert_eq!(
            (view.nnz(), view.row_degree(7), view.row_weight(7)),
            (7, 3, Some(9))
        );
        assert_eq!(view.top_k(3), vec![(7, 3), (9, 3), (3, 1)]);
    }

    #[test]
    fn fx_hasher_covers_byte_writes() {
        use std::hash::Hash;
        let mut a = FxHasher::default();
        "hello-degree-index".hash(&mut a);
        let mut b = FxHasher::default();
        "hello-degree-index".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        "hello-degree-indey".hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }

    /// Keys that share trailing zeros — row ids aggregated to a prefix,
    /// `i << 16` for `/16` IPv4 blocks — still spread over the low bits the
    /// table picks buckets from.
    #[test]
    fn fx_hasher_spreads_keys_with_trailing_zeros_over_the_low_bits() {
        use std::hash::Hash;
        for shift in [0, 8, 16, 20, 32] {
            let low_bits: HashSet<u64> = (0..4096u64)
                .map(|i| {
                    let mut h = FxHasher::default();
                    (i << shift).hash(&mut h);
                    h.finish() & 0xffff
                })
                .collect();
            assert!(low_bits.len() >= 4000, "shift {shift}: {}", low_bits.len());
        }
    }
}
