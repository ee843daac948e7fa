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
//! *owner* keeps the one cell-membership oracle (the hierarchy: a set of
//! every distinct cell, probed once per settled cell) and hands each index
//! what [`DegreeIndex::observe`] takes: the batch's keys on this index's
//! axis, its values, and one flag per cell saying whether the union grew.
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
//! only grow between `clear()`s, so a row the batch did not touch cannot
//! overtake anything, every cached row still ranks at or above the old
//! last entry afterwards, and so a row from outside makes the new top
//! ranks only if the batch raised it above that entry.  What still
//! rebuilds lazily (first query after a mutation
//! scans the row stats once): a cold or just-activated cache, an index
//! refilled through [`DegreeIndex::add_unique_row`], any `k` above 128
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

use crate::index::Index;
use crate::types::ScalarType;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiply-rotate hasher (FxHash-style) for the index's hot cell and row
/// probes: the default SipHash is measurably slower on the settle path and
/// the keys here are attacker-free internal coordinates.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
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

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }
}

/// Deterministic builder: no per-process random seed, so iteration order —
/// which never leaks into answers, all of which sort — is reproducible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

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
fn rank(a: &(Index, usize), b: &(Index, usize)) -> std::cmp::Ordering {
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
/// The index starts **inactive**: pure-ingest workloads never touch it
/// (the observer returns immediately), so streams that are never asked a
/// degree question pay zero maintenance.  The first degree query
/// activates it ([`DegreeIndex::activate`] + one deduplicated sweep of the
/// current content by the owner); from then on the owner's settle observer
/// maintains it incrementally.
#[derive(Debug, Clone, Default)]
pub struct DegreeIndex<V> {
    /// False until the first degree query: the observer is a no-op while
    /// inactive.
    active: bool,
    view: DegreeIndexView<V>,
}

impl<V: ScalarType> DegreeIndex<V> {
    /// An empty, inactive index.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once a degree query has activated maintenance.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Start maintaining the index.  The owner must immediately feed it
    /// the current content (one deduplicated sweep through
    /// [`DegreeIndex::add_unique_row`]); afterwards every settle flows
    /// through [`DegreeIndex::observe`].  Idempotent.
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Remove everything and deactivate (the matrix was cleared; the next
    /// degree query rebuilds from scratch).
    pub fn clear(&mut self) {
        self.active = false;
        let core = Arc::make_mut(&mut self.view.core);
        core.rows.clear();
        core.nnz = 0;
        core.version += 1;
    }

    /// A cheap, immutable view sharing the row stats (the snapshot
    /// companion).  The caches are cloned warm.
    pub fn view(&self) -> DegreeIndexView<V> {
        self.view.clone()
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
    /// `new[i]` says whether the union did not hold it before (the owner's
    /// cell oracle decides that, once, for both axes).  The settle
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
        if !self.active || keys.is_empty() {
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
    /// the fill path of an owner walking an already-deduplicated union
    /// sweep: a hierarchy activating a side, the windowed union index
    /// rebuilding.  The top-k cache is left to its next lazy rebuild.
    pub fn add_unique_row(&mut self, row: Index, degree: u64, weight: V) {
        let core = Arc::make_mut(&mut self.view.core);
        core.add(row, degree, weight);
        core.version += 1;
    }

    /// Distinct `(row, col)` cells — O(1).
    pub fn nnz(&self) -> usize {
        self.view.nnz()
    }

    /// Distinct columns stored in `row` — O(1).
    pub fn row_degree(&self, row: Index) -> usize {
        self.view.row_degree(row)
    }

    /// `+`-reduction of `row`'s accumulated values — O(1).
    pub fn row_weight(&self, row: Index) -> Option<V> {
        self.view.row_weight(row)
    }

    /// The `k` highest-degree rows (degree desc, row asc) — O(k) warm.
    pub fn top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.view.top_k(k)
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

    impl std::ops::Deref for Owned {
        type Target = DegreeIndex<u64>;
        fn deref(&self) -> &Self::Target {
            &self.ix
        }
    }

    impl std::ops::DerefMut for Owned {
        fn deref_mut(&mut self) -> &mut Self::Target {
            &mut self.ix
        }
    }

    /// What the owner does on a settle: ask the oracle which cells are new
    /// and feed the index its axis.  Batches arrive sorted row-major and
    /// deduplicated, like the real settle produces.
    fn settle(o: &mut Owned, batch: &[(u64, u64, u64)]) {
        o.ix.activate();
        let key = |e: &(u64, u64, u64)| if o.by_col { e.1 } else { e.0 };
        let keys: Vec<u64> = batch.iter().map(key).collect();
        let vals: Vec<u64> = batch.iter().map(|e| e.2).collect();
        let new: Vec<bool> = batch.iter().map(|e| o.cells.insert((e.0, e.1))).collect();
        o.ix.observe(&keys, &vals, &new);
    }

    #[test]
    fn inactive_index_ignores_the_observer() {
        let mut ix = DegreeIndex::<u64>::new();
        assert!(!ix.is_active());
        ix.observe(&[1, 2], &[1, 1], &[true, true]);
        // Nothing recorded: pure-ingest streams pay no maintenance.
        assert_eq!(ix.nnz(), 0);
        assert!(ix.top_k(5).is_empty());
        // Activation starts maintenance; clear() deactivates again.
        ix.activate();
        assert!(ix.is_active());
        ix.observe(&[3], &[3], &[true]);
        assert_eq!(ix.nnz(), 1);
        ix.clear();
        assert!(!ix.is_active());
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

        let hist = ix.view_mut().degree_histogram();
        assert_eq!(hist.get(&3), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));

        ix.clear();
        assert_eq!(ix.nnz(), 0);
        assert!(ix.top_k(5).is_empty());
        assert!(ix.view_mut().degree_histogram().is_empty());
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
        ix.add_unique_row(77, 9, 9);
        assert_eq!(ix.top_k(1), vec![(77, 9)]);
        assert_eq!(ix.ix.view.cache.rebuilds, 2);
    }

    #[test]
    fn view_is_stable_under_writer_mutation() {
        let mut ix = Owned::default();
        settle(&mut ix, &[(1, 1, 5), (2, 1, 6), (2, 2, 7)]);
        let mut view = ix.view();
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
        assert_eq!(ix.nnz(), 4);
        assert_eq!(ix.row_degree(8), 3);
        assert_eq!(ix.top_k(2), vec![(8, 3), (2, 1)]);
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
}
