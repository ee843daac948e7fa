//! A pool of independent hierarchical matrix instances.
//!
//! The paper's 75 G-updates/s figure comes from 31,000 *independent*
//! instances, one per process, each building its own graph.  Within one
//! process the same pattern appears when a stream is sharded by flow hash
//! across several instances (e.g. one per worker thread).  `InstancePool`
//! provides that sharding plus aggregate statistics.

use crate::config::HierConfig;
use crate::matrix::HierMatrix;
use crate::stats::HierStats;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::{GrbError, GrbResult, Index, Matrix, MatrixReader, ScalarType};

/// The multiplicative row hash shared by every row-based sharder in the
/// workspace ([`InstancePool::route`], the sharded engine's row-hash
/// partitioner, and the workload-side stream partitioning).
pub fn row_hash(row: Index) -> u64 {
    row.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Re-rank concatenated per-part top-k lists from parts that own
/// *disjoint row sets* (instances, shards, shard snapshots): the global
/// top-k is the top-k of the concatenation, ordered degree descending
/// then row ascending.  One combine rule shared by every disjoint-row
/// engine so their tie-breaking can never diverge.
pub(crate) fn rerank_top_k(mut all: Vec<(Index, usize)>, k: usize) -> Vec<(Index, usize)> {
    all.sort_by(by_rank);
    all.truncate(k);
    all
}

/// The one ranking order of `(id, degree)` pairs: degree descending, then
/// id ascending.
fn by_rank(a: &(Index, usize), b: &(Index, usize)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Sum per-part degree histograms from disjoint-row parts: every row is
/// counted by exactly one part, so the counts add.
pub(crate) fn sum_histograms(
    parts: impl IntoIterator<Item = std::collections::BTreeMap<u64, u64>>,
) -> std::collections::BTreeMap<u64, u64> {
    let mut counts = std::collections::BTreeMap::new();
    for part in parts {
        for (d, n) in part {
            *counts.entry(d).or_insert(0) += n;
        }
    }
    counts
}

/// Ranks of a summed in-degree map that are ranked when it is built — the
/// cover of the degree index's own top-k cache.
const IN_TOP_READY: usize = 128;

/// The column → in-degree map over parts that own disjoint **row** sets
/// (instances, shards, shard snapshots), with its top ranks beside it.
///
/// Columns are *not* disjoint across row-partitioned parts — one column's
/// cells split over every part — so, unlike the row-side top-k, partial
/// rankings cannot be re-ranked: the per-column degrees must be summed
/// first and ranked afterwards.  Holders cache the sum; the ranking is done
/// once, here, so a burst of ranking reads against a cached sum copies a
/// prefix instead of sorting every column per read.
#[derive(Debug)]
pub(crate) struct SummedInDegrees {
    degrees: std::collections::BTreeMap<Index, usize>,
    /// The first [`IN_TOP_READY`] ranks (or all there are), in
    /// [`rerank_top_k`]'s order.
    top: Vec<(Index, usize)>,
}

impl SummedInDegrees {
    /// Sum per-part `(column, degree)` partials and rank the top.
    pub(crate) fn sum(parts: impl IntoIterator<Item = Vec<(Index, usize)>>) -> Self {
        let mut degrees = std::collections::BTreeMap::new();
        for part in parts {
            for (c, d) in part {
                *degrees.entry(c).or_insert(0) += d;
            }
        }
        let top = rank(&degrees, IN_TOP_READY);
        Self { degrees, top }
    }

    /// The `k` highest in-degree columns.
    pub(crate) fn top_k(&self, k: usize) -> Vec<(Index, usize)> {
        if k <= self.top.len() || self.top.len() == self.degrees.len() {
            self.top[..k.min(self.top.len())].to_vec()
        } else {
            rank(&self.degrees, k)
        }
    }

    /// The in-degree histogram — the mirror of [`sum_histograms`], which
    /// would over-count columns whose cells split across parts if applied
    /// to per-part in-degree histograms.
    pub(crate) fn histogram(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for &d in self.degrees.values() {
            *counts.entry(d as u64).or_insert(0) += 1;
        }
        counts
    }
}

/// The first `k` of `degrees` by rank: a selection of the `k` best, then a
/// sort of those alone.
fn rank(degrees: &std::collections::BTreeMap<Index, usize>, k: usize) -> Vec<(Index, usize)> {
    let mut all: Vec<(Index, usize)> = degrees.iter().map(|(&c, &d)| (c, d)).collect();
    if (1..all.len()).contains(&k) {
        all.select_nth_unstable_by(k, by_rank);
    }
    all.truncate(k);
    all.sort_unstable_by(by_rank);
    all
}

/// Reusable per-shard staging buffers for partitioning a tuple stream.
///
/// Partitioning a 100,000-tuple batch across N shards must not allocate
/// 3·N vectors per batch; a `PartitionBuffers` is filled, drained
/// shard-by-shard, and reset (retaining capacity) for the next batch.  Both
/// [`InstancePool::update_batch`] and the sharded parallel engine
/// (`crate::sharded::ShardedHierMatrix`) stage through this type.
#[derive(Debug, Clone, Default)]
pub struct PartitionBuffers<T> {
    rows: Vec<Vec<Index>>,
    cols: Vec<Vec<Index>>,
    vals: Vec<Vec<T>>,
    total: usize,
}

impl<T: ScalarType> PartitionBuffers<T> {
    /// Empty buffers for `shards` shards.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            rows: (0..shards).map(|_| Vec::new()).collect(),
            cols: (0..shards).map(|_| Vec::new()).collect(),
            vals: (0..shards).map(|_| Vec::new()).collect(),
            total: 0,
        }
    }

    /// Number of shards the buffers stage for.
    pub fn shards(&self) -> usize {
        self.rows.len()
    }

    /// Total tuples currently staged across all shards.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tuples currently staged for `shard`.
    pub fn staged(&self, shard: usize) -> usize {
        self.rows[shard].len()
    }

    /// Stage one tuple for `shard`.
    pub fn push(&mut self, shard: usize, row: Index, col: Index, val: T) {
        self.rows[shard].push(row);
        self.cols[shard].push(col);
        self.vals[shard].push(val);
        self.total += 1;
    }

    /// The staged tuple slices of `shard`.
    pub fn shard_slices(&self, shard: usize) -> (&[Index], &[Index], &[T]) {
        (&self.rows[shard], &self.cols[shard], &self.vals[shard])
    }

    /// Take ownership of `shard`'s staged tuple vectors, installing
    /// `replacement` (cleared first) as the shard's fresh staging space.
    /// This is the zero-copy handoff of the persistent-pool engine: the
    /// staged buffers travel to the worker whole, and recycled buffers
    /// come back as the replacement, so steady-state dispatch allocates
    /// nothing.
    pub fn take_shard(
        &mut self,
        shard: usize,
        replacement: (Vec<Index>, Vec<Index>, Vec<T>),
    ) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        let (mut r, mut c, mut v) = replacement;
        r.clear();
        c.clear();
        v.clear();
        std::mem::swap(&mut self.rows[shard], &mut r);
        std::mem::swap(&mut self.cols[shard], &mut c);
        std::mem::swap(&mut self.vals[shard], &mut v);
        self.total -= r.len();
        (r, c, v)
    }

    /// Clear every shard's staging, retaining all capacity.
    pub fn reset(&mut self) {
        for s in 0..self.rows.len() {
            self.rows[s].clear();
            self.cols[s].clear();
            self.vals[s].clear();
        }
        self.total = 0;
    }
}

/// A set of independent [`HierMatrix`] instances sharded by source index.
#[derive(Debug, Clone)]
pub struct InstancePool<T> {
    instances: Vec<HierMatrix<T>>,
    staging: PartitionBuffers<T>,
}

impl<T: ScalarType> InstancePool<T> {
    /// Create `count` instances of `nrows x ncols` matrices sharing one cut
    /// configuration.
    pub fn new(count: usize, nrows: Index, ncols: Index, config: HierConfig) -> GrbResult<Self> {
        let mut instances = Vec::with_capacity(count.max(1));
        for _ in 0..count.max(1) {
            instances.push(HierMatrix::new(nrows, ncols, config.clone())?);
        }
        Ok(Self {
            staging: PartitionBuffers::new(count.max(1)),
            instances,
        })
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the pool has no instances (never the case for pools built
    /// with [`InstancePool::new`], which clamps to at least one).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instance an update with this source index is routed to.
    pub fn route(&self, src: Index) -> usize {
        // Multiplicative hash so nearby sources spread across instances.
        (row_hash(src) % self.instances.len() as u64) as usize
    }

    /// Apply an update, routing it to the owning instance.
    pub fn update(&mut self, src: Index, dst: Index, val: T) -> GrbResult<()> {
        let i = self.route(src);
        self.instances[i].update(src, dst, val)
    }

    /// Apply a batch of updates, routing each tuple to its owning instance
    /// and feeding every instance through the bulk
    /// [`HierMatrix::update_batch`] path.  The partition staging buffers are
    /// reused across calls.
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        hyperstream_graphblas::sink::check_tuple_lengths(rows, cols, vals)?;
        let (nr, nc) = {
            let first = &self.instances[0];
            (first.nrows(), first.ncols())
        };
        // The leading reset establishes a clean slate (it also heals state
        // left by a mid-loop validation error in an earlier call).
        self.staging.reset();
        for i in 0..rows.len() {
            hyperstream_graphblas::validate_index(rows[i], nr)?;
            hyperstream_graphblas::validate_index(cols[i], nc)?;
            let shard = self.route(rows[i]);
            self.staging.push(shard, rows[i], cols[i], vals[i]);
        }
        for (shard, instance) in self.instances.iter_mut().enumerate() {
            let (r, c, v) = self.staging.shard_slices(shard);
            if !r.is_empty() {
                instance.update_batch(r, c, v)?;
            }
        }
        Ok(())
    }

    /// Direct access to an instance.
    pub fn instance(&self, i: usize) -> &HierMatrix<T> {
        &self.instances[i]
    }

    /// Direct mutable access to an instance.
    pub fn instance_mut(&mut self, i: usize) -> &mut HierMatrix<T> {
        &mut self.instances[i]
    }

    /// Iterate over the instances.
    pub fn iter(&self) -> impl Iterator<Item = &HierMatrix<T>> {
        self.instances.iter()
    }

    /// Total updates applied across all instances.
    pub fn total_updates(&self) -> u64 {
        self.instances.iter().map(|m| m.stats().updates).sum()
    }

    /// Aggregate statistics (sums over instances).
    pub fn aggregate_stats(&self) -> HierStats {
        let levels = self.instances.first().map(|m| m.levels()).unwrap_or(1);
        let mut agg = HierStats::new(levels);
        for m in &self.instances {
            let s = m.stats();
            agg.updates += s.updates;
            agg.materializations += s.materializations;
            for l in 0..levels {
                agg.cascades[l] += s.cascades_from_level(l);
                agg.entries_moved[l] += s.entries_moved_from_level(l);
            }
        }
        agg
    }

    /// The `k` highest-degree rows across the pool (degree descending, row
    /// ascending).  Instances are routed by row hash — they own disjoint
    /// row sets — so the pool's top-k is the re-ranked concatenation of
    /// each instance's O(k) degree-index answer; no instance materialises.
    pub fn top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let mut all: Vec<(Index, usize)> = Vec::new();
        for m in &mut self.instances {
            all.extend(m.read_top_k(k));
        }
        rerank_top_k(all, k)
    }

    /// Exact distinct cells across the pool: the per-instance degree-index
    /// counts sum because instances own disjoint rows.
    pub fn nnz_exact(&mut self) -> usize {
        self.instances.iter_mut().map(|m| m.read_nnz()).sum()
    }

    /// The pool's degree histogram (per-instance index histograms summed).
    pub fn degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        sum_histograms(self.instances.iter_mut().map(|m| m.read_degree_histogram()))
    }

    /// The `k` highest **in-degree** columns across the pool.  Instances
    /// own disjoint rows but share columns, so the per-instance column
    /// stats are *summed* per column (never re-ranked) before ranking.
    pub fn in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let parts: Vec<Vec<(Index, usize)>> = self
            .instances
            .iter_mut()
            .map(|m| {
                let bound = m.read_nnz();
                m.read_in_top_k(bound)
            })
            .collect();
        SummedInDegrees::sum(parts).top_k(k)
    }

    /// In-degree of one column across the pool (per-instance column-index
    /// answers summed — columns are not disjoint across instances).
    pub fn col_degree(&mut self, col: Index) -> usize {
        self.instances
            .iter_mut()
            .map(|m| m.read_col_degree(col))
            .sum()
    }

    /// The pool's in-degree histogram, computed from summed per-column
    /// degrees (summing per-instance histograms would split columns).
    pub fn in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let parts: Vec<Vec<(Index, usize)>> = self
            .instances
            .iter_mut()
            .map(|m| {
                let bound = m.read_nnz();
                m.read_in_top_k(bound)
            })
            .collect();
        SummedInDegrees::sum(parts).histogram()
    }

    /// Materialise the union of all instances into a single matrix
    /// (sum of the per-instance matrices — valid because instances hold
    /// disjoint or additively-combinable content).
    ///
    /// All instances' levels merge through the k-way cursor kernel in one
    /// pass, instead of materialising every instance and summing the
    /// copies pairwise.
    pub fn materialize_union(&self) -> GrbResult<Matrix<T>> {
        // Construction clamps the pool to at least one instance, so an
        // empty pool means the invariant broke — report it, don't panic.
        let first = self
            .instances
            .first()
            .ok_or(GrbError::EmptyObject("instance pool"))?;
        let (nrows, ncols) = (first.nrows(), first.ncols());
        let dcsrs: Vec<&hyperstream_graphblas::prelude::Dcsr<T>> = self
            .instances
            .iter()
            .flat_map(|m| m.level_dcsrs())
            .collect();
        // Previously `.ok()?` collapsed a merge failure into `None`,
        // indistinguishable from an empty pool; propagate it instead.
        let merged = hyperstream_graphblas::cursor::merge_levels(nrows, ncols, &dcsrs, Plus)?;
        let mut acc = Matrix::from_dcsr(merged);
        for m in &self.instances {
            m.fold_pending_into(&mut acc);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> InstancePool<u64> {
        InstancePool::new(
            n,
            1 << 20,
            1 << 20,
            HierConfig::from_cuts(vec![16, 256]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_clamps_to_one() {
        assert_eq!(pool(0).len(), 1);
        assert_eq!(pool(4).len(), 4);
        assert!(!pool(4).is_empty());
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = pool(7);
        for src in 0..1000u64 {
            let r1 = p.route(src);
            let r2 = p.route(src);
            assert_eq!(r1, r2);
            assert!(r1 < 7);
        }
    }

    #[test]
    fn routing_spreads_sources() {
        let p = pool(8);
        let mut counts = vec![0usize; 8];
        for src in 0..8000u64 {
            counts[p.route(src)] += 1;
        }
        // No instance should be starved or hold the vast majority.
        assert!(
            counts.iter().all(|&c| c > 200),
            "skewed routing: {counts:?}"
        );
    }

    #[test]
    fn updates_routed_and_counted() {
        let mut p = pool(4);
        for i in 0..400u64 {
            p.update(i, i * 2 % 1000, 1).unwrap();
        }
        assert_eq!(p.total_updates(), 400);
        let agg = p.aggregate_stats();
        assert_eq!(agg.updates, 400);
        // Every instance should have received some updates.
        assert!(p.iter().all(|m| m.stats().updates > 0));
    }

    #[test]
    fn union_matches_total_weight() {
        let mut p = pool(3);
        for i in 0..300u64 {
            p.update(i % 50, i % 70, 2).unwrap();
        }
        let union = p.materialize_union().unwrap();
        let total: u64 = union.extract_tuples().2.iter().sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn update_batch_routes_like_singles() {
        let rows: Vec<u64> = (0..500).map(|i| i * 7 % 300).collect();
        let cols: Vec<u64> = (0..500).map(|i| i * 13 % 400).collect();
        let vals: Vec<u64> = vec![2; 500];
        let mut batched = pool(4);
        batched.update_batch(&rows, &cols, &vals).unwrap();
        let mut singles = pool(4);
        for i in 0..rows.len() {
            singles.update(rows[i], cols[i], vals[i]).unwrap();
        }
        assert_eq!(batched.total_updates(), singles.total_updates());
        let bu = batched.materialize_union().unwrap();
        let su = singles.materialize_union().unwrap();
        assert_eq!(bu.extract_tuples(), su.extract_tuples());
    }

    #[test]
    fn pool_analytics_match_materialized_union() {
        let mut p = pool(3);
        for i in 0..600u64 {
            p.update(i % 37, (i * 11) % 101, 1).unwrap();
        }
        let union = p.materialize_union().unwrap();
        assert_eq!(p.nnz_exact(), union.nvals());
        let d = union.dcsr();
        let mut expect: Vec<(u64, usize)> = (0..d.nrows_nonempty())
            .map(|k| (d.row_ids()[k], d.row_slot(k).0.len()))
            .collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(5);
        assert_eq!(p.top_k(5), expect);
        assert!(p.top_k(0).is_empty());
        let mut union_ro = union;
        assert_eq!(p.degree_histogram(), union_ro.read_degree_histogram());
        // Analytics never materialise any instance.
        assert_eq!(p.aggregate_stats().materializations, 0);
    }

    #[test]
    fn pool_column_analytics_sum_across_instances() {
        let mut p = pool(3);
        for i in 0..600u64 {
            // Rows spread across instances; columns deliberately shared, so
            // each column's degree splits over several instances.
            p.update(i % 37, (i * 11) % 23, 1).unwrap();
        }
        let mut union = p.materialize_union().unwrap();
        for k in [0usize, 1, 5, 100] {
            assert_eq!(p.in_top_k(k), union.read_in_top_k(k), "k = {k}");
        }
        for col in 0u64..25 {
            assert_eq!(p.col_degree(col), union.read_col_degree(col), "{col}");
        }
        assert_eq!(p.in_degree_histogram(), union.read_in_degree_histogram());
        assert_eq!(p.aggregate_stats().materializations, 0);
    }

    #[test]
    fn update_batch_validates_before_applying() {
        let mut p = pool(2);
        let bad = (1u64 << 20) + 1; // out of the 2^20 bounds
        assert!(p.update_batch(&[1, bad], &[1, 1], &[1, 1]).is_err());
        assert_eq!(p.total_updates(), 0);
        assert!(p.update_batch(&[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn partition_buffers_reuse() {
        let mut b = PartitionBuffers::<u64>::new(3);
        assert_eq!(b.shards(), 3);
        b.push(0, 1, 1, 1);
        b.push(2, 2, 2, 2);
        assert_eq!(b.total(), 2);
        assert_eq!(b.staged(0), 1);
        assert_eq!(b.staged(1), 0);
        assert_eq!(b.shard_slices(2), (&[2u64][..], &[2u64][..], &[2u64][..]));
        b.reset();
        assert_eq!(b.total(), 0);
        assert_eq!(b.staged(2), 0);
        // Zero shards clamps to one.
        assert_eq!(PartitionBuffers::<u64>::new(0).shards(), 1);
    }

    #[test]
    fn row_hash_spreads() {
        let mut counts = [0usize; 4];
        for r in 0..4000u64 {
            counts[(row_hash(r) % 4) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "skewed: {counts:?}");
    }

    #[test]
    fn per_instance_access() {
        let mut p = pool(2);
        p.instance_mut(0).update(1, 1, 5).unwrap();
        assert_eq!(p.instance(0).get(1, 1), Some(5));
        assert_eq!(p.instance(1).get(1, 1), None);
    }
}
