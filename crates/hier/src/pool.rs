//! Write-side partitioning of a tuple stream across shards.
//!
//! The paper's 75 G-updates/s figure comes from 31,000 *independent*
//! instances, one per process, each building its own graph.  Within one
//! process the same pattern is [`crate::sharded::ShardedHierMatrix`]: a
//! stream sharded by row across hierarchies that never communicate.  This
//! module holds what the producer side of that needs: the row hash and the
//! per-shard staging buffers.

use hyperstream_graphblas::{Index, ScalarType};

/// The multiplicative row hash behind
/// [`ShardPartitioner::RowHash`](crate::sharded::ShardPartitioner::RowHash):
/// nearby rows spread across shards.
pub(crate) fn row_hash(row: Index) -> u64 {
    row.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Reusable per-shard staging buffers for partitioning a tuple stream.
///
/// Partitioning a 100,000-tuple batch across N shards must not allocate
/// 3·N vectors per batch; a `PartitionBuffers` is filled, drained
/// shard-by-shard, and reset (retaining capacity) for the next batch.  The
/// sharded parallel engine (`crate::sharded::ShardedHierMatrix`) stages
/// through this type.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
