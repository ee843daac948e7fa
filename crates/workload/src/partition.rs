//! Sharded stream generation: splitting one edge stream across N parallel
//! ingest shards, or generating N independent per-shard streams.
//!
//! The paper's cluster experiment gives every process its *own* stream
//! (weak scaling); a single-node sharded engine instead splits one stream
//! by row ownership (strong scaling).  Both shapes are provided here.

use crate::edge::Edge;
use crate::powerlaw::{PowerLawConfig, PowerLawGenerator};
use crate::stream::{StreamConfig, StreamPartitioner};

/// Split one batch of edges into per-shard batches using `shard_of`
/// (typically a row-based partitioner such as
/// `hyperstream_hier::ShardPartitioner`).  Returns `nshards` vectors; an
/// edge lands in exactly one.
pub fn partition_batch(
    batch: &[Edge],
    nshards: usize,
    mut shard_of: impl FnMut(&Edge) -> usize,
) -> Vec<Vec<Edge>> {
    let nshards = nshards.max(1);
    let mut out: Vec<Vec<Edge>> = (0..nshards)
        .map(|_| Vec::with_capacity(batch.len() / nshards + 1))
        .collect();
    for &e in batch {
        let s = shard_of(&e).min(nshards - 1);
        out[s].push(e);
    }
    out
}

/// Generate `nshards` *independent* power-law streams, each shaped like the
/// paper's per-instance workload (`batches` sets of `batch_size` edges),
/// with per-shard seeds derived from `seed`.  This is the weak-scaling
/// workload: every shard gets its own full stream.
pub fn shard_streams(
    nshards: usize,
    batches: usize,
    batch_size: usize,
    dim: u64,
    seed: u64,
) -> Vec<Vec<Vec<Edge>>> {
    (0..nshards.max(1) as u64)
        .map(|shard| {
            let gen = PowerLawGenerator::new(PowerLawConfig {
                dim,
                seed: seed ^ (shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..PowerLawConfig::paper()
            });
            StreamPartitioner::new(
                gen,
                StreamConfig {
                    batches,
                    batch_size,
                },
            )
            .batches()
            .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_batch_is_a_partition() {
        let batch: Vec<Edge> = (0..1000).map(|i| Edge::unit(i * 13 % 97, i)).collect();
        let parts = partition_batch(&batch, 4, |e| (e.src % 4) as usize);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), batch.len());
        for (s, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|e| (e.src % 4) as usize == s));
            // Stream order is preserved within a shard (dst encodes the
            // generating index here).
            for w in part.windows(2) {
                assert!(w[0].dst < w[1].dst);
            }
        }
    }

    #[test]
    fn partition_batch_clamps() {
        let batch = vec![Edge::unit(5, 5)];
        let parts = partition_batch(&batch, 0, |_| 99);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 1);
    }

    #[test]
    fn shard_streams_are_independent_and_shaped() {
        let streams = shard_streams(3, 2, 100, 1 << 32, 42);
        assert_eq!(streams.len(), 3);
        for s in &streams {
            assert_eq!(s.len(), 2);
            assert!(s.iter().all(|b| b.len() == 100));
        }
        // Different shards get different streams; same call is deterministic.
        assert_ne!(streams[0][0], streams[1][0]);
        let again = shard_streams(3, 2, 100, 1 << 32, 42);
        assert_eq!(streams[0][0], again[0][0]);
    }
}
