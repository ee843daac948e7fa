//! Inputs and the oracle, both made in set-up from `--seed` alone.
//!
//! The engine only ever receives the generated slices.  The oracle is a
//! sort of the packed updates — it never calls the engine — and answers,
//! for any prefix of the batches, the questions the benchmark checks:
//! distinct cells, total weight, a cell's value, a row's or column's
//! degree, and the top-k degrees.

use crate::query::TOP_K;
use hyperstream_workload::{PowerLawConfig, PowerLawGenerator};

/// Matrix dimension of every workload (the paper's IPv4-sized space).
pub const DIM: u64 = 1 << 32;

/// SplitMix64.  Its state walks an odd stride and its output function is a
/// bijection on `u64`, so successive outputs never repeat — which is what
/// makes the `unique` stream's cells distinct without a dedup pass.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes sampled here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One batch of updates as the parallel slices `insert_batch` takes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    pub rows: Vec<u64>,
    pub cols: Vec<u64>,
    pub vals: Vec<u64>,
}

impl Batch {
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Which distribution a stream is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The paper's stream: `PowerLawConfig::paper()` with the run's seed.
    /// Many updates per distinct cell.
    PowerLaw,
    /// Uniform-random distinct cells over `2^32 x 2^32`: every update is a
    /// new cell.
    Unique,
}

/// Generate `n_batches` batches of `batch_len` updates.
pub fn generate(kind: StreamKind, seed: u64, n_batches: usize, batch_len: usize) -> Vec<Batch> {
    let batch = |next: &mut dyn FnMut() -> (u64, u64, u64)| {
        let mut b = Batch {
            rows: Vec::with_capacity(batch_len),
            cols: Vec::with_capacity(batch_len),
            vals: Vec::with_capacity(batch_len),
        };
        for _ in 0..batch_len {
            let (r, c, v) = next();
            b.rows.push(r);
            b.cols.push(c);
            b.vals.push(v);
        }
        b
    };
    match kind {
        StreamKind::PowerLaw => {
            let mut g = PowerLawGenerator::new(PowerLawConfig {
                seed,
                ..PowerLawConfig::paper()
            });
            (0..n_batches)
                .map(|_| {
                    batch(&mut || {
                        let e = g.next_edge();
                        (e.src, e.dst, e.weight)
                    })
                })
                .collect()
        }
        StreamKind::Unique => {
            let mut g = SplitMix64::new(seed);
            (0..n_batches)
                .map(|_| {
                    batch(&mut || {
                        let k = g.next_u64();
                        (k >> 32, k & 0xFFFF_FFFF, 1)
                    })
                })
                .collect()
        }
    }
}

fn pack(row: u64, col: u64) -> u64 {
    debug_assert!(row < DIM && col < DIM);
    row << 32 | col
}

/// The benchmark's own model of what the engine must hold.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Every update as `cell << 64 | batch << 32 | value`, sorted: the
    /// updates of one cell are adjacent and ordered by batch.
    updates: Vec<u128>,
    /// Distinct cells (`row << 32 | col`, sorted) with the batch each
    /// first appeared in.
    cells: Vec<(u64, u32)>,
    /// The same cells transposed (`col << 32 | row`, sorted).
    tcells: Vec<(u64, u32)>,
    /// Sum of all update values up to and including each batch.
    weight_upto: Vec<u64>,
    /// Whole-stream top-[`TOP_K`] rows by distinct columns, columns by
    /// distinct rows, and the number of vertices with any edge.
    top_rows: Vec<(u64, usize)>,
    top_cols: Vec<(u64, usize)>,
    vertices: usize,
}

impl Oracle {
    pub fn build(batches: &[Batch]) -> Self {
        let total: usize = batches.iter().map(Batch::len).sum();
        let mut updates = Vec::with_capacity(total);
        let mut weight_upto = Vec::with_capacity(batches.len());
        let mut weight = 0u64;
        for (b, batch) in batches.iter().enumerate() {
            for i in 0..batch.len() {
                let v = batch.vals[i];
                assert!(v < 1 << 32, "oracle packs values into 32 bits");
                weight += v;
                let key = pack(batch.rows[i], batch.cols[i]) as u128;
                updates.push(key << 64 | (b as u128) << 32 | v as u128);
            }
            weight_upto.push(weight);
        }
        updates.sort_unstable();
        let mut cells: Vec<(u64, u32)> = Vec::new();
        for &u in &updates {
            let key = (u >> 64) as u64;
            if cells.last().map(|c| c.0) != Some(key) {
                cells.push((key, (u >> 32) as u32));
            }
        }
        let mut tcells: Vec<(u64, u32)> = cells
            .iter()
            .map(|&(k, first)| (pack(k & 0xFFFF_FFFF, k >> 32), first))
            .collect();
        tcells.sort_unstable();
        let (top_rows, mut ids) = Self::top(&cells);
        let (top_cols, col_ids) = Self::top(&tcells);
        ids.extend(col_ids);
        ids.sort_unstable();
        ids.dedup();
        Self {
            updates,
            cells,
            tcells,
            weight_upto,
            top_rows,
            top_cols,
            vertices: ids.len(),
        }
    }

    pub fn n_batches(&self) -> usize {
        self.weight_upto.len()
    }

    pub fn n_updates(&self) -> usize {
        self.updates.len()
    }

    /// Index of the last batch: the prefix that is the whole stream.
    pub fn last(&self) -> u32 {
        self.n_batches() as u32 - 1
    }

    /// Distinct cells after batches `0..=upto`.
    pub fn distinct(&self, upto: u32) -> usize {
        if upto >= self.last() {
            return self.cells.len();
        }
        self.cells.iter().filter(|c| c.1 <= upto).count()
    }

    /// Sum of all values after batches `0..=upto`.
    pub fn total_weight(&self, upto: u32) -> u64 {
        self.weight_upto[upto as usize]
    }

    /// `A(row, col)` after batches `0..=upto`.
    pub fn get(&self, row: u64, col: u64, upto: u32) -> Option<u64> {
        let key = pack(row, col) as u128;
        let lo = self.updates.partition_point(|&u| u >> 64 < key);
        let mut sum = None;
        for &u in &self.updates[lo..] {
            if u >> 64 != key || (u >> 32) as u32 > upto {
                break;
            }
            sum = Some(sum.unwrap_or(0) + (u as u32) as u64);
        }
        sum
    }

    fn degree(cells: &[(u64, u32)], major: u64, upto: u32) -> usize {
        let lo = cells.partition_point(|c| c.0 < major << 32);
        cells[lo..]
            .iter()
            .take_while(|c| c.0 >> 32 == major)
            .filter(|c| c.1 <= upto)
            .count()
    }

    /// Distinct columns stored in `row` after batches `0..=upto`.
    pub fn row_degree(&self, row: u64, upto: u32) -> usize {
        Self::degree(&self.cells, row, upto)
    }

    /// Distinct rows stored in `col` after batches `0..=upto`.
    pub fn col_degree(&self, col: u64, upto: u32) -> usize {
        Self::degree(&self.tcells, col, upto)
    }

    /// The top-[`TOP_K`] major ids of `cells` by degree, and every major
    /// id.
    fn top(cells: &[(u64, u32)]) -> (Vec<(u64, usize)>, Vec<u64>) {
        let mut degrees: Vec<(u64, usize)> = Vec::new();
        for c in cells {
            match degrees.last_mut() {
                Some(d) if d.0 == c.0 >> 32 => d.1 += 1,
                _ => degrees.push((c.0 >> 32, 1)),
            }
        }
        let ids = degrees.iter().map(|d| d.0).collect();
        // The reader contract: degree descending, then id ascending.
        degrees.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        degrees.truncate(TOP_K);
        (degrees, ids)
    }

    /// The [`TOP_K`] rows with the most distinct columns over the whole
    /// stream.
    pub fn top_rows(&self) -> &[(u64, usize)] {
        &self.top_rows
    }

    /// The [`TOP_K`] columns with the most distinct rows over the whole
    /// stream.
    pub fn top_cols(&self) -> &[(u64, usize)] {
        &self.top_cols
    }

    /// Vertices with at least one in- or out-edge over the whole stream
    /// (the support of a PageRank vector).
    pub fn vertices(&self) -> usize {
        self.vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Batch> {
        vec![
            Batch {
                rows: vec![1, 1, 2, 1],
                cols: vec![5, 6, 5, 5],
                vals: vec![1, 2, 3, 4],
            },
            Batch {
                rows: vec![2, 1, 9],
                cols: vec![5, 7, 5],
                vals: vec![10, 1, 1],
            },
        ]
    }

    #[test]
    fn oracle_dedups_and_sums_a_tiny_stream() {
        let o = Oracle::build(&tiny());
        assert_eq!(o.n_updates(), 7);
        assert_eq!(o.n_batches(), 2);
        // cells: (1,5) (1,6) (2,5) after batch 0; + (1,7) (9,5) after batch 1
        assert_eq!(o.distinct(0), 3);
        assert_eq!(o.distinct(1), 5);
        assert_eq!(o.total_weight(0), 10);
        assert_eq!(o.total_weight(1), 22);
        // duplicates accumulate, within and across batches
        assert_eq!(o.get(1, 5, 0), Some(5));
        assert_eq!(o.get(2, 5, 0), Some(3));
        assert_eq!(o.get(2, 5, 1), Some(13));
        assert_eq!(o.get(1, 7, 0), None);
        assert_eq!(o.get(1, 7, 1), Some(1));
        assert_eq!(o.get(3, 3, 1), None);
    }

    #[test]
    fn oracle_degrees_and_top_k_follow_the_reader_contract() {
        let o = Oracle::build(&tiny());
        assert_eq!(o.row_degree(1, 0), 2);
        assert_eq!(o.row_degree(1, 1), 3);
        assert_eq!(o.row_degree(7, 1), 0);
        assert_eq!(o.col_degree(5, 0), 2);
        assert_eq!(o.col_degree(5, 1), 3);
        assert_eq!(o.col_degree(6, 1), 1);
        // degree descending, ties by ascending id
        assert_eq!(o.top_rows(), [(1, 3), (2, 1), (9, 1)]);
        assert_eq!(o.top_cols(), [(5, 3), (6, 1), (7, 1)]);
        // vertices 1, 2, 9 (rows) and 5, 6, 7 (columns)
        assert_eq!(o.vertices(), 6);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for kind in [StreamKind::PowerLaw, StreamKind::Unique] {
            let a = generate(kind, 7, 2, 500);
            assert_eq!(a, generate(kind, 7, 2, 500));
            assert_ne!(a, generate(kind, 8, 2, 500));
            assert!(a
                .iter()
                .all(|b| b.len() == 500 && b.rows.iter().chain(&b.cols).all(|&i| i < DIM)));
        }
    }

    #[test]
    fn unique_stream_has_one_update_per_cell() {
        let batches = generate(StreamKind::Unique, 2020, 4, 5000);
        let o = Oracle::build(&batches);
        assert_eq!(o.distinct(o.last()), o.n_updates());
    }
}
