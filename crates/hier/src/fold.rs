//! The cache-resident level in front of level 0: an in-batch duplicate fold.
//!
//! The hierarchy exists so that updates to cells seen before are absorbed
//! in fast memory.  On a heavy-hitter stream two of every three tuples of a
//! batch repeat a cell the same batch already touched, and sorting them all
//! before folding them is the most expensive thing level 0 does.  A
//! [`BatchFold`] folds them first: one open-addressing probe per tuple into
//! a table small enough to stay in L2, `ScalarType::add` on a hit, so only
//! the batch's *distinct* cells reach level 0's pending buffer, the radix
//! settle, the degree observers and the level-0 merge.
//!
//! The fold is transient.  [`BatchFold::append`] returns with the index
//! empty and every staged cell handed to level 0, so no read path learns of
//! a new kind of unsettled state, and settles and cascades stay at the batch
//! boundaries they had (the caller keeps counting raw tuples for the
//! cascade trigger).

use hyperstream_graphblas::{GrbResult, Index, Matrix, ScalarType};

/// 2^17 `u32` slots: 512 KiB, inside L2 beside the cells it indexes.  A
/// constant and not a setting: it follows from the cache, not the workload.
const SLOT_BITS: u32 = 17;
const SLOTS: usize = 1 << SLOT_BITS;
/// Cells the index holds before it spills (load factor 1/2 keeps linear
/// probe chains a handful of slots long).
const CELLS_MAX: usize = SLOTS / 2;
/// A slot is `epoch << POS_BITS | position`; positions are below
/// [`CELLS_MAX`].  A slot whose epoch is not the current one is empty, so
/// emptying the index is one increment, not a 512 KiB store.
const POS_BITS: u32 = SLOT_BITS - 1;
const EPOCHS: u32 = 1 << (32 - POS_BITS);
/// Longest probe chain walked before the fold spills instead.  Chains at
/// load 1/2 stay far below this for any honest key set; the bound is what
/// a stream crafted to collide costs per tuple.
const PROBE_MAX: usize = 128;
/// Tuples of a batch's prefix that are folded before deciding whether the
/// rest is worth probing for; batches shorter than this are appended raw
/// (a handful of probes into a cold table cost more than sorting them).
pub(crate) const SAMPLE: usize = 4096;
/// Fewest repeats per [`SAMPLE`] prefix tuples (one in eight) for which
/// probing the rest of the batch beats sorting it.  A prefix repeats less
/// than the batch it starts, so the batch-wide share is well above this.
const SAMPLE_REPEATS_MIN: usize = SAMPLE / 8;

/// A key's first slot.  Fibonacci hashing: the top bits of the product mix
/// every bit of both coordinates.
#[inline]
fn home(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS)) as usize
}

/// See the [module documentation](self).
#[derive(Debug)]
pub(crate) struct BatchFold<T> {
    /// Empty until the first batch long enough to fold arrives.
    table: Vec<u32>,
    epoch: u32,
    /// The distinct cells folded so far as `(row << 32 | col, value)`, in
    /// first-seen order; grown on demand, never beyond [`CELLS_MAX`].
    cells: Vec<(u64, T)>,
}

impl<T> BatchFold<T> {
    pub(crate) fn new() -> Self {
        Self {
            table: Vec::new(),
            epoch: 1,
            cells: Vec::new(),
        }
    }
}

impl<T: ScalarType> BatchFold<T> {
    /// Bytes held by the index and its staged cells.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u32>()
            + self.cells.capacity() * std::mem::size_of::<(u64, T)>()
    }

    /// Append a batch to `level0`'s pending tuples, in-batch repeats folded
    /// when the batch's first [`SAMPLE`] tuples show enough of them.
    ///
    /// The caller has checked the slice lengths and that every index is
    /// inside `level0`'s dimensions, which are at most `2^32` (the packed
    /// key) — so the appends below cannot fail part-way.
    pub(crate) fn append(
        &mut self,
        level0: &mut Matrix<T>,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
    ) -> GrbResult<()> {
        if rows.len() < SAMPLE {
            return level0.accum_tuples(rows, cols, vals);
        }
        if self.table.is_empty() {
            self.table = vec![0; SLOTS];
        }
        let mut folded = self.fold(&rows[..SAMPLE], &cols[..SAMPLE], &vals[..SAMPLE]);
        if folded - self.cells.len() < SAMPLE_REPEATS_MIN {
            // One growth for the prefix's cells and the raw rest together.
            level0.reserve_pending(self.cells.len() + rows.len() - folded);
            self.spill(level0)?;
            return level0.accum_tuples(&rows[folded..], &cols[folded..], &vals[folded..]);
        }
        loop {
            folded += self.fold(&rows[folded..], &cols[folded..], &vals[folded..]);
            // The batch is done, or the index must go on empty.
            self.spill(level0)?;
            if folded == rows.len() {
                return Ok(());
            }
        }
    }

    /// Fold tuples into the staged cells until they are used up or the
    /// index must spill first — it is full, or a probe chain is too long to
    /// be chance.  Returns how many tuples were folded; an empty index
    /// always takes at least one.
    fn fold(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> usize {
        // The constant length lets the masked slot index go unchecked.
        let table = &mut self.table[..SLOTS];
        for (i, ((&row, &col), &val)) in rows.iter().zip(cols).zip(vals).enumerate() {
            let key = row << 32 | col;
            let (mut slot, mut probes) = (home(key), 0);
            loop {
                let entry = table[slot];
                if entry >> POS_BITS != self.epoch {
                    if self.cells.len() == CELLS_MAX {
                        return i;
                    }
                    table[slot] = self.epoch << POS_BITS | self.cells.len() as u32;
                    self.cells.push((key, val));
                    break;
                }
                let cell = &mut self.cells[(entry & ((1 << POS_BITS) - 1)) as usize];
                if cell.0 == key {
                    cell.1 = cell.1.add(val);
                    break;
                }
                probes += 1;
                if probes == PROBE_MAX {
                    return i;
                }
                slot = (slot + 1) & (SLOTS - 1);
            }
        }
        rows.len()
    }

    /// Hand the staged cells to `level0` and empty the index.
    fn spill(&mut self, level0: &mut Matrix<T>) -> GrbResult<()> {
        // Unpacked through the stack a chunk at a time: the staged cells
        // need no second copy on the heap.
        const CHUNK: usize = 512;
        // The count is known: level 0 grows once, to exactly what it needs.
        // Doubling under the chunked appends made its footprint jump by 2x
        // between streams that differ by a few cells per batch.
        level0.reserve_pending(self.cells.len());
        let (mut rows, mut cols, mut vals) = ([0; CHUNK], [0; CHUNK], [T::default(); CHUNK]);
        for chunk in self.cells.chunks(CHUNK) {
            for (i, &(key, val)) in chunk.iter().enumerate() {
                (rows[i], cols[i], vals[i]) = (key >> 32, key & 0xFFFF_FFFF, val);
            }
            let n = chunk.len();
            level0.accum_tuples(&rows[..n], &cols[..n], &vals[..n])?;
        }
        self.cells.clear();
        self.epoch += 1;
        if self.epoch == EPOCHS {
            self.table.fill(0);
            self.epoch = 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: Index = 1 << 32;

    /// What `level0` represents after a settle, as sorted `(row, col, value)`.
    fn settled(level0: &mut Matrix<u64>) -> Vec<(Index, Index, u64)> {
        level0.wait();
        level0.dcsr().iter().collect()
    }

    /// The same content appended raw, as the reference.
    fn reference(rows: &[Index], cols: &[Index], vals: &[u64]) -> Vec<(Index, Index, u64)> {
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        flat.accum_tuples(rows, cols, vals).unwrap();
        settled(&mut flat)
    }

    #[test]
    fn repeats_fold_and_the_index_is_empty_afterwards() {
        let rows: Vec<Index> = (0..20_000).map(|i| i % 100).collect();
        let cols: Vec<Index> = (0..20_000).map(|i| (i * 7) % 13).collect();
        let vals: Vec<u64> = (0..20_000).collect();
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        fold.append(&mut level0, &rows, &cols, &vals).unwrap();
        // 100 * 13 pairs are possible, and i -> (i % 100, 7i % 13) reaches
        // them all: only the distinct cells were appended.
        assert_eq!(level0.npending(), 1300);
        assert!(fold.cells.is_empty());
        assert_eq!(settled(&mut level0), reference(&rows, &cols, &vals));
        // A second batch starts from an empty index: nothing of the first
        // is found in it.
        fold.append(&mut level0, &rows, &cols, &vals).unwrap();
        assert_eq!(level0.npending(), 1300);
    }

    #[test]
    fn a_batch_one_cell_longer_does_not_double_level_0() {
        // Every cell twice, in descending order so that the settle sorts;
        // 5,000 distinct cells, then 5,001 after a settle.
        let batch = |cells: u64| -> Vec<Index> { (0..2 * cells).rev().map(|i| i / 2).collect() };
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        let b = batch(5000);
        fold.append(&mut level0, &b, &b, &b).unwrap();
        level0.wait();
        let before = level0.memory().total();
        let b = batch(5001);
        fold.append(&mut level0, &b, &b, &b).unwrap();
        assert_eq!(level0.npending(), 5001);
        let grown = level0.memory().total() - before;
        assert!(grown < before / 100, "{grown} of {before} bytes");
    }

    #[test]
    fn short_and_repeat_free_batches_are_appended_raw() {
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        let short = vec![7; SAMPLE - 1];
        fold.append(&mut level0, &short, &short, &short).unwrap();
        assert_eq!(level0.npending(), SAMPLE - 1);
        assert_eq!(
            fold.memory_bytes(),
            0,
            "no index before a batch can use one"
        );
        // Distinct prefix, then one cell repeated: the prefix decides.
        let rows: Vec<Index> = (0..3 * SAMPLE as u64)
            .map(|i| i.min(SAMPLE as u64))
            .collect();
        fold.append(&mut level0, &rows, &rows, &rows).unwrap();
        assert_eq!(level0.npending(), 4 * SAMPLE - 1);
    }

    #[test]
    fn more_cells_than_the_index_holds_spill_and_continue() {
        // Every cell twice, more cells than CELLS_MAX: whatever is split
        // across a spill is appended twice and left to the settle.
        let n = CELLS_MAX as u64 + 5000;
        let rows: Vec<Index> = (0..2 * n).map(|i| (i / 2) * 3).collect();
        let cols: Vec<Index> = (0..2 * n).map(|i| (i / 2) % 11).collect();
        let vals = vec![u64::MAX / 2 + 1; 2 * n as usize];
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        fold.append(&mut level0, &rows, &cols, &vals).unwrap();
        assert!((n as usize..=n as usize + 1).contains(&level0.npending()));
        assert!(fold.cells.capacity() <= CELLS_MAX);
        // u64::MAX / 2 + 1 twice wraps to 0 exactly as the settle wraps it.
        assert_eq!(settled(&mut level0), reference(&rows, &cols, &vals));
    }

    #[test]
    fn keys_crafted_to_collide_cost_a_spill_not_a_walk() {
        // 2 * PROBE_MAX distinct keys with one home slot, sent round and
        // round: no chain of them fits under the probe bound.
        let mut keys = Vec::new();
        let mut k = 0u64;
        while keys.len() < 2 * PROBE_MAX {
            k += 1;
            if home(k) == home(0) {
                keys.push(k);
            }
        }
        let stream: Vec<u64> = keys
            .iter()
            .cycle()
            .take(SAMPLE + 4 * PROBE_MAX)
            .copied()
            .collect();
        let rows: Vec<Index> = stream.iter().map(|k| k >> 32).collect();
        let cols: Vec<Index> = stream.iter().map(|k| k & 0xFFFF_FFFF).collect();
        let vals = vec![1u64; stream.len()];
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        fold.append(&mut level0, &rows, &cols, &vals).unwrap();
        // Each pass over the keys fills one chain and spills it.
        assert!(level0.npending() > 2 * PROBE_MAX);
        assert_eq!(settled(&mut level0), reference(&rows, &cols, &vals));
    }

    #[test]
    fn the_epoch_wraps_through_a_cleared_table() {
        let rows: Vec<Index> = (0..SAMPLE as u64).map(|i| i % 64).collect();
        let vals = vec![1u64; SAMPLE];
        let mut fold = BatchFold::new();
        let mut level0 = Matrix::<u64>::new(DIM, DIM);
        fold.append(&mut level0, &rows, &rows, &vals).unwrap();
        fold.epoch = EPOCHS - 1;
        for _ in 0..3 {
            fold.append(&mut level0, &rows, &rows, &vals).unwrap();
        }
        assert_eq!(fold.epoch, 3);
        assert_eq!(level0.npending(), 4 * 64);
        assert_eq!(settled(&mut level0).len(), 64);
        assert!(settled(&mut level0).iter().all(|&(_, _, v)| v == 4 * 64));
    }
}
