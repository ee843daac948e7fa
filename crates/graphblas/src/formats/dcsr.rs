//! DCSR — doubly compressed sparse row (hypersparse) storage.
//!
//! Standard CSR stores a row-pointer array of length `nrows + 1`, which is
//! unusable when `nrows = 2^32` (IPv4) or `2^64` (IPv6) and only a few
//! thousand rows are occupied.  DCSR additionally compresses the row axis:
//! only non-empty rows appear, each identified by its 64-bit row id.  Memory
//! is `O(nnz + #non-empty rows)` — the "hypersparse" property the paper's
//! traffic matrices depend on.
//!
//! A `Dcsr` is immutable once built; streaming mutation happens in COO form
//! (pending tuples or the lowest hierarchy level) and is *merged* into a
//! DCSR with [`Dcsr::merge`], which is exactly the `A_{i+1} = A_{i+1} ⊕ A_i`
//! cascade step.

use crate::error::{GrbError, GrbResult};
use crate::formats::coo::Coo;
use crate::formats::merge::{gallop_while, merge_row_adaptive, MergeTally, PlaneSink};
use crate::formats::radix::RadixPlanes;
use crate::formats::{Entry, MemoryFootprint};
use crate::index::{validate_dims, Index};
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::ops::Range;

/// Doubly compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsr<T> {
    nrows: Index,
    ncols: Index,
    /// Sorted ids of non-empty rows.
    row_ids: Vec<Index>,
    /// `row_ptr[k]..row_ptr[k+1]` is the slice of `col_idx`/`vals` for row `row_ids[k]`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<Index>,
    /// Stored values, parallel to `col_idx`.
    vals: Vec<T>,
}

/// Reusable scratch buffers for [`Dcsr::merge_into`],
/// [`Dcsr::merge_sorted_coo_into`] and the pending-tuple sort
/// ([`Coo::sort_dedup_with`]).
///
/// An in-place merge writes into these staging vectors and then swaps them
/// with the destination's, so the destination's previous buffers become the
/// next merge's staging space.  Between flushes, once the buffers have
/// grown, the streaming hot path — settle pending tuples, cascade a level —
/// performs no heap allocation at all, which is what the hierarchical
/// matrix needs to sustain its insert rate (every cascade used to rebuild
/// the destination level from scratch).  A hierarchy's flush gives the
/// buffers back ([`Matrix::clear`](crate::matrix::Matrix::clear)), and the
/// first cascades after it grow them again.
#[derive(Debug, Clone)]
pub struct MergeScratch<T> {
    /// Staging row ids for the merged structure.
    pub(crate) row_ids: Vec<Index>,
    /// Staging row pointers for the merged structure.
    pub(crate) row_ptr: Vec<usize>,
    /// Staging column indices for the merged structure.
    pub(crate) col_idx: Vec<Index>,
    /// Staging values for the merged structure.
    pub(crate) vals: Vec<T>,
    /// Permutation buffer for sorting pending tuples (comparison fallback).
    pub(crate) perm: Vec<usize>,
    /// Staging rows for the pending-tuple sort.
    pub(crate) sort_rows: Vec<Index>,
    /// Staging cols for the pending-tuple sort.
    pub(crate) sort_cols: Vec<Index>,
    /// Staging vals for the pending-tuple sort.
    pub(crate) sort_vals: Vec<T>,
    /// Packed `(row << 32) | col` keys and their values for the radix
    /// settle kernel.
    pub(crate) radix: RadixPlanes<T>,
}

/// Manual impl: empty vectors need no bound on `T` (the derive would
/// spuriously require `T: Default`).
impl<T> Default for MergeScratch<T> {
    fn default() -> Self {
        Self {
            row_ids: Vec::new(),
            row_ptr: Vec::new(),
            col_idx: Vec::new(),
            vals: Vec::new(),
            perm: Vec::new(),
            sort_rows: Vec::new(),
            sort_cols: Vec::new(),
            sort_vals: Vec::new(),
            radix: RadixPlanes::default(),
        }
    }
}

impl<T: ScalarType> MergeScratch<T> {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by the scratch buffers, split like every other
    /// structure's footprint.  After a merge the buffers hold the
    /// destination's previous structure (the ping-pong), so this is a real,
    /// resident cost that [`Matrix::memory`](crate::matrix::Matrix::memory)
    /// includes.
    pub fn footprint(&self) -> MemoryFootprint {
        let radix = self.radix.footprint();
        MemoryFootprint {
            index_bytes: (self.row_ids.capacity()
                + self.col_idx.capacity()
                + self.sort_rows.capacity()
                + self.sort_cols.capacity())
                * std::mem::size_of::<Index>()
                + (self.row_ptr.capacity() + self.perm.capacity()) * std::mem::size_of::<usize>()
                + radix.index_bytes,
            value_bytes: (self.vals.capacity() + self.sort_vals.capacity())
                * std::mem::size_of::<T>()
                + radix.value_bytes,
        }
    }

    /// Clear the DCSR staging buffers and reserve for `nnz_hint` entries and
    /// `nrows_hint` rows.  A DCSR merge hints the larger operand's row count,
    /// a lower bound, so the row planes may regrow mid-merge: summing both
    /// operands' rows measured `mem_bytes_per_entry` −7% on `unique_ingest`
    /// but +3.7% and +2.8% on `powerlaw_ingest` and `query_mix` (bound 2%).
    fn begin_merge(&mut self, nrows_hint: usize, nnz_hint: usize) {
        self.row_ids.clear();
        self.row_ptr.clear();
        self.col_idx.clear();
        self.vals.clear();
        self.row_ids.reserve(nrows_hint);
        self.row_ptr.reserve(nrows_hint + 1);
        self.col_idx.reserve(nnz_hint);
        self.vals.reserve(nnz_hint);
        self.row_ptr.push(0);
    }

    /// Column merge of one colliding row into the staging buffers, through
    /// the skew-aware [`merge_row_adaptive`].
    #[allow(clippy::too_many_arguments)]
    fn push_merged_row<Op: BinaryOp<T>>(
        &mut self,
        row: Index,
        ca: &[Index],
        va: &[T],
        cb: &[Index],
        vb: &[T],
        op: Op,
        tally: &mut MergeTally,
    ) {
        self.row_ids.push(row);
        let mut sink = PlaneSink {
            cols: &mut self.col_idx,
            vals: &mut self.vals,
        };
        merge_row_adaptive(ca, va, cb, vb, op, &mut sink, tally);
        self.row_ptr.push(self.col_idx.len());
    }
}

impl<T: ScalarType> Dcsr<T> {
    /// An empty hypersparse matrix.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::try_new(nrows, ncols).expect("invalid matrix dimensions")
    }

    /// Fallible constructor.
    pub fn try_new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        validate_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            row_ids: Vec::new(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        })
    }

    /// The four raw compressed arrays `(row_ids, row_ptr, col_idx, vals)` —
    /// read-only access for the cursor kernel's bulk run copies and the
    /// durable level-file writer.
    pub fn raw_parts(&self) -> (&[Index], &[usize], &[Index], &[T]) {
        (&self.row_ids, &self.row_ptr, &self.col_idx, &self.vals)
    }

    /// Reassemble a DCSR from raw compressed arrays, validating every
    /// structural invariant (strictly increasing row ids and in-row
    /// columns, monotone row pointers starting at 0, no empty rows, all
    /// indices in bounds).  This is the loader's entry point for
    /// untrusted on-disk data: any violation is a typed error, never a
    /// panic or an inconsistent matrix.
    pub fn try_from_raw_parts(
        nrows: Index,
        ncols: Index,
        row_ids: Vec<Index>,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        vals: Vec<T>,
    ) -> GrbResult<Self> {
        validate_dims(nrows, ncols)?;
        if row_ptr.first() != Some(&0) {
            return Err(GrbError::InvalidValue("row_ptr must start at 0".into()));
        }
        let d = Self {
            nrows,
            ncols,
            row_ids,
            row_ptr,
            col_idx,
            vals,
        };
        d.check_invariants()?;
        Ok(d)
    }

    /// Build from a COO that has already been sorted and deduplicated.
    ///
    /// Returns an error if the COO is not in sorted/dedup state.
    pub fn from_sorted_coo(coo: &Coo<T>) -> GrbResult<Self> {
        if !coo.is_sorted_dedup() {
            return Err(GrbError::InvalidValue(
                "COO must be sorted and deduplicated before DCSR conversion".into(),
            ));
        }
        let mut m = Self::try_new(coo.nrows(), coo.ncols())?;
        let (rows, cols, vals) = coo.parts();
        m.col_idx.reserve(cols.len());
        m.vals.reserve(vals.len());
        for i in 0..rows.len() {
            let r = rows[i];
            if m.row_ids.last() != Some(&r) {
                m.row_ids.push(r);
                m.row_ptr.push(m.col_idx.len());
            }
            m.col_idx.push(cols[i]);
            m.vals.push(vals[i]);
            *m.row_ptr.last_mut().expect("row_ptr non-empty") = m.col_idx.len();
        }
        Ok(m)
    }

    /// Build by sorting and deduplicating an arbitrary COO with `dup`.
    pub fn from_coo<Op: BinaryOp<T>>(mut coo: Coo<T>, dup: Op) -> GrbResult<Self> {
        coo.sort_dedup(dup);
        Self::from_sorted_coo(&coo)
    }

    /// Build directly from tuple slices (convenience used heavily in tests).
    pub fn from_tuples<Op: BinaryOp<T>>(
        nrows: Index,
        ncols: Index,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
        dup: Op,
    ) -> GrbResult<Self> {
        let mut coo = Coo::try_new(nrows, ncols)?;
        coo.extend_from_slices(rows, cols, vals)?;
        Self::from_coo(coo, dup)
    }

    /// Number of rows of the logical matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the logical matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nvals(&self) -> usize {
        self.col_idx.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.col_idx.is_empty()
    }

    /// Number of non-empty rows (the "hyper" dimension).
    pub fn nrows_nonempty(&self) -> usize {
        self.row_ids.len()
    }

    /// The sorted ids of the non-empty rows.
    pub fn row_ids(&self) -> &[Index] {
        &self.row_ids
    }

    /// The columns and values of logical row `row`, if that row is non-empty.
    pub fn row(&self, row: Index) -> Option<(&[Index], &[T])> {
        let k = self.row_ids.binary_search(&row).ok()?;
        Some(self.row_slot(k))
    }

    /// The columns and values of the `k`-th non-empty row.
    pub fn row_slot(&self, k: usize) -> (&[Index], &[T]) {
        let lo = self.row_ptr[k];
        let hi = self.row_ptr[k + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Value stored at `(row, col)`, or `None`.
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        let (cols, vals) = self.row(row)?;
        let j = cols.binary_search(&col).ok()?;
        Some(vals[j])
    }

    /// Clear `new[i]` for every cell `(rows[i], cols[i])` this structure
    /// stores.  The cells must be sorted row-major and duplicate-free, as a
    /// settled batch is: then one forward walk answers all of them, galloping
    /// over `row_ids` from one batch row to the next and, inside a row both
    /// hold, over its columns from one batch column to the next.
    pub fn clear_stored(&self, rows: &[Index], cols: &[Index], new: &mut [bool]) {
        let (mut slot, mut i) = (0, 0);
        while i < rows.len() && slot < self.row_ids.len() {
            let row = rows[i];
            let end = i + rows[i..].iter().take_while(|&&r| r == row).count();
            slot = gallop_while(&self.row_ids, slot, |r| r < row);
            if self.row_ids.get(slot) == Some(&row) {
                let stored = self.row_slot(slot).0;
                let mut at = 0;
                for (col, new) in cols[i..end].iter().zip(&mut new[i..end]) {
                    at = gallop_while(stored, at, |c| c < *col);
                    *new &= stored.get(at) != Some(col);
                }
            }
            i = end;
        }
    }

    /// Iterate over stored entries in row-major order.
    pub fn iter(&self) -> DcsrIter<'_, T> {
        DcsrIter {
            dcsr: self,
            slot: 0,
            offset: 0,
        }
    }

    /// Extract all tuples into parallel vectors (row-major order).
    pub fn extract_tuples(&self) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        let mut rows = Vec::with_capacity(self.nvals());
        let mut cols = Vec::with_capacity(self.nvals());
        let mut vals = Vec::with_capacity(self.nvals());
        for (r, c, v) in self.iter() {
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
        (rows, cols, vals)
    }

    /// Convert back to a (sorted, deduplicated) COO.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::new(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// Merge another DCSR into this one under the binary operator `op`
    /// (set-union on the pattern, `op` on collisions).
    ///
    /// This is the cascade primitive `A_{i+1} = A_{i+1} ⊕ A_i` of the
    /// hierarchical hypersparse matrix.  Colliding rows go through the
    /// skew-aware kernels of [`crate::formats::merge`] (disjoint bulk copy
    /// / gallop / branchless two-pointer, picked per row by shape), so the
    /// common cascade case — a small settled batch folded into a large
    /// lower level — costs `O(k log(n/k))` in the colliding rows instead of
    /// an `O(nnz(self) + nnz(other))` walk.  (The `oracle` module's `merge` is
    /// that walk, and what `tests/merge_equivalence.rs` holds this to.)
    pub fn merge<Op: BinaryOp<T>>(&self, other: &Dcsr<T>, op: Op) -> GrbResult<Dcsr<T>> {
        self.check_dims(other.nrows, other.ncols)?;
        let mut scratch = MergeScratch::new();
        let rows = self.row_ids.len().max(other.row_ids.len());
        self.interleave_rows(other, op, &mut scratch, rows);
        Ok(Dcsr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ids: std::mem::take(&mut scratch.row_ids),
            row_ptr: std::mem::take(&mut scratch.row_ptr),
            col_idx: std::mem::take(&mut scratch.col_idx),
            vals: std::mem::take(&mut scratch.vals),
        })
    }

    /// In-place variant of [`Dcsr::merge`]: `self = self ⊕ other`, building
    /// the merged structure in `scratch` and swapping it in.  After the call
    /// `scratch` holds `self`'s previous buffers, so repeated cascades
    /// ping-pong between two allocations and the hot path is allocation-free
    /// once both have grown to the working-set size.
    pub fn merge_into<Op: BinaryOp<T>>(
        &mut self,
        other: &Dcsr<T>,
        op: Op,
        scratch: &mut MergeScratch<T>,
    ) -> GrbResult<()> {
        self.check_dims(other.nrows, other.ncols)?;
        if other.is_empty() {
            return Ok(());
        }
        if self.is_empty() {
            // Copy `other` straight into our (possibly pre-grown) buffers.
            self.row_ids.clear();
            self.row_ids.extend_from_slice(&other.row_ids);
            self.row_ptr.clear();
            self.row_ptr.extend_from_slice(&other.row_ptr);
            self.col_idx.clear();
            self.col_idx.extend_from_slice(&other.col_idx);
            self.vals.clear();
            self.vals.extend_from_slice(&other.vals);
            return Ok(());
        }
        let rows = self.row_ids.len().max(other.row_ids.len());
        self.interleave_rows(other, op, scratch, rows);
        std::mem::swap(&mut self.row_ids, &mut scratch.row_ids);
        std::mem::swap(&mut self.row_ptr, &mut scratch.row_ptr);
        std::mem::swap(&mut self.col_idx, &mut scratch.col_idx);
        std::mem::swap(&mut self.vals, &mut scratch.vals);
        Ok(())
    }

    /// Merge a sorted, deduplicated [`Coo`] into `self` in place — the
    /// settle step `settled = settled ⊕ pending` without materialising the
    /// pending tuples as an intermediate `Dcsr` first.  Uses `scratch` like
    /// [`Dcsr::merge_into`].
    pub fn merge_sorted_coo_into<Op: BinaryOp<T>>(
        &mut self,
        coo: &Coo<T>,
        op: Op,
        scratch: &mut MergeScratch<T>,
    ) -> GrbResult<()> {
        self.check_dims(coo.nrows(), coo.ncols())?;
        if !coo.is_sorted_dedup() {
            return Err(GrbError::InvalidValue(
                "COO must be sorted and deduplicated before merging".into(),
            ));
        }
        let (rows, cols, vals) = coo.parts();
        self.merge_sorted_tuples_into(rows, cols, vals, op, scratch);
        Ok(())
    }

    /// The merge behind [`Dcsr::merge_sorted_coo_into`], for tuples the
    /// caller knows to be in bounds, strictly increasing in `(row, col)` and
    /// of equal lengths (a column twin merges a settle's batch transposed,
    /// which is all three by construction).
    pub(crate) fn merge_sorted_tuples_into<Op: BinaryOp<T>>(
        &mut self,
        b_rows: &[Index],
        b_cols: &[Index],
        b_vals: &[T],
        op: Op,
        scratch: &mut MergeScratch<T>,
    ) {
        if b_rows.is_empty() {
            return;
        }
        let b = SortedTuples(b_rows, b_cols, b_vals);
        self.interleave_rows(&b, op, scratch, self.row_ids.len() + b_rows.len());
        std::mem::swap(&mut self.row_ids, &mut scratch.row_ids);
        std::mem::swap(&mut self.row_ptr, &mut scratch.row_ptr);
        std::mem::swap(&mut self.col_idx, &mut scratch.col_idx);
        std::mem::swap(&mut self.vals, &mut scratch.vals);
    }

    /// Remove every entry, keeping the buffer capacity for reuse (the
    /// cascade clears its source level this way so steady-state streaming
    /// does not churn the allocator).
    pub fn clear_retaining(&mut self) {
        self.row_ids.clear();
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.vals.clear();
    }

    /// The transpose as a new `ncols x nrows` structure — the one kernel
    /// behind [`Matrix::col_shadow`](crate::matrix::Matrix::col_shadow)
    /// and the snapshot twin.
    ///
    /// The source is already sorted and duplicate-free, so the transpose is
    /// a *stable sort by column alone*: rows then come out ascending inside
    /// every column for free.  One position-carrying sort of the column ids
    /// ([`RadixPlanes::sort_positions`]: one scatter on the top varying
    /// column bits, every bucket finished in cache, at any width), then one
    /// gather writes the four output arrays at exact capacity.  No
    /// comparison sort, no dedup; the two key/position plane pairs and the
    /// expanded source-row table (32 bytes per entry together) live only for
    /// the call.
    ///
    /// # Panics
    /// Panics when the structure holds more than `u32::MAX` entries.
    pub(crate) fn transposed(&self) -> Dcsr<T> {
        let n = self.col_idx.len();
        if n == 0 {
            return Dcsr::new(self.ncols, self.nrows);
        }
        let mut planes = RadixPlanes::default();
        let (keys, pos) = planes.sort_positions(&self.col_idx);

        // Gather.  `src_rows[p]` is the row of source entry `p`.
        let mut src_rows = Vec::with_capacity(n);
        for (k, &r) in self.row_ids.iter().enumerate() {
            src_rows.resize(self.row_ptr[k + 1], r);
        }
        let distinct = 1 + keys.windows(2).filter(|w| w[0] != w[1]).count();
        let mut row_ids = Vec::with_capacity(distinct);
        let mut row_ptr = Vec::with_capacity(distinct + 1);
        row_ids.push(keys[0]);
        row_ptr.push(0);
        for (i, w) in keys.windows(2).enumerate() {
            if w[0] != w[1] {
                row_ids.push(w[1]);
                row_ptr.push(i + 1);
            }
        }
        row_ptr.push(n);
        Dcsr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ids,
            row_ptr,
            col_idx: pos.iter().map(|&p| src_rows[p as usize]).collect(),
            vals: pos.iter().map(|&p| self.vals[p as usize]).collect(),
        }
    }

    fn check_dims(&self, nrows: Index, ncols: Index) -> GrbResult<()> {
        if (self.nrows, self.ncols) != (nrows, ncols) {
            let detail = format!("{}x{} vs {nrows}x{ncols}", self.nrows, self.ncols);
            return Err(GrbError::DimensionMismatch { detail });
        }
        Ok(())
    }

    /// The one row-wise merge loop: `self ⊕ b` into `scratch`'s staging
    /// planes ([`MergeScratch::begin_merge`] with `nrows_hint`).  While both
    /// head rows hold one entry and differ, the smaller is picked with a
    /// select, not a branch, and staged [`CHUNK`] rows at a time (tallied as
    /// `branchless`).  Once one side wins [`STREAK`] steps in a row, the loop
    /// gallops the row keys and bulk-copies runs until two in a row come out
    /// shorter than `STREAK`; a head row of several entries is copied that
    /// way too.  A colliding row goes to the skew-aware column kernel.
    fn interleave_rows<B: RowSide<T>, Op: BinaryOp<T>>(
        &self,
        b: &B,
        op: Op,
        scratch: &mut MergeScratch<T>,
        nrows_hint: usize,
    ) {
        let ((ka, ca, va), (kb, cb, vb)) = (self.planes(), b.planes());
        scratch.begin_merge(nrows_hint, ca.len() + cb.len());
        let tally = &mut MergeTally::default();
        // `streak == STREAK` is the galloping mode; `shorts` counts the short
        // runs in a row it has copied.
        let (mut ia, mut ib, mut streak, mut last, mut shorts) = (0, 0, 0, 0, 0);
        let (mut rows, mut cols, mut vals) = ([0; CHUNK], [0; CHUNK], [T::default(); CHUNK]);
        while ia < ka.len() && ib < kb.len() {
            let (ra, rb) = (ka[ia], kb[ib]);
            if ra == rb {
                let ((ea, next_a), (eb, next_b)) = (self.head(ia), b.head(ib));
                let (ca, va, cb, vb) = (&ca[ea.clone()], &va[ea], &cb[eb.clone()], &vb[eb]);
                scratch.push_merged_row(ra, ca, va, cb, vb, op, tally);
                (ia, ib) = (next_a, next_b);
                continue;
            }
            let mut n = 0;
            while n < CHUNK && streak < STREAK && ia < ka.len() && ib < kb.len() {
                let (ra, rb) = (ka[ia], kb[ib]);
                let (Some(pa), Some(pb)) = (self.single(ia), b.single(ib)) else {
                    break;
                };
                if ra == rb {
                    break;
                }
                let s = (rb < ra) as usize;
                (rows[n], cols[n], vals[n]) =
                    ([ra, rb][s], [ca[pa], cb[pb]][s], [va[pa], vb[pb]][s]);
                (n, ia, ib) = (n + 1, ia + 1 - s, ib + s);
                (streak, last) = (if s == last { streak + 1 } else { 1 }, s);
            }
            if n > 0 {
                let base = scratch.col_idx.len();
                scratch.row_ids.extend_from_slice(&rows[..n]);
                scratch.col_idx.extend_from_slice(&cols[..n]);
                scratch.vals.extend_from_slice(&vals[..n]);
                scratch.row_ptr.extend(base + 1..=base + n);
                tally.branchless += n as u64;
                continue;
            }
            // A run of rows unique to one side: gallop past the other's head
            // row and copy the run in bulk.
            let copied = if ra < rb {
                let end = gallop_while(ka, ia, |x| x < rb);
                self.push_bulk(scratch, ia, end, tally);
                end - std::mem::replace(&mut ia, end)
            } else {
                let end = gallop_while(kb, ib, |x| x < ra);
                b.push_bulk(scratch, ib, end, tally);
                end - std::mem::replace(&mut ib, end)
            };
            shorts = if copied < STREAK { shorts + 1 } else { 0 };
            if streak < STREAK || shorts == 2 {
                (streak, shorts) = (0, 0);
            }
        }
        self.push_bulk(scratch, ia, ka.len(), tally);
        b.push_bulk(scratch, ib, kb.len(), tally);
        tally.commit();
    }

    /// Bytes of memory used by the compressed arrays.
    pub fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            index_bytes: self.row_ids.capacity() * std::mem::size_of::<Index>()
                + self.row_ptr.capacity() * std::mem::size_of::<usize>()
                + self.col_idx.capacity() * std::mem::size_of::<Index>(),
            value_bytes: self.vals.capacity() * std::mem::size_of::<T>(),
        }
    }

    /// Internal consistency check used by tests and debug assertions:
    /// row ids strictly increasing, row_ptr monotone, columns strictly
    /// increasing within each row, and array lengths consistent.
    pub fn check_invariants(&self) -> GrbResult<()> {
        if self.row_ptr.len() != self.row_ids.len() + 1 {
            return Err(GrbError::InvalidValue("row_ptr length mismatch".into()));
        }
        if self.col_idx.len() != self.vals.len() {
            return Err(GrbError::InvalidValue("col/val length mismatch".into()));
        }
        if *self.row_ptr.last().expect("non-empty row_ptr") != self.col_idx.len() {
            return Err(GrbError::InvalidValue("row_ptr tail mismatch".into()));
        }
        for w in self.row_ids.windows(2) {
            if w[0] >= w[1] {
                return Err(GrbError::InvalidValue(
                    "row ids not strictly increasing".into(),
                ));
            }
        }
        for k in 0..self.row_ids.len() {
            if self.row_ids[k] >= self.nrows {
                return Err(GrbError::IndexOutOfBounds {
                    index: self.row_ids[k],
                    dim: self.nrows,
                });
            }
            if self.row_ptr[k] > self.row_ptr[k + 1] {
                return Err(GrbError::InvalidValue("row_ptr not monotone".into()));
            }
            if self.row_ptr[k] == self.row_ptr[k + 1] {
                return Err(GrbError::InvalidValue("empty row stored".into()));
            }
            let (cols, _) = self.row_slot(k);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(GrbError::InvalidValue(
                        "columns not strictly increasing within row".into(),
                    ));
                }
            }
            if let Some(&c) = cols.last() {
                if c >= self.ncols {
                    return Err(GrbError::IndexOutOfBounds {
                        index: c,
                        dim: self.ncols,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Singleton steps one side of [`Dcsr::interleave_rows`] must win in a row
/// before the loop gallops.  Measured on uniform 2^17-row levels (2-core
/// Xeon): 4 slows the 1:1 merge by half again; 16 through 128 tie at 1:1,
/// and 32 and up are best at 1:8.
const STREAK: usize = 32;

/// Singleton steps staged on the stack between appends to the planes.
const CHUNK: usize = 32;

/// The right operand of [`Dcsr::interleave_rows`]: a `Dcsr`, or a settle's
/// sorted tuples.  A position indexes the row keys: one per row of a
/// `Dcsr`, one per entry of the tuples.
trait RowSide<T: ScalarType> {
    /// Row keys (what [`gallop_while`] runs on), columns and values.
    fn planes(&self) -> (&[Index], &[Index], &[T]);
    /// The plane slot of the row at position `i`, and the position after it.
    fn head(&self, i: usize) -> (Range<usize>, usize);
    /// The plane position of the entry of the row at `i`, if it holds one.
    fn single(&self, i: usize) -> Option<usize>;
    /// Bulk-append the whole rows at positions `lo..hi`.
    fn push_bulk(&self, to: &mut MergeScratch<T>, lo: usize, hi: usize, tally: &mut MergeTally);
}

impl<T: ScalarType> RowSide<T> for Dcsr<T> {
    fn planes(&self) -> (&[Index], &[Index], &[T]) {
        (&self.row_ids, &self.col_idx, &self.vals)
    }

    fn head(&self, i: usize) -> (Range<usize>, usize) {
        (self.row_ptr[i]..self.row_ptr[i + 1], i + 1)
    }

    fn single(&self, i: usize) -> Option<usize> {
        let p = self.row_ptr[i];
        (self.row_ptr[i + 1] == p + 1).then_some(p)
    }

    /// Three slice copies plus an arithmetic rebase of the row pointers.
    fn push_bulk(&self, to: &mut MergeScratch<T>, lo: usize, hi: usize, tally: &mut MergeTally) {
        if lo < hi {
            let (base, plo, phi) = (to.col_idx.len(), self.row_ptr[lo], self.row_ptr[hi]);
            to.row_ids.extend_from_slice(&self.row_ids[lo..hi]);
            to.col_idx.extend_from_slice(&self.col_idx[plo..phi]);
            to.vals.extend_from_slice(&self.vals[plo..phi]);
            let ptrs = self.row_ptr[lo + 1..=hi].iter();
            to.row_ptr.extend(ptrs.map(|&p| base + p - plo));
            tally.bulk_row += (phi - plo) as u64;
        }
    }
}

/// Tuples strictly increasing in `(row, col)`, with equal-length planes.
struct SortedTuples<'a, T>(&'a [Index], &'a [Index], &'a [T]);

impl<T: ScalarType> RowSide<T> for SortedTuples<'_, T> {
    fn planes(&self) -> (&[Index], &[Index], &[T]) {
        (self.0, self.1, self.2)
    }

    fn head(&self, i: usize) -> (Range<usize>, usize) {
        let end = gallop_while(self.0, i + 1, |x| x == self.0[i]);
        (i..end, end)
    }

    fn single(&self, i: usize) -> Option<usize> {
        (self.0.get(i + 1) != Some(&self.0[i])).then_some(i)
    }

    /// Column and value slice copies; only the row boundaries are walked.
    fn push_bulk(&self, to: &mut MergeScratch<T>, lo: usize, hi: usize, tally: &mut MergeTally) {
        let (base, mut i) = (to.col_idx.len(), lo);
        while i < hi {
            let (_, next) = self.head(i);
            to.row_ids.push(self.0[i]);
            to.row_ptr.push(base + next - lo);
            i = next;
        }
        to.col_idx.extend_from_slice(&self.1[lo..hi]);
        to.vals.extend_from_slice(&self.2[lo..hi]);
        tally.bulk_row += (hi - lo) as u64;
    }
}

/// Row-major iterator over the stored entries of a [`Dcsr`].
pub struct DcsrIter<'a, T> {
    dcsr: &'a Dcsr<T>,
    slot: usize,
    offset: usize,
}

impl<'a, T: ScalarType> Iterator for DcsrIter<'a, T> {
    type Item = Entry<T>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.slot < self.dcsr.row_ids.len() {
            let lo = self.dcsr.row_ptr[self.slot];
            let hi = self.dcsr.row_ptr[self.slot + 1];
            let i = lo + self.offset;
            if i < hi {
                self.offset += 1;
                return Some((
                    self.dcsr.row_ids[self.slot],
                    self.dcsr.col_idx[i],
                    self.dcsr.vals[i],
                ));
            }
            self.slot += 1;
            self.offset = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.dcsr.nvals()
            - self
                .dcsr
                .row_ptr
                .get(self.slot)
                .copied()
                .unwrap_or(self.dcsr.nvals())
            - self.offset;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;

    fn sample() -> Dcsr<u64> {
        Dcsr::from_tuples(
            1 << 40,
            1 << 40,
            &[5, 5, 900_000_000_000, 7, 5],
            &[10, 2, 3, 10, 10],
            &[1, 2, 3, 4, 5],
            Plus,
        )
        .unwrap()
    }

    #[test]
    fn build_from_tuples_hypersparse() {
        let m = sample();
        m.check_invariants().unwrap();
        assert_eq!(m.nvals(), 4); // (5,10) deduplicated: 1+5
        assert_eq!(m.nrows_nonempty(), 3);
        assert_eq!(m.get(5, 10), Some(6));
        assert_eq!(m.get(5, 2), Some(2));
        assert_eq!(m.get(900_000_000_000, 3), Some(3));
        assert_eq!(m.get(7, 10), Some(4));
        assert_eq!(m.get(7, 11), None);
        assert_eq!(m.get(6, 10), None);
    }

    /// The walk clears exactly the flags of the cells `get` finds, whatever
    /// the batch's rows do around the stored ones.
    #[test]
    fn clear_stored_agrees_with_get() {
        let n = 1 << 40;
        let stored = |cells: &[(u64, u64)]| {
            let (r, c): (Vec<u64>, Vec<u64>) = cells.iter().copied().unzip();
            Dcsr::from_tuples(n, n, &r, &c, &vec![1u64; r.len()], Plus).unwrap()
        };
        let lone = [(7, 1), (7, 4), (7, 9)];
        let spread = [(3, 5), (3, 6), (8, 0), (8, 5), (8, 7), (900_000_000_000, 2)];
        let structures = [stored(&[]), stored(&lone), stored(&spread)];
        let batches: [&[(u64, u64)]; 5] = [
            // Rows before, between and after the stored ones.
            &[(1, 1), (5, 5), (9, 9), (1 << 39, 0)],
            // Every stored column of row 7 and of row 8, with misses between.
            &[
                (7, 0),
                (7, 1),
                (7, 2),
                (7, 4),
                (7, 9),
                (8, 0),
                (8, 5),
                (8, 6),
                (8, 7),
            ],
            // A row's columns past its last stored one, then the far row.
            &[(3, 5), (3, 7), (3, 8), (900_000_000_000, 2)],
            &[(7, 4)],
            &[],
        ];
        for (s, d) in structures.iter().enumerate() {
            for (b, batch) in batches.iter().enumerate() {
                let (r, c): (Vec<u64>, Vec<u64>) = batch.iter().copied().unzip();
                let mut new = vec![true; r.len()];
                d.clear_stored(&r, &c, &mut new);
                let want: Vec<bool> = batch.iter().map(|&(r, c)| d.get(r, c).is_none()).collect();
                assert_eq!(new, want, "structure {s}, batch {b}");
            }
        }
        // Flags already clear stay clear: a later level only clears more.
        let mut new = vec![false, true];
        structures[1].clear_stored(&[7, 7], &[2, 9], &mut new);
        assert_eq!(new, [false, false]);
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(5, 2, 2), (5, 10, 6), (7, 10, 4), (900_000_000_000, 3, 3)]
        );
        let mut sorted = entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(entries, sorted);
    }

    #[test]
    fn empty_matrix() {
        let m = Dcsr::<f64>::new(10, 10);
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows_nonempty(), 0);
        assert_eq!(m.iter().count(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn from_unsorted_coo_rejected() {
        let mut coo = Coo::<u64>::new(10, 10);
        coo.push(5, 5, 1);
        coo.push(1, 1, 1);
        assert!(Dcsr::from_sorted_coo(&coo).is_err());
    }

    #[test]
    fn merge_disjoint_and_overlapping() {
        let a = Dcsr::from_tuples(100, 100, &[1, 2], &[1, 2], &[10u64, 20], Plus).unwrap();
        let b = Dcsr::from_tuples(100, 100, &[2, 3], &[2, 3], &[5u64, 7], Plus).unwrap();
        let c = a.merge(&b, Plus).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.nvals(), 3);
        assert_eq!(c.get(1, 1), Some(10));
        assert_eq!(c.get(2, 2), Some(25));
        assert_eq!(c.get(3, 3), Some(7));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = sample();
        let empty = Dcsr::<u64>::new(a.nrows(), a.ncols());
        let c = a.merge(&empty, Plus).unwrap();
        assert_eq!(c, a);
        let c2 = empty.merge(&a, Plus).unwrap();
        assert_eq!(c2, a);
    }

    #[test]
    fn merge_dimension_mismatch() {
        let a = Dcsr::<u64>::new(10, 10);
        let b = Dcsr::<u64>::new(10, 11);
        assert!(a.merge(&b, Plus).is_err());
    }

    #[test]
    fn merge_same_row_interleaved_columns() {
        let a = Dcsr::from_tuples(10, 10, &[4, 4, 4], &[1, 5, 9], &[1u32, 5, 9], Plus).unwrap();
        let b = Dcsr::from_tuples(10, 10, &[4, 4], &[0, 5], &[100u32, 50], Plus).unwrap();
        let c = a.merge(&b, Plus).unwrap();
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(4, 0, 100), (4, 1, 1), (4, 5, 55), (4, 9, 9)]);
    }

    #[test]
    fn extract_tuples_round_trip() {
        let m = sample();
        let (r, c, v) = m.extract_tuples();
        let rebuilt = Dcsr::from_tuples(m.nrows(), m.ncols(), &r, &c, &v, Plus).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn to_coo_is_sorted() {
        let m = sample();
        let coo = m.to_coo();
        assert!(coo.is_sorted_dedup());
        assert_eq!(coo.len(), m.nvals());
    }

    #[test]
    fn memory_grows_with_entries() {
        let small = Dcsr::from_tuples(100, 100, &[1], &[1], &[1u64], Plus).unwrap();
        let big = Dcsr::from_tuples(
            100,
            100,
            &(0..100u64).collect::<Vec<_>>(),
            &(0..100u64).collect::<Vec<_>>(),
            &vec![1u64; 100],
            Plus,
        )
        .unwrap();
        assert!(big.memory().total() > small.memory().total());
    }

    #[test]
    fn merge_into_matches_merge() {
        let mut scratch = MergeScratch::new();
        let a0 =
            Dcsr::from_tuples(100, 100, &[1, 2, 4], &[1, 2, 4], &[10u64, 20, 40], Plus).unwrap();
        let b = Dcsr::from_tuples(100, 100, &[2, 3, 4], &[2, 3, 9], &[5u64, 7, 9], Plus).unwrap();
        let expect = a0.merge(&b, Plus).unwrap();
        let mut a = a0.clone();
        a.merge_into(&b, Plus, &mut scratch).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a, expect);
        // Merging again reuses the scratch (capacity ping-pong) and stays
        // correct.
        let expect2 = a.merge(&b, Plus).unwrap();
        a.merge_into(&b, Plus, &mut scratch).unwrap();
        assert_eq!(a, expect2);
        assert!(scratch.footprint().total() > 0);
    }

    #[test]
    fn merge_into_empty_cases() {
        let mut scratch = MergeScratch::new();
        let sample = sample();
        let mut empty = Dcsr::<u64>::new(sample.nrows(), sample.ncols());
        empty.merge_into(&sample, Plus, &mut scratch).unwrap();
        assert_eq!(empty, sample);
        let mut a = sample.clone();
        let none = Dcsr::<u64>::new(sample.nrows(), sample.ncols());
        a.merge_into(&none, Plus, &mut scratch).unwrap();
        assert_eq!(a, sample);
        let mut wrong = Dcsr::<u64>::new(10, 10);
        assert!(wrong.merge_into(&sample, Plus, &mut scratch).is_err());
    }

    #[test]
    fn merge_sorted_coo_into_matches_two_step() {
        let mut scratch = MergeScratch::new();
        let mut a =
            Dcsr::from_tuples(100, 100, &[4, 4, 7], &[1, 5, 3], &[1u64, 5, 3], Plus).unwrap();
        let mut coo = Coo::<u64>::new(100, 100);
        coo.push(2, 9, 2);
        coo.push(4, 5, 50);
        coo.push(4, 6, 6);
        coo.push(9, 0, 9);
        assert!(coo.is_sorted_dedup());
        let delta = Dcsr::from_sorted_coo(&coo).unwrap();
        let expect = a.merge(&delta, Plus).unwrap();
        a.merge_sorted_coo_into(&coo, Plus, &mut scratch).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a, expect);

        // Unsorted COO rejected; empty COO is a no-op.
        let mut unsorted = Coo::<u64>::new(100, 100);
        unsorted.push(5, 5, 1);
        unsorted.push(1, 1, 1);
        assert!(a
            .merge_sorted_coo_into(&unsorted, Plus, &mut scratch)
            .is_err());
        let before = a.clone();
        a.merge_sorted_coo_into(&Coo::new(100, 100), Plus, &mut scratch)
            .unwrap();
        assert_eq!(a, before);
    }

    #[test]
    fn merge_sorted_coo_into_empty_dest() {
        let mut scratch = MergeScratch::new();
        let mut a = Dcsr::<u64>::new(50, 50);
        let mut coo = Coo::<u64>::new(50, 50);
        coo.push(3, 3, 7);
        coo.push(3, 4, 8);
        a.merge_sorted_coo_into(&coo, Plus, &mut scratch).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.nvals(), 2);
        assert_eq!(a.get(3, 4), Some(8));
    }

    #[test]
    fn clear_retaining_keeps_capacity() {
        let mut a = sample();
        let cap_before = a.memory().total();
        a.clear_retaining();
        assert!(a.is_empty());
        a.check_invariants().unwrap();
        assert_eq!(a.memory().total(), cap_before);
    }

    #[test]
    fn memory_independent_of_dimensions() {
        let small_dims = Dcsr::from_tuples(100, 100, &[1], &[1], &[1u64], Plus).unwrap();
        let huge_dims = Dcsr::from_tuples(1 << 50, 1 << 50, &[1], &[1], &[1u64], Plus).unwrap();
        assert_eq!(small_dims.memory().total(), huge_dims.memory().total());
    }

    #[test]
    fn try_from_raw_parts_round_trips() {
        let a = sample();
        let (row_ids, row_ptr, col_idx, vals) = a.raw_parts();
        let b = Dcsr::try_from_raw_parts(
            a.nrows(),
            a.ncols(),
            row_ids.to_vec(),
            row_ptr.to_vec(),
            col_idx.to_vec(),
            vals.to_vec(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn try_from_raw_parts_rejects_malformed_input() {
        // row_ptr not starting at zero.
        assert!(
            Dcsr::<u64>::try_from_raw_parts(10, 10, vec![1], vec![1, 2], vec![3], vec![7]).is_err()
        );
        // Empty row_ptr.
        assert!(Dcsr::<u64>::try_from_raw_parts(10, 10, vec![], vec![], vec![], vec![]).is_err());
        // row_ptr length inconsistent with row_ids.
        assert!(
            Dcsr::<u64>::try_from_raw_parts(10, 10, vec![1, 2], vec![0, 1], vec![3], vec![7])
                .is_err()
        );
        // Column out of bounds.
        assert!(
            Dcsr::<u64>::try_from_raw_parts(10, 10, vec![1], vec![0, 1], vec![10], vec![7])
                .is_err()
        );
        // Row ids not strictly increasing.
        assert!(Dcsr::<u64>::try_from_raw_parts(
            10,
            10,
            vec![2, 2],
            vec![0, 1, 2],
            vec![3, 4],
            vec![7, 8]
        )
        .is_err());
        // Empty stored row.
        assert!(Dcsr::<u64>::try_from_raw_parts(
            10,
            10,
            vec![1, 2],
            vec![0, 1, 1],
            vec![3],
            vec![7]
        )
        .is_err());
        // The valid shape still parses.
        assert!(
            Dcsr::<u64>::try_from_raw_parts(10, 10, vec![1], vec![0, 1], vec![3], vec![7]).is_ok()
        );
    }
}
