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
use crate::formats::{Entry, MemoryFootprint};
use crate::index::{validate_dims, Index};
use crate::ops::BinaryOp;
use crate::types::ScalarType;

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
/// next merge's staging space.  After warm-up the streaming hot path —
/// settle pending tuples, cascade a level — performs no heap allocation at
/// all, which is what the hierarchical matrix needs to sustain its insert
/// rate (every cascade used to rebuild the destination level from scratch).
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
    /// Packed `(row << 32) | col` keys for the radix settle kernel.  Keys
    /// and values live in *separate* planes (not interleaved pairs): the
    /// digit-extract loop then reads a contiguous `u64` stream the compiler
    /// can vectorise, and each scatter writes two tight 8-byte stores
    /// instead of one padded 16-byte pair.
    pub(crate) radix_keys: Vec<u64>,
    /// Values plane parallel to `radix_keys`.
    pub(crate) radix_vals: Vec<T>,
    /// Scatter destination keys (ping-pongs with `radix_keys` per pass).
    pub(crate) radix_keys_alt: Vec<u64>,
    /// Scatter destination values (ping-pongs with `radix_vals` per pass).
    pub(crate) radix_vals_alt: Vec<T>,
    /// Digit histogram / offset table for the radix passes.
    pub(crate) radix_hist: Vec<usize>,
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
            radix_keys: Vec::new(),
            radix_vals: Vec::new(),
            radix_keys_alt: Vec::new(),
            radix_vals_alt: Vec::new(),
            radix_hist: Vec::new(),
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
    pub fn footprint(&self) -> crate::formats::MemoryFootprint {
        crate::formats::MemoryFootprint {
            index_bytes: (self.row_ids.capacity()
                + self.col_idx.capacity()
                + self.sort_rows.capacity()
                + self.sort_cols.capacity())
                * std::mem::size_of::<Index>()
                + (self.row_ptr.capacity() + self.perm.capacity() + self.radix_hist.capacity())
                    * std::mem::size_of::<usize>()
                + (self.radix_keys.capacity() + self.radix_keys_alt.capacity())
                    * std::mem::size_of::<u64>(),
            value_bytes: (self.vals.capacity() + self.sort_vals.capacity())
                * std::mem::size_of::<T>()
                + (self.radix_vals.capacity() + self.radix_vals_alt.capacity())
                    * std::mem::size_of::<T>(),
        }
    }

    /// Clear the DCSR staging buffers and reserve for a merge of `nnz`
    /// entries over at most `nrows` non-empty rows.
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

    /// Bulk-append the row slots `lo..hi` of `d`: three slice copies plus
    /// an arithmetic rebase of the row pointers, instead of a push per
    /// row.  Runs of rows unique to one merge operand take this path,
    /// which is most of a hypersparse merge (row collisions are rare).
    fn push_rows_bulk(&mut self, d: &Dcsr<T>, lo: usize, hi: usize, tally: &mut MergeTally) {
        if lo >= hi {
            return;
        }
        let base = self.col_idx.len();
        let (plo, phi) = (d.row_ptr[lo], d.row_ptr[hi]);
        self.row_ids.extend_from_slice(&d.row_ids[lo..hi]);
        self.col_idx.extend_from_slice(&d.col_idx[plo..phi]);
        self.vals.extend_from_slice(&d.vals[plo..phi]);
        self.row_ptr
            .extend(d.row_ptr[lo + 1..=hi].iter().map(|&p| base + p - plo));
        tally.bulk_row += (phi - plo) as u64;
    }

    /// Bulk-append a run of sorted COO tuples spanning one or more whole
    /// rows: the column/value slices copy in bulk and only the row
    /// boundaries are scanned.
    fn push_coo_rows_bulk(
        &mut self,
        rows: &[Index],
        cols: &[Index],
        vs: &[T],
        tally: &mut MergeTally,
    ) {
        if rows.is_empty() {
            return;
        }
        let base = self.col_idx.len();
        self.col_idx.extend_from_slice(cols);
        self.vals.extend_from_slice(vs);
        let mut start = 0;
        while start < rows.len() {
            let r = rows[start];
            let end = gallop_while(rows, start + 1, |x| x == r);
            self.row_ids.push(r);
            self.row_ptr.push(base + end);
            start = end;
        }
        tally.bulk_row += cols.len() as u64;
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

/// Digit width of the position-carrying radix
/// ([`radix_sort_with_positions`]): 2,048 buckets keep a pass's write heads
/// and its `u32` histogram (8 KiB) inside L1, and three digits cover the
/// paper's `2^32` index space.
const POSITION_RADIX_DIGIT_BITS: u32 = 11;

/// Turn a digit histogram into exclusive start offsets.
fn exclusive_prefix_sum(plane: &mut [u32]) {
    let mut sum = 0u32;
    for slot in plane {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
}

/// The one size limit of the position-carrying radix and of the structures
/// built on it ([`Dcsr::transposed`], the graph algorithms' vertex relabel):
/// positions are `u32`.
///
/// # Panics
/// Panics when `n` exceeds `u32::MAX`.
pub(crate) fn assert_u32_positions(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "positions are carried as u32: {n} exceeds u32::MAX"
    );
}

/// Stable LSD radix sort of `keys` that carries every key's `u32` source
/// position: returns `(sorted, pos)` with `sorted[i] == keys[pos[i]]`, equal
/// keys keeping their input order.  See [`PositionRadix::sort`]; the second
/// key/position plane pair lives only for the call.
pub(crate) fn radix_sort_with_positions(keys: Vec<Index>) -> (Vec<Index>, Vec<u32>) {
    let mut planes = PositionRadix {
        keys,
        ..PositionRadix::default()
    };
    planes.sort();
    (planes.keys, planes.pos)
}

/// The planes of [`radix_sort_with_positions`], for a caller that sorts
/// batch after batch (a column twin transposing every settle) and keeps
/// them between calls: once they have grown to the longest batch a sort
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PositionRadix {
    keys: Vec<Index>,
    pos: Vec<u32>,
    keys_alt: Vec<Index>,
    pos_alt: Vec<u32>,
    hist: Vec<u32>,
}

impl PositionRadix {
    /// [`radix_sort_with_positions`] of a copy of `keys`; the answer is
    /// borrowed from the planes and stands until the next call.
    pub(crate) fn sort_slice(&mut self, keys: &[Index]) -> (&[Index], &[u32]) {
        self.keys.clear();
        self.keys.extend_from_slice(keys);
        self.sort();
        (&self.keys, &self.pos)
    }

    /// Bytes held by the planes.
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.keys.capacity() + self.keys_alt.capacity()) * std::mem::size_of::<Index>()
            + (self.pos.capacity() + self.pos_alt.capacity() + self.hist.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Sort `self.keys` in place, leaving every key's source position in
    /// `self.pos`.
    ///
    /// [`POSITION_RADIX_DIGIT_BITS`]-bit digits; digits on which every key
    /// agrees are skipped, so ids above `2^32` are just more passes, and the
    /// histograms of all varying digits come from one shared read of the keys
    /// (a digit's distribution does not depend on the order of passes).
    /// `O(passes * n)`, no comparisons.
    ///
    /// # Panics
    /// Panics when there are more than `u32::MAX` keys
    /// ([`assert_u32_positions`]).
    fn sort(&mut self) {
        const BUCKETS: usize = 1 << POSITION_RADIX_DIGIT_BITS;
        const DIGIT_MASK: u64 = BUCKETS as u64 - 1;

        let n = self.keys.len();
        assert_u32_positions(n);
        self.pos.clear();
        self.pos.extend(0..n as u32);
        let Some(&first) = self.keys.first() else {
            return;
        };

        // Digits worth a pass: those on which some key differs from the
        // first.  With none (a single distinct key) the input order already
        // is the answer.
        let varying = self.keys.iter().fold(0u64, |m, &c| m | (c ^ first));
        let mut shifts = [0u32; u64::BITS.div_ceil(POSITION_RADIX_DIGIT_BITS) as usize];
        let mut passes = 0;
        for s in (0..u64::BITS).step_by(POSITION_RADIX_DIGIT_BITS as usize) {
            if (varying >> s) & DIGIT_MASK != 0 {
                shifts[passes] = s;
                passes += 1;
            }
        }
        let shifts = &shifts[..passes];
        self.hist.clear();
        self.hist.resize(passes * BUCKETS, 0);
        for &c in &self.keys {
            for (plane, &s) in self.hist.chunks_exact_mut(BUCKETS).zip(shifts) {
                plane[((c >> s) & DIGIT_MASK) as usize] += 1;
            }
        }

        // (key, source position) planes, stably re-scattered once per varying
        // digit, least significant first.
        self.keys_alt.resize(n, 0);
        self.pos_alt.resize(n, 0);
        for (plane, &s) in self.hist.chunks_exact_mut(BUCKETS).zip(shifts) {
            exclusive_prefix_sum(plane);
            for (&c, &p) in self.keys.iter().zip(&self.pos) {
                let slot = &mut plane[((c >> s) & DIGIT_MASK) as usize];
                self.keys_alt[*slot as usize] = c;
                self.pos_alt[*slot as usize] = p;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.keys_alt);
            std::mem::swap(&mut self.pos, &mut self.pos_alt);
        }
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
        self.check_same_dims(other)?;
        let mut scratch = MergeScratch::new();
        scratch.begin_merge(
            self.row_ids.len().max(other.row_ids.len()),
            self.nvals() + other.nvals(),
        );
        let mut tally = MergeTally::default();
        self.merge_core(other, op, &mut scratch, &mut tally);
        tally.commit();
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
        self.check_same_dims(other)?;
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
        scratch.begin_merge(
            self.row_ids.len().max(other.row_ids.len()),
            self.nvals() + other.nvals(),
        );
        let mut tally = MergeTally::default();
        self.merge_core(other, op, scratch, &mut tally);
        tally.commit();
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
        if self.nrows != coo.nrows() || self.ncols != coo.ncols() {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "{}x{} vs {}x{}",
                    self.nrows,
                    self.ncols,
                    coo.nrows(),
                    coo.ncols()
                ),
            });
        }
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
        scratch.begin_merge(
            self.row_ids.len() + b_rows.len(),
            self.nvals() + b_rows.len(),
        );
        let mut tally = MergeTally::default();
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < self.row_ids.len() || ib < b_rows.len() {
            // The COO side groups naturally into runs of equal row id; rows
            // unique to either side are detected as runs (galloped — a
            // settle's batch usually touches few distinct rows, so the run
            // boundaries are far apart) and copied in bulk.
            let rb = b_rows.get(ib).copied();
            let ra = self.row_ids.get(ia).copied();
            match (ra, rb) {
                (Some(r), Some(rr)) if r == rr => {
                    let end = gallop_while(b_rows, ib + 1, |x| x == rr);
                    let (ca, va) = self.row_slot(ia);
                    scratch.push_merged_row(
                        r,
                        ca,
                        va,
                        &b_cols[ib..end],
                        &b_vals[ib..end],
                        op,
                        &mut tally,
                    );
                    ia += 1;
                    ib = end;
                }
                (Some(r), Some(rr)) if r < rr => {
                    let end = gallop_while(&self.row_ids, ia + 1, |x| x < rr);
                    scratch.push_rows_bulk(self, ia, end, &mut tally);
                    ia = end;
                }
                (Some(_), None) => {
                    scratch.push_rows_bulk(self, ia, self.row_ids.len(), &mut tally);
                    ia = self.row_ids.len();
                }
                (_, Some(_)) => {
                    let limit = ra.map_or(b_rows.len(), |r| gallop_while(b_rows, ib, |x| x < r));
                    scratch.push_coo_rows_bulk(
                        &b_rows[ib..limit],
                        &b_cols[ib..limit],
                        &b_vals[ib..limit],
                        &mut tally,
                    );
                    ib = limit;
                }
                (None, None) => break,
            }
        }
        tally.commit();
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
    /// behind [`Matrix::col_shadow`](crate::matrix::Matrix::col_shadow),
    /// the snapshot twin and [`ops::transpose`](crate::ops::transpose).
    ///
    /// The source is already sorted and duplicate-free, so the transpose is
    /// a *stable sort by column alone*: rows then come out ascending inside
    /// every column for free.  One position-carrying radix over the column
    /// ids ([`radix_sort_with_positions`]; a `2^40`-wide matrix is just
    /// more passes), then one gather writes the four output arrays at exact
    /// capacity.  `O(passes * nnz)`, no comparison sort, no dedup; the two
    /// key/position plane pairs and the expanded source-row table (32 bytes
    /// per entry together) live only for the call.
    ///
    /// # Panics
    /// Panics when the structure holds more than `u32::MAX` entries.
    pub(crate) fn transposed(&self) -> Dcsr<T> {
        let n = self.col_idx.len();
        if n == 0 {
            return Dcsr::new(self.ncols, self.nrows);
        }
        let (keys, pos) = radix_sort_with_positions(self.col_idx.clone());

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

    fn check_same_dims(&self, other: &Dcsr<T>) -> GrbResult<()> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "{}x{} vs {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        Ok(())
    }

    /// Row-wise merge of `self` and `other` into the staging buffers of
    /// `scratch` (which must have been prepared with
    /// [`MergeScratch::begin_merge`]).  Runs of rows unique to one operand
    /// are found by galloping along the row-id arrays and copied in bulk;
    /// colliding rows go to the skew-aware column kernel.
    fn merge_core<Op: BinaryOp<T>>(
        &self,
        other: &Dcsr<T>,
        op: Op,
        scratch: &mut MergeScratch<T>,
        tally: &mut MergeTally,
    ) {
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < self.row_ids.len() || ib < other.row_ids.len() {
            let ra = self.row_ids.get(ia).copied();
            let rb = other.row_ids.get(ib).copied();
            match (ra, rb) {
                (Some(r), Some(rr)) if r == rr => {
                    let (ca, va) = self.row_slot(ia);
                    let (cb, vb) = other.row_slot(ib);
                    scratch.push_merged_row(r, ca, va, cb, vb, op, tally);
                    ia += 1;
                    ib += 1;
                }
                (Some(r), Some(rr)) if r < rr => {
                    // Run of rows unique to `self`: bulk copy.
                    let end = gallop_while(&self.row_ids, ia + 1, |x| x < rr);
                    scratch.push_rows_bulk(self, ia, end, tally);
                    ia = end;
                }
                (Some(_), None) => {
                    scratch.push_rows_bulk(self, ia, self.row_ids.len(), tally);
                    ia = self.row_ids.len();
                }
                (_, Some(_)) => {
                    // Run of rows unique to `other` (rb < ra, or `self`
                    // exhausted): bulk copy.
                    let end = match ra {
                        Some(r) => gallop_while(&other.row_ids, ib + 1, |x| x < r),
                        None => other.row_ids.len(),
                    };
                    scratch.push_rows_bulk(other, ib, end, tally);
                    ib = end;
                }
                (None, None) => break,
            }
        }
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
