//! Coordinate-list (COO / triplet) format.
//!
//! COO is the natural format for *building* matrices from streams of edges:
//! appending is `O(1)` and touches only the tail of three vectors, which is
//! exactly the cache-friendly behaviour the hierarchical matrix exploits at
//! its lowest level.  Before a COO can be used algebraically it is sorted and
//! duplicate coordinates are combined with a binary operator
//! ([`Coo::sort_dedup`]), mirroring `GrB_Matrix_build`.

use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::MergeScratch;
use crate::formats::{Entry, MemoryFootprint};
use crate::index::{validate_dims, validate_index, Index};
use crate::ops::BinaryOp;
use crate::types::ScalarType;

/// Largest dimension whose indices pack into 32 bits — the paper's IPv4
/// traffic matrices are exactly `2^32 x 2^32`.  At or below this dimension
/// the settle sort runs the packed-key radix kernel; above it the
/// comparison sort is the guarded fallback.
pub const RADIX_DIM_MAX: Index = 1 << 32;

/// Batch length at which the radix settle kernel switches from 8-bit to
/// 13-bit digits.  13 bits won a measured sweep (8/11/12/13/14/16) on
/// settle-sized batches:
/// wide enough that a full 64-bit key needs only 5 passes, narrow enough
/// that the 8,192 scatter bucket tails (512 KB) stay cache-resident
/// instead of thrashing like 65,536 streams do.
const RADIX_WIDE_MIN: usize = 1 << 14;

/// Batch length at which the kernel widens again to 14-bit digits.  The
/// re-measured sweep on the split-plane layout shows 14 bits consistently
/// ahead of 13 by ~6–9% from ~10⁵ tuples (the extra bucket tails amortise
/// across the longer scatter; at 10⁶ every width from 12–16 measures
/// within noise, so the mid-size winner decides).
const RADIX_XWIDE_MIN: usize = 1 << 17;

/// An append-only list of `(row, col, value)` tuples with matrix dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    nrows: Index,
    ncols: Index,
    rows: Vec<Index>,
    cols: Vec<Index>,
    vals: Vec<T>,
    /// True when the tuples are known to be sorted row-major and duplicate free.
    sorted_dedup: bool,
}

impl<T: ScalarType> Coo<T> {
    /// Create an empty COO with the given dimensions.
    ///
    /// # Panics
    /// Panics if the dimensions are invalid (zero or above the cap); use
    /// [`Coo::try_new`] for a fallible constructor.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::try_new(nrows, ncols).expect("invalid matrix dimensions")
    }

    /// Fallible constructor.
    pub fn try_new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        validate_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            sorted_dedup: true, // empty is trivially sorted
        })
    }

    /// Create with pre-reserved capacity for `cap` tuples.
    pub fn with_capacity(nrows: Index, ncols: Index, cap: usize) -> Self {
        let mut c = Self::new(nrows, ncols);
        c.rows.reserve(cap);
        c.cols.reserve(cap);
        c.vals.reserve(cap);
        c
    }

    /// Room for `additional` more tuples, grown to exactly that when it has
    /// to grow (see [`Matrix::reserve_pending`](crate::matrix::Matrix)).
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.rows.reserve_exact(additional);
        self.cols.reserve_exact(additional);
        self.vals.reserve_exact(additional);
    }

    /// Number of rows of the logical matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the logical matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored tuples (may include duplicates until
    /// [`Coo::sort_dedup`] is called).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the tuples are known to be row-major sorted and duplicate
    /// free.
    pub fn is_sorted_dedup(&self) -> bool {
        self.sorted_dedup
    }

    /// Append a tuple without bounds checking beyond a debug assertion.
    /// Bounds are validated by the public [`Matrix`](crate::matrix::Matrix)
    /// API before reaching this point.
    pub fn push(&mut self, row: Index, col: Index, val: T) {
        debug_assert!(row < self.nrows && col < self.ncols);
        // Appending may break sortedness; cheaply detect the common in-order case.
        if self.sorted_dedup {
            if let (Some(&lr), Some(&lc)) = (self.rows.last(), self.cols.last()) {
                if (row, col) <= (lr, lc) {
                    self.sorted_dedup = false;
                }
            }
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Append many tuples from parallel slices.
    ///
    /// The whole batch is validated in one pass *before* anything is
    /// appended (the batch applies atomically), then the three vectors are
    /// extended with bulk copies — one bounds/sortedness scan and three
    /// `memcpy`-style extends instead of a checked push per tuple.  This is
    /// the bulk insert path of [`Matrix::accum_tuples`]
    /// (`Matrix`: crate::matrix::Matrix).
    pub fn extend_from_slices(
        &mut self,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
    ) -> GrbResult<()> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "tuple slice lengths differ: {} rows, {} cols, {} vals",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        // One pass that tracks the slice maxima and whether appending keeps
        // us sorted; bounds are compared once per slice instead of twice per
        // element (two data-dependent branches off the bulk path).  The
        // batch is still atomic on error: nothing is appended until the
        // maxima of the whole slice have been checked.
        let mut sorted = self.sorted_dedup;
        let (mut max_row, mut max_col) = (0, 0);
        if sorted {
            let mut last = match (self.rows.last(), self.cols.last()) {
                (Some(&r), Some(&c)) => Some((r, c)),
                _ => None,
            };
            for i in 0..rows.len() {
                max_row = max_row.max(rows[i]);
                max_col = max_col.max(cols[i]);
                let cur = (rows[i], cols[i]);
                if let Some(prev) = last {
                    if cur <= prev {
                        sorted = false;
                    }
                }
                last = Some(cur);
            }
        } else {
            // Already-unsorted fast path: two branch-free maximum scans
            // that the compiler vectorises (the common case in steady-state
            // streaming, where the pending buffer is rarely in order).
            for &r in rows {
                max_row = max_row.max(r);
            }
            for &c in cols {
                max_col = max_col.max(c);
            }
        }
        if !rows.is_empty() {
            validate_index(max_row, self.nrows)?;
            validate_index(max_col, self.ncols)?;
        }
        self.rows.extend_from_slice(rows);
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.sorted_dedup = sorted;
        Ok(())
    }

    /// Drop every tuple from position `len` on (see
    /// [`Matrix::truncate_pending`](crate::matrix::Matrix)).  The sorted
    /// flag tracks exactly whether the tuples are strictly increasing, so
    /// one scan of what is left makes it what it was at that length.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.rows.len() {
            return;
        }
        self.rows.truncate(len);
        self.cols.truncate(len);
        self.vals.truncate(len);
        if !self.sorted_dedup {
            let keys = || self.rows.iter().zip(&self.cols);
            self.sorted_dedup = keys().zip(keys().skip(1)).all(|(a, b)| a < b);
        }
    }

    /// Remove all tuples, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
        self.sorted_dedup = true;
    }

    /// Iterate over stored tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Entry<T>> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Sort tuples row-major and combine duplicates with `dup`.
    ///
    /// After this call the tuples are strictly increasing in `(row, col)` and
    /// [`Coo::is_sorted_dedup`] returns true.  This is the expensive step of
    /// `GrB_Matrix_build`; its cost is `O(nnz log nnz)`.
    pub fn sort_dedup<Op: BinaryOp<T>>(&mut self, dup: Op) {
        let mut scratch = MergeScratch::default();
        self.sort_dedup_with(dup, &mut scratch);
    }

    /// Like [`Coo::sort_dedup`], but sorting through caller-provided scratch
    /// buffers so repeated settles (the streaming hot path) allocate nothing
    /// once the buffers have grown to the working-set size.  The sorted
    /// tuples are swapped with the staging vectors in `scratch`; the COO's
    /// previous vectors become the next sort's staging space.
    ///
    /// Dispatches to the packed-key LSD radix kernel when both dimensions
    /// fit the 32-bit index space (the paper's `2^32 x 2^32` regime) and to
    /// the comparison sort ([`Coo::sort_dedup_comparison_with`]) otherwise.
    pub fn sort_dedup_with<Op: BinaryOp<T>>(&mut self, dup: Op, scratch: &mut MergeScratch<T>) {
        if self.sorted_dedup {
            return;
        }
        if self.nrows <= RADIX_DIM_MAX && self.ncols <= RADIX_DIM_MAX {
            self.sort_dedup_radix(dup, scratch);
        } else {
            self.sort_dedup_comparison_with(dup, scratch);
        }
    }

    /// The radix settle kernel: pack each `(row, col)` into a `u64` key
    /// (`row << 32 | col` — valid because both dimensions are at most
    /// `2^32`), LSD radix-sort parallel key/value planes digit by digit
    /// through the reusable scratch buffers, and combine duplicates with
    /// `dup` while unpacking into the output vectors.
    ///
    /// What makes this the streaming hot path's kernel:
    ///
    /// * **`O(p·n)` instead of `O(n log n)` comparisons** with `p` ≤ 8
    ///   scatter passes over contiguous arrays, versus a comparison sort
    ///   through a permutation index whose every comparison is two
    ///   random-access gathers;
    /// * **one fused histogram pass** reads the source arrays once and
    ///   counts every digit plane simultaneously; the first scatter then
    ///   packs keys on the fly, so the pairs buffer is never written before
    ///   its first real use (a full round trip of memory traffic saved);
    /// * **constant digits are skipped** — a plane whose histogram puts all
    ///   `n` tuples in one bucket needs no pass, and a hypersparse update
    ///   batch rarely spans the full 64-bit key space;
    /// * **digit width adapts**: large batches use 13- then 14-bit digits
    ///   (5 passes worst case, cache-resident bucket tails — see
    ///   [`RADIX_WIDE_MIN`] / [`RADIX_XWIDE_MIN`]), small ones 8-bit
    ///   digits whose histograms stay in L1;
    /// * **the scatter is stable**, so duplicates of a cell stay in
    ///   insertion order and order-sensitive duplicate operators
    ///   (`First`/`Second`, "last write wins") need no re-sorting — the
    ///   comparison path pays an extra per-run index sort for this.
    fn sort_dedup_radix<Op: BinaryOp<T>>(&mut self, dup: Op, scratch: &mut MergeScratch<T>) {
        let n = self.rows.len();
        if n == 0 {
            self.sorted_dedup = true;
            return;
        }
        let MergeScratch {
            radix_keys,
            radix_vals,
            radix_keys_alt,
            radix_vals_alt,
            radix_hist,
            sort_rows,
            sort_cols,
            sort_vals,
            ..
        } = scratch;

        // Digit width: scatter passes are the expensive part (random
        // 16-byte writes), so larger batches use 13- then 14-bit digits —
        // fewer passes whose bucket tails still fit in cache (see
        // RADIX_WIDE_MIN for the measured sweep).  The fixed-size `active`
        // table below caps the plane count at 8, so no width under 8 bits.
        let digit_bits: usize = if n >= RADIX_XWIDE_MIN {
            14
        } else if n >= RADIX_WIDE_MIN {
            13
        } else {
            8
        };
        let nplanes = 64usize.div_ceil(digit_bits);
        let nbuckets = 1usize << digit_bits;
        let digit_mask = (nbuckets - 1) as u64;

        // One fused pass over the source arrays counts every digit plane at
        // once (the per-plane tables live in the persistent scratch, so no
        // steady-state allocation).
        radix_hist.clear();
        radix_hist.resize(nplanes * nbuckets, 0);
        for i in 0..n {
            let k = (self.rows[i] << 32) | self.cols[i];
            for p in 0..nplanes {
                radix_hist[p * nbuckets + ((k >> (p * digit_bits)) & digit_mask) as usize] += 1;
            }
        }

        // A plane whose histogram holds all n tuples in a single bucket is
        // constant across the batch and needs no scatter pass.
        let mut active = [0usize; 8];
        let mut nactive = 0;
        for p in 0..nplanes {
            let plane = &radix_hist[p * nbuckets..(p + 1) * nbuckets];
            if !plane.contains(&n) {
                active[nactive] = p;
                nactive += 1;
            }
        }

        // Buffers sized to `n` in one step grow to exactly `n`: doubling
        // would double them whenever a settle is a tuple longer than any
        // before it, and the footprint would turn on the order of settles.
        sort_rows.clear();
        sort_cols.clear();
        sort_vals.clear();
        sort_rows.reserve_exact(n);
        sort_cols.reserve_exact(n);
        sort_vals.reserve_exact(n);

        if nactive == 0 {
            // Every tuple hits the same cell: fold the values in insertion
            // order and emit the single entry.
            let k = (self.rows[0] << 32) | self.cols[0];
            let mut acc = self.vals[0];
            for &v in &self.vals[1..] {
                acc = dup.apply(acc, v);
            }
            sort_rows.push(k >> 32);
            sort_cols.push(k & 0xFFFF_FFFF);
            sort_vals.push(acc);
            std::mem::swap(&mut self.rows, &mut scratch.sort_rows);
            std::mem::swap(&mut self.cols, &mut scratch.sort_cols);
            std::mem::swap(&mut self.vals, &mut scratch.sort_vals);
            self.sorted_dedup = true;
            return;
        }

        // Turn a plane's histogram into exclusive start offsets.
        let prefix_sum = |plane: &mut [usize]| {
            let mut sum = 0usize;
            for slot in plane.iter_mut() {
                let count = *slot;
                *slot = sum;
                sum += count;
            }
        };

        // First scatter pass packs keys on the fly from the source arrays —
        // the key/value planes receive their first write already in
        // scattered order.  Remaining passes ping-pong between the two
        // plane sets, which persist in the scratch at working-set size; the
        // resize only adjusts the length delta (every slot is overwritten
        // by the offset-driven scatter, so stale contents never surface),
        // making the steady-state re-fill cost zero.  Keys and values are
        // separate planes so the key stream stays contiguous `u64`s — the
        // digit extract vectorises and each scatter store is 8 bytes tight
        // instead of a padded 16-byte pair.
        resize_exact(radix_keys, n, 0);
        resize_exact(radix_vals, n, T::default());
        {
            let p = active[0];
            let shift = p * digit_bits;
            let plane = &mut radix_hist[p * nbuckets..(p + 1) * nbuckets];
            prefix_sum(plane);
            for i in 0..n {
                let k = (self.rows[i] << 32) | self.cols[i];
                let slot = &mut plane[((k >> shift) & digit_mask) as usize];
                radix_keys[*slot] = k;
                radix_vals[*slot] = self.vals[i];
                *slot += 1;
            }
        }
        if nactive > 1 {
            resize_exact(radix_keys_alt, n, 0);
            resize_exact(radix_vals_alt, n, T::default());
        }
        let mut flipped = false; // data currently in radix_keys/radix_vals
        for &p in &active[1..nactive] {
            let (src_k, src_v, dst_k, dst_v) = if flipped {
                (
                    &*radix_keys_alt,
                    &*radix_vals_alt,
                    &mut *radix_keys,
                    &mut *radix_vals,
                )
            } else {
                (
                    &*radix_keys,
                    &*radix_vals,
                    &mut *radix_keys_alt,
                    &mut *radix_vals_alt,
                )
            };
            let shift = p * digit_bits;
            let plane = &mut radix_hist[p * nbuckets..(p + 1) * nbuckets];
            prefix_sum(plane);
            for (&k, &v) in src_k.iter().zip(src_v.iter()) {
                let slot = &mut plane[((k >> shift) & digit_mask) as usize];
                dst_k[*slot] = k;
                dst_v[*slot] = v;
                *slot += 1;
            }
            flipped = !flipped;
        }
        let (keys, vals) = if flipped {
            (&*radix_keys_alt, &*radix_vals_alt)
        } else {
            (&*radix_keys, &*radix_vals)
        };

        // Dedup while unpacking: runs of equal keys are contiguous and in
        // insertion order (stable scatter), so `dup` folds left-to-right.
        let mut i = 0;
        while i < n {
            let k = keys[i];
            let mut acc = vals[i];
            let mut j = i + 1;
            while j < n && keys[j] == k {
                acc = dup.apply(acc, vals[j]);
                j += 1;
            }
            sort_rows.push(k >> 32);
            sort_cols.push(k & 0xFFFF_FFFF);
            sort_vals.push(acc);
            i = j;
        }
        std::mem::swap(&mut self.rows, &mut scratch.sort_rows);
        std::mem::swap(&mut self.cols, &mut scratch.sort_cols);
        std::mem::swap(&mut self.vals, &mut scratch.sort_vals);
        self.sorted_dedup = true;
    }

    /// The comparison settle path: permutation sort + per-run insertion
    /// re-ordering.  This is the guarded fallback for dimensions beyond the
    /// packed-key space (`> 2^32`); it is public so the radix/comparison
    /// equivalence property tests and the `sort_dedup` micro-benchmark can
    /// pin this path at any dimension.
    pub fn sort_dedup_comparison_with<Op: BinaryOp<T>>(
        &mut self,
        dup: Op,
        scratch: &mut MergeScratch<T>,
    ) {
        if self.sorted_dedup {
            return;
        }
        let n = self.rows.len();
        scratch.perm.clear();
        scratch.perm.extend(0..n);
        scratch
            .perm
            .sort_unstable_by_key(|&i| (self.rows[i], self.cols[i]));

        scratch.sort_rows.clear();
        scratch.sort_cols.clear();
        scratch.sort_vals.clear();
        scratch.sort_rows.reserve(n);
        scratch.sort_cols.reserve(n);
        scratch.sort_vals.reserve(n);
        // Dedup scan.  The unstable sort may shuffle duplicates of the same
        // (row, col), so when a run of equal keys is detected its
        // permutation slice is re-sorted by index before `dup` is applied —
        // order-sensitive operators (`First`/`Second`, "last write wins")
        // need duplicates combined in insertion order.  Runs longer than 1
        // exist only at duplicate coordinates, so distinct-heavy streams
        // never pay for it.  (Keying the main sort by (row, col, i) instead
        // costs ~40% more: the wider key slows every comparison of the
        // sort, not just the duplicates'.)
        let mut start = 0;
        while start < n {
            let i0 = scratch.perm[start];
            let (r, c) = (self.rows[i0], self.cols[i0]);
            let mut end = start + 1;
            while end < n {
                let ie = scratch.perm[end];
                if self.rows[ie] != r || self.cols[ie] != c {
                    break;
                }
                end += 1;
            }
            let acc = if end - start > 1 {
                scratch.perm[start..end].sort_unstable();
                let mut acc = self.vals[scratch.perm[start]];
                for &j in &scratch.perm[start + 1..end] {
                    acc = dup.apply(acc, self.vals[j]);
                }
                acc
            } else {
                self.vals[i0]
            };
            scratch.sort_rows.push(r);
            scratch.sort_cols.push(c);
            scratch.sort_vals.push(acc);
            start = end;
        }
        std::mem::swap(&mut self.rows, &mut scratch.sort_rows);
        std::mem::swap(&mut self.cols, &mut scratch.sort_cols);
        std::mem::swap(&mut self.vals, &mut scratch.sort_vals);
        self.sorted_dedup = true;
    }

    /// Borrow the tuple slices `(rows, cols, vals)`.
    pub fn parts(&self) -> (&[Index], &[Index], &[T]) {
        (&self.rows, &self.cols, &self.vals)
    }

    /// Bytes of memory used by the tuple arrays.
    pub fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            index_bytes: (self.rows.capacity() + self.cols.capacity())
                * std::mem::size_of::<Index>(),
            value_bytes: self.vals.capacity() * std::mem::size_of::<T>(),
        }
    }
}

/// `Vec::resize` that grows the allocation to exactly `n`.
fn resize_exact<U: Clone>(v: &mut Vec<U>, n: usize, fill: U) {
    v.reserve_exact(n.saturating_sub(v.len()));
    v.resize(n, fill);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Plus, Second};

    #[test]
    fn new_and_push() {
        let mut c = Coo::<u64>::new(1 << 32, 1 << 32);
        assert!(c.is_empty());
        c.push(5, 6, 1);
        c.push(5, 7, 2);
        assert_eq!(c.len(), 2);
        assert!(c.is_sorted_dedup());
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(5, 6, 1), (5, 7, 2)]);
    }

    #[test]
    fn invalid_dims_rejected() {
        assert!(Coo::<f64>::try_new(0, 5).is_err());
        assert!(Coo::<f64>::try_new(5, 0).is_err());
    }

    #[test]
    fn out_of_order_push_clears_sorted_flag() {
        let mut c = Coo::<u64>::new(100, 100);
        c.push(9, 9, 1);
        c.push(3, 3, 1);
        assert!(!c.is_sorted_dedup());
        c.sort_dedup(Plus);
        assert!(c.is_sorted_dedup());
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(3, 3, 1), (9, 9, 1)]);
    }

    #[test]
    fn sort_dedup_accumulates_duplicates() {
        let mut c = Coo::<u64>::new(10, 10);
        c.push(1, 2, 10);
        c.push(0, 0, 1);
        c.push(1, 2, 5);
        c.push(1, 2, 1);
        c.sort_dedup(Plus);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1), (1, 2, 16)]);
    }

    #[test]
    fn sort_dedup_second_keeps_last_sorted_occurrence() {
        let mut c = Coo::<u32>::new(10, 10);
        c.push(1, 1, 100);
        c.push(0, 5, 7);
        c.push(1, 1, 200);
        c.sort_dedup(Second);
        let entries: Vec<_> = c.iter().collect();
        // Stable permutation sort keeps insertion order among equal keys, so
        // Second keeps the latest inserted value.
        assert_eq!(entries, vec![(0, 5, 7), (1, 1, 200)]);
    }

    #[test]
    fn sort_dedup_second_is_deterministic_under_heavy_duplication() {
        // Large enough that the unstable sort would shuffle equal keys if
        // runs were not re-ordered by insertion index before dedup.
        let mut c = Coo::<u64>::new(100, 100);
        for i in 0..10_000u64 {
            c.push(i % 7, (i * 3) % 5, i); // many duplicates per (row, col)
        }
        c.sort_dedup(Second);
        for (r, col, v) in c.iter() {
            // `Second` must keep the value of the LAST pushed tuple of the
            // cell: the largest i with i % 7 == r && (i * 3) % 5 == col.
            let expect = (0..10_000u64)
                .rfind(|i| i % 7 == r && (i * 3) % 5 == col)
                .unwrap();
            assert_eq!(v, expect, "cell ({r},{col})");
        }
    }

    #[test]
    fn radix_handles_boundary_indices() {
        // Dim exactly 2^32: indices 0 and 2^32 - 1 must pack/unpack cleanly.
        let top = (1u64 << 32) - 1;
        let mut c = Coo::<u64>::new(1 << 32, 1 << 32);
        c.push(top, 0, 1);
        c.push(0, top, 2);
        c.push(0, 0, 3);
        c.push(top, top, 4);
        c.push(top, 0, 10);
        c.sort_dedup(Plus);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 3), (0, top, 2), (top, 0, 11), (top, top, 4)]
        );
    }

    #[test]
    fn radix_and_comparison_agree_including_order_sensitive_ops() {
        let dim = 1u64 << 32;
        let mut base = Coo::<u64>::new(dim, dim);
        for i in 0..5000u64 {
            base.push((i * 7919) % 97, (i * 104_729) % 89, i);
        }
        let mut scratch = MergeScratch::default();
        // Second: last-write-wins is the order-sensitive case the stable
        // radix scatter must preserve.
        let mut radix = base.clone();
        radix.sort_dedup_with(Second, &mut scratch);
        let mut cmp = base.clone();
        cmp.sort_dedup_comparison_with(Second, &mut scratch);
        assert_eq!(radix.parts(), cmp.parts());

        let mut radix = base.clone();
        radix.sort_dedup_with(Plus, &mut scratch);
        let mut cmp = base;
        cmp.sort_dedup_comparison_with(Plus, &mut scratch);
        assert_eq!(radix.parts(), cmp.parts());
    }

    #[test]
    fn large_dims_take_comparison_fallback() {
        // Above 2^32 the packed key would overflow; the dispatcher must
        // fall back and stay correct.
        let mut c = Coo::<u64>::new(1 << 40, 1 << 40);
        c.push(1 << 39, 5, 1);
        c.push(3, 1 << 38, 2);
        c.push(1 << 39, 5, 4);
        c.sort_dedup(Plus);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(3, 1 << 38, 2), (1 << 39, 5, 5)]);
    }

    #[test]
    fn extend_from_slices_rejects_out_of_bounds_atomically() {
        let mut c = Coo::<u8>::new(4, 4);
        assert!(c.extend_from_slices(&[0, 9], &[1, 1], &[1, 1]).is_err());
        assert!(c.extend_from_slices(&[0, 1], &[1, 9], &[1, 1]).is_err());
        assert!(c.is_empty());
        assert!(c.extend_from_slices(&[], &[], &[]).is_ok());
    }

    #[test]
    fn extend_from_slices_checks_lengths() {
        let mut c = Coo::<u8>::new(4, 4);
        assert!(c.extend_from_slices(&[0, 1], &[1, 2], &[1, 2]).is_ok());
        assert_eq!(c.len(), 2);
        assert!(c.extend_from_slices(&[0], &[1, 2], &[1, 2]).is_err());
    }

    #[test]
    fn a_settle_one_tuple_longer_does_not_double_the_buffers() {
        // Refilled to 5,000 then 5,001 tuples: buffers and scratch end at
        // the longer fill, not at twice the shorter.
        let mut c = Coo::<u64>::new(1 << 32, 1 << 32);
        let mut scratch = MergeScratch::default();
        let mut held = Vec::new();
        for n in [5000u64, 5001] {
            let rows: Vec<Index> = (0..n).rev().collect();
            c.clear();
            c.reserve_exact(rows.len());
            c.extend_from_slices(&rows, &rows, &rows).unwrap();
            c.sort_dedup_with(Plus, &mut scratch);
            assert_eq!(c.len() as u64, n);
            held.push(c.memory().total() + scratch.footprint().total());
        }
        assert!(held[1] - held[0] < held[0] / 100, "{held:?}");
    }

    #[test]
    fn truncate_takes_an_append_back_sorted_flag_included() {
        let mut c = Coo::<u64>::new(100, 100);
        c.extend_from_slices(&[1, 2, 5], &[9, 0, 5], &[1, 1, 1])
            .unwrap();
        let held = c.clone();
        // An append that breaks the order, taken back: equal to a list the
        // append never reached, so the next settle still skips the sort.
        c.extend_from_slices(&[5, 0], &[5, 0], &[7, 7]).unwrap();
        assert!(!c.is_sorted_dedup());
        c.truncate(3);
        assert_eq!(c, held);
        assert!(c.is_sorted_dedup());
        // A cut that leaves the out-of-order pair in stays unsorted; a
        // length past the end changes nothing; a cut to nothing is sorted.
        c.push(0, 0, 7);
        c.push(3, 3, 7);
        c.truncate(4);
        c.truncate(9);
        assert_eq!((c.len(), c.is_sorted_dedup()), (4, false));
        c.truncate(0);
        assert!(c.is_empty() && c.is_sorted_dedup());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = Coo::<u64>::with_capacity(10, 10, 64);
        for i in 0..10 {
            c.push(i, i, i);
        }
        let before = c.memory().total();
        c.clear();
        assert!(c.is_empty());
        assert!(c.is_sorted_dedup());
        assert_eq!(c.memory().total(), before);
    }

    #[test]
    fn memory_counts_indices_and_values() {
        let mut c = Coo::<u64>::new(10, 10);
        c.push(0, 0, 1);
        let m = c.memory();
        assert!(m.index_bytes >= 16);
        assert!(m.value_bytes >= 8);
    }
}
