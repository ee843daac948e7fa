//! The public [`Matrix`] type: a hypersparse matrix with SuiteSparse-style
//! pending tuples.
//!
//! A `Matrix<T>` is a settled [`Dcsr`] plus an append-only [`Coo`] of
//! *pending tuples*.  Point updates ([`Matrix::set_element`],
//! [`Matrix::accum_element`]) go to the pending buffer in `O(1)`; whole-matrix
//! operations and queries first call [`Matrix::wait`], which sorts the
//! pending tuples and merges them into the settled structure — the same
//! "defer and batch" idea the hierarchical matrix generalises to multiple
//! levels.

use crate::error::{GrbError, GrbResult};
use crate::formats::coo::Coo;
use crate::formats::dcsr::{Dcsr, MergeScratch, PositionRadix};
use crate::formats::{Entry, MemoryFootprint};
use crate::index::{validate_dims, validate_index, Index};
use crate::level_read::LevelStore;
use crate::ops::binary::{Plus, Second};
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::sync::Arc;

/// A hypersparse matrix over scalar type `T`.
///
/// The settled structure lives behind an [`Arc`] so read paths can take
/// O(1) *snapshots* of it ([`Matrix::settled_arc`]): a snapshot holder and
/// the matrix share the structure until the next mutation, which
/// copy-on-writes ([`Arc::make_mut`]) — free in the common unshared case
/// (a pointer uniqueness check), one structural clone when a snapshot is
/// outstanding.  This is what lets hierarchical levels hand out cheap
/// level snapshots that keep answering while ingest continues.
///
/// See the [crate-level documentation](crate) for an overview and examples.
#[derive(Debug)]
pub struct Matrix<T> {
    nrows: Index,
    ncols: Index,
    settled: Arc<Dcsr<T>>,
    pending: Coo<T>,
    /// Number of pending tuples at which `wait()` is triggered automatically.
    pending_limit: usize,
    /// Reusable sort/merge buffers: every settle and every in-place
    /// accumulate goes through these instead of allocating fresh vectors.
    /// Not part of the matrix *value* (excluded from `PartialEq`).
    scratch: MergeScratch<T>,
    /// Lazily-built column-major twin: the settled structure transposed
    /// (an `ncols x nrows` [`Dcsr`] whose "rows" are this matrix's
    /// columns).  Built on the first column-side query, so pure-ingest
    /// workloads never pay for it; from then on every settle and every
    /// matrix accumulate applies to it what it applies to the settled
    /// structure, and only a swap or a clear drops it.  Derived content,
    /// not part of the matrix *value* (excluded from `PartialEq`, shared by
    /// `Clone`).
    col_shadow: Option<ColTwin<T>>,
}

/// A column twin and what keeps it current: its own merge ping-pong and
/// the buffers a settle's batch is transposed through.  All of it lives and
/// dies with the twin: a matrix never asked a column question holds none,
/// and one that is allocates nothing per settle once they fit its batches.
#[derive(Debug)]
struct ColTwin<T> {
    dcsr: Arc<Dcsr<T>>,
    scratch: MergeScratch<T>,
    radix: PositionRadix,
    /// The batch's rows and values in column-major order (its sorted
    /// columns stay in `radix`).
    rows: Vec<Index>,
    vals: Vec<T>,
}

impl<T> ColTwin<T> {
    fn new(dcsr: Arc<Dcsr<T>>) -> Self {
        Self {
            dcsr,
            scratch: MergeScratch::default(),
            radix: PositionRadix::default(),
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<T: ScalarType> ColTwin<T> {
    /// Apply one settle: `batch` — sorted row-major, duplicate-free — is
    /// transposed and merged into the twin under the settle's own `dup`.
    /// A stable sort by column alone leaves rows ascending inside every
    /// column: the transposed batch is again sorted and duplicate-free.
    /// A reader still holding the old twin keeps it (copy-on-write).
    fn settle<Op: BinaryOp<T>>(&mut self, batch: &Coo<T>, dup: Op) {
        let (rows, cols, vals) = batch.parts();
        let (cols, pos) = self.radix.sort_slice(cols);
        self.rows.clear();
        self.rows.extend(pos.iter().map(|&p| rows[p as usize]));
        self.vals.clear();
        self.vals.extend(pos.iter().map(|&p| vals[p as usize]));
        Arc::make_mut(&mut self.dcsr).merge_sorted_tuples_into(
            cols,
            &self.rows,
            &self.vals,
            dup,
            &mut self.scratch,
        );
    }

    fn memory(&self) -> MemoryFootprint {
        let (d, sc) = (self.dcsr.memory(), self.scratch.footprint());
        let planes =
            self.radix.memory_bytes() + self.rows.capacity() * std::mem::size_of::<Index>();
        MemoryFootprint {
            index_bytes: d.index_bytes + sc.index_bytes + planes,
            value_bytes: d.value_bytes
                + sc.value_bytes
                + self.vals.capacity() * std::mem::size_of::<T>(),
        }
    }
}

/// Clones copy the represented content but start with *empty* scratch
/// buffers: the scratch is a cache, and the clone-and-settle query paths
/// (`nvals`, `to_settled`) would otherwise deep-copy up to a settled
/// structure's worth of staging space just to drop it.
impl<T: Clone> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            // Shares the settled structure; a later mutation of either
            // copy-on-writes its own.
            settled: Arc::clone(&self.settled),
            pending: self.pending.clone(),
            pending_limit: self.pending_limit,
            scratch: MergeScratch::default(),
            // Clones share it like the settled structure; the next mutation
            // of either copy copy-on-writes its own.
            col_shadow: self
                .col_shadow
                .as_ref()
                .map(|twin| ColTwin::new(Arc::clone(&twin.dcsr))),
        }
    }
}

/// Equality is over the represented content (dimensions, settled structure,
/// pending tuples) — the scratch buffers are a cache and excluded.
impl<T: ScalarType> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.pending_limit == other.pending_limit
            && self.settled == other.settled
            && self.pending == other.pending
    }
}

/// Default number of pending tuples before an automatic `wait()`.
///
/// SuiteSparse grows its pending list adaptively; a fixed, generous default
/// keeps behaviour predictable for the streaming benchmarks (the hierarchy
/// supplies the adaptivity instead).
pub const DEFAULT_PENDING_LIMIT: usize = 1 << 20;

impl<T: ScalarType> Matrix<T> {
    /// Create an empty `nrows x ncols` matrix.
    ///
    /// # Panics
    /// Panics on invalid dimensions; use [`Matrix::try_new`] to handle the
    /// error instead.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::try_new(nrows, ncols).expect("invalid matrix dimensions")
    }

    /// Fallible constructor.
    pub fn try_new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        validate_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            settled: Arc::new(Dcsr::try_new(nrows, ncols)?),
            pending: Coo::try_new(nrows, ncols)?,
            pending_limit: DEFAULT_PENDING_LIMIT,
            scratch: MergeScratch::new(),
            col_shadow: None,
        })
    }

    /// Build a matrix from tuple slices, combining duplicates with `dup`
    /// (the `GrB_Matrix_build` equivalent).
    pub fn from_tuples<Op: BinaryOp<T>>(
        nrows: Index,
        ncols: Index,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
        dup: Op,
    ) -> GrbResult<Self> {
        let settled = Dcsr::from_tuples(nrows, ncols, rows, cols, vals, dup)?;
        Ok(Self {
            nrows,
            ncols,
            settled: Arc::new(settled),
            pending: Coo::try_new(nrows, ncols)?,
            pending_limit: DEFAULT_PENDING_LIMIT,
            scratch: MergeScratch::new(),
            col_shadow: None,
        })
    }

    /// Wrap an existing settled [`Dcsr`] as a matrix.
    pub fn from_dcsr(d: Dcsr<T>) -> Self {
        Self {
            nrows: d.nrows(),
            ncols: d.ncols(),
            pending: Coo::new(d.nrows(), d.ncols()),
            pending_limit: DEFAULT_PENDING_LIMIT,
            settled: Arc::new(d),
            scratch: MergeScratch::new(),
            col_shadow: None,
        }
    }

    /// Set the number of pending tuples that triggers an automatic
    /// [`Matrix::wait`].  Returns `self` for builder-style chaining.
    pub fn with_pending_limit(mut self, limit: usize) -> Self {
        self.pending_limit = limit.max(1);
        self
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries.
    ///
    /// Requires no mutation: pending tuples are counted conservatively by
    /// settling a clone only when pending tuples exist.  Use
    /// [`Matrix::nvals_settled`] + [`Matrix::npending`] to inspect the split
    /// without any work.
    pub fn nvals(&self) -> usize {
        // No cheap path with pending tuples: duplicates between pending and
        // settled may collapse.  Clone-and-settle for correctness.
        self.settled_content().nvals()
    }

    /// Number of entries in the settled (compressed) structure only.
    pub fn nvals_settled(&self) -> usize {
        self.settled.nvals()
    }

    /// Number of pending (not yet merged) tuples.
    pub fn npending(&self) -> usize {
        self.pending.len()
    }

    /// True when the matrix stores no entries at all.
    pub fn is_empty(&self) -> bool {
        self.settled.is_empty() && self.pending.is_empty()
    }

    /// Number of non-empty rows in the settled structure.
    pub fn nrows_nonempty(&self) -> usize {
        self.settled.nrows_nonempty()
    }

    /// Overwrite the element at `(row, col)` ("last write wins").
    pub fn set_element(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        self.pending.push(row, col, val);
        if self.pending.len() >= self.pending_limit {
            self.wait_with(Second);
        }
        Ok(())
    }

    /// Accumulate `val` into `(row, col)` under `+` — the streaming-update
    /// operation of the paper (`A(i,j) += v`).
    pub fn accum_element(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        self.pending.push(row, col, val);
        if self.pending.len() >= self.pending_limit {
            self.wait();
        }
        Ok(())
    }

    /// Accumulate a batch of tuples under `+` — the bulk insert path.
    ///
    /// The whole batch is validated in one pass and appended with three bulk
    /// extends; the automatic-settle check runs once per batch instead of
    /// once per tuple.  The batch applies atomically: on any invalid index
    /// nothing is inserted.
    pub fn accum_tuples(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        crate::sink::check_tuple_lengths(rows, cols, vals)?;
        self.pending.extend_from_slices(rows, cols, vals)?;
        if self.pending.len() >= self.pending_limit {
            self.wait();
        }
        Ok(())
    }

    /// Room for `additional` more pending tuples, grown to exactly that when
    /// it has to grow.  [`Matrix::accum_tuples`] alone doubles the buffer,
    /// which suits one that only grows; a caller that refills it to about
    /// the same length between settles (the hierarchy's level 0) reserves
    /// first, so that it holds the longest fill so far and not twice that
    /// whenever a fill is one tuple longer than any before.
    pub fn reserve_pending(&mut self, additional: usize) {
        self.pending.reserve_exact(additional);
    }

    /// Take back the pending tuples from position `len` on, as if they had
    /// never been appended (no-op when there are no more than `len`).  For a
    /// caller that appends first and may then have to refuse the batch: the
    /// durable hierarchy logs what its level 0 kept of a batch, and a batch
    /// whose log append fails must leave no trace in memory either.  `len`
    /// is an [`Matrix::npending`] read since the last settle.
    pub fn truncate_pending(&mut self, len: usize) {
        self.pending.truncate(len);
    }

    /// Force all pending tuples into the settled structure using `+` on
    /// duplicates (the common accumulate semantics).
    pub fn wait(&mut self) {
        self.wait_with(Plus);
    }

    /// Force all pending tuples into the settled structure using an explicit
    /// duplicate-combination operator.
    ///
    /// The settle reuses the matrix's internal sort/merge scratch buffers
    /// across calls, so steady-state streaming (append — settle — append …)
    /// performs no allocation once the buffers have grown to the working-set
    /// size.
    pub fn wait_with<Op: BinaryOp<T>>(&mut self, dup: Op) {
        self.settle(dup, |_, _, _| {});
    }

    /// [`Matrix::wait`] with a hook into the settle's dedup-unpack: after
    /// the pending tuples are sorted and in-batch-deduplicated under `+`
    /// but *before* they merge into the settled structure, `observe` sees
    /// the batch as sorted row-major parallel slices.  This is the event
    /// an incremental [`DegreeIndex`](crate::degree_index::DegreeIndex)
    /// maintains itself on: the batch is exactly the set of cells whose
    /// stored values change in this settle.
    #[allow(clippy::type_complexity)]
    pub fn wait_observed(&mut self, observe: &mut dyn FnMut(&[Index], &[Index], &[T])) {
        self.settle(Plus, observe);
    }

    /// One settle: the pending tuples are sorted and deduplicated under
    /// `dup`, shown to `observe`, and merged into the settled structure —
    /// and, transposed, into the column twin if there is one.
    fn settle<Op: BinaryOp<T>>(
        &mut self,
        dup: Op,
        mut observe: impl FnMut(&[Index], &[Index], &[T]),
    ) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_dedup_with(dup, &mut self.scratch);
        let (rows, cols, vals) = self.pending.parts();
        observe(rows, cols, vals);
        if let Some(twin) = &mut self.col_shadow {
            twin.settle(&self.pending, dup);
        }
        Arc::make_mut(&mut self.settled)
            .merge_sorted_coo_into(&self.pending, dup, &mut self.scratch)
            .expect("pending tuples are within bounds");
        self.pending.clear();
    }

    /// Accumulate a whole matrix in place: `self = self ⊕ other` under `+`.
    ///
    /// This is the cascade primitive of the hierarchical matrix in its
    /// allocation-free form: both operands are settled, then merged through
    /// the internal scratch buffers ([`Dcsr::merge_into`]) — `self`'s old
    /// structure becomes the next merge's staging space instead of being
    /// freed and reallocated.
    pub fn accum_matrix(&mut self, other: &Matrix<T>) -> GrbResult<()> {
        self.accum_matrix_op(other, Plus)
    }

    /// [`Matrix::accum_matrix`] under an explicit combination operator.
    pub fn accum_matrix_op<Op: BinaryOp<T>>(&mut self, other: &Matrix<T>, op: Op) -> GrbResult<()> {
        self.check_same_dims(other)?;
        // Pending duplicates settle under `+` (exactly as the functional
        // `ewise_add` settles its operands); `op` applies only across the
        // two operands.
        self.wait();
        // Twin into twin when both sides hold one that is current; a source
        // without one (or with tuples still pending) costs the destination
        // its own, and the next column read transposes the result afresh.
        match (&mut self.col_shadow, &other.col_shadow) {
            (Some(twin), Some(src)) if other.npending() == 0 => {
                Arc::make_mut(&mut twin.dcsr).merge_into(&src.dcsr, op, &mut twin.scratch)?
            }
            _ => self.col_shadow = None,
        }
        Arc::make_mut(&mut self.settled).merge_into(&other.settled_content(), op, &mut self.scratch)
    }

    /// Exchange the settled structures of two matrices of equal dimensions
    /// — two pointer swaps, whatever the sizes.  This is how a cascade
    /// into a level that holds nothing moves its source up instead of
    /// copying it ([`Matrix::accum_matrix`] into an empty matrix copies
    /// every entry and leaves the source's buffers allocated behind it).
    /// Pending tuples stay where they are; both column twins are dropped;
    /// a snapshot holding either [`Matrix::settled_arc`] keeps reading the
    /// structure it captured.
    pub fn swap_settled(&mut self, other: &mut Matrix<T>) -> GrbResult<()> {
        self.check_same_dims(other)?;
        std::mem::swap(&mut self.settled, &mut other.settled);
        self.col_shadow = None;
        other.col_shadow = None;
        Ok(())
    }

    fn check_same_dims(&self, other: &Matrix<T>) -> GrbResult<()> {
        if self.nrows == other.nrows && self.ncols == other.ncols {
            return Ok(());
        }
        Err(GrbError::DimensionMismatch {
            detail: format!(
                "{}x{} vs {}x{}",
                self.nrows, self.ncols, other.nrows, other.ncols
            ),
        })
    }

    /// Value at `(row, col)` taking pending tuples into account
    /// (pending values accumulate under `+`).
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        let mut acc = self.settled.get(row, col);
        for (r, c, v) in self.pending.iter() {
            if r == row && c == col {
                acc = Some(match acc {
                    Some(a) => a.add(v),
                    None => v,
                });
            }
        }
        acc
    }

    /// Remove every stored entry, keeping dimensions.  Frees the settled
    /// structure's buffers; see [`Matrix::clear_retaining_capacity`] for the
    /// streaming variant.
    pub fn clear(&mut self) {
        self.settled = Arc::new(Dcsr::new(self.nrows, self.ncols));
        self.pending.clear();
        self.col_shadow = None;
    }

    /// Remove every stored entry but keep every buffer's capacity, so the
    /// matrix can be refilled without touching the allocator.  Used by the
    /// hierarchical cascade to clear a level after moving it up.
    pub fn clear_retaining_capacity(&mut self) {
        // When a snapshot shares the structure, detach instead of
        // copy-on-writing a structure we are about to empty.
        match Arc::get_mut(&mut self.settled) {
            Some(d) => d.clear_retaining(),
            None => self.settled = Arc::new(Dcsr::new(self.nrows, self.ncols)),
        }
        self.pending.clear();
        self.col_shadow = None;
    }

    /// Access the settled hypersparse structure (pending tuples excluded).
    ///
    /// Kernels call [`Matrix::wait`] first, so in practice this is the whole
    /// matrix.
    pub fn dcsr(&self) -> &Dcsr<T> {
        &self.settled
    }

    /// An O(1) shared handle to the settled structure — the snapshot
    /// primitive.  The holder keeps reading this exact structure while the
    /// matrix keeps mutating (the next settle/cascade copy-on-writes the
    /// matrix's own copy).  Pending tuples are excluded; settle first
    /// ([`Matrix::wait`] / [`Matrix::wait_observed`]) for the full content.
    pub fn settled_arc(&self) -> Arc<Dcsr<T>> {
        Arc::clone(&self.settled)
    }

    /// The whole content as one settled structure, `self` untouched: the
    /// shared handle when nothing is pending, a settled copy's otherwise.
    /// What every whole-matrix kernel reads its operands through.
    pub(crate) fn settled_content(&self) -> Arc<Dcsr<T>> {
        if self.pending.is_empty() {
            Arc::clone(&self.settled)
        } else {
            self.to_settled().settled
        }
    }

    /// The column-major twin of the settled structure: an `ncols x nrows`
    /// [`Dcsr`] storing the transpose, so a column extract is a *row*
    /// lookup on the twin — O(k) instead of an O(nnz) sweep.
    ///
    /// Lazy and kept: the first call settles pending tuples and builds the
    /// transpose — one stable radix over the column ids plus one gather,
    /// `O(nnz)` per varying 11-bit column digit (three for a `2^32`-wide
    /// matrix), through buffers that live only for the call.  From then on
    /// the twin is merged forward — a settle merges its batch into it
    /// transposed, [`Matrix::accum_matrix_op`] merges the source's twin into
    /// it (or drops it when the source has none) — so a held twin is always
    /// exactly the transpose of the settled structure and later calls are
    /// O(1).  Only [`Matrix::swap_settled`] and the two clears drop it.
    /// Holders share the structure through the [`Arc`] like
    /// [`Matrix::settled_arc`] snapshots and keep what they hold: upkeep
    /// past an outstanding holder copy-on-writes.
    ///
    /// Callers that route settles through an observer hook (the
    /// hierarchical levels feeding a [`DegreeIndex`]) must settle *before*
    /// calling this — the internal `wait()` here is a plain, unobserved
    /// settle.
    ///
    /// [`DegreeIndex`]: crate::degree_index::DegreeIndex
    pub fn col_shadow(&mut self) -> Arc<Dcsr<T>> {
        self.wait();
        let settled = &self.settled;
        let twin = self
            .col_shadow
            .get_or_insert_with(|| ColTwin::new(Arc::new(settled.transposed())));
        Arc::clone(&twin.dcsr)
    }

    /// Whether the column twin is currently materialised — lets tests and
    /// the overhead report verify lazy activation (pure ingest never
    /// builds it).
    pub fn has_col_shadow(&self) -> bool {
        self.col_shadow.is_some()
    }

    /// The pending (not yet settled) tuples as parallel slices — read-side
    /// callers fold these in after merging the settled structures, instead
    /// of clone-and-settling the whole matrix.
    pub fn pending_parts(&self) -> (&[Index], &[Index], &[T]) {
        self.pending.parts()
    }

    /// A settled copy of this matrix (does not mutate `self`).  Where there
    /// is something to settle the copy gives up the shared column twin:
    /// keeping it current would copy it whole, for a copy that may never be
    /// asked a column question.
    pub fn to_settled(&self) -> Matrix<T> {
        let mut m = self.clone();
        if !m.pending.is_empty() {
            m.col_shadow = None;
            m.wait();
        }
        m
    }

    /// Iterate over settled entries in row-major order.  Call
    /// [`Matrix::wait`] first if pending tuples must be included.
    pub fn iter_settled(&self) -> impl Iterator<Item = Entry<T>> + '_ {
        self.settled.iter()
    }

    /// Extract all tuples (row-major, pending folded in) without mutating `self`.
    pub fn extract_tuples(&self) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        self.settled_content().extract_tuples()
    }

    /// Total bytes of memory used (settled + pending + scratch structures,
    /// and the column twin with its own scratch when one is held).
    ///
    /// The scratch buffers are included because the merge ping-pong keeps
    /// them at roughly the settled structure's size once the matrix has
    /// cascaded/settled — omitting them would under-report the resident
    /// footprint by up to 2x.
    pub fn memory(&self) -> MemoryFootprint {
        let twin = self.col_shadow.as_ref().map(ColTwin::memory);
        let parts = [
            self.settled.memory(),
            self.pending.memory(),
            self.scratch.footprint(),
            twin.unwrap_or_default(),
        ];
        MemoryFootprint {
            index_bytes: parts.iter().map(|p| p.index_bytes).sum(),
            value_bytes: parts.iter().map(|p| p.value_bytes).sum(),
        }
    }

    /// Validate internal invariants (used by property tests).
    pub fn check_invariants(&self) -> GrbResult<()> {
        self.settled.check_invariants()
    }
}

/// The flat matrix is the single-level store: settling its pending tuples
/// (`wait`) is its whole deferred work, its one twin is the column shadow,
/// and it keeps no stats — every degree answer sweeps the row pointers.
impl<T: ScalarType> LevelStore for Matrix<T> {
    type Value = T;

    fn store_name(&self) -> &str {
        "flat-graphblas"
    }

    fn store_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        self.wait();
        f(&[self.dcsr()])
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        let twin = self.col_shadow();
        f(&[&*twin])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty() {
        let m = Matrix::<f64>::new(1 << 32, 1 << 32);
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows(), 1 << 32);
    }

    #[test]
    fn invalid_dims() {
        assert!(Matrix::<f64>::try_new(0, 1).is_err());
    }

    #[test]
    fn accum_element_accumulates() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_element(5, 7, 2).unwrap();
        m.accum_element(5, 7, 3).unwrap();
        assert_eq!(m.get(5, 7), Some(5));
        assert_eq!(m.npending(), 2);
        m.wait();
        assert_eq!(m.npending(), 0);
        assert_eq!(m.get(5, 7), Some(5));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn set_element_last_write_wins() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.set_element(5, 7, 2).unwrap();
        m.set_element(5, 7, 9).unwrap();
        m.wait_with(Second);
        assert_eq!(m.get(5, 7), Some(9));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn mixed_settled_and_pending_get() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_element(1, 1, 10).unwrap();
        m.wait();
        m.accum_element(1, 1, 5).unwrap();
        // settled 10 + pending 5
        assert_eq!(m.get(1, 1), Some(15));
        assert_eq!(m.nvals(), 1);
        assert_eq!(m.nvals_settled(), 1);
        assert_eq!(m.npending(), 1);
    }

    #[test]
    fn pending_limit_triggers_auto_wait() {
        let mut m = Matrix::<u64>::new(1000, 1000).with_pending_limit(8);
        for i in 0..20 {
            m.accum_element(i % 10, i % 10, 1).unwrap();
        }
        assert!(m.npending() < 8);
        assert!(m.nvals_settled() > 0);
        // Total content is still correct.
        let total: u64 = m.extract_tuples().2.iter().sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = Matrix::<u64>::new(10, 10);
        assert!(m.accum_element(10, 0, 1).is_err());
        assert!(m.set_element(0, 10, 1).is_err());
        assert!(m.accum_tuples(&[1, 11], &[1, 1], &[1, 1]).is_err());
    }

    #[test]
    fn accum_tuples_batch() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_tuples(&[1, 2, 1], &[1, 2, 1], &[5, 6, 7]).unwrap();
        assert_eq!(m.get(1, 1), Some(12));
        assert_eq!(m.get(2, 2), Some(6));
        assert!(m.accum_tuples(&[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn from_tuples_build() {
        let m = Matrix::from_tuples(
            1 << 40,
            1 << 40,
            &[3, 3, 1 << 39],
            &[4, 4, 0],
            &[1.0f64, 2.0, 3.0],
            Plus,
        )
        .unwrap();
        assert_eq!(m.nvals(), 2);
        assert_eq!(m.get(3, 4), Some(3.0));
        assert_eq!(m.get(1 << 39, 0), Some(3.0));
    }

    #[test]
    fn clear_resets() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 1, 1).unwrap();
        m.wait();
        m.accum_element(2, 2, 2).unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows(), 10);
    }

    #[test]
    fn extract_tuples_includes_pending_without_mutation() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 1, 1).unwrap();
        m.wait();
        m.accum_element(2, 2, 2).unwrap();
        let (r, c, v) = m.extract_tuples();
        assert_eq!(r, vec![1, 2]);
        assert_eq!(c, vec![1, 2]);
        assert_eq!(v, vec![1, 2]);
        // still pending afterwards (no mutation through &self)
        assert_eq!(m.npending(), 1);
    }

    #[test]
    fn to_settled_does_not_mutate_original() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(3, 3, 7).unwrap();
        let s = m.to_settled();
        assert_eq!(s.npending(), 0);
        assert_eq!(s.nvals_settled(), 1);
        assert_eq!(m.npending(), 1);
        assert_eq!(m.nvals_settled(), 0);
    }

    #[test]
    fn memory_reports_nonzero() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 2, 3).unwrap();
        assert!(m.memory().total() > 0);
    }

    #[test]
    fn accum_matrix_in_place_equals_ewise_add() {
        let mut a = Matrix::<u64>::new(1 << 20, 1 << 20);
        a.accum_tuples(&[1, 2, 3], &[1, 2, 3], &[10, 20, 30])
            .unwrap();
        let mut b = Matrix::<u64>::new(1 << 20, 1 << 20);
        b.accum_tuples(&[2, 3, 4], &[2, 3, 4], &[5, 6, 7]).unwrap();
        let expect = crate::ops::ewise_add::ewise_add(&a, &b, Plus).unwrap();
        a.accum_matrix(&b).unwrap();
        assert_eq!(a.extract_tuples(), expect.extract_tuples());
        // b untouched (still has its pending tuples).
        assert_eq!(b.npending(), 3);
        // Repeated accumulation reuses scratch and stays correct.
        let expect2 = crate::ops::ewise_add::ewise_add(&a, &b, Plus).unwrap();
        a.accum_matrix(&b).unwrap();
        assert_eq!(a.extract_tuples(), expect2.extract_tuples());

        let wrong = Matrix::<u64>::new(4, 4);
        assert!(a.accum_matrix(&wrong).is_err());
    }

    #[test]
    fn clear_retaining_capacity_resets_content() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_tuples(&[1, 2], &[1, 2], &[1, 2]).unwrap();
        m.wait();
        m.accum_element(3, 3, 3).unwrap();
        let bytes = m.memory().total();
        m.clear_retaining_capacity();
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.memory().total(), bytes);
        // Refill after clearing works.
        m.accum_element(5, 5, 5).unwrap();
        m.wait();
        assert_eq!(m.get(5, 5), Some(5));
    }

    #[test]
    fn accum_tuples_batch_is_atomic_on_error() {
        let mut m = Matrix::<u64>::new(10, 10);
        assert!(m.accum_tuples(&[1, 99], &[1, 1], &[1, 1]).is_err());
        assert_eq!(m.npending(), 0);
        assert_eq!(m.nvals(), 0);
    }

    #[test]
    fn accum_tuples_triggers_single_settle_per_batch() {
        let mut m = Matrix::<u64>::new(1000, 1000).with_pending_limit(64);
        let rows: Vec<u64> = (0..256).map(|i| i % 100).collect();
        let cols = rows.clone();
        let vals = vec![1u64; 256];
        m.accum_tuples(&rows, &cols, &vals).unwrap();
        // The settle check runs after the bulk extend: everything settled.
        assert_eq!(m.npending(), 0);
        let total: u64 = m.extract_tuples().2.iter().sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn col_shadow_is_the_transpose_and_lazy() {
        let mut m = Matrix::<u64>::new(1 << 32, 1 << 20);
        m.accum_tuples(&[5, 5, 9, 5], &[1, 2, 2, 2], &[10, 20, 30, 5])
            .unwrap();
        assert!(!m.has_col_shadow());
        let shadow = m.col_shadow();
        assert!(m.has_col_shadow());
        assert_eq!((shadow.nrows(), shadow.ncols()), (1 << 20, 1 << 32));
        // Shadow "rows" are the matrix's columns, duplicates combined.
        assert_eq!(shadow.row(2), Some((&[5u64, 9][..], &[25u64, 30][..])));
        assert_eq!(shadow.row(1), Some((&[5u64][..], &[10u64][..])));
        assert_eq!(shadow.row(7), None);
        // Cached: a second call hands out the same structure.
        assert!(Arc::ptr_eq(&shadow, &m.col_shadow()));
        // Clones share the twin; settling the original merges the batch
        // into the original's own copy and leaves the clone's (and the
        // reader's `shadow`) as they were.
        let clone = m.clone();
        assert!(clone.has_col_shadow());
        m.accum_element(9, 1, 1).unwrap();
        m.wait();
        assert!(m.has_col_shadow());
        let kept = m.col_shadow();
        assert_eq!(kept.raw_parts(), m.dcsr().transposed().raw_parts());
        assert_eq!(kept.row(1), Some((&[5u64, 9][..], &[10u64, 1][..])));
        assert_eq!(shadow.row(1), Some((&[5u64][..], &[10u64][..])));
        assert!(Arc::ptr_eq(&shadow, &clone.clone().col_shadow()));
        // Clearing drops it.
        m.clear();
        assert!(!m.has_col_shadow());
        assert_eq!(m.col_shadow().nvals(), 0);
    }

    #[test]
    fn col_shadow_kept_by_matrix_accum_when_the_source_holds_one() {
        let mut a = Matrix::<u64>::new(100, 100);
        a.accum_element(1, 3, 7).unwrap();
        let _ = a.col_shadow();
        let mut b = Matrix::<u64>::new(100, 100);
        b.accum_element(2, 3, 5).unwrap();
        // A source without a twin costs the destination its own.
        a.accum_matrix(&b).unwrap();
        assert!(!a.has_col_shadow());
        assert_eq!(
            a.col_shadow().row(3),
            Some((&[1u64, 2][..], &[7u64, 5][..]))
        );
        // Twin merges into twin.
        let _ = b.col_shadow();
        b.accum_element(4, 3, 1).unwrap();
        b.wait();
        a.accum_matrix(&b).unwrap();
        assert!(a.has_col_shadow());
        let kept = a.col_shadow();
        assert_eq!(kept.raw_parts(), a.dcsr().transposed().raw_parts());
        assert_eq!(kept.row(3), Some((&[1u64, 2, 4][..], &[7u64, 10, 1][..])));
    }

    #[test]
    fn invariants_hold_after_waits() {
        let mut m = Matrix::<i64>::new(1 << 20, 1 << 20);
        for i in 0..1000i64 {
            let r = (i * 7919 % 1000) as u64;
            let c = (i * 104729 % 1000) as u64;
            m.accum_element(r, c, i).unwrap();
            if i % 100 == 0 {
                m.wait();
                m.check_invariants().unwrap();
            }
        }
        m.wait();
        m.check_invariants().unwrap();
    }
}
