//! The hierarchical hypersparse matrix itself.

use crate::config::HierConfig;
use crate::fold::BatchFold;
use crate::persist::{self, manifest, recover, wal, DurableConfig, DurableState, RecoveryReport};
use crate::stats::HierStats;
use hyperstream_graphblas::cursor::{for_each_merged, merge_levels, merged_nnz};
use hyperstream_graphblas::degree_index::FxBuildHasher;
use hyperstream_graphblas::formats::coo::RADIX_DIM_MAX;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::formats::MemoryFootprint;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::monoid::PlusMonoid;
use hyperstream_graphblas::ops::reduce::reduce_scalar;
use hyperstream_graphblas::sink::check_tuple_lengths;
use hyperstream_graphblas::{
    validate_index, DegreeIndex, DegreeIndexView, GrbError, GrbResult, Index, LevelStore, Matrix,
    MatrixSnapshot, ScalarType, StreamingSink,
};
use std::collections::HashSet;
use std::sync::Arc;

/// An N-level hierarchical hypersparse matrix accumulating under `+`.
///
/// See the [crate-level documentation](crate) for the algorithm and an
/// example.  The accumulation operator is the `Plus` monoid of the scalar
/// type (logical OR for `bool`), matching the paper's usage; the linearity
/// guarantees the paper emphasises hold because cascades are ordinary
/// GraphBLAS `ewise_add` calls.
///
/// Alongside the levels the matrix maintains an incremental
/// [`DegreeIndex`]: every level-0 settle asks the matrix's one cell oracle
/// which cells of its sorted, deduplicated batch are new to the union and
/// feeds the index the answer (cascades move cells between levels without
/// changing the represented union, so they cost the index nothing), which
/// turns `read_nnz` / `read_row_degree` / `read_row_reduce` into O(1)
/// answers and `read_top_k` into an O(k) answer off a cache of the top 128
/// ranks that the same settle keeps current: degrees only grow, so a row
/// the batch did not touch cannot overtake anything, and a touched row
/// enters exactly when it now outranks the cache's last entry.  The first
/// ranking read after a batch therefore costs what later ones do, not a
/// scan of every row; only `k > 128` and the degree histogram still
/// rebuild (O(rows)) on the first read after a mutation.  The shared read
/// path ([`hyperstream_graphblas::level_read`]) re-derives every indexed
/// answer from a cursor sweep in debug builds.
///
/// The *column* read path mirrors all of this through the transpose: a
/// second, lazily-activated [`DegreeIndex`] keyed by column (fed by the
/// same settle observer: the batch's columns and the same oracle answers)
/// serves in-degree / in-degree-top-k / in-degree-histogram in O(1)/O(k),
/// and per-level column twins ([`Matrix::col_shadow`]) serve column
/// extracts and column-range scans in O(k) per level.  A twin is built by
/// the first column read of its level — one radix pass per varying 11-bit
/// column digit plus a gather over the level's entries — and from then on
/// rides the settle: each level-0 batch merges into level 0's twin
/// transposed and a cascade merges twin into twin, so a column read after
/// a batch finds every twin current.  Only a cascade into an *empty* level
/// (the two swap structures) and a cleared source drop theirs.  Cascades
/// are union-preserving so they cost the column *index* nothing.
#[derive(Debug)]
pub struct HierMatrix<T> {
    nrows: Index,
    ncols: Index,
    config: HierConfig,
    levels: Vec<Matrix<T>>,
    /// Raw tuples appended to level 0 since its last settle.  At least
    /// `levels[0].npending()`, which counts a folded batch's distinct
    /// cells only; the cascade trigger counts these, so settles and
    /// cascades fall on the batches they would without the fold.
    raw_pending: usize,
    /// The in-batch duplicate fold in front of level 0 (see [`crate::fold`]);
    /// empty between calls.
    fold: BatchFold<T>,
    stats: HierStats,
    degrees: Degrees<T>,
    /// Durable backing (WAL + checkpointed level files), present only for
    /// matrices created through [`HierMatrix::new_durable`] /
    /// [`HierMatrix::open`].  See [`crate::persist`].  Boxed: the
    /// bookkeeping is cold beside the levels and most matrices have none.
    durable: Option<Box<DurableState>>,
}

/// A clone is a detached in-memory copy: it shares no durable directory
/// with the original (two writers to one WAL would corrupt it), so the
/// clone's `durable` state is `None` regardless of the source's.
impl<T: Clone> Clone for HierMatrix<T> {
    fn clone(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            config: self.config.clone(),
            levels: self.levels.clone(),
            raw_pending: self.raw_pending,
            fold: BatchFold::new(),
            stats: self.stats.clone(),
            degrees: self.degrees.clone(),
            durable: None,
        }
    }
}

/// Pack a `(row, col)` coordinate into the cell-oracle key.  Dimensions are
/// capped at `2^60`, so both halves fit.
#[inline]
fn cell_key(row: Index, col: Index) -> u128 {
    ((row as u128) << 64) | col as u128
}

/// The row and the column [`DegreeIndex`] and the one cell oracle that
/// feeds both: whether a settled cell is new to the represented union is
/// one question with one answer for both axes, so it is asked once.
/// Both sides start inactive and the oracle empty (pure ingest pays
/// nothing); the first degree question on a side activates it and, if the
/// other is not live yet, fills the oracle in the same sweep — so the
/// oracle is complete exactly while a side is active.
#[derive(Debug, Clone, Default)]
struct Degrees<T> {
    /// Every distinct cell of the represented union, while a side is active.
    cells: HashSet<u128, FxBuildHasher>,
    /// Per cell of the batch being observed: did the union grow?
    grew: Vec<bool>,
    rows: DegreeIndex<T>,
    cols: DegreeIndex<T>,
}

impl<T: ScalarType> Degrees<T> {
    fn is_live(&self) -> bool {
        self.rows.is_active() || self.cols.is_active()
    }

    /// The settle observer: `rows / cols / vals` are cells about to merge
    /// into a level, duplicate-free, values combined under `+`.  One oracle
    /// probe per cell; each active side then folds its own coordinate.
    fn observe(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) {
        if !self.is_live() {
            return;
        }
        let cells = &mut self.cells;
        self.grew.clear();
        self.grew.extend(
            rows.iter()
                .zip(cols)
                .map(|(&r, &c)| cells.insert(cell_key(r, c))),
        );
        self.rows.observe(rows, vals, &self.grew);
        self.cols.observe(cols, vals, &self.grew);
    }

    /// Make one side live over the settled `levels`: one deduplicated sweep
    /// (a cell that sits in several levels arrives once, its values
    /// summed), every cell new to that side's index, which also fills the
    /// oracle unless the other side already keeps it complete.
    fn activate(&mut self, by_col: bool, levels: &[&Dcsr<T>]) {
        const CHUNK: usize = 4096;
        let fill = !self.is_live();
        let (rows, cols) = (&mut self.rows, &mut self.cols);
        let index = if by_col { cols } else { rows };
        index.activate();
        if fill {
            // The union holds at least what its largest level holds.
            let largest = levels.iter().map(|d| d.nvals()).max();
            self.cells.reserve(largest.unwrap_or(0));
        }
        // Staged a few thousand cells at a time, so that the oracle and the
        // index are each filled in a loop of their own: nearly every probe
        // misses the cache, and only back to back do the misses overlap.
        let key = |cell: &(Index, Index, T)| if by_col { cell.1 } else { cell.0 };
        let mut staged = Vec::with_capacity(CHUNK);
        let mut unload = |staged: &mut Vec<(Index, Index, T)>| {
            if fill {
                self.cells
                    .extend(staged.iter().map(|&(r, c, _)| cell_key(r, c)));
            }
            // A run of equal keys (a whole row, on the row side) is one update.
            let mut rest = &staged[..];
            while let Some(first) = rest.first() {
                let run = rest.iter().take_while(|cell| key(cell) == key(first));
                let (n, weight) =
                    run.fold((0, T::default()), |(n, w), cell| (n + 1, w.add(cell.2)));
                index.add_unique_row(key(first), n as u64, weight);
                rest = &rest[n..];
            }
            staged.clear();
        };
        for_each_merged(levels, Plus, &mut |r, c, v| {
            staged.push((r, c, v));
            if staged.len() == CHUNK {
                unload(&mut staged);
            }
        });
        unload(&mut staged);
    }

    /// Forget everything and deactivate both sides (the matrix was cleared;
    /// the next degree question re-activates over what is there then).
    fn clear(&mut self) {
        self.cells = HashSet::default();
        self.rows.clear();
        self.cols.clear();
    }

    /// Bytes held: both indexes' tables, and the oracle once.
    fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u128>()
            + self.grew.capacity()
            + self.rows.memory_bytes()
            + self.cols.memory_bytes()
    }
}

/// Clean shutdown flushes the WAL tail to stable storage, so the next
/// open never sees a torn tail after an orderly drop, and unlinks the files
/// a cascade's checkpoint retired if no later call got to it.  Errors are
/// swallowed — a failing disk at drop time has nowhere to report to, and
/// recovery handles the resulting state anyway.
impl<T> Drop for HierMatrix<T> {
    fn drop(&mut self) {
        if let Some(d) = self.durable.as_mut() {
            let _ = d.wal.sync();
            d.remove_retired();
        }
    }
}

impl<T: ScalarType> HierMatrix<T> {
    /// Create an empty hierarchical matrix.
    pub fn new(nrows: Index, ncols: Index, config: HierConfig) -> GrbResult<Self> {
        let n_levels = config.levels();
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            // Disable the per-matrix automatic wait: the hierarchy itself is
            // the batching policy.
            levels.push(Matrix::try_new(nrows, ncols)?.with_pending_limit(usize::MAX));
        }
        Ok(Self {
            nrows,
            ncols,
            stats: HierStats::new(n_levels),
            config,
            levels,
            raw_pending: 0,
            fold: BatchFold::new(),
            degrees: Degrees::default(),
            durable: None,
        })
    }

    /// Create with the default (paper) cut schedule.
    pub fn with_default_config(nrows: Index, ncols: Index) -> GrbResult<Self> {
        Self::new(nrows, ncols, HierConfig::default())
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// The cut configuration.
    pub fn config(&self) -> &HierConfig {
        &self.config
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// Reset instrumentation counters (matrix contents are unchanged).
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::new(self.levels.len());
    }

    /// Apply one streaming update `A(row, col) += val`.
    ///
    /// Logged in [`HierMatrix::update_batch`]'s order (append, log, take
    /// back on `Err`) although one tuple has nothing to fold: one order
    /// means one roll-back, which the single-update crash properties drive.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        let appended_from = self.levels[0].npending();
        self.levels[0].accum_element(row, col, val)?;
        self.wal_log_appended(appended_from)?;
        self.raw_pending += 1;
        self.stats.updates += 1;
        self.mark_dirty(0);
        self.maybe_cascade()?;
        Ok(())
    }

    /// Apply a batch of updates given as parallel slices.
    ///
    /// The whole batch takes the bulk path: one validation pass, one
    /// append to the level-0 pending buffer, and one cascade check — which
    /// mirrors how the paper's benchmark feeds 100,000-edge sets into `A_1`.
    /// The batch applies atomically: on mismatched slice lengths or any
    /// invalid index nothing is logged and nothing is inserted.
    ///
    /// Where the packed `row << 32 | col` key exists (both dimensions at
    /// most `2^32`) the append goes through the in-batch duplicate fold
    /// ([`crate::fold`]): a batch whose prefix repeats cells reaches level
    /// 0 as its distinct cells, each carrying the `+` of its repeats.
    /// Integer weights wrap exactly as they would unfolded; `f64` weights
    /// agree up to reassociation (a cell's repeats inside one batch are
    /// summed before they meet the cell's earlier tuples).
    ///
    /// A durable matrix logs **what level 0 kept** of the batch — its
    /// distinct cells where the fold engaged, its raw tuples where it did
    /// not — as one WAL frame, after the append and before statistics,
    /// cascade or checkpoint learn of the batch.  If the log refuses the
    /// frame the appended tuples are cut off level 0 again, so the batch is
    /// still atomic and still never acknowledged before it is logged (the
    /// argument is in [`crate::persist`]).
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        // The one check a batch gets, before anything changes: it serves
        // the fold, the raw append and the WAL (replay must be able to
        // apply every record).  Two branch-free maximum scans.
        check_tuple_lengths(rows, cols, vals)?;
        if let (Some(&max_row), Some(&max_col)) = (rows.iter().max(), cols.iter().max()) {
            validate_index(max_row, self.nrows)?;
            validate_index(max_col, self.ncols)?;
        }
        let appended_from = self.levels[0].npending();
        if self.nrows <= RADIX_DIM_MAX && self.ncols <= RADIX_DIM_MAX {
            self.fold.append(&mut self.levels[0], rows, cols, vals)?;
        } else {
            self.levels[0].accum_tuples(rows, cols, vals)?;
        }
        self.wal_log_appended(appended_from)?;
        self.raw_pending += rows.len();
        self.stats.updates += rows.len() as u64;
        self.mark_dirty(0);
        self.maybe_cascade()?;
        Ok(())
    }

    /// Apply a whole update matrix: `A_1 = A_1 ⊕ A` (the paper's formulation).
    ///
    /// The matrix's distinct cells are one [`HierMatrix::update_batch`]: the
    /// same validation, append, log order and roll-back, and the degree
    /// indexes see them at the same settle as any batch's.
    pub fn update_matrix(&mut self, a: &Matrix<T>) -> GrbResult<()> {
        if a.nrows() != self.nrows || a.ncols() != self.ncols {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "update matrix is {}x{}, hierarchy is {}x{}",
                    a.nrows(),
                    a.ncols(),
                    self.nrows,
                    self.ncols
                ),
            });
        }
        let (rows, cols, vals) = a.extract_tuples();
        self.update_batch(&rows, &cols, &vals)
    }

    /// Upper bound on the number of stored entries at level `i`
    /// (exact for settled levels; level 0's pending tuples count before
    /// they collapse with each other across batches and with settled cells).
    pub fn level_entries_bound(&self, level: usize) -> usize {
        self.levels[level].nvals_settled() + self.levels[level].npending()
    }

    /// Per-level entry bounds, useful for inspecting the cascade state.
    pub fn entries_per_level(&self) -> Vec<usize> {
        (0..self.levels.len())
            .map(|i| self.level_entries_bound(i))
            .collect()
    }

    /// Per-level memory footprints.
    pub fn memory_per_level(&self) -> Vec<MemoryFootprint> {
        self.levels.iter().map(|l| l.memory()).collect()
    }

    /// Total bytes across all levels, including the degree indexes' tables,
    /// the cell oracle they share (counted once) and the batch fold's index.
    pub fn memory_bytes(&self) -> usize {
        self.memory_per_level()
            .iter()
            .map(|m| m.total())
            .sum::<usize>()
            + self.fold.memory_bytes()
            + self.degrees.memory_bytes()
    }

    /// Sum of all stored values (in `f64`), computable without materialising
    /// because summation is linear across levels.
    pub fn total_weight(&self) -> u64 {
        self.total_weight_f64().round() as u64
    }

    /// Sum of all stored values without integer rounding, for scalar types
    /// with fractional weights.
    pub fn total_weight_f64(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| reduce_scalar(l, PlusMonoid).to_f64())
            .sum::<f64>()
    }

    /// Materialise the full matrix `A = Σ_i A_i` (the paper's query step).
    ///
    /// The hierarchy itself is left untouched, so streaming can continue
    /// afterwards; only the statistics record the materialisation.
    pub fn materialize(&mut self) -> Matrix<T> {
        self.stats.materializations += 1;
        self.materialize_ref()
    }

    /// Materialise without touching statistics (usable through `&self`).
    ///
    /// The settled level structures merge through the k-way cursor kernel
    /// in one pass — a single output allocation instead of the old
    /// per-level `ewise_add` loop that rewrote the accumulator L times —
    /// and any pending level-0 tuples fold in afterwards.
    pub fn materialize_ref(&self) -> Matrix<T> {
        let dcsrs: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
        let merged =
            merge_levels(self.nrows, self.ncols, &dcsrs, Plus).expect("levels share dimensions");
        let mut acc = Matrix::from_dcsr(merged);
        self.fold_pending_into(&mut acc);
        acc
    }

    /// The settled DCSR structure of every level, lowest first (pending
    /// level-0 tuples are *not* included — see
    /// [`HierMatrix::fold_pending_into`]).
    pub(crate) fn level_dcsrs(&self) -> impl Iterator<Item = &Dcsr<T>> {
        self.levels.iter().map(|l| l.dcsr())
    }

    /// Fold every level's pending tuples into `acc` — the companion of
    /// [`HierMatrix::level_dcsrs`] for read paths that merge settled
    /// structures first.
    pub(crate) fn fold_pending_into(&self, acc: &mut Matrix<T>) {
        let mut any = false;
        for level in &self.levels {
            let (r, c, v) = level.pending_parts();
            if !r.is_empty() {
                acc.accum_tuples(r, c, v)
                    .expect("pending tuples are within bounds");
                any = true;
            }
        }
        if any {
            acc.wait();
        }
    }

    /// Settle level `i`'s pending tuples through the degree-index observer:
    /// the sorted, in-batch-deduplicated pending batch is exactly the settle
    /// dedup-unpack event the index maintains itself on.  Every settle in
    /// the hierarchy routes through here so the index never misses a cell.
    fn settle_level(&mut self, i: usize) {
        if self.levels[i].npending() == 0 {
            return;
        }
        crate::failpoint_panic!("hier-settle");
        let degrees = &mut self.degrees;
        self.levels[i].wait_observed(&mut |rows, cols, vals| degrees.observe(rows, cols, vals));
        if i == 0 {
            self.raw_pending = 0;
        }
    }

    /// Settle every level's pending tuples in place (cheap — only level 0
    /// can hold pending data, and it is cache resident by construction).
    /// The represented matrix is unchanged; afterwards the level DCSRs are
    /// the complete content, which is what the cursor queries walk.
    pub(crate) fn settle_levels(&mut self) {
        for i in 0..self.levels.len() {
            self.settle_level(i);
        }
    }

    /// Settle everything and make sure one side's degree index (`by_col`:
    /// the column side's) is live.  The first degree question of a side
    /// lands here and activates it ([`Degrees::activate`]); every later
    /// settle maintains it incrementally through the observer.
    fn ensure_degrees(&mut self, by_col: bool) {
        self.settle_levels();
        let d = &self.degrees;
        let active = if by_col { &d.cols } else { &d.rows }.is_active();
        if !active {
            let levels: Vec<&Dcsr<T>> = self.levels.iter().map(|l| l.dcsr()).collect();
            self.degrees.activate(by_col, &levels);
        }
    }

    /// Settle (through the index observers) and return each level's column
    /// twin.  Settling first matters: [`Matrix::col_shadow`] runs a plain
    /// *unobserved* settle internally, which would bypass the degree
    /// indexes — after [`HierMatrix::settle_levels`] that internal wait is
    /// a no-op.  Twins are lazily built per level and then kept current by
    /// the settles and cascades themselves, so only a level that was
    /// swapped or cleared since the last column read is transposed here.
    pub(crate) fn settled_col_shadows(&mut self) -> Vec<Arc<Dcsr<T>>> {
        self.settle_levels();
        self.levels.iter_mut().map(|l| l.col_shadow()).collect()
    }

    /// Exact number of stored entries of the represented matrix.
    ///
    /// Settled hierarchies are counted through the merged cursors without
    /// materialising; only when pending tuples exist does this fall back to
    /// a materialisation pass (use the
    /// [`MatrixReader`](hyperstream_graphblas::MatrixReader) interface to settle
    /// and avoid even that).
    pub fn nvals_exact(&self) -> usize {
        if self.levels.iter().all(|l| l.npending() == 0) {
            if self.degrees.is_live() {
                // Everything settled has passed through the oracle.
                self.degrees.cells.len()
            } else {
                let dcsrs: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
                merged_nnz(&dcsrs)
            }
        } else {
            self.materialize_ref().nvals()
        }
    }

    /// Value of the represented matrix at `(row, col)`: the sum of the
    /// entry across all levels.
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        let mut acc: Option<T> = None;
        for level in &self.levels {
            if let Some(v) = level.get(row, col) {
                acc = Some(match acc {
                    Some(a) => a.add(v),
                    None => v,
                });
            }
        }
        acc
    }

    /// Push every entry up into the top level (complete all pending
    /// cascades), leaving levels `0..N-1` empty.  Useful before handing the
    /// matrix off for analysis or for checkpointing.
    ///
    /// Infallible today except under fault injection — the fallible
    /// signature is what lets a shard worker latch and report a flush
    /// failure instead of dropping it.
    pub fn flush(&mut self) -> GrbResult<()> {
        crate::failpoint!("hier-flush");
        let top = self.levels.len() - 1;
        for i in 0..top {
            let entries = self.level_entries_bound(i);
            if entries == 0 {
                continue;
            }
            self.cascade_level(i);
        }
        // A durable flush is also a checkpoint barrier: the flushed state
        // lands in level files and the WAL rotates empty, so a reopen
        // after a clean flush replays nothing.
        if self.durable.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Remove every stored entry from every level (dimensions and
    /// configuration are kept; statistics are reset).
    ///
    /// # Panics
    ///
    /// A durable matrix checkpoints the empty state immediately (the WAL
    /// has no delete records, so the old levels must be retired on the
    /// spot) and panics if that store write fails — an unpersisted clear
    /// would resurrect the deleted entries on the next open.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.raw_pending = 0;
        self.degrees.clear();
        self.reset_stats();
        if self.durable.is_some() {
            for i in 0..self.levels.len() {
                self.mark_dirty(i);
            }
            self.checkpoint()
                .expect("durable clear: checkpointing the empty state failed");
        }
    }

    /// Run the cascade check starting at level 0, exactly as in the paper:
    /// repeat while `nnz(A_i) > c_i` and `i < N`.
    ///
    /// The fill proxy for level 0 is the raw tuples appended since its
    /// last settle, duplicates included (however many of them the batch
    /// fold has already collapsed, so that the fold moves no settle); when
    /// the proxy trips the cut the level is first settled
    /// (cheap — it is cache resident by construction) and the *distinct*
    /// entry count decides whether a cascade really happens.  Duplicate-heavy
    /// streams therefore stay in fast memory, which is the behaviour the
    /// paper relies on for traffic matrices with heavy-hitter flows.
    fn maybe_cascade(&mut self) -> GrbResult<()> {
        let mut i = 0;
        let mut cascaded = false;
        while i + 1 < self.levels.len() {
            let cut = self
                .config
                .cut(i)
                .expect("every level below the top has a cut");
            let unsettled = if i == 0 {
                self.raw_pending
            } else {
                self.levels[i].npending()
            };
            if ((self.levels[i].nvals_settled() + unsettled) as u64) <= cut {
                break;
            }
            if self.levels[i].npending() > 0 {
                self.settle_level(i);
                if (self.levels[i].nvals_settled() as u64) <= cut {
                    break;
                }
            }
            self.cascade_level(i);
            cascaded = true;
            i += 1;
        }
        // Checkpoint when a cascade chain completes: level 0 is empty at
        // this point, so the settled levels are the complete state and
        // the WAL can rotate empty (cascade-as-compaction).  The files it
        // retires are unlinked by the next call, not on this slow batch.
        if cascaded && self.durable.is_some() {
            self.commit_checkpoint()?;
        }
        Ok(())
    }

    /// Unconditionally cascade level `i` into level `i + 1` and clear it.
    ///
    /// The merge is in place ([`Matrix::accum_matrix`]): the destination
    /// level's old structure becomes its scratch space for the next cascade
    /// and the source level keeps its buffer capacity, so steady-state
    /// cascading allocates nothing.  Into a destination that holds nothing
    /// there is nothing to merge: the two levels exchange their structures
    /// ([`Matrix::swap_settled`]) and no entry is copied — a `flush()`
    /// through empty upper levels used to copy the whole matrix once per
    /// level and leave each copy's buffers allocated behind it.
    fn cascade_level(&mut self, i: usize) {
        debug_assert!(i + 1 < self.levels.len());
        crate::failpoint_panic!("hier-cascade");
        // Settle level i first so the merge sees compressed data.  The
        // merge itself moves cells between levels without changing the
        // represented union, so the cascade costs the degree index nothing.
        self.settle_level(i);
        let moved = self.levels[i].nvals_settled() as u64;
        if moved == 0 {
            return;
        }
        let (src_levels, dst_levels) = self.levels.split_at_mut(i + 1);
        let (src, dst) = (&mut src_levels[i], &mut dst_levels[0]);
        if dst.is_empty() {
            dst.swap_settled(src)
        } else {
            dst.accum_matrix(src)
                .map(|()| src.clear_retaining_capacity())
        }
        .expect("levels share dimensions by construction");
        self.stats.cascades[i] += 1;
        self.stats.entries_moved[i] += moved;
        self.mark_dirty(i);
        self.mark_dirty(i + 1);
    }

    // ----- durability ---------------------------------------------------

    /// Create a durable matrix backed by a fresh store at `cfg.dir`.
    ///
    /// The directory is created if absent; an already-initialised store is
    /// refused ([`GrbError::InvalidValue`]) — reopen it with
    /// [`HierMatrix::open_with`] instead, so a typo'd path can never
    /// silently shadow existing data.
    pub fn new_durable(
        nrows: Index,
        ncols: Index,
        config: HierConfig,
        cfg: DurableConfig,
    ) -> GrbResult<Self> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| persist::io_err("create durable dir", e))?;
        if manifest::exists(&cfg.dir) {
            return Err(GrbError::InvalidValue(format!(
                "durable store at {} is already initialised; open it instead",
                cfg.dir.display()
            )));
        }
        let mut m = Self::new(nrows, ncols, config)?;
        let wal_gen = 1u64;
        let wal_path = cfg.dir.join(manifest::wal_file_name(wal_gen));
        let wal = wal::WalWriter::create(&wal_path, T::TYPE_TAG)?;
        let n_levels = m.levels.len();
        let entries = vec![manifest::LevelEntry { gen: 0, nnz: 0 }; n_levels];
        manifest::write(
            &cfg.dir,
            &manifest::Manifest {
                type_tag: T::TYPE_TAG,
                nrows,
                ncols,
                next_gen: 2,
                wal_gen,
                cuts: m.config.cuts().to_vec(),
                levels: entries.clone(),
            },
        )?;
        m.durable = Some(Box::new(DurableState {
            cfg,
            wal,
            wal_gen,
            next_gen: 2,
            levels: entries,
            dirty: vec![false; n_levels],
            report: None,
            level_buf: Vec::new(),
            retired: Vec::new(),
            retired_appends: 0,
            retired_syncs: 0,
        }));
        Ok(m)
    }

    /// Reopen a durable store with the default (strict, fsync-every-batch)
    /// configuration.  See [`HierMatrix::open_with`].
    pub fn open(dir: impl Into<std::path::PathBuf>) -> GrbResult<Self> {
        Self::open_with(DurableConfig::new(dir))
    }

    /// Reopen a durable store: load the checkpointed level files
    /// (O(levels) structural work — each settled level is one sequential
    /// read, never a per-entry re-ingest), truncate any torn WAL tail,
    /// replay the surviving WAL records, and resume logging.
    ///
    /// The dimensions and cut schedule come from the manifest; the scalar
    /// type must match the one the store was created with
    /// ([`GrbError::Corruption`] otherwise).  Inspect what recovery did
    /// via [`HierMatrix::recovery_report`].
    pub fn open_with(cfg: DurableConfig) -> GrbResult<Self> {
        let recovered = recover::open_dir::<T>(&cfg)?;
        let recover::Recovered {
            manifest: man,
            levels,
            records,
            wal_writer,
            mut report,
        } = recovered;
        let config = HierConfig::from_cuts(man.cuts.clone())?;
        let n_levels = levels.len();
        let mut m = Self {
            nrows: man.nrows,
            ncols: man.ncols,
            config,
            levels,
            raw_pending: 0,
            fold: BatchFold::new(),
            stats: HierStats::new(n_levels),
            degrees: Degrees::default(),
            durable: None,
        };
        // Replay the WAL on top of the checkpoint while `durable` is still
        // `None`: replay must not re-log records or trigger checkpoints,
        // and any cascades it causes stay in memory (⊕ is associative and
        // commutative, so the cascade schedule during replay need not match
        // the pre-crash one — the represented matrix is identical either
        // way).
        let replayed = report.wal_records_replayed > 0;
        for r in &records {
            m.update_batch(&r.rows, &r.cols, &r.vals)
                .map_err(|e| persist::corruption(format!("wal record failed to replay: {e}")))?;
        }
        report.wal_records_replayed = records.len() as u64;
        // Replay is reconstruction, not new ingest.
        m.reset_stats();
        // Replayed state diverges from the level files until the next
        // checkpoint; a corrupt-but-salvaged level must also be rewritten.
        let mut dirty = vec![replayed; n_levels];
        for &i in &report.corrupt_levels {
            dirty[i] = true;
        }
        m.durable = Some(Box::new(DurableState {
            cfg,
            wal: wal_writer,
            wal_gen: man.wal_gen,
            next_gen: man.next_gen,
            levels: man.levels,
            dirty,
            report: Some(report),
            level_buf: Vec::new(),
            retired: Vec::new(),
            retired_appends: 0,
            retired_syncs: 0,
        }));
        Ok(m)
    }

    /// Open the store at `cfg.dir` if initialised (validating that its
    /// dimensions and cut schedule match the requested ones), otherwise
    /// create it.
    pub fn open_or_create(
        nrows: Index,
        ncols: Index,
        config: HierConfig,
        cfg: DurableConfig,
    ) -> GrbResult<Self> {
        if manifest::exists(&cfg.dir) {
            let m = Self::open_with(cfg)?;
            if m.nrows != nrows || m.ncols != ncols {
                return Err(GrbError::InvalidValue(format!(
                    "durable store is {}x{}, requested {}x{}",
                    m.nrows, m.ncols, nrows, ncols
                )));
            }
            if m.config.cuts() != config.cuts() {
                return Err(GrbError::InvalidValue(
                    "durable store was created with a different cut schedule".into(),
                ));
            }
            Ok(m)
        } else {
            Self::new_durable(nrows, ncols, config, cfg)
        }
    }

    /// Whether this matrix persists to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What the recovery that produced this matrix observed (`None` for a
    /// non-durable or freshly created matrix).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().and_then(|d| d.report.as_ref())
    }

    /// WAL telemetry `(frames appended, fsyncs issued)` over this store's
    /// lifetime in this process, accumulated across checkpoint rotations;
    /// `None` for non-durable matrices.  Recorded in bench artifacts so a
    /// policy's *actual* sync behaviour is visible — e.g. `EveryN(64)`
    /// never reaching its threshold on a short stream, making it
    /// behaviourally identical to `Never` for that run.
    pub fn wal_telemetry(&self) -> Option<(u64, u64)> {
        self.durable.as_ref().map(|d| {
            (
                d.retired_appends + d.wal.appends(),
                d.retired_syncs + d.wal.syncs(),
            )
        })
    }

    /// Force the WAL tail to stable storage regardless of the configured
    /// [`FsyncPolicy`](crate::persist::FsyncPolicy) — a durability barrier
    /// for `EveryN`/`Never` stores.
    /// No-op on non-durable matrices.
    pub fn wal_sync(&mut self) -> GrbResult<()> {
        if let Some(d) = self.durable.as_mut() {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Checkpoint the settled levels to fresh files and rotate the WAL.
    ///
    /// Crash-consistency: every new file (dirty level files, the empty
    /// replacement WAL) is written and fsynced under a *fresh* generation
    /// number the old manifest does not reference, then the new manifest
    /// is committed via write-temp → fsync → rename → directory fsync.
    /// A crash anywhere before the rename leaves the old manifest naming
    /// the old, complete file set (the orphans are swept on reopen); the
    /// rename itself is atomic.  Only after the commit does the in-memory
    /// state swap and the old files retire, so an error at any point
    /// leaves `self` still consistently backed by the previous
    /// checkpoint + WAL.
    ///
    /// No-op on a non-durable matrix; called on [`HierMatrix::flush`] and
    /// [`HierMatrix::clear`], and when it returns the directory holds only
    /// what the manifest references.  A completed cascade chain triggers
    /// the same commit without the unlinks: the retired files stay queued
    /// until the next update call, `flush()`, `clear()`, `checkpoint()` or
    /// drop (a crash in between leaves what every reopen sweeps).
    pub fn checkpoint(&mut self) -> GrbResult<()> {
        self.commit_checkpoint()?;
        if let Some(d) = self.durable.as_mut() {
            d.remove_retired();
        }
        Ok(())
    }

    /// [`HierMatrix::checkpoint`] up to and including the manifest commit;
    /// the files it retires are queued in [`DurableState::retired`].
    fn commit_checkpoint(&mut self) -> GrbResult<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        // Compress pending tails so the level files carry everything.
        self.settle_levels();
        let d = self.durable.as_mut().expect("checked durable above");
        let dir = d.cfg.dir.clone();
        let mut next_gen = d.next_gen;
        // Build the new entry table locally; `self.durable` is swapped only
        // after the manifest commit succeeds.
        let mut new_entries = Vec::with_capacity(self.levels.len());
        for (i, level) in self.levels.iter().enumerate() {
            debug_assert_eq!(level.npending(), 0, "settled above");
            let nnz = level.nvals_settled() as u64;
            if !d.dirty[i] {
                new_entries.push(d.levels[i]);
                continue;
            }
            if nnz == 0 {
                new_entries.push(manifest::LevelEntry { gen: 0, nnz: 0 });
                continue;
            }
            let gen = next_gen;
            next_gen += 1;
            let name = manifest::level_file_name(gen);
            persist::format::write_level(&dir, &name, level.dcsr(), &mut d.level_buf)?;
            new_entries.push(manifest::LevelEntry { gen, nnz });
        }
        // Fresh empty WAL for the post-checkpoint tail.
        let new_wal_gen = next_gen;
        next_gen += 1;
        let wal_path = dir.join(manifest::wal_file_name(new_wal_gen));
        let new_wal = wal::WalWriter::create(&wal_path, T::TYPE_TAG)?;
        // The new files must be *named* durably before the manifest can
        // reference them.
        manifest::fsync_dir(&dir)?;
        // Commit point.
        let man = manifest::Manifest {
            type_tag: T::TYPE_TAG,
            nrows: self.nrows,
            ncols: self.ncols,
            next_gen,
            wal_gen: new_wal_gen,
            cuts: self.config.cuts().to_vec(),
            levels: new_entries.clone(),
        };
        manifest::write(&dir, &man)?;
        // Committed: swap in-memory state and queue the old generation's
        // files for removal (best-effort — reopen sweeps leftovers).
        let old_wal_gen = d.wal_gen;
        let old_entries = std::mem::replace(&mut d.levels, new_entries);
        let retired = std::mem::replace(&mut d.wal, new_wal);
        d.retired_appends += retired.appends();
        d.retired_syncs += retired.syncs();
        d.wal.inherit_buffer(retired);
        d.wal_gen = new_wal_gen;
        d.next_gen = next_gen;
        for flag in d.dirty.iter_mut() {
            *flag = false;
        }
        for (old, new) in old_entries.iter().zip(d.levels.iter()) {
            if old.gen != 0 && old.gen != new.gen {
                d.retired.push(dir.join(manifest::level_file_name(old.gen)));
            }
        }
        d.retired
            .push(dir.join(manifest::wal_file_name(old_wal_gen)));
        Ok(())
    }

    /// Mark level `i`'s committed file stale (no-op when not durable).
    fn mark_dirty(&mut self, i: usize) {
        if let Some(d) = self.durable.as_mut() {
            d.dirty[i] = true;
        }
    }

    /// Log the pending tuples this call appended to level 0 — everything
    /// from position `from` on — as one WAL frame, or take them back (no-op
    /// when not durable).
    ///
    /// The caller has already rejected everything the levels would (length
    /// mismatch, out-of-bounds indices), so the WAL never records a batch
    /// replay would refuse.  The append in turn refuses a batch too large
    /// for one frame and rolls a partial write back: on any `Err` the frame
    /// is not in the log, and cutting level 0 back to `from` (its sorted
    /// flag with it) takes the batch out of memory — nothing but the
    /// pending buffer has seen it yet.
    fn wal_log_appended(&mut self, from: usize) -> GrbResult<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        d.remove_retired();
        let (rows, cols, vals) = self.levels[0].pending_parts();
        let logged = d
            .wal
            .append(&rows[from..], &cols[from..], &vals[from..], d.cfg.fsync);
        if logged.is_err() {
            self.levels[0].truncate_pending(from);
        }
        logged
    }

    /// Take a consistent point-in-time snapshot: settles the cache-resident
    /// pending tuples (through the index observer), then captures Arc'd
    /// handles to every level plus a degree-index view — O(levels), no
    /// entry is copied.  The snapshot answers every
    /// [`MatrixReader`](hyperstream_graphblas::MatrixReader) query
    /// independently while this matrix keeps ingesting (subsequent settles
    /// and cascades copy-on-write their own structures).
    pub fn snapshot(&mut self) -> MatrixSnapshot<T> {
        self.ensure_degrees(false);
        // Column stats ride along only when the column index is already
        // live — snapshotting must not defeat its lazy activation.  A
        // snapshot without the view still answers column queries off its
        // own lazily-built merged twin.
        let cols = &self.degrees.cols;
        let col_view = cols.is_active().then(|| cols.view());
        MatrixSnapshot::new(
            "hier-graphblas-snapshot",
            self.nrows,
            self.ncols,
            self.levels.iter().map(|l| l.settled_arc()).collect(),
            (&[], &[], &[]),
            Some(self.degrees.rows.view()),
        )
        .with_col_index(col_view)
    }

    /// Snapshot through `&self`: the settled levels share as in
    /// [`HierMatrix::snapshot`] and any not-yet-settled pending tuples are
    /// *copied* as the snapshot's tail level.  When a tail exists the
    /// snapshot's degree answers fall back to cursor sweeps (the index has
    /// not seen those cells yet).
    pub fn snapshot_ref(&self) -> MatrixSnapshot<T> {
        let (mut tr, mut tc, mut tv) = (Vec::new(), Vec::new(), Vec::new());
        for level in &self.levels {
            let (r, c, v) = level.pending_parts();
            tr.extend_from_slice(r);
            tc.extend_from_slice(c);
            tv.extend_from_slice(v);
        }
        let view = |ix: &DegreeIndex<T>| (tr.is_empty() && ix.is_active()).then(|| ix.view());
        let (index, col_view) = (view(&self.degrees.rows), view(&self.degrees.cols));
        MatrixSnapshot::new(
            "hier-graphblas-snapshot",
            self.nrows,
            self.ncols,
            self.levels.iter().map(|l| l.settled_arc()).collect(),
            (&tr, &tc, &tv),
            index,
        )
        .with_col_index(col_view)
    }
}

/// The paper's insert path: `insert` feeds level 0 and runs the cascade
/// check, `flush` completes all outstanding cascades.
impl<T: ScalarType> StreamingSink<T> for HierMatrix<T> {
    fn sink_name(&self) -> &str {
        "hier-graphblas"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.update(row, col, val)
    }

    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        self.update_batch(rows, cols, vals)
    }

    fn flush(&mut self) -> GrbResult<()> {
        HierMatrix::flush(self)
    }

    fn nvals(&self) -> usize {
        self.nvals_exact()
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

/// The paper's query path: the settled levels (the cache-resident pending
/// buffers settle first) are the hierarchy's level list, the per-level
/// column shadows its twins, and the two incremental [`DegreeIndex`]es its
/// stats — so nnz, degree, reduce, top-k and the histograms are O(1)/O(k)
/// on both sides.  Every `read_*` body is the shared one.
impl<T: ScalarType> LevelStore for HierMatrix<T> {
    type Value = T;

    fn store_name(&self) -> &str {
        "hier-graphblas"
    }

    fn store_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        self.settle_levels();
        let levels: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
        f(&levels)
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<T>]) -> R) -> R {
        let shadows = self.settled_col_shadows();
        let twins: Vec<&Dcsr<T>> = shadows.iter().map(|s| s.as_ref()).collect();
        f(&twins)
    }

    fn row_stats(&mut self) -> Option<&mut DegreeIndexView<T>> {
        self.ensure_degrees(false);
        Some(self.degrees.rows.view_mut())
    }

    fn col_stats(&mut self) -> Option<&mut DegreeIndexView<T>> {
        self.ensure_degrees(true);
        Some(self.degrees.cols.view_mut())
    }

    /// Per-level gets fold pending tuples in directly; no settle needed.
    fn point_get(&mut self, row: Index, col: Index) -> Option<T> {
        self.get(row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperstream_graphblas::cursor::*;
    use hyperstream_graphblas::MatrixReader;
    use std::path::{Path, PathBuf};

    fn small_config() -> HierConfig {
        HierConfig::from_cuts(vec![8, 64, 512]).unwrap()
    }

    #[test]
    fn construction() {
        let m = HierMatrix::<u64>::new(1 << 32, 1 << 32, small_config()).unwrap();
        assert_eq!(m.levels(), 4);
        assert_eq!(m.nrows(), 1 << 32);
        assert_eq!(m.entries_per_level(), vec![0; 4]);
        assert_eq!(m.stats().updates, 0);
    }

    #[test]
    fn single_updates_accumulate() {
        let mut m = HierMatrix::<u64>::new(100, 100, small_config()).unwrap();
        m.update(3, 4, 2).unwrap();
        m.update(3, 4, 5).unwrap();
        m.update(9, 9, 1).unwrap();
        assert_eq!(m.get(3, 4), Some(7));
        assert_eq!(m.get(9, 9), Some(1));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.stats().updates, 3);
        assert_eq!(m.total_weight(), 8);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = HierMatrix::<u64>::new(10, 10, small_config()).unwrap();
        assert!(m.update(10, 0, 1).is_err());
        assert!(m.update_batch(&[1, 20], &[1, 1], &[1, 1]).is_err());
        assert!(m.update_batch(&[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn a_rejected_batch_changes_nothing() {
        // A batch long enough to fold, with repeats for the sample to find.
        let n = 3 * crate::fold::SAMPLE as u64;
        let good: Vec<u64> = (0..n).map(|i| i % 500).collect();
        let dir = std::env::temp_dir().join(format!("hyperstream-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = |dim: u64, sub: &str| {
            let cfg = DurableConfig::new(dir.join(sub)).fsync(persist::FsyncPolicy::Never);
            HierMatrix::<u64>::new_durable(dim, dim, small_config(), cfg).unwrap()
        };
        // 2^32 takes the folded path, 2^40 (no packed key) the raw one.
        for (dim, sub) in [(1u64 << 32, "folded"), (1 << 40, "raw")] {
            let memory = HierMatrix::<u64>::new(dim, dim, small_config()).unwrap();
            for mut m in [memory, durable(dim, sub)] {
                m.update_batch(&good, &good, &good).unwrap();
                let observe = |m: &HierMatrix<u64>| {
                    let levels: Vec<_> = m
                        .levels
                        .iter()
                        .map(|l| (l.extract_tuples(), l.npending()))
                        .collect();
                    let stats = m.stats().clone();
                    (
                        m.nvals_exact(),
                        m.total_weight(),
                        stats,
                        m.wal_telemetry(),
                        levels,
                        m.raw_pending,
                    )
                };
                let before = observe(&m);
                // Out of range in the last position only.
                let mut bad = good.clone();
                *bad.last_mut().unwrap() = dim;
                assert!(m.update_batch(&bad, &good, &good).is_err());
                assert!(m.update_batch(&good, &bad, &good).is_err());
                // Mismatched lengths, each slice in turn.
                let short = &good[..good.len() - 1];
                assert!(m.update_batch(short, &good, &good).is_err());
                assert!(m.update_batch(&good, short, &good).is_err());
                assert!(m.update_batch(&good, &good, short).is_err());
                assert!(m.update(dim, 0, 1).is_err());
                assert_eq!(observe(&m), before, "dim {dim}, durable {}", m.is_durable());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cascades_happen_and_preserve_content() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        // 1000 distinct entries with small cuts forces multiple cascades.
        for i in 0..1000u64 {
            m.update(i % 777, (i * 13) % 991, 1).unwrap();
        }
        assert!(m.stats().cascades_from_level(0) > 0, "no level-0 cascades");
        assert!(m.stats().total_cascades() > 0);
        // Content must be identical to a flat accumulation.
        let mut flat = Matrix::<u64>::new(1 << 20, 1 << 20);
        for i in 0..1000u64 {
            flat.accum_element(i % 777, (i * 13) % 991, 1).unwrap();
        }
        flat.wait();
        let materialized = m.materialize();
        assert_eq!(materialized.nvals(), flat.nvals());
        assert_eq!(materialized.extract_tuples(), flat.extract_tuples());
    }

    #[test]
    fn cascade_equivalence_under_duplicate_heavy_stream() {
        // Heavy duplication: many updates to few cells, exercising value
        // accumulation across cascade boundaries.
        let mut m = HierMatrix::<u64>::new(64, 64, small_config()).unwrap();
        let mut flat = Matrix::<u64>::new(64, 64);
        for i in 0..5000u64 {
            let (r, c) = (i % 5, (i / 5) % 5);
            m.update(r, c, 1).unwrap();
            flat.accum_element(r, c, 1).unwrap();
        }
        flat.wait();
        let snap = m.materialize();
        assert_eq!(snap.extract_tuples(), flat.extract_tuples());
        assert_eq!(m.total_weight(), 5000);
    }

    #[test]
    fn batch_updates_equivalent_to_singles() {
        let cfg = small_config();
        let rows: Vec<u64> = (0..300).map(|i| i % 41).collect();
        let cols: Vec<u64> = (0..300).map(|i| (i * 7) % 53).collect();
        let vals: Vec<u64> = (0..300).map(|i| i % 3 + 1).collect();

        let mut a = HierMatrix::<u64>::new(100, 100, cfg.clone()).unwrap();
        a.update_batch(&rows, &cols, &vals).unwrap();

        let mut b = HierMatrix::<u64>::new(100, 100, cfg).unwrap();
        for i in 0..rows.len() {
            b.update(rows[i], cols[i], vals[i]).unwrap();
        }
        assert_eq!(
            a.materialize().extract_tuples(),
            b.materialize().extract_tuples()
        );
        assert_eq!(a.stats().updates, b.stats().updates);
    }

    #[test]
    fn update_matrix_form() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        let upd = Matrix::from_tuples(
            1 << 16,
            1 << 16,
            &[1, 2, 3],
            &[1, 2, 3],
            &[5u64, 6, 7],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.get(1, 1), Some(10));
        assert_eq!(m.stats().updates, 6);

        let wrong = Matrix::<u64>::new(4, 4);
        assert!(m.update_matrix(&wrong).is_err());
    }

    #[test]
    fn flush_moves_everything_to_top() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..200u64 {
            m.update(i, i, 1).unwrap();
        }
        m.flush().unwrap();
        let per_level = m.entries_per_level();
        for (i, &n) in per_level.iter().enumerate() {
            if i + 1 < per_level.len() {
                assert_eq!(n, 0, "level {i} not empty after flush");
            } else {
                assert_eq!(n, 200);
            }
        }
        assert_eq!(m.total_weight(), 200);
    }

    #[test]
    fn materialize_does_not_disturb_streaming() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..100u64 {
            m.update(i, 0, 1).unwrap();
        }
        let snap1 = m.materialize();
        for i in 100..200u64 {
            m.update(i, 0, 1).unwrap();
        }
        let snap2 = m.materialize();
        assert_eq!(snap1.nvals(), 100);
        assert_eq!(snap2.nvals(), 200);
        assert_eq!(m.stats().materializations, 2);
    }

    #[test]
    fn clear_resets_contents_and_stats() {
        let mut m = HierMatrix::<u64>::new(100, 100, small_config()).unwrap();
        for i in 0..50u64 {
            m.update(i, i, 1).unwrap();
        }
        m.clear();
        assert_eq!(m.entries_per_level(), vec![0; 4]);
        assert_eq!(m.stats().updates, 0);
        assert_eq!(m.nvals_exact(), 0);
    }

    #[test]
    fn effectively_flat_config_never_cascades() {
        let mut m =
            HierMatrix::<u64>::new(1 << 20, 1 << 20, HierConfig::effectively_flat()).unwrap();
        for i in 0..1000u64 {
            m.update(i, i, 1).unwrap();
        }
        assert_eq!(m.stats().total_cascades(), 0);
        assert_eq!(m.nvals_exact(), 1000);
    }

    #[test]
    fn fast_update_fraction_high_for_duplicate_heavy_stream() {
        // When the stream repeatedly hits the same few cells, level 0
        // absorbs most weight and few entries cascade.
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..10_000u64 {
            m.update(i % 4, i % 4, 1).unwrap();
        }
        assert!(m.stats().fast_update_fraction() > 0.9);
    }

    #[test]
    fn memory_grows_with_entries() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        let before = m.memory_bytes();
        for i in 0..2000u64 {
            m.update(i, i, 1).unwrap();
        }
        assert!(m.memory_bytes() > before);
        assert_eq!(m.memory_per_level().len(), 4);
    }

    #[test]
    fn both_degree_sides_share_one_cell_oracle_counted_once() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        // 31 x 47 cells hit again and again: when a side activates, most
        // cells sit in several levels at once.
        for i in 0..2000u64 {
            m.update(i % 31, (i * 11) % 47, 1).unwrap();
        }
        assert!(m.entries_per_level().iter().sum::<usize>() > m.nvals_exact());
        assert_eq!(m.degrees.memory_bytes(), 0, "pure ingest builds no oracle");
        // Column side first: its sweep fills the oracle, deduplicated.
        let in_top = m.read_in_top_k(3);
        assert_eq!(in_top, m.with_levels(|lv| merged_in_top_k(lv, 3)));
        let nnz = m.with_levels(merged_nnz);
        assert_eq!((m.degrees.cells.len(), m.degrees.cols.nnz()), (nnz, nnz));
        let oracle = m.degrees.cells.capacity() * std::mem::size_of::<u128>();
        // The row side joins without touching it, and ingest keeps it one.
        assert_eq!(m.read_top_k(3), m.with_levels(|lv| merged_top_k(lv, 3)));
        assert_eq!(m.degrees.rows.nnz(), nnz);
        assert_eq!(
            oracle,
            m.degrees.cells.capacity() * std::mem::size_of::<u128>()
        );
        for i in 0..500u64 {
            m.update(i % 31, 100 + i % 7, 1).unwrap();
        }
        let nnz = m.read_nnz();
        assert_eq!(m.degrees.cells.len(), nnz);
        let d = &m.degrees;
        let sides = d.rows.memory_bytes() + d.cols.memory_bytes();
        let oracle = d.cells.capacity() * std::mem::size_of::<u128>();
        assert!(oracle > 0 && sides > 0);
        let levels: usize = m.memory_per_level().iter().map(|f| f.total()).sum();
        // Once: with an oracle inside each index this read `2 * oracle`.
        assert_eq!(
            m.memory_bytes(),
            levels + m.fold.memory_bytes() + sides + oracle + d.grew.capacity()
        );
        // `clear()` gives all of it back.
        m.clear();
        assert_eq!(m.degrees.cells.capacity(), 0);
    }

    #[test]
    fn streaming_sink_path_equals_native_path() {
        let mut native = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        let mut sink: Box<dyn StreamingSink<u64>> =
            Box::new(HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap());
        for i in 0..500u64 {
            native.update(i % 97, (i * 11) % 89, 1).unwrap();
            sink.insert(i % 97, (i * 11) % 89, 1).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "hier-graphblas");
        assert_eq!(sink.nvals(), native.nvals_exact());
        assert_eq!(sink.total_weight(), 500.0);
        assert_eq!(native.total_weight(), 500);
    }

    #[test]
    fn sink_flush_completes_cascades() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        StreamingSink::insert_batch(
            &mut m,
            &(0..100u64).collect::<Vec<_>>(),
            &(0..100u64).collect::<Vec<_>>(),
            &[1u64; 100],
        )
        .unwrap();
        StreamingSink::flush(&mut m).unwrap();
        let per_level = m.entries_per_level();
        for (i, &n) in per_level.iter().enumerate().take(per_level.len() - 1) {
            assert_eq!(n, 0, "level {i} not flushed");
        }
    }

    #[test]
    fn reader_matches_materialized_answers() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..2000u64 {
            m.update(i % 97, (i * 13) % 211, (i % 5) + 1).unwrap();
        }
        // Deliberately unflushed: entries sit in several levels plus the
        // level-0 pending buffer.
        let snap = m.materialize_ref();
        assert_eq!(m.read_nnz(), snap.nvals());
        let (er, ec, ev) = snap.extract_tuples();
        let mut gr = Vec::new();
        let mut gc = Vec::new();
        let mut gv = Vec::new();
        m.read_entries(&mut |r, c, v| {
            gr.push(r);
            gc.push(c);
            gv.push(v);
        });
        assert_eq!((gr, gc, gv), (er.clone(), ec, ev));
        // Row queries for a present and an absent row.
        let row = er[0];
        let mut got_row = Vec::new();
        m.read_row(row, &mut got_row);
        let (cols, vals) = snap.dcsr().row(row).unwrap();
        let expect_row: Vec<(u64, u64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        assert_eq!(got_row, expect_row);
        assert_eq!(m.read_row_degree(row), expect_row.len());
        assert_eq!(
            m.read_row_reduce(row),
            Some(expect_row.iter().map(|&(_, v)| v).sum())
        );
        m.read_row(1 << 19, &mut got_row);
        assert!(got_row.is_empty());
        assert_eq!(m.read_row_degree(1 << 19), 0);
        assert_eq!(m.read_row_reduce(1 << 19), None);
        assert_eq!(m.read_get(row, expect_row[0].0), Some(expect_row[0].1));
    }

    #[test]
    fn reader_top_k_matches_reference() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..500u64 {
            m.update(i % 23, (i * 7) % 200, 1).unwrap();
        }
        let snap = m.materialize_ref();
        let d = snap.dcsr();
        let mut expect: Vec<(u64, usize)> = (0..d.nrows_nonempty())
            .map(|k| (d.row_ids()[k], d.row_slot(k).0.len()))
            .collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in [0usize, 1, 5, 1000] {
            let mut e = expect.clone();
            e.truncate(k);
            assert_eq!(m.read_top_k(k), e, "k = {k}");
        }
    }

    #[test]
    fn nvals_exact_without_pending_uses_cursors() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..300u64 {
            m.update(i, i, 1).unwrap();
        }
        m.settle_levels();
        assert!(m.levels.iter().all(|l| l.npending() == 0));
        assert_eq!(m.nvals_exact(), 300);
        // With pending tuples the fallback still answers exactly.
        m.update(5, 5, 1).unwrap();
        assert_eq!(m.nvals_exact(), 300);
        m.update(1 << 15, 1, 1).unwrap();
        assert_eq!(m.nvals_exact(), 301);
    }

    #[test]
    fn index_answers_equal_sweep_fallbacks() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..3000u64 {
            m.update(i % 131, (i * 17) % 257, i % 7 + 1).unwrap();
        }
        // Mid-stream: entries sit across levels plus the pending buffer.
        assert_eq!(m.read_nnz(), m.with_levels(merged_nnz));
        for row in [0u64, 1, 77, 130, 131, 9999] {
            assert_eq!(
                m.read_row_degree(row),
                m.with_levels(|lv| merged_row_degree(lv, row)),
                "{row}"
            );
            assert_eq!(
                m.read_row_reduce(row),
                m.with_levels(|lv| merged_row_reduce(lv, row, Plus)),
                "{row}"
            );
        }
        for k in [0usize, 1, 8, 1000] {
            assert_eq!(
                m.read_top_k(k),
                m.with_levels(|lv| merged_top_k(lv, k)),
                "k = {k}"
            );
        }
        assert_eq!(
            m.read_degree_histogram(),
            m.with_levels(merged_degree_histogram)
        );
        // Flush (cascades everything to the top) must not disturb the index.
        m.flush().unwrap();
        assert_eq!(m.read_nnz(), m.with_levels(merged_nnz));
        assert_eq!(m.read_top_k(5), m.with_levels(|lv| merged_top_k(lv, 5)));
        // update_matrix path feeds the index too.
        let upd = Matrix::from_tuples(
            1 << 20,
            1 << 20,
            &[1, 500_000, 1],
            &[999, 0, 1000],
            &[2u64, 3, 4],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.read_nnz(), m.with_levels(merged_nnz));
        assert_eq!(m.read_row_degree(500_000), 1);
        // clear resets the index with the content.
        m.clear();
        assert_eq!(m.read_nnz(), 0);
        assert!(m.read_top_k(3).is_empty());
    }

    #[test]
    fn column_index_answers_equal_sweep_fallbacks() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..3000u64 {
            m.update(i % 131, (i * 17) % 257, i % 7 + 1).unwrap();
        }
        // Mid-stream: entries sit across levels plus the pending buffer.
        for col in [0u64, 1, 77, 200, 256, 257, 9999] {
            assert_eq!(
                m.read_col_degree(col),
                m.with_levels(|lv| merged_col_degree(lv, col)),
                "{col}"
            );
            assert_eq!(
                m.read_col_reduce(col),
                m.with_levels(|lv| merged_col_reduce(lv, col, Plus)),
                "col {col}"
            );
            let mut got = Vec::new();
            m.read_col(col, &mut got);
            let mut sweep = Vec::new();
            m.with_levels(|lv| merged_col_into(lv, col, Plus, &mut sweep));
            assert_eq!(got, sweep, "{col}");
        }
        for k in [0usize, 1, 8, 1000] {
            assert_eq!(
                m.read_in_top_k(k),
                m.with_levels(|lv| merged_in_top_k(lv, k)),
                "k = {k}"
            );
        }
        assert_eq!(
            m.read_in_degree_histogram(),
            m.with_levels(merged_in_degree_histogram)
        );
        // Flush (cascades everything to the top) must not disturb the
        // column index, and more ingest keeps it maintained incrementally.
        m.flush().unwrap();
        for i in 0..500u64 {
            m.update(i % 7 + 200_000, (i * 5) % 61, 1).unwrap();
        }
        assert_eq!(
            m.read_in_top_k(5),
            m.with_levels(|lv| merged_in_top_k(lv, 5))
        );
        assert_eq!(
            m.read_in_degree_histogram(),
            m.with_levels(merged_in_degree_histogram)
        );
        // update_matrix path feeds the column index too.
        let upd = Matrix::from_tuples(
            1 << 20,
            1 << 20,
            &[1, 500_000, 1],
            &[999, 999_999, 1000],
            &[2u64, 3, 4],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.read_col_degree(999_999), 1);
        assert_eq!(
            m.read_in_top_k(3),
            m.with_levels(|lv| merged_in_top_k(lv, 3))
        );
        // clear resets the column index with the content.
        m.clear();
        assert!(m.read_in_top_k(3).is_empty());
        assert_eq!(m.read_col_degree(0), 0);
    }

    #[test]
    fn column_reads_mirror_a_transposed_flat_matrix() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        let mut transposed = Matrix::<u64>::new(1 << 16, 1 << 16);
        for i in 0..1200u64 {
            let (r, c, v) = ((i * 13) % 400, (i * 7) % 90, i % 5 + 1);
            m.update(r, c, v).unwrap();
            transposed.accum_element(c, r, v).unwrap();
        }
        transposed.wait();
        for col in [0u64, 1, 44, 89, 90, 12345] {
            let mut got = Vec::new();
            m.read_col(col, &mut got);
            let expect: Vec<(u64, u64)> = transposed
                .dcsr()
                .row(col)
                .map(|(rs, vs)| rs.iter().copied().zip(vs.iter().copied()).collect())
                .unwrap_or_default();
            assert_eq!(got, expect, "col {col}");
            assert_eq!(m.read_col_degree(col), expect.len());
        }
        // Column-range scan is column-major and matches the transpose's
        // row-range scan with coordinates swapped back.
        for (lo, hi) in [(0u64, 30u64), (30, 31), (85, 1 << 16)] {
            let mut got = Vec::new();
            m.read_col_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
            let mut expect = Vec::new();
            transposed.read_row_range(lo, hi, &mut |c, r, v| expect.push((r, c, v)));
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn batched_reads_match_singles() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..900u64 {
            m.update(i % 50, (i * 3) % 70, 1).unwrap();
        }
        let rows = [0u64, 7, 49, 50, 60_000];
        let batch = m.read_rows(&rows);
        assert_eq!(batch.len(), rows.len());
        for (i, &row) in rows.iter().enumerate() {
            let mut single = Vec::new();
            m.read_row(row, &mut single);
            assert_eq!(batch[i], single, "row {row}");
        }
        let keys = [(0u64, 0u64), (7, 21), (49, 3), (50, 50), (60_000, 1)];
        let got = m.read_get_many(&keys);
        let expect: Vec<Option<u64>> = keys.iter().map(|&(r, c)| m.read_get(r, c)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn snapshot_carries_column_index_only_when_active() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..400u64 {
            m.update(i % 31, (i * 11) % 47, 1).unwrap();
        }
        // No column query yet: snapshot has row index only, but still
        // answers column queries via its own merged twin.
        let mut plain = m.snapshot();
        assert!(plain.has_index());
        assert!(!plain.has_col_index());
        let expect_top = m.with_levels(|lv| merged_in_top_k(lv, 4));
        assert_eq!(plain.read_in_top_k(4), expect_top);
        // Activate the column index, snapshot again: the view rides along
        // and survives further ingest on the source.
        let live_top = m.read_in_top_k(4);
        assert_eq!(live_top, expect_top);
        let mut indexed = m.snapshot();
        assert!(indexed.has_col_index());
        for i in 0..400u64 {
            m.update(i + 1000, 0, 1).unwrap();
        }
        assert_eq!(indexed.read_in_top_k(4), expect_top);
        assert!(m.read_col_degree(0) > indexed.read_col_degree(0));
    }

    #[test]
    fn read_row_range_matches_filtered_entries() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..800u64 {
            m.update((i * 13) % 500, i % 40, 1).unwrap();
        }
        let mut all = Vec::new();
        m.read_entries(&mut |r, c, v| all.push((r, c, v)));
        for (lo, hi) in [(0u64, 100u64), (100, 101), (250, 499), (600, 1 << 20)] {
            let mut got = Vec::new();
            m.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
            let expect: Vec<_> = all
                .iter()
                .copied()
                .filter(|&(r, _, _)| r >= lo && r < hi)
                .collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn snapshot_overlaps_with_ingest() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..500u64 {
            m.update(i % 97, (i * 3) % 211, 1).unwrap();
        }
        let frozen = m.materialize_ref();
        let mut snap = m.snapshot();
        assert!(snap.has_index());
        // Keep streaming: the snapshot must not move.
        for i in 0..500u64 {
            m.update((i % 89) + 100_000, i % 50, 1).unwrap();
        }
        assert_eq!(snap.read_nnz(), frozen.nvals());
        let probe = frozen.dcsr().row_ids()[0];
        assert_eq!(
            snap.read_row_degree(probe),
            frozen.dcsr().row(probe).unwrap().0.len()
        );
        let mut entries = Vec::new();
        snap.read_entries(&mut |r, c, v| entries.push((r, c, v)));
        let (er, ec, ev) = frozen.extract_tuples();
        let expect: Vec<_> = er
            .into_iter()
            .zip(ec)
            .zip(ev)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        assert_eq!(entries, expect);
        // The live matrix has moved on.
        assert!(m.read_nnz() > snap.read_nnz());
    }

    #[test]
    fn snapshot_ref_carries_pending_tail() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        m.update(3, 3, 5).unwrap();
        m.update(3, 4, 6).unwrap();
        // Pending only — the &self snapshot copies the tail.
        let mut snap = m.snapshot_ref();
        assert!(!snap.has_index());
        assert_eq!(snap.read_nnz(), 2);
        assert_eq!(snap.read_get(3, 3), Some(5));
        assert_eq!(snap.read_row_reduce(3), Some(11));
        // Settled source with a live (query-activated) index: the &self
        // snapshot carries the index view.
        assert_eq!(m.read_nnz(), 2);
        let mut settled_snap = m.snapshot_ref();
        assert!(settled_snap.has_index());
        assert_eq!(settled_snap.read_nnz(), 2);
        assert_eq!(settled_snap.read_top_k(1), vec![(3, 2)]);
    }

    #[test]
    fn f64_values_supported() {
        let mut m = HierMatrix::<f64>::new(100, 100, small_config()).unwrap();
        for _ in 0..100 {
            m.update(1, 1, 0.5).unwrap();
        }
        assert_eq!(m.get(1, 1), Some(50.0));
        assert_eq!(m.total_weight(), 50);
    }

    #[test]
    fn repeated_checkpoints_reuse_the_level_encode_buffer() {
        let (dir, mut m) = scratch_store("ckpt-buf", 1 << 20, small_config());
        let level_buf = |m: &HierMatrix<u64>| {
            let buf = &m.durable.as_ref().unwrap().level_buf;
            (buf.as_ptr(), buf.capacity())
        };
        let idx: Vec<u64> = (0..2000).collect();
        m.update_batch(&idx, &idx, &idx).unwrap();
        m.flush().unwrap();
        let first = level_buf(&m);
        assert!(first.1 >= 2000 * 16, "the checkpoint encoded through it");
        // The same cells again: every level file comes out the same size.
        m.update_batch(&idx, &idx, &idx).unwrap();
        m.flush().unwrap();
        assert_eq!(level_buf(&m), first);
        assert_eq!(m.get(7, 7), Some(14));
        drop(m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh durable `u64` matrix under `std::env::temp_dir()`, fsync off.
    fn scratch_store(name: &str, dim: u64, config: HierConfig) -> (PathBuf, HierMatrix<u64>) {
        let dir = std::env::temp_dir().join(format!("hyperstream-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurableConfig::new(&dir).fsync(persist::FsyncPolicy::Never);
        let m = HierMatrix::new_durable(dim, dim, config, cfg).unwrap();
        (dir, m)
    }

    /// What a frame holds, pinned in bytes: a batch grows the log by one
    /// 12-byte frame header and 24 bytes per tuple *level 0 kept*.
    #[test]
    fn a_wal_frame_holds_what_level_0_kept_of_the_batch() {
        const FRAME: u64 = 12;
        const TUPLE: u64 = 24;
        let n = 100_000u64;
        let repeating: Vec<u64> = (0..n).map(|i| i % 1000).collect();
        let distinct: Vec<u64> = (0..n).collect();
        let short: Vec<u64> = (0..crate::fold::SAMPLE as u64 - 1)
            .map(|i| i % 10)
            .collect();
        let ones = vec![1u64; n as usize];
        // (dimension, batch, tuples the frame must hold)
        let cases = [
            (1u64 << 32, &repeating, 1000),
            (1 << 32, &distinct, n),
            (1 << 32, &short, short.len() as u64),
            // No packed key above 2^32: no fold, the raw tuples are logged.
            (1 << 40, &repeating, n),
        ];
        for (case, (dim, batch, kept)) in cases.into_iter().enumerate() {
            let (dir, mut m) = scratch_store("frame", dim, HierConfig::paper_default());
            let wal = dir.join(manifest::wal_file_name(1));
            let len = || std::fs::metadata(&wal).unwrap().len();
            // A tail already pending: the frame starts where this call did.
            m.update_batch(&[7, 3], &[7, 3], &[1, 1]).unwrap();
            let before = len();
            m.update_batch(batch, batch, &ones[..batch.len()]).unwrap();
            assert_eq!(len() - before, FRAME + TUPLE * kept, "case {case}");
            assert_eq!(m.stats().updates, 2 + batch.len() as u64);
            assert_eq!(m.wal_telemetry(), Some((2, 0)));
            let want = m.materialize_ref().extract_tuples();
            drop(m);
            let records = wal::scan::<u64>(&wal).unwrap().records;
            assert_eq!(records.len(), 2, "case {case}: one record a batch");
            assert_eq!(records[1].rows.len() as u64, kept, "case {case}");
            let reopened = HierMatrix::<u64>::open(&dir).unwrap();
            assert_eq!(reopened.recovery_report().unwrap().wal_records_replayed, 2);
            assert_eq!(reopened.materialize_ref().extract_tuples(), want);
            drop(reopened);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A cascade's checkpoint leaves the generation it retires on disk;
    /// every next call, and a reopen after a kill, leaves exactly what the
    /// manifest references.
    #[test]
    fn retired_files_go_with_the_next_call_not_the_checkpoint_batch() {
        use std::collections::BTreeSet;
        let on_disk = |dir: &Path| -> BTreeSet<String> {
            std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect()
        };
        let referenced = |m: &HierMatrix<u64>| -> BTreeSet<String> {
            let d = m.durable.as_ref().unwrap();
            let levels = d.levels.iter().filter(|l| l.gen != 0);
            levels
                .map(|l| manifest::level_file_name(l.gen))
                .chain([manifest::wal_file_name(d.wal_gen), "MANIFEST".into()])
                .collect()
        };
        let (dir, mut m) = scratch_store("retired", 1 << 20, small_config());
        // Twenty new cells overflow level 0's cut of 8: cascade, checkpoint.
        let mut next = 0u64;
        let mut cascade = |m: &mut HierMatrix<u64>| {
            let cells: Vec<u64> = (next..next + 20).collect();
            next += 20;
            let checkpointed = m.durable.as_ref().unwrap().wal_gen;
            m.update_batch(&cells, &cells, &cells).unwrap();
            assert_ne!(m.durable.as_ref().unwrap().wal_gen, checkpointed);
        };

        cascade(&mut m);
        let first_wal = manifest::wal_file_name(1);
        assert!(
            on_disk(&dir).contains(&first_wal),
            "unlinked on the stall path"
        );
        assert!(!referenced(&m).contains(&first_wal));
        cascade(&mut m);
        // The first call after it sweeps; these two retired a level file too.
        assert_eq!(on_disk(&dir).len(), referenced(&m).len() + 2);
        m.update(1, 2, 3).unwrap();
        assert_eq!(on_disk(&dir), referenced(&m), "after update");
        cascade(&mut m);
        m.update_batch(&[1], &[2], &[3]).unwrap();
        assert_eq!(on_disk(&dir), referenced(&m), "after update_batch");
        cascade(&mut m);
        m.flush().unwrap();
        assert_eq!(on_disk(&dir), referenced(&m), "after flush");
        cascade(&mut m);
        m.clear();
        assert_eq!(on_disk(&dir), referenced(&m), "after clear");
        assert_eq!(referenced(&m).len(), 2, "an empty store: manifest and log");
        cascade(&mut m);
        cascade(&mut m);
        let (kept, want) = (referenced(&m), m.materialize_ref().extract_tuples());
        assert!(on_disk(&dir).len() > kept.len());
        drop(m);
        assert_eq!(on_disk(&dir), kept, "after drop");

        // Killed between the checkpoint and the next call: the leftovers
        // are what every open sweeps.
        let mut m = HierMatrix::<u64>::open(&dir).unwrap();
        assert_eq!(m.materialize_ref().extract_tuples(), want);
        cascade(&mut m);
        let (kept, want) = (referenced(&m), m.materialize_ref().extract_tuples());
        assert!(on_disk(&dir).len() > kept.len());
        std::mem::forget(m);
        let m = HierMatrix::<u64>::open(&dir).unwrap();
        assert_eq!(on_disk(&dir), kept, "after a kill and a reopen");
        assert_eq!(referenced(&m), kept);
        assert_eq!(m.materialize_ref().extract_tuples(), want);
        let report = m.recovery_report().unwrap();
        assert!(!report.torn_tail_truncated && report.corrupt_levels.is_empty());
        drop(m);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
