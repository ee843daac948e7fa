//! Skew-aware two-way merge kernels — the shared inner loop of the cascade
//! (DCSR ⊕ DCSR, DCSR ⊕ COO) and the read path (k-way cursor folds).
//!
//! Every hot loop of the hierarchical accumulator funnels through a merge
//! of two sorted index runs: a cascade merges a small settled batch into a
//! large lower level, a settle folds the pending tail into level 0, and a
//! cursor query folds colliding level rows on the fly.  On power-law
//! streams the *hot* rows collide in every level pair, so the merge of two
//! wildly different-sized runs is the common case — exactly where a
//! comparison-driven element-at-a-time walk is weakest.  This module picks
//! a strategy per colliding run, by shape:
//!
//! | condition (checked in order)     | strategy | cost |
//! |----------------------------------|----------|------|
//! | column ranges disjoint           | two bulk copies | `O(1)` check + memcpy |
//! | one side ≥ `GALLOP_RATIO` (8)× larger | **gallop**: exponential probe + binary search through the large side, bulk-copy the skipped spans | `O(k log(n/k))` |
//! | comparable sizes                 | branchless two-pointer (unconditional write, conditional advance) | `O(n + m)`, no unpredictable branches |
//!
//! The reference is an independent element-at-a-time walk over `(row, col)`
//! keys, `merge` of the `oracle` module; the `tests/merge_equivalence.rs`
//! proptests pin the three [`Dcsr`](crate::formats::dcsr::Dcsr) merge entry
//! points byte-identical to it.
//!
//! Strategy counters (process-global, relaxed atomics, committed once per
//! merge call) record how many elements each strategy processed, so a
//! benchmark can report *why* a workload got faster — see
//! [`merge_kernel_stats`].

use crate::index::Index;
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size-ratio crossover at which a colliding-run merge switches from the
/// branchless two-pointer kernel to galloping through the larger side.
///
/// Measured on the 1-core container (forced single-row strategies, large
/// side 2^16, hash-jittered interleave): the
/// gallop kernel overtakes the linear walk at ratio 4 (3.5e8 vs 3.2e8
/// elems/s) and is decisively ahead of every alternative from ratio 8 up
/// (4.4e8 at 8, 9.7e8 at 128, vs ~2.7e8 linear / ~2.2e8 branchless).
/// Between ratios 2 and 8 the winner depends on collision density — dense
/// collisions make per-element gallops pure overhead — so 8 keeps the
/// switch on the side that wins under *every* measured pattern rather
/// than the collision-free best case.
const GALLOP_RATIO: usize = 8;

static GALLOPED: AtomicU64 = AtomicU64::new(0);
static BULK_ROW: AtomicU64 = AtomicU64::new(0);
static BRANCHLESS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global merge strategy counters: how many
/// elements each kernel has processed since process start (readers take
/// before/after deltas).  "Processed" counts both operands of a
/// run — a galloped merge of a 4-element batch into a 4,096-element row
/// adds 4,100 to `galloped_elems`.
///
/// The counters are process-wide (all matrices, all shard workers) and
/// updated with relaxed atomics once per merge call, so they are a
/// *debugging and reporting* facility — cheap enough to stay always on,
/// not precise enough to order across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeKernelStats {
    /// Elements processed by the galloping (exponential probe + bulk span
    /// copy) kernel on skewed colliding runs.
    pub galloped_elems: u64,
    /// Elements moved by whole-row / row-run bulk copies: runs of rows
    /// unique to one operand, and colliding rows whose column ranges the
    /// O(1) bounds check proved disjoint.
    pub bulk_row_elems: u64,
    /// Elements processed by the branchless two-pointer kernel on
    /// comparable-size colliding runs.
    pub branchless_elems: u64,
    /// Always 0: the element-at-a-time fallback this counted is gone (the
    /// reference merge lives in the `oracle` module).  Still read by
    /// `benchmark/src/rep.rs`; goes with the next `[benchmark]` PR.
    pub linear_elems: u64,
}

impl MergeKernelStats {
    /// Total elements processed across all strategies.
    pub fn total(&self) -> u64 {
        self.galloped_elems + self.bulk_row_elems + self.branchless_elems
    }
}

/// Read the process-global strategy counters.
pub fn merge_kernel_stats() -> MergeKernelStats {
    MergeKernelStats {
        galloped_elems: GALLOPED.load(Ordering::Relaxed),
        bulk_row_elems: BULK_ROW.load(Ordering::Relaxed),
        branchless_elems: BRANCHLESS.load(Ordering::Relaxed),
        linear_elems: 0,
    }
}

/// Per-merge-call local tally: kernels add to plain integers on the hot
/// path and the owning merge commits them to the global atomics once.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MergeTally {
    pub(crate) galloped: u64,
    pub(crate) bulk_row: u64,
    pub(crate) branchless: u64,
}

impl MergeTally {
    /// Flush the tally into the process-global counters.
    pub(crate) fn commit(self) {
        if self.galloped != 0 {
            GALLOPED.fetch_add(self.galloped, Ordering::Relaxed);
        }
        if self.bulk_row != 0 {
            BULK_ROW.fetch_add(self.bulk_row, Ordering::Relaxed);
        }
        if self.branchless != 0 {
            BRANCHLESS.fetch_add(self.branchless, Ordering::Relaxed);
        }
    }
}

/// Destination of a two-way merge.  The two layouts in the workspace —
/// plane-separated staging buffers (DCSR merges) and `(index, value)`
/// tuple vectors (cursor reads) — implement it, so the cascade and the
/// read path share one set of kernels, bulk span copies included.
pub(crate) trait MergeSink<T> {
    /// Emit one merged element.
    fn push(&mut self, col: Index, val: T);
    /// Emit a run of elements unique to one operand (a gallop-skipped span
    /// or a disjoint payload) — implementations bulk-copy.
    fn push_run(&mut self, cols: &[Index], vals: &[T]);
}

/// Plane-separated sink: the DCSR staging buffers.
pub(crate) struct PlaneSink<'a, T> {
    pub(crate) cols: &'a mut Vec<Index>,
    pub(crate) vals: &'a mut Vec<T>,
}

impl<T: ScalarType> MergeSink<T> for PlaneSink<'_, T> {
    fn push(&mut self, col: Index, val: T) {
        self.cols.push(col);
        self.vals.push(val);
    }

    fn push_run(&mut self, cols: &[Index], vals: &[T]) {
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
    }
}

/// Tuple sink: the cursor read path's `Vec<(index, value)>` output.
pub(crate) struct PairSink<'a, T> {
    pub(crate) out: &'a mut Vec<(Index, T)>,
}

impl<T: ScalarType> MergeSink<T> for PairSink<'_, T> {
    fn push(&mut self, col: Index, val: T) {
        self.out.push((col, val));
    }

    fn push_run(&mut self, cols: &[Index], vals: &[T]) {
        self.out
            .extend(cols.iter().copied().zip(vals.iter().copied()));
    }
}

/// Any `FnMut(Index, T)` emit callback is a sink (runs degrade to a loop —
/// the m-way cursor fold uses this to reuse the kernels under its
/// `&mut dyn FnMut` interface).
impl<T: ScalarType, F: FnMut(Index, T)> MergeSink<T> for F {
    fn push(&mut self, col: Index, val: T) {
        self(col, val);
    }

    fn push_run(&mut self, cols: &[Index], vals: &[T]) {
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            self(c, v);
        }
    }
}

/// Galloping bound finder: the first position `>= from` where
/// `keep(ids[pos])` turns false, assuming `keep` is true on a (possibly
/// empty) prefix of `ids[from..]` — exponential probe doubling away from
/// `from`, then binary search inside the bracketed window.  Cost is
/// `O(log d)` in the distance `d` advanced, so a frontier that advances a
/// long way pays per *skip*, not per element skipped.
pub(crate) fn gallop_while<F: Fn(Index) -> bool>(ids: &[Index], from: usize, keep: F) -> usize {
    let n = ids.len();
    if from >= n || !keep(ids[from]) {
        return from;
    }
    // Invariant: keep(ids[lo]) is true.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && keep(ids[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(n);
    lo + 1 + ids[lo + 1..hi].partition_point(|&x| keep(x))
}

/// Skew-aware adaptive merge of two sorted runs: picks disjoint bulk copy,
/// gallop, or branchless two-pointer by shape (see the module docs).
/// Output: ascending unique columns, `op.apply(a, b)` on collisions with
/// `a` as the left operand.
///
/// Never inlined: the kernels' loops keep four slices, two cursors and the
/// sink live, and folded into a caller that holds more (a cursor read, the
/// m-way fold) they spill onto the merge's critical path — whether that
/// happened used to depend on what else the final crate instantiated.
#[inline(never)]
pub(crate) fn merge_row_adaptive<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    ca: &[Index],
    va: &[T],
    cb: &[Index],
    vb: &[T],
    op: Op,
    sink: &mut S,
    tally: &mut MergeTally,
) {
    let (n, m) = (ca.len(), cb.len());
    if m == 0 {
        sink.push_run(ca, va);
        tally.bulk_row += n as u64;
        return;
    }
    if n == 0 {
        sink.push_run(cb, vb);
        tally.bulk_row += m as u64;
        return;
    }
    // O(1) bounds check: disjoint column ranges need no walk at all.
    if ca[n - 1] < cb[0] {
        sink.push_run(ca, va);
        sink.push_run(cb, vb);
        tally.bulk_row += (n + m) as u64;
        return;
    }
    if cb[m - 1] < ca[0] {
        sink.push_run(cb, vb);
        sink.push_run(ca, va);
        tally.bulk_row += (n + m) as u64;
        return;
    }
    if n >= GALLOP_RATIO * m {
        merge_row_gallop_large_a(ca, va, cb, vb, op, sink);
        tally.galloped += (n + m) as u64;
    } else if m >= GALLOP_RATIO * n {
        merge_row_gallop_large_b(ca, va, cb, vb, op, sink);
        tally.galloped += (n + m) as u64;
    } else {
        merge_row_branchless(ca, va, cb, vb, op, sink);
        tally.branchless += (n + m) as u64;
    }
}

/// Gallop kernel, `a` the large side: for each `b` element, gallop the `a`
/// frontier to its insertion point, bulk-copy the skipped span, and emit
/// the element (folded under `op` if `a` holds the same column).
fn merge_row_gallop_large_a<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    ca: &[Index],
    va: &[T],
    cb: &[Index],
    vb: &[T],
    op: Op,
    sink: &mut S,
) {
    let mut ia = 0usize;
    for (jb, &b) in cb.iter().enumerate() {
        let lo = gallop_while(ca, ia, |x| x < b);
        if lo > ia {
            sink.push_run(&ca[ia..lo], &va[ia..lo]);
        }
        if lo < ca.len() && ca[lo] == b {
            sink.push(b, op.apply(va[lo], vb[jb]));
            ia = lo + 1;
        } else {
            sink.push(b, vb[jb]);
            ia = lo;
        }
    }
    if ia < ca.len() {
        sink.push_run(&ca[ia..], &va[ia..]);
    }
}

/// Gallop kernel, `b` the large side (mirror of
/// [`merge_row_gallop_large_a`], preserving the `op.apply(a, b)` operand
/// order on collisions).
fn merge_row_gallop_large_b<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    ca: &[Index],
    va: &[T],
    cb: &[Index],
    vb: &[T],
    op: Op,
    sink: &mut S,
) {
    let mut jb = 0usize;
    for (ja, &a) in ca.iter().enumerate() {
        let lo = gallop_while(cb, jb, |x| x < a);
        if lo > jb {
            sink.push_run(&cb[jb..lo], &vb[jb..lo]);
        }
        if lo < cb.len() && cb[lo] == a {
            sink.push(a, op.apply(va[ja], vb[lo]));
            jb = lo + 1;
        } else {
            sink.push(a, va[ja]);
            jb = lo;
        }
    }
    if jb < cb.len() {
        sink.push_run(&cb[jb..], &vb[jb..]);
    }
}

/// Branchless two-pointer merge for comparable-size runs: every iteration
/// performs one unconditional write and two conditional advances, so the
/// selects compile to conditional moves over the plane-separated buffers
/// instead of a three-way compare branch the predictor loses on random
/// column interleavings.
///
/// Truly branchless value selection needs `op` applied *speculatively* —
/// on every operand pair, discarding the result unless the columns
/// actually collide — which is only sound for operators that declare
/// [`BinaryOp::SPECULATION_SAFE`] (all built-ins).  Other operators keep
/// a guarded select that branches on the collision case.
fn merge_row_branchless<T: ScalarType, Op: BinaryOp<T>, S: MergeSink<T>>(
    ca: &[Index],
    va: &[T],
    cb: &[Index],
    vb: &[T],
    op: Op,
    sink: &mut S,
) {
    let (n, m) = (ca.len(), cb.len());
    // Equal-length planes, said so the loop carries no bounds checks.
    let (va, vb) = (&va[..n], &vb[..m]);
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        let a = ca[i];
        let b = cb[j];
        let take_a = a <= b;
        let take_b = b <= a;
        let col = if take_a { a } else { b };
        let val = if Op::SPECULATION_SAFE {
            // Total, pure `op`: evaluate unconditionally and select among
            // the three candidates with conditional moves.
            let fused = op.apply(va[i], vb[j]);
            let one_sided = if take_a { va[i] } else { vb[j] };
            if take_a && take_b {
                fused
            } else {
                one_sided
            }
        } else if !take_b {
            va[i]
        } else if !take_a {
            vb[j]
        } else {
            // `op` may panic (user-defined): fire only on a true collision.
            op.apply(va[i], vb[j])
        };
        sink.push(col, val);
        i += take_a as usize;
        j += take_b as usize;
    }
    if i < n {
        sink.push_run(&ca[i..], &va[i..]);
    }
    if j < m {
        sink.push_run(&cb[j..], &vb[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{First, Max, Min, Plus, Second};
    use std::collections::BTreeMap;

    type Pairs = Vec<(Index, u64)>;

    /// The adaptive kernel's output beside a `BTreeMap` fold of the same
    /// two runs (`a` the left operand on collisions).
    fn run_both<Op: BinaryOp<u64> + Copy>(
        ca: &[Index],
        va: &[u64],
        cb: &[Index],
        vb: &[u64],
        op: Op,
    ) -> (Pairs, Pairs) {
        let mut tally = MergeTally::default();
        let mut adaptive = Vec::new();
        {
            let mut sink = PairSink { out: &mut adaptive };
            merge_row_adaptive(ca, va, cb, vb, op, &mut sink, &mut tally);
        }
        tally.commit();
        let mut model: BTreeMap<Index, u64> = ca.iter().copied().zip(va.iter().copied()).collect();
        for (&c, &v) in cb.iter().zip(vb) {
            model
                .entry(c)
                .and_modify(|held| *held = op.apply(*held, v))
                .or_insert(v);
        }
        (adaptive, model.into_iter().collect())
    }

    #[test]
    fn gallop_while_finds_bounds() {
        let ids: Vec<Index> = vec![1, 3, 5, 7, 9, 11, 13];
        for from in 0..=ids.len() {
            for bound in 0..16u64 {
                let got = gallop_while(&ids, from, |x| x < bound);
                let mut expect = from;
                while expect < ids.len() && ids[expect] < bound {
                    expect += 1;
                }
                assert_eq!(got, expect, "from={from} bound={bound}");
            }
        }
        assert_eq!(gallop_while(&[], 0, |_| true), 0);
        assert_eq!(gallop_while(&ids, 99, |_| true), 99);
    }

    #[test]
    fn adaptive_matches_model_on_shapes() {
        // Disjoint (both orders), skewed (both directions), comparable,
        // identical, nested.
        let big: Vec<Index> = (0..1000).map(|i| i * 3).collect();
        let bigv: Vec<u64> = (0..1000u64).collect();
        let shapes: Vec<(Vec<Index>, Vec<Index>)> = vec![
            (vec![1, 2, 3], vec![10, 11]),
            (vec![10, 11], vec![1, 2, 3]),
            (big.clone(), vec![7, 500, 2995]),
            (vec![7, 500, 2995], big.clone()),
            (vec![2, 4, 6, 8], vec![1, 4, 5, 8, 9]),
            (big.clone(), big.clone()),
            (big.clone(), vec![900, 903, 906]),
            (Vec::new(), vec![1, 2]),
            (vec![1, 2], Vec::new()),
        ];
        for (ca, cb) in shapes {
            let va: Vec<u64> = (0..ca.len() as u64).map(|i| i + 100).collect();
            let vb: Vec<u64> = (0..cb.len() as u64).map(|i| i + 900).collect();
            let (a, l) = run_both(&ca, &va, &cb, &vb, Plus);
            assert_eq!(a, l, "Plus {}x{}", ca.len(), cb.len());
            let (a, l) = run_both(&ca, &va, &cb, &vb, First);
            assert_eq!(a, l, "First {}x{}", ca.len(), cb.len());
            let (a, l) = run_both(&ca, &va, &cb, &vb, Second);
            assert_eq!(a, l, "Second {}x{}", ca.len(), cb.len());
            let (a, l) = run_both(&ca, &va, &cb, &vb, Min);
            assert_eq!(a, l, "Min {}x{}", ca.len(), cb.len());
            let (a, l) = run_both(&ca, &va, &cb, &vb, Max);
            assert_eq!(a, l, "Max {}x{}", ca.len(), cb.len());
        }
        assert_eq!(bigv.len(), 1000);
    }

    #[test]
    fn counters_accumulate_per_strategy() {
        // Process-global counters: other tests merge concurrently, so only
        // assert monotone growth of the strategies this test exercises.
        let before = merge_kernel_stats();
        let ca: Vec<Index> = (0..1024).collect();
        let va: Vec<u64> = vec![1; 1024];
        let mut tally = MergeTally::default();
        let mut out: Vec<(Index, u64)> = Vec::new();
        {
            let mut sink = PairSink { out: &mut out };
            // Skewed: gallop.
            merge_row_adaptive(&ca, &va, &[5, 600], &[1, 1], Plus, &mut sink, &mut tally);
            // Disjoint: bulk.
            merge_row_adaptive(&ca, &va, &[5000], &[1], Plus, &mut sink, &mut tally);
            // Comparable: branchless.
            merge_row_adaptive(
                &ca[..4],
                &va[..4],
                &[1, 5, 7],
                &[1, 1, 1],
                Plus,
                &mut sink,
                &mut tally,
            );
        }
        assert_eq!(tally.galloped, 1026);
        assert_eq!(tally.bulk_row, 1025);
        assert_eq!(tally.branchless, 7);
        tally.commit();
        let after = merge_kernel_stats();
        assert!(after.galloped_elems >= before.galloped_elems + 1026);
        assert!(after.bulk_row_elems >= before.bulk_row_elems + 1025);
        assert!(after.branchless_elems >= before.branchless_elems + 7);
        assert!(after.total() > before.total());
    }
}
