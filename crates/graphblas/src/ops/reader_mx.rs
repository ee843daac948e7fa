//! The semiring product kernels — the only Gustavson/SPA loops in the crate
//! — driven directly off DCSR level slices, so `mxm`/`mxv`/`vxm` over a live
//! hierarchy or snapshot never materialize `Σ levels`.  A flat [`Matrix`] is
//! a [`CursorReader`] of one level, so [`mxm_reader`] / [`mxv_reader`] /
//! [`vxm_reader`] over it are the flat products.
//!
//! A [`CursorReader`] exposes its settled content as level slices whose sum
//! under the `+` monoid of the value type is the represented matrix.  The
//! kernels take rows of that sum the two ways the [`cursor`](crate::cursor)
//! module offers: an operand swept in row order steps with
//! [`LevelCursors::next_row`], and a row looked up by id (`B`'s row `k` in
//! `mxm`, `A`'s row `i` in `vxm` and the pattern push) gathers the slices
//! of the levels that hold it.  Either way:
//!
//! * a row that lives in a **single** level is consumed as its raw slices
//!   (the common hypersparse case — level row collisions are rare);
//! * a row split across levels goes through the cursor module's one k-way
//!   column merge — under `+`, because `⊗` must see the *combined* cell
//!   value (`⊗` does not distribute over `+` for e.g. min-plus), or under
//!   `First` where only the pattern counts.
//!
//! Accumulation goes through the caller's [`SpaScratch`].  A product over k
//! levels is byte-identical to the product over one — the materialized sum —
//! and to the `BTreeMap` references of the `oracle` module; the
//! `tests/algo_equivalence.rs` proptests pin this across cut schedules, shard
//! counts and snapshots.  The BFS frontier push takes an optional structural
//! [`VectorMask`]: the complement of the visited vector skips levelled
//! vertices before any product is formed.
//!
//! The pattern push ([`vxm_pattern_levels`]) is BFS's frontier kernel
//! (add = min): `w(j) = ⊕ u(i)` over the *distinct* stored cells `(i, j)`,
//! values ignored.

use crate::cursor::{merge_k_way, merged_row_into, LevelCursors};
use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::{check_capacity, Dcsr};
use crate::index::Index;
use crate::mask::VectorMask;
use crate::matrix::Matrix;
use crate::ops::binary::{First, Plus};
use crate::ops::spa::{SpaScratch, SpaStrategy};
use crate::ops::{BinaryOp, Semiring};
use crate::reader::CursorReader;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// Validate that every level matches the claimed logical dimensions.
fn check_levels<T: ScalarType>(
    dims: (Index, Index),
    levels: &[&Dcsr<T>],
    what: &str,
) -> GrbResult<()> {
    for d in levels {
        if d.nrows() != dims.0 || d.ncols() != dims.1 {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "{what} level is {}x{} but reader claims {}x{}",
                    d.nrows(),
                    d.ncols(),
                    dims.0,
                    dims.1
                ),
            });
        }
    }
    Ok(())
}

/// One gathered operand row: a raw slice pair when a single level holds the
/// row, or a range of the fold arena when levels collide.
enum Hit<'a, T> {
    Slice(T, &'a [Index], &'a [T]),
    Arena(T, usize, usize),
}

/// Gather row `row` of `levels` (combined under `+`) and record it as a
/// [`Hit`] scaled by `coeff`; returns `(first_col, last_col, nnz)` or
/// `None` when the row is empty everywhere.
fn gather_row<'a, T: ScalarType>(
    levels: &[&'a Dcsr<T>],
    row: Index,
    coeff: T,
    hits: &mut Vec<Hit<'a, T>>,
    arena: &mut Vec<(Index, T)>,
    tmp: &mut Vec<(Index, T)>,
) -> Option<(Index, Index, usize)> {
    let mut parts = levels.iter().filter_map(|d| d.row(row));
    let (cols, vals) = parts.next()?;
    if parts.next().is_none() {
        let span = (*cols.first()?, *cols.last()?, cols.len());
        hits.push(Hit::Slice(coeff, cols, vals));
        return Some(span);
    }
    merged_row_into(levels, row, Plus, tmp);
    let span = (tmp.first()?.0, tmp.last()?.0, tmp.len());
    hits.push(Hit::Arena(coeff, arena.len(), arena.len() + tmp.len()));
    arena.extend_from_slice(tmp);
    Some(span)
}

/// `C = A ⊕.⊗ B` with both operands given as level slices — the one
/// Gustavson loop (a flat matrix is the one-level case, its rows all
/// [`Hit::Slice`]).  `adims`/`bdims` are the logical `(nrows, ncols)` the
/// operands claim (needed because a slice list may be empty).
pub(crate) fn mxm_levels<T, S>(
    adims: (Index, Index),
    bdims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    b_levels: &[&Dcsr<T>],
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if adims.1 != bdims.0 {
        return Err(GrbError::DimensionMismatch {
            detail: format!(
                "inner dimensions differ: A is {}x{}, B is {}x{}",
                adims.0, adims.1, bdims.0, bdims.1
            ),
        });
    }
    check_levels(adims, a_levels, "A")?;
    check_levels(bdims, b_levels, "B")?;

    let add = semiring.add();
    let mul = semiring.mul();
    let mut row_ids = Vec::new();
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();

    let mut cur = LevelCursors::new(a_levels);
    let mut a_row: Vec<(Index, T)> = Vec::new();
    let mut hits: Vec<Hit<'_, T>> = Vec::new();
    let mut arena: Vec<(Index, T)> = Vec::new();
    let mut tmp: Vec<(Index, T)> = Vec::new();

    while let Some(i) = cur.next_row() {
        a_row.clear();
        cur.fold_row(Plus, &mut |k, aik| a_row.push((k, aik)));

        hits.clear();
        arena.clear();
        let (mut lo, mut hi, mut flops) = (Index::MAX, 0u64, 0usize);
        for &(k, aik) in &a_row {
            if let Some((l, h, n)) = gather_row(b_levels, k, aik, &mut hits, &mut arena, &mut tmp) {
                lo = lo.min(l);
                hi = hi.max(h);
                flops += n;
            }
        }
        if flops == 0 {
            continue;
        }
        spa.begin(spa.choose(lo, hi, flops), lo, hi);
        for hit in &hits {
            match *hit {
                Hit::Slice(aik, cols, vs) => {
                    for (j_idx, &j) in cols.iter().enumerate() {
                        spa.push(j, mul.apply(aik, vs[j_idx]), add);
                    }
                }
                Hit::Arena(aik, start, end) => {
                    for &(j, v) in &arena[start..end] {
                        spa.push(j, mul.apply(aik, v), add);
                    }
                }
            }
        }
        spa.drain(add, &mut |j, v| {
            col_idx.push(j);
            vals.push(v);
        });
        check_capacity(col_idx.len(), 0)?;
        row_ids.push(i);
        row_ptr.push(col_idx.len() as u32);
    }
    spa.commit_stats();
    let d = Dcsr::try_from_raw_parts(adims.0, bdims.1, row_ids, row_ptr, col_idx, vals)?;
    Ok(Matrix::from_dcsr(d))
}

/// `w = A ⊕.⊗ u` off level slices: one cursor sweep over A's non-empty
/// rows, each folded under `+` and probed against `u` with a scalar
/// accumulator — no scatter structure needed.
pub(crate) fn mxv_levels<T, S>(
    adims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    u: &SparseVector<T>,
    semiring: S,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if adims.1 != u.size() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("A is {}x{}, u has size {}", adims.0, adims.1, u.size()),
        });
    }
    check_levels(adims, a_levels, "A")?;
    let add = semiring.add();
    let mul = semiring.mul();
    let mut out = SparseVector::new(adims.0);
    let mut cur = LevelCursors::new(a_levels);
    while let Some(i) = cur.next_row() {
        let mut acc: Option<T> = None;
        cur.fold_row(Plus, &mut |j, aij| {
            if let Some(uj) = u.get(j) {
                let p = mul.apply(aij, uj);
                acc = Some(match acc {
                    Some(v) => add.apply(v, p),
                    None => p,
                });
            }
        });
        if let Some(v) = acc {
            out.set(i, v)?;
        }
    }
    Ok(out)
}

/// `w = u ⊕.⊗ A` off level slices, accumulated through the shared SPA.
pub(crate) fn vxm_levels<T, S>(
    u: &SparseVector<T>,
    adims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if u.size() != adims.0 {
        return Err(GrbError::DimensionMismatch {
            detail: format!("u has size {}, A is {}x{}", u.size(), adims.0, adims.1),
        });
    }
    check_levels(adims, a_levels, "A")?;
    let add = semiring.add();
    let mul = semiring.mul();

    let mut hits: Vec<Hit<'_, T>> = Vec::new();
    let mut arena: Vec<(Index, T)> = Vec::new();
    let mut tmp: Vec<(Index, T)> = Vec::new();
    let (mut lo, mut hi, mut flops) = (Index::MAX, 0u64, 0usize);
    for (i, ui) in u.iter() {
        if let Some((l, h, n)) = gather_row(a_levels, i, ui, &mut hits, &mut arena, &mut tmp) {
            lo = lo.min(l);
            hi = hi.max(h);
            flops += n;
        }
    }
    let mut out = SparseVector::new(adims.1);
    if flops == 0 {
        return Ok(out);
    }
    spa.begin(spa.choose(lo, hi, flops), lo, hi);
    for hit in &hits {
        match *hit {
            Hit::Slice(ui, cols, vs) => {
                for (k, &j) in cols.iter().enumerate() {
                    spa.push(j, mul.apply(ui, vs[k]), add);
                }
            }
            Hit::Arena(ui, start, end) => {
                for &(j, v) in &arena[start..end] {
                    spa.push(j, mul.apply(ui, v), add);
                }
            }
        }
    }
    let mut err = None;
    spa.drain(add, &mut |j, v| {
        if let Err(e) = out.set(j, v) {
            err = Some(e);
        }
    });
    spa.commit_stats();
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// The pattern push: `w(j) = ⊕ u(i)` over the **distinct** stored cells
/// `(i, j)` of the level slices — stored values are ignored, duplicate
/// cells across levels contribute once.  `u` must be sorted by index;
/// `out` (cleared first) receives the result sorted by index.
///
/// This is the shared frontier kernel: BFS pushes a wave of ones under
/// `min` against the complement-of-visited mask; pagerank pushes
/// `rank/out-degree` under `plus` unmasked.  The mask is applied *before*
/// accumulation, so denied columns cost one check instead of a product.
pub fn vxm_pattern_levels<T, U, A, M>(
    u: &[(Index, U)],
    levels: &[&Dcsr<T>],
    add: A,
    mask: Option<&VectorMask<'_, M>>,
    spa: &mut SpaScratch<U>,
    out: &mut Vec<(Index, U)>,
) where
    T: ScalarType,
    U: ScalarType,
    A: BinaryOp<U>,
    M: ScalarType,
{
    out.clear();
    if u.is_empty() || levels.is_empty() {
        return;
    }
    // The span of the push is unknown until every row is visited, so the
    // whole product always uses sorted scatter (one strategy decision for
    // the call, counted as one accumulator row).
    spa.begin(SpaStrategy::SortedScatter, 0, 0);
    let (mut parts, mut pool) = (Vec::new(), Vec::new());
    for &(i, ui) in u {
        // Distinct columns of row i, pushed as the one k-way merge emits
        // them (a row one level holds is its own slice).
        parts.clear();
        parts.extend(levels.iter().filter_map(|d| d.row(i)));
        let mut push = |j, _: T| {
            if mask.map_or(true, |m| m.allows(j)) {
                spa.push(j, ui, add);
            }
        };
        merge_k_way(&parts, First, &mut push, &mut pool);
    }
    spa.drain(add, &mut |j, v| out.push((j, v)));
    spa.commit_stats();
}

/// Run `f` over `r`'s settled level slices and hand back what it returns;
/// a reader that hands over no slices at all reads as the empty matrix.
fn with_levels<T, R, O>(r: &mut R, mut f: impl FnMut(&[&Dcsr<T>]) -> O) -> O
where
    T: ScalarType,
    R: CursorReader<T> + ?Sized,
{
    let mut out = None;
    r.with_level_dcsrs(&mut |levels| out = Some(f(levels)));
    out.unwrap_or_else(|| f(&[]))
}

/// `C = A ⊕.⊗ B` over two cursor readers — never materializes either
/// operand's level sum.
pub fn mxm_reader<T, S, RA, RB>(
    a: &mut RA,
    b: &mut RB,
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    RA: CursorReader<T> + ?Sized,
    RB: CursorReader<T> + ?Sized,
{
    let (adims, bdims) = (a.read_dims(), b.read_dims());
    with_levels(a, |al| {
        with_levels(b, |bl| mxm_levels(adims, bdims, al, bl, semiring, spa))
    })
}

/// `w = A ⊕.⊗ u` over a cursor reader.
pub fn mxv_reader<T, S, R>(
    a: &mut R,
    u: &SparseVector<T>,
    semiring: S,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    R: CursorReader<T> + ?Sized,
{
    let adims = a.read_dims();
    with_levels(a, |al| mxv_levels(adims, al, u, semiring))
}

/// `w = u ⊕.⊗ A` over a cursor reader.
pub fn vxm_reader<T, S, R>(
    u: &SparseVector<T>,
    a: &mut R,
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    R: CursorReader<T> + ?Sized,
{
    let adims = a.read_dims();
    with_levels(a, |al| vxm_levels(u, adims, al, semiring, spa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Min, Plus};
    use crate::ops::semiring::{MinPlus, PlusTimes};
    use crate::oracle::{mxm_btree, transpose, vxm_btree};

    fn m(nrows: u64, ncols: u64, entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap()
    }

    /// Split a matrix into `k` level DCSRs by entry round-robin, so rows
    /// collide across levels — the hierarchy shape the kernels must fold.
    fn split_levels(src: &Matrix<i64>, k: usize) -> Vec<Dcsr<i64>> {
        let (rows, cols, vals) = src.extract_tuples();
        let mut parts: Vec<(Vec<u64>, Vec<u64>, Vec<i64>)> = vec![Default::default(); k];
        for (n, ((&r, &c), &v)) in rows.iter().zip(&cols).zip(&vals).enumerate() {
            let p = &mut parts[n % k];
            p.0.push(r);
            p.1.push(c);
            p.2.push(v);
        }
        parts
            .into_iter()
            .map(|(r, c, v)| Dcsr::from_tuples(src.nrows(), src.ncols(), &r, &c, &v, Plus).unwrap())
            .collect()
    }

    #[test]
    fn level_product_equals_flat_product() {
        let a = m(
            100,
            100,
            &[(0, 1, 2), (0, 2, 3), (5, 1, 1), (5, 99, -4), (7, 5, 6)],
        );
        let b = m(
            100,
            100,
            &[(1, 10, 5), (1, 11, 6), (2, 10, 7), (5, 0, 2), (99, 3, 9)],
        );
        for k in 1..=3 {
            let al = split_levels(&a, k);
            let bl = split_levels(&b, k);
            let ar: Vec<&Dcsr<i64>> = al.iter().collect();
            let br: Vec<&Dcsr<i64>> = bl.iter().collect();
            let mut spa = SpaScratch::new();
            let fast = mxm_levels((100, 100), (100, 100), &ar, &br, PlusTimes, &mut spa).unwrap();
            let slow = mxm_btree(&a, &b, PlusTimes).unwrap();
            assert_eq!(fast.extract_tuples(), slow.extract_tuples(), "k={k}");
            // min-plus exercises the non-distributive fold: split cells must
            // combine under + before ⊗ sees them.
            let fast = mxm_levels((100, 100), (100, 100), &ar, &br, MinPlus, &mut spa).unwrap();
            let slow = mxm_btree(&a, &b, MinPlus).unwrap();
            assert_eq!(
                fast.extract_tuples(),
                slow.extract_tuples(),
                "k={k} minplus"
            );
        }
    }

    #[test]
    fn level_mxv_and_vxm_equal_flat() {
        let a = m(64, 64, &[(3, 7, 2), (3, 9, 5), (9, 7, 1), (40, 3, 8)]);
        let u = SparseVector::from_tuples(64, &[3, 7, 9, 40], &[1, 2, 3, 4], Plus).unwrap();
        let a_t = transpose(&a).unwrap();
        for k in 1..=3 {
            let al = split_levels(&a, k);
            let ar: Vec<&Dcsr<i64>> = al.iter().collect();
            let got = mxv_levels((64, 64), &ar, &u, PlusTimes).unwrap();
            let want = vxm_btree(&u, &a_t, PlusTimes).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
            let mut spa = SpaScratch::new();
            let got = vxm_levels(&u, (64, 64), &ar, PlusTimes, &mut spa).unwrap();
            let want = vxm_btree(&u, &a, PlusTimes).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn pattern_push_deduplicates_levels() {
        // Cell (1, 5) stored in both levels: must contribute once.
        let l0 = Dcsr::from_tuples(16, 16, &[1, 1], &[5, 6], &[10i64, 20], Plus).unwrap();
        let l1 = Dcsr::from_tuples(16, 16, &[1, 2], &[5, 6], &[30i64, 40], Plus).unwrap();
        let levels: Vec<&Dcsr<i64>> = vec![&l0, &l1];
        let mut spa = SpaScratch::new();
        let mut out = Vec::new();
        let u = [(1u64, 2.0f64), (2, 5.0)];
        vxm_pattern_levels(
            &u,
            &levels,
            Plus,
            None::<&VectorMask<'_, f64>>,
            &mut spa,
            &mut out,
        );
        assert_eq!(out, vec![(5, 2.0), (6, 7.0)]);
        // Min push with a mask hiding column 6.
        let visible = SparseVector::from_tuples(16, &[5], &[1.0f64], Plus).unwrap();
        let mask = VectorMask::structural(&visible);
        vxm_pattern_levels(&u, &levels, Min, Some(&mask), &mut spa, &mut out);
        assert_eq!(out, vec![(5, 2.0)]);
    }

    #[test]
    fn reader_wrappers_run_on_flat_matrices() {
        let mut a = m(16, 16, &[(1, 2, 3), (2, 4, 5)]);
        let mut b = m(16, 16, &[(2, 7, 2), (4, 7, 1)]);
        let mut spa = SpaScratch::new();
        let c = mxm_reader(&mut a, &mut b, PlusTimes, &mut spa).unwrap();
        assert_eq!(c.get(1, 7), Some(6));
        assert_eq!(c.get(2, 7), Some(5));
        let u = SparseVector::from_tuples(16, &[1], &[1i64], Plus).unwrap();
        let w = vxm_reader(&u, &mut a, PlusTimes, &mut spa).unwrap();
        assert_eq!(w.get(2), Some(3));
        let w = mxv_reader(&mut a, &u, PlusTimes).unwrap();
        assert!(w.is_empty());
        let u2 = SparseVector::from_tuples(16, &[2], &[1i64], Plus).unwrap();
        let w = mxv_reader(&mut a, &u2, PlusTimes).unwrap();
        assert_eq!(w.get(1), Some(3));
    }

    /// The flat products are the reader entries over a one-level `Matrix`:
    /// a narrow band (dense SPA) and rows 2^40 wide (scatter SPA) in one
    /// product, and an operand with tuples still pending, against the
    /// `BTreeMap` references.
    #[test]
    fn flat_products_span_the_index_space_and_see_pending_tuples() {
        let big = 1u64 << 44;
        let a = m(
            big,
            big,
            &[(0, 1, 2), (0, 2, 3), (5, 1, 1), (5, 2, -4), (9, big - 1, 7)],
        );
        let mut b = Matrix::<i64>::new(big, big);
        b.accum_tuples(
            &[1, 1, 2, 2, big - 1],
            &[10, 11, 10, 1 << 40, 3],
            &[5, 6, 7, 8, 9],
        )
        .unwrap();
        assert!(b.npending() > 0);
        let u = SparseVector::from_tuples(big, &[0, 5, 9], &[1, 2, 3], Plus).unwrap();
        let a_t = transpose(&a).unwrap();
        let mut spa = SpaScratch::new();
        let c = mxm_reader(&mut a.clone(), &mut b.clone(), MinPlus, &mut spa).unwrap();
        let want = mxm_btree(&a, &b, MinPlus).unwrap();
        assert_eq!(c.extract_tuples(), want.extract_tuples());
        let c = mxm_reader(&mut a.clone(), &mut b.clone(), PlusTimes, &mut spa).unwrap();
        let want = mxm_btree(&a, &b, PlusTimes).unwrap();
        assert_eq!(c.extract_tuples(), want.extract_tuples());
        assert_eq!(c.get(9, 3), Some(63));
        assert_eq!(c.get(0, 1 << 40), Some(24));
        let w = vxm_reader(&u, &mut a.clone(), PlusTimes, &mut spa).unwrap();
        assert_eq!(w, vxm_btree(&u, &a, PlusTimes).unwrap());
        assert_eq!(w.get(big - 1), Some(21));
        let v = SparseVector::from_tuples(big, &[2, big - 1], &[1, 10], Plus).unwrap();
        let w = mxv_reader(&mut a.clone(), &v, PlusTimes).unwrap();
        assert_eq!(w, vxm_btree(&v, &a_t, PlusTimes).unwrap());
        assert_eq!(w.get(9), Some(70));
    }

    #[test]
    fn dimension_mismatches_are_typed_errors() {
        let a = m(4, 5, &[(0, 1, 1)]);
        let al = split_levels(&a, 1);
        let ar: Vec<&Dcsr<i64>> = al.iter().collect();
        let mut spa = SpaScratch::new();
        assert!(mxm_levels((4, 5), (4, 4), &ar, &ar, PlusTimes, &mut spa).is_err());
        let u = SparseVector::<i64>::new(3);
        assert!(mxv_levels((4, 5), &ar, &u, PlusTimes).is_err());
        assert!(vxm_levels(&u, (4, 5), &ar, PlusTimes, &mut spa).is_err());
        // Levels that disagree with the claimed dims are rejected.
        assert!(mxm_levels((9, 9), (9, 9), &ar, &ar, PlusTimes, &mut spa).is_err());
    }
}
