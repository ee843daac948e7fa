//! The semiring product kernels — the only Gustavson/SPA loops in the crate
//! — driven directly off DCSR level slices, so `mxm`/`mxv`/`vxm` over a live
//! hierarchy or snapshot never materialize `Σ levels`, and the flat
//! [`mxm`](crate::ops::mxm::mxm) / [`mxv`](crate::ops::mxv::mxv) /
//! [`vxm`](crate::ops::mxv::vxm) are their one-level case.
//!
//! A [`CursorReader`] exposes its settled content as level slices whose sum
//! under the `+` monoid of the value type is the represented matrix.  The
//! kernels here walk those slices with [`LevelCursors`]:
//!
//! * operand rows that live in a **single** level are consumed as raw
//!   slices (the common hypersparse case — level row collisions are rare);
//! * rows split across levels are first folded under `+` into a reusable
//!   buffer, because `⊗` must see the *combined* cell value (`⊗` does not
//!   distribute over `+` for e.g. min-plus), then consumed like any row.
//!
//! Accumulation goes through the caller's [`SpaScratch`].  A product over k
//! levels is byte-identical to the product over one — the materialized sum —
//! and to the `BTreeMap` references of the `oracle` module; the
//! `tests/algo_equivalence.rs` proptests pin this across cut schedules, shard
//! counts and snapshots.  Every entry takes an optional structural
//! [`Mask`]/[`VectorMask`], which must have the output's dimensions; the BFS
//! frontier push uses the complemented vector mask to skip visited vertices
//! before any product is formed.
//!
//! The pattern push ([`vxm_pattern_levels`]) is the frontier kernel shared
//! by BFS (add = min) and pagerank (add = plus): `w(j) = ⊕ u(i)` over the
//! *distinct* stored cells `(i, j)`, values ignored.

use crate::cursor::{merged_row_into, LevelCursors};
use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::mask::{Mask, VectorMask};
use crate::matrix::Matrix;
use crate::ops::binary::Plus;
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
/// operands claim (needed because a slice list may be empty).  With a mask,
/// only output positions it allows are kept (checked at drain time, after
/// accumulation).
pub(crate) fn mxm_levels<T, S, M>(
    adims: (Index, Index),
    bdims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    b_levels: &[&Dcsr<T>],
    semiring: S,
    mask: Option<&Mask<'_, M>>,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
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
    mask.map_or(Ok(()), |m| m.check_dims((adims.0, bdims.1)))?;

    let add = semiring.add();
    let mul = semiring.mul();
    let mut row_ids = Vec::new();
    let mut row_ptr = vec![0usize];
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
        let before = col_idx.len();
        spa.drain(add, &mut |j, v| {
            if mask.map_or(true, |m| m.allows(i, j)) {
                col_idx.push(j);
                vals.push(v);
            }
        });
        if col_idx.len() > before {
            row_ids.push(i);
            row_ptr.push(col_idx.len());
        }
    }
    spa.commit_stats();
    let d = Dcsr::try_from_raw_parts(adims.0, bdims.1, row_ids, row_ptr, col_idx, vals)?;
    Ok(Matrix::from_dcsr(d))
}

/// `w = A ⊕.⊗ u` off level slices: one cursor sweep over A's non-empty
/// rows, each folded under `+` and probed against `u` with a scalar
/// accumulator — no scatter structure needed.  Rows a mask denies are
/// skipped *before* any product is formed — the masked frontier pull.
pub(crate) fn mxv_levels<T, S, M>(
    adims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    u: &SparseVector<T>,
    semiring: S,
    mask: Option<&VectorMask<'_, M>>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
{
    if adims.1 != u.size() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("A is {}x{}, u has size {}", adims.0, adims.1, u.size()),
        });
    }
    check_levels(adims, a_levels, "A")?;
    mask.map_or(Ok(()), |m| m.check_size(adims.0))?;
    let add = semiring.add();
    let mul = semiring.mul();
    let mut out = SparseVector::new(adims.0);
    let mut cur = LevelCursors::new(a_levels);
    while let Some(i) = cur.next_row() {
        if !mask.map_or(true, |m| m.allows(i)) {
            continue;
        }
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
/// With a mask, only output positions it allows are kept (checked at drain
/// time).
pub(crate) fn vxm_levels<T, S, M>(
    u: &SparseVector<T>,
    adims: (Index, Index),
    a_levels: &[&Dcsr<T>],
    semiring: S,
    mask: Option<&VectorMask<'_, M>>,
    spa: &mut SpaScratch<T>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
{
    if u.size() != adims.0 {
        return Err(GrbError::DimensionMismatch {
            detail: format!("u has size {}, A is {}x{}", u.size(), adims.0, adims.1),
        });
    }
    check_levels(adims, a_levels, "A")?;
    mask.map_or(Ok(()), |m| m.check_size(adims.1))?;
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
        if mask.map_or(true, |m| m.allows(j)) {
            if let Err(e) = out.set(j, v) {
                err = Some(e);
            }
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
    let mut cols_buf: Vec<Index> = Vec::new();
    for &(i, ui) in u {
        // Distinct columns of row i: raw slice when one level holds the
        // row, m-way column union otherwise.
        let mut single: Option<&[Index]> = None;
        let mut n_parts = 0usize;
        for d in levels {
            if d.row(i).is_some() {
                n_parts += 1;
                if n_parts == 1 {
                    single = d.row(i).map(|(c, _)| c);
                }
            }
        }
        match n_parts {
            0 => {}
            1 => {
                for &j in single.expect("one part recorded") {
                    if mask.map_or(true, |m| m.allows(j)) {
                        spa.push(j, ui, add);
                    }
                }
            }
            _ => {
                cols_buf.clear();
                merged_row_cols(levels, i, &mut cols_buf);
                for &j in &cols_buf {
                    if mask.map_or(true, |m| m.allows(j)) {
                        spa.push(j, ui, add);
                    }
                }
            }
        }
    }
    spa.drain(add, &mut |j, v| out.push((j, v)));
    spa.commit_stats();
}

/// Distinct sorted columns of row `row` across colliding levels.
fn merged_row_cols<T: ScalarType>(levels: &[&Dcsr<T>], row: Index, out: &mut Vec<Index>) {
    let mut parts: Vec<&[Index]> = Vec::with_capacity(levels.len());
    for d in levels {
        if let Some((cols, _)) = d.row(row) {
            parts.push(cols);
        }
    }
    let mut pos = vec![0usize; parts.len()];
    loop {
        let mut min: Option<Index> = None;
        for (p, part) in parts.iter().enumerate() {
            if let Some(&c) = part.get(pos[p]) {
                min = Some(match min {
                    Some(m) if m <= c => m,
                    _ => c,
                });
            }
        }
        let Some(col) = min else { break };
        for (p, part) in parts.iter().enumerate() {
            if part.get(pos[p]) == Some(&col) {
                pos[p] += 1;
            }
        }
        out.push(col);
    }
}

/// The masked-`mxm` triangle count off level slices: for a symmetric
/// simple-graph pattern this is `Σ (A ⊕.⊗ A) .* A` over the stored cells —
/// `Σ_{(i,k) stored} |row(i) ∩ row(k)|` — without ever forming `A ⊕.⊗ A`.
/// Divide by 6 for the triangle count (each triangle is counted once per
/// ordered edge per direction); [`crate::algo::triangle_count`] does.
pub fn triangle_count_levels<T: ScalarType>(levels: &[&Dcsr<T>]) -> u64 {
    let mut total = 0u64;
    let mut cur = LevelCursors::new(levels);
    let mut row_i: Vec<Index> = Vec::new();
    let mut row_k: Vec<Index> = Vec::new();
    while let Some(_i) = cur.next_row() {
        row_i.clear();
        if let Some((cols, _)) = cur.single_part() {
            row_i.extend_from_slice(cols);
        } else {
            cur.fold_row(crate::ops::binary::First, &mut |j, _| row_i.push(j));
        }
        for &k in &row_i {
            // row(k): raw slice when one level holds it, union otherwise.
            let mut single: Option<&[Index]> = None;
            let mut n_parts = 0usize;
            for d in levels {
                if let Some((cols, _)) = d.row(k) {
                    n_parts += 1;
                    single = Some(cols);
                }
            }
            let cols_k: &[Index] = match n_parts {
                0 => continue,
                1 => single.expect("one part recorded"),
                _ => {
                    row_k.clear();
                    merged_row_cols(levels, k, &mut row_k);
                    &row_k
                }
            };
            total += sorted_intersection_count(&row_i, cols_k);
        }
    }
    total
}

/// `|a ∩ b|` for sorted index slices (two-pointer).
fn sorted_intersection_count(a: &[Index], b: &[Index]) -> u64 {
    let (mut x, mut y, mut n) = (0usize, 0usize, 0u64);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                x += 1;
                y += 1;
            }
        }
    }
    n
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
    let mask = None::<&Mask<'_, T>>;
    with_levels(a, |al| {
        with_levels(b, |bl| {
            mxm_levels(adims, bdims, al, bl, semiring, mask, spa)
        })
    })
}

/// Masked [`mxm_reader`].
pub fn mxm_reader_masked<T, S, M, RA, RB>(
    a: &mut RA,
    b: &mut RB,
    semiring: S,
    mask: &Mask<'_, M>,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
    RA: CursorReader<T> + ?Sized,
    RB: CursorReader<T> + ?Sized,
{
    let (adims, bdims) = (a.read_dims(), b.read_dims());
    with_levels(a, |al| {
        with_levels(b, |bl| {
            mxm_levels(adims, bdims, al, bl, semiring, Some(mask), spa)
        })
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
    with_levels(a, |al| {
        mxv_levels(adims, al, u, semiring, None::<&VectorMask<'_, T>>)
    })
}

/// Masked [`mxv_reader`]: denied rows are skipped before any product.
pub fn mxv_reader_masked<T, S, M, R>(
    a: &mut R,
    u: &SparseVector<T>,
    semiring: S,
    mask: &VectorMask<'_, M>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
    R: CursorReader<T> + ?Sized,
{
    let adims = a.read_dims();
    with_levels(a, |al| mxv_levels(adims, al, u, semiring, Some(mask)))
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
    let mask = None::<&VectorMask<'_, T>>;
    with_levels(a, |al| vxm_levels(u, adims, al, semiring, mask, spa))
}

/// Masked [`vxm_reader`].
pub fn vxm_reader_masked<T, S, M, R>(
    u: &SparseVector<T>,
    a: &mut R,
    semiring: S,
    mask: &VectorMask<'_, M>,
    spa: &mut SpaScratch<T>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
    M: ScalarType,
    R: CursorReader<T> + ?Sized,
{
    let adims = a.read_dims();
    with_levels(a, |al| vxm_levels(u, adims, al, semiring, Some(mask), spa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Min, Plus};
    use crate::ops::mxv::mxv;
    use crate::ops::semiring::{MinPlus, PlusTimes};
    use crate::oracle::{mxm_btree, vxm_btree};

    const NO_MASK: Option<&Mask<'static, i64>> = None;
    const NO_VMASK: Option<&VectorMask<'static, i64>> = None;

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
            let fast = mxm_levels(
                (100, 100),
                (100, 100),
                &ar,
                &br,
                PlusTimes,
                NO_MASK,
                &mut spa,
            )
            .unwrap();
            let slow = mxm_btree(&a, &b, PlusTimes).unwrap();
            assert_eq!(fast.extract_tuples(), slow.extract_tuples(), "k={k}");
            // min-plus exercises the non-distributive fold: split cells must
            // combine under + before ⊗ sees them.
            let fast =
                mxm_levels((100, 100), (100, 100), &ar, &br, MinPlus, NO_MASK, &mut spa).unwrap();
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
        for k in 1..=3 {
            let al = split_levels(&a, k);
            let ar: Vec<&Dcsr<i64>> = al.iter().collect();
            let got = mxv_levels((64, 64), &ar, &u, PlusTimes, NO_VMASK).unwrap();
            let want = mxv(&a, &u, PlusTimes).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
            let mut spa = SpaScratch::new();
            let got = vxm_levels(&u, (64, 64), &ar, PlusTimes, NO_VMASK, &mut spa).unwrap();
            let want = vxm_btree(&u, &a, PlusTimes).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn masked_duals_filter_like_oracle() {
        let a = m(32, 32, &[(1, 2, 3), (1, 5, 1), (2, 5, 7), (9, 2, 4)]);
        let b = m(32, 32, &[(2, 4, 1), (5, 4, 2), (5, 6, 3)]);
        let mm = m(32, 32, &[(1, 4, 1), (9, 9, 1)]);
        let mask = Mask::structural(&mm);
        let mut spa = SpaScratch::new();
        let al = split_levels(&a, 2);
        let bl = split_levels(&b, 2);
        let ar: Vec<&Dcsr<i64>> = al.iter().collect();
        let br: Vec<&Dcsr<i64>> = bl.iter().collect();
        let dims = (32, 32);
        let got = mxm_levels(dims, dims, &ar, &br, PlusTimes, Some(&mask), &mut spa).unwrap();
        let want = mask.filter(&mxm_btree(&a, &b, PlusTimes).unwrap());
        assert_eq!(got.extract_tuples(), want.extract_tuples());

        // Vector masks: keep only allowed outputs.
        let allow = SparseVector::from_tuples(32, &[4], &[1i64], Plus).unwrap();
        let vmask = VectorMask::structural(&allow);
        let u = SparseVector::from_tuples(32, &[1, 2], &[1, 1], Plus).unwrap();
        let got = vxm_levels(&u, dims, &ar, PlusTimes, Some(&vmask), &mut spa).unwrap();
        let want: Vec<(u64, i64)> = vxm_btree(&u, &a, PlusTimes)
            .unwrap()
            .iter()
            .filter(|&(j, _)| vmask.allows(j))
            .collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), want);

        let got = mxv_levels(dims, &ar, &u, PlusTimes, Some(&vmask)).unwrap();
        assert!(got.is_empty()); // no allowed row is non-empty in A·u
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
    fn triangle_kernel_counts_k4() {
        // K4: every pair connected, C(4,3) = 4 triangles => 24 ordered hits.
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..4u64 {
            for j in 0..4u64 {
                if i != j {
                    rows.push(i);
                    cols.push(j);
                    vals.push(1i64);
                }
            }
        }
        let a = Matrix::from_tuples(8, 8, &rows, &cols, &vals, Plus).unwrap();
        for k in 1..=3 {
            let al = split_levels(&a, k);
            let ar: Vec<&Dcsr<i64>> = al.iter().collect();
            assert_eq!(triangle_count_levels(&ar), 24, "k={k}");
        }
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

    #[test]
    fn dimension_mismatches_are_typed_errors() {
        let a = m(4, 5, &[(0, 1, 1)]);
        let al = split_levels(&a, 1);
        let ar: Vec<&Dcsr<i64>> = al.iter().collect();
        let mut spa = SpaScratch::new();
        assert!(mxm_levels((4, 5), (4, 4), &ar, &ar, PlusTimes, NO_MASK, &mut spa).is_err());
        let u = SparseVector::<i64>::new(3);
        assert!(mxv_levels((4, 5), &ar, &u, PlusTimes, NO_VMASK).is_err());
        assert!(vxm_levels(&u, (4, 5), &ar, PlusTimes, NO_VMASK, &mut spa).is_err());
        // Levels that disagree with the claimed dims are rejected.
        assert!(mxm_levels((9, 9), (9, 9), &ar, &ar, PlusTimes, NO_MASK, &mut spa).is_err());
    }
}
