//! Matrix–vector and vector–matrix products over a semiring.
//!
//! `mxv` folds each stored row against the vector with a scalar
//! accumulator (no per-row scatter is ever needed).  `vxm` accumulates one
//! logical output row — the whole product — through the reusable
//! [`SpaScratch`] (see [`crate::ops::spa`]); the previous `BTreeMap` kernel
//! is retained as [`vxm_btree`] and the equivalence proptests pin the SPA
//! path byte-identical to it.

use crate::error::{GrbError, GrbResult};
use crate::matrix::Matrix;
use crate::ops::spa::SpaScratch;
use crate::ops::{BinaryOp, Semiring};
use crate::types::ScalarType;
use crate::vector::SparseVector;
use std::collections::BTreeMap;

/// `w = A ⊕.⊗ u` (matrix times column vector).
///
/// # Panics
/// Panics when `A.ncols() != u.size()`; see [`try_mxv`].
pub fn mxv<T, S>(a: &Matrix<T>, u: &SparseVector<T>, semiring: S) -> SparseVector<T>
where
    T: ScalarType,
    S: Semiring<T>,
{
    try_mxv(a, u, semiring).expect("mxv dimension mismatch")
}

/// Fallible version of [`mxv`].
pub fn try_mxv<T, S>(a: &Matrix<T>, u: &SparseVector<T>, semiring: S) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    if a.ncols() != u.size() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("A is {}x{}, u has size {}", a.nrows(), a.ncols(), u.size()),
        });
    }
    let add = semiring.add();
    let mul = semiring.mul();
    let settled;
    let da = if a.npending() == 0 {
        a.dcsr()
    } else {
        settled = a.to_settled();
        settled.dcsr()
    };
    let mut out = SparseVector::new(a.nrows());
    for &i in da.row_ids() {
        let (cols, vals) = da.row(i).expect("row non-empty");
        let mut acc: Option<T> = None;
        for (k, &j) in cols.iter().enumerate() {
            if let Some(uj) = u.get(j) {
                let p = mul.apply(vals[k], uj);
                acc = Some(match acc {
                    Some(v) => add.apply(v, p),
                    None => p,
                });
            }
        }
        if let Some(v) = acc {
            out.set(i, v)?;
        }
    }
    Ok(out)
}

/// `w = u ⊕.⊗ A` (row vector times matrix).
///
/// # Panics
/// Panics when `u.size() != A.nrows()`; see [`try_vxm`].
pub fn vxm<T, S>(u: &SparseVector<T>, a: &Matrix<T>, semiring: S) -> SparseVector<T>
where
    T: ScalarType,
    S: Semiring<T>,
{
    try_vxm(u, a, semiring).expect("vxm dimension mismatch")
}

/// Fallible version of [`vxm`]; allocates a fresh accumulator scratch.
pub fn try_vxm<T, S>(u: &SparseVector<T>, a: &Matrix<T>, semiring: S) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    let mut spa = SpaScratch::new();
    try_vxm_with(u, a, semiring, &mut spa)
}

fn check_vxm_dims<T: ScalarType>(u: &SparseVector<T>, a: &Matrix<T>) -> GrbResult<()> {
    if u.size() != a.nrows() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("u has size {}, A is {}x{}", u.size(), a.nrows(), a.ncols()),
        });
    }
    Ok(())
}

/// [`try_vxm`] with a caller-held [`SpaScratch`], so iterated products
/// (BFS waves, pagerank sweeps) reuse one allocation across calls.
pub fn try_vxm_with<T, S>(
    u: &SparseVector<T>,
    a: &Matrix<T>,
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    check_vxm_dims(u, a)?;
    let add = semiring.add();
    let mul = semiring.mul();
    let settled;
    let da = if a.npending() == 0 {
        a.dcsr()
    } else {
        settled = a.to_settled();
        settled.dcsr()
    };
    // Span pass: the whole product is one accumulator row, so gather the
    // matched rows once and size the strategy from their column bounds.
    let mut hits: Vec<(T, &[u64], &[T])> = Vec::new();
    let (mut lo, mut hi, mut flops) = (u64::MAX, 0u64, 0usize);
    for (i, ui) in u.iter() {
        if let Some((cols, vals)) = da.row(i) {
            flops += cols.len();
            lo = lo.min(cols[0]);
            hi = hi.max(*cols.last().expect("stored row is non-empty"));
            hits.push((ui, cols, vals));
        }
    }
    let mut out = SparseVector::new(a.ncols());
    if flops == 0 {
        return Ok(out);
    }
    spa.begin(spa.choose(lo, hi, flops), lo, hi);
    for &(ui, cols, vals) in &hits {
        for (k, &j) in cols.iter().enumerate() {
            spa.push(j, mul.apply(ui, vals[k]), add);
        }
    }
    let mut err = None;
    spa.drain(add, &mut |j, v| {
        // Ascending columns append at the tail: O(1) per entry.
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

/// The retained `BTreeMap`-accumulator `vxm` — the verification fallback
/// the equivalence proptests compare against.
///
/// # Panics
/// Panics when `u.size() != A.nrows()`; see [`try_vxm_btree`].
pub fn vxm_btree<T, S>(u: &SparseVector<T>, a: &Matrix<T>, semiring: S) -> SparseVector<T>
where
    T: ScalarType,
    S: Semiring<T>,
{
    try_vxm_btree(u, a, semiring).expect("vxm dimension mismatch")
}

/// Fallible version of [`vxm_btree`].
pub fn try_vxm_btree<T, S>(
    u: &SparseVector<T>,
    a: &Matrix<T>,
    semiring: S,
) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    check_vxm_dims(u, a)?;
    let add = semiring.add();
    let mul = semiring.mul();
    let settled;
    let da = if a.npending() == 0 {
        a.dcsr()
    } else {
        settled = a.to_settled();
        settled.dcsr()
    };
    let mut acc: BTreeMap<u64, T> = BTreeMap::new();
    for (i, ui) in u.iter() {
        if let Some((cols, vals)) = da.row(i) {
            for (k, &j) in cols.iter().enumerate() {
                let p = mul.apply(ui, vals[k]);
                acc.entry(j)
                    .and_modify(|v| *v = add.apply(*v, p))
                    .or_insert(p);
            }
        }
    }
    let mut out = SparseVector::new(a.ncols());
    for (j, v) in acc {
        out.set(j, v)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{MinPlus, PlusTimes};

    fn m(nrows: u64, ncols: u64, entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn mxv_small() {
        // A = [1 2; 3 4], u = [1, 1] => w = [3, 7]
        let a = m(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
        let u = SparseVector::from_tuples(2, &[0, 1], &[1, 1], Plus).unwrap();
        let w = mxv(&a, &u, PlusTimes);
        assert_eq!(w.get(0), Some(3));
        assert_eq!(w.get(1), Some(7));
    }

    #[test]
    fn mxv_sparse_vector_skips_missing() {
        let a = m(4, 4, &[(0, 0, 1), (0, 3, 5), (2, 3, 7)]);
        let u = SparseVector::from_tuples(4, &[3], &[2], Plus).unwrap();
        let w = mxv(&a, &u, PlusTimes);
        assert_eq!(w.get(0), Some(10));
        assert_eq!(w.get(2), Some(14));
        assert_eq!(w.get(1), None);
        assert_eq!(w.nvals(), 2);
    }

    #[test]
    fn vxm_small() {
        // u^T A with A = [1 2; 3 4], u = [1, 1] => [4, 6]
        let a = m(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
        let u = SparseVector::from_tuples(2, &[0, 1], &[1, 1], Plus).unwrap();
        let w = vxm(&u, &a, PlusTimes);
        assert_eq!(w.get(0), Some(4));
        assert_eq!(w.get(1), Some(6));
    }

    #[test]
    fn dimension_mismatches() {
        let a = Matrix::<i64>::new(3, 4);
        let u = SparseVector::<i64>::new(3);
        assert!(try_mxv(&a, &u, PlusTimes).is_err());
        let u4 = SparseVector::<i64>::new(4);
        assert!(try_vxm(&u4, &a, PlusTimes).is_err());
        assert!(try_vxm_btree(&u4, &a, PlusTimes).is_err());
    }

    #[test]
    fn hypersparse_mxv() {
        let big = 1u64 << 48;
        let a = m(big, big, &[(1_000_000, 2_000_000, 3)]);
        let mut u = SparseVector::<i64>::new(big);
        u.set(2_000_000, 10).unwrap();
        let w = mxv(&a, &u, PlusTimes);
        assert_eq!(w.get(1_000_000), Some(30));
        assert_eq!(w.nvals(), 1);
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::<i64>::new(4, 4);
        let u = SparseVector::<i64>::new(4);
        assert!(mxv(&a, &u, PlusTimes).is_empty());
        assert!(vxm(&u, &a, PlusTimes).is_empty());
        assert!(vxm_btree(&u, &a, PlusTimes).is_empty());
    }

    #[test]
    fn spa_vxm_matches_btree_on_wide_spans() {
        let big = 1u64 << 44;
        let a = m(
            big,
            big,
            &[
                (3, 7, 2),
                (3, big - 1, 5),
                (9, 7, -1),
                (9, 8, 4),
                (1000, 8, 11),
            ],
        );
        let u = SparseVector::from_tuples(big, &[3, 9, 1000], &[1, 2, 3], Plus).unwrap();
        for_semirings(&u, &a);
        fn for_semirings(u: &SparseVector<i64>, a: &Matrix<i64>) {
            let fast = vxm(u, a, PlusTimes);
            let slow = vxm_btree(u, a, PlusTimes);
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow.iter().collect::<Vec<_>>()
            );
            let fast = vxm(u, a, MinPlus);
            let slow = vxm_btree(u, a, MinPlus);
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow.iter().collect::<Vec<_>>()
            );
        }
    }
}
