//! Reductions: matrix → vector (per-row / per-column) and matrix → scalar.
//!
//! Row and column reductions of a traffic matrix are the packet counts per
//! source and per destination — the first statistics computed in the
//! streaming-analysis applications the paper motivates.

use crate::matrix::Matrix;
use crate::ops::Monoid;
use crate::types::ScalarType;
use crate::vector::SparseVector;
use std::collections::BTreeMap;

/// Reduce each row to a scalar: `w(i) = ⊕_j A(i, j)`.
pub fn reduce_rows<T, M>(a: &Matrix<T>, monoid: M) -> SparseVector<T>
where
    T: ScalarType,
    M: Monoid<T>,
{
    let da = a.settled_content();
    let mut out = SparseVector::new(a.nrows());
    for &i in da.row_ids() {
        let (_, vals) = da.row(i).expect("row non-empty");
        let mut acc = monoid.identity();
        for &v in vals {
            acc = monoid.apply(acc, v);
        }
        out.set(i, acc).expect("row id within bounds");
    }
    out
}

/// Reduce each column to a scalar: `w(j) = ⊕_i A(i, j)`.
pub fn reduce_cols<T, M>(a: &Matrix<T>, monoid: M) -> SparseVector<T>
where
    T: ScalarType,
    M: Monoid<T>,
{
    let da = a.settled_content();
    let mut acc: BTreeMap<u64, T> = BTreeMap::new();
    for (_, c, v) in da.iter() {
        acc.entry(c)
            .and_modify(|x| *x = monoid.apply(*x, v))
            .or_insert_with(|| monoid.apply(monoid.identity(), v));
    }
    let mut out = SparseVector::new(a.ncols());
    for (j, v) in acc {
        out.set(j, v).expect("col id within bounds");
    }
    out
}

/// Reduce the whole matrix to a scalar: `s = ⊕_{i,j} A(i, j)`.
///
/// Returns the monoid identity for an empty matrix.
pub fn reduce_scalar<T, M>(a: &Matrix<T>, monoid: M) -> T
where
    T: ScalarType,
    M: Monoid<T>,
{
    let da = a.settled_content();
    let mut acc = monoid.identity();
    for (_, _, v) in da.iter() {
        acc = monoid.apply(acc, v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::monoid::{MaxMonoid, MinMonoid, PlusMonoid};

    fn m() -> Matrix<i64> {
        Matrix::from_tuples(
            1 << 32,
            1 << 32,
            &[1, 1, 5, 1_000_000_000],
            &[2, 7, 2, 2],
            &[10, 20, 5, 1],
            Plus,
        )
        .unwrap()
    }

    #[test]
    fn row_reduction() {
        let w = reduce_rows(&m(), PlusMonoid);
        assert_eq!(w.get(1), Some(30));
        assert_eq!(w.get(5), Some(5));
        assert_eq!(w.get(1_000_000_000), Some(1));
        assert_eq!(w.get(2), None);
        assert_eq!(w.nvals(), 3);
    }

    #[test]
    fn col_reduction() {
        let w = reduce_cols(&m(), PlusMonoid);
        assert_eq!(w.get(2), Some(16));
        assert_eq!(w.get(7), Some(20));
        assert_eq!(w.nvals(), 2);
    }

    #[test]
    fn scalar_reduction() {
        assert_eq!(reduce_scalar(&m(), PlusMonoid), 36);
        assert_eq!(reduce_scalar(&m(), MaxMonoid), 20);
        assert_eq!(reduce_scalar(&m(), MinMonoid), 1);
    }

    #[test]
    fn empty_matrix_reduces_to_identity() {
        let e = Matrix::<i64>::new(4, 4);
        assert_eq!(reduce_scalar(&e, PlusMonoid), 0);
        assert_eq!(reduce_scalar(&e, MinMonoid), i64::MAX);
        assert!(reduce_rows(&e, PlusMonoid).is_empty());
        assert!(reduce_cols(&e, PlusMonoid).is_empty());
    }

    #[test]
    fn pending_tuples_included() {
        let mut a = Matrix::<i64>::new(10, 10);
        a.accum_element(1, 1, 5).unwrap();
        a.accum_element(1, 2, 7).unwrap();
        assert_eq!(reduce_scalar(&a, PlusMonoid), 12);
        assert_eq!(reduce_rows(&a, PlusMonoid).get(1), Some(12));
        assert_eq!(reduce_cols(&a, PlusMonoid).get(2), Some(7));
    }

    #[test]
    fn row_and_col_sums_agree_with_total() {
        let a = m();
        let total = reduce_scalar(&a, PlusMonoid);
        let row_total = reduce_rows(&a, PlusMonoid).reduce(PlusMonoid);
        let col_total = reduce_cols(&a, PlusMonoid).reduce(PlusMonoid);
        assert_eq!(total, row_total);
        assert_eq!(total, col_total);
    }
}
