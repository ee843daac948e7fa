//! Matrix–vector and vector–matrix products over a semiring.
//!
//! Both are the one-level case of the level kernels in
//! [`crate::ops::reader_mx`]: `mxv` folds each stored row against the
//! vector with a scalar accumulator (no per-row scatter is ever needed);
//! `vxm` accumulates one logical output row — the whole product — through
//! the [`SpaScratch`] (see [`crate::ops::spa`]).  A flat operand with tuples
//! pending is settled into a copy first.  `vxm`'s reference is `vxm_btree`
//! of the `oracle` module, pinned byte-identical by the equivalence
//! proptests.

use crate::error::GrbResult;
use crate::mask::VectorMask;
use crate::matrix::Matrix;
use crate::ops::reader_mx::{mxv_levels, vxm_levels};
use crate::ops::spa::SpaScratch;
use crate::ops::Semiring;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// `w = A ⊕.⊗ u` (matrix times column vector); `Err(DimensionMismatch)`
/// when `A.ncols() != u.size()`.
pub fn mxv<T, S>(a: &Matrix<T>, u: &SparseVector<T>, semiring: S) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    let dims = (a.nrows(), a.ncols());
    let mask = None::<&VectorMask<'_, T>>;
    mxv_levels(dims, &[&a.settled_content()], u, semiring, mask)
}

/// `w = u ⊕.⊗ A` (row vector times matrix); `Err(DimensionMismatch)` when
/// `u.size() != A.nrows()`.  Iterated products (BFS waves, pagerank
/// sweeps) that want to keep one accumulator across calls use
/// [`vxm_reader`](crate::ops::reader_mx::vxm_reader).
pub fn vxm<T, S>(u: &SparseVector<T>, a: &Matrix<T>, semiring: S) -> GrbResult<SparseVector<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    let dims = (a.nrows(), a.ncols());
    let mask = None::<&VectorMask<'_, T>>;
    let spa = &mut SpaScratch::new();
    vxm_levels(u, dims, &[&a.settled_content()], semiring, mask, spa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{MinPlus, PlusTimes};
    use crate::oracle::vxm_btree;

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
        let w = mxv(&a, &u, PlusTimes).unwrap();
        assert_eq!(w.get(0), Some(3));
        assert_eq!(w.get(1), Some(7));
    }

    #[test]
    fn mxv_sparse_vector_skips_missing() {
        let a = m(4, 4, &[(0, 0, 1), (0, 3, 5), (2, 3, 7)]);
        let u = SparseVector::from_tuples(4, &[3], &[2], Plus).unwrap();
        let w = mxv(&a, &u, PlusTimes).unwrap();
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
        let w = vxm(&u, &a, PlusTimes).unwrap();
        assert_eq!(w.get(0), Some(4));
        assert_eq!(w.get(1), Some(6));
    }

    #[test]
    fn dimension_mismatches() {
        let a = Matrix::<i64>::new(3, 4);
        let u = SparseVector::<i64>::new(3);
        assert!(mxv(&a, &u, PlusTimes).is_err());
        let u4 = SparseVector::<i64>::new(4);
        assert!(vxm(&u4, &a, PlusTimes).is_err());
        assert!(vxm_btree(&u4, &a, PlusTimes).is_err());
    }

    #[test]
    fn hypersparse_mxv() {
        let big = 1u64 << 48;
        let a = m(big, big, &[(1_000_000, 2_000_000, 3)]);
        let mut u = SparseVector::<i64>::new(big);
        u.set(2_000_000, 10).unwrap();
        let w = mxv(&a, &u, PlusTimes).unwrap();
        assert_eq!(w.get(1_000_000), Some(30));
        assert_eq!(w.nvals(), 1);
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::<i64>::new(4, 4);
        let u = SparseVector::<i64>::new(4);
        assert!(mxv(&a, &u, PlusTimes).unwrap().is_empty());
        assert!(vxm(&u, &a, PlusTimes).unwrap().is_empty());
        assert!(vxm_btree(&u, &a, PlusTimes).unwrap().is_empty());
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
            let fast = vxm(u, a, PlusTimes).unwrap();
            let slow = vxm_btree(u, a, PlusTimes).unwrap();
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow.iter().collect::<Vec<_>>()
            );
            let fast = vxm(u, a, MinPlus).unwrap();
            let slow = vxm_btree(u, a, MinPlus).unwrap();
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow.iter().collect::<Vec<_>>()
            );
        }
    }
}
