//! Element-wise addition (set union) — `C = A ⊕ B`.
//!
//! This is the workhorse of the hierarchical hypersparse matrix: the cascade
//! step `A_{i+1} = A_{i+1} ⊕ A_i` and the final query `A = Σ_i A_i` are both
//! `ewise_add` under the `Plus` monoid.  The kernel is a row-wise two-pointer
//! merge with cost `O(nnz(A) + nnz(B))`.

use crate::error::GrbResult;
use crate::matrix::Matrix;
use crate::ops::BinaryOp;
use crate::types::ScalarType;

/// `C = A ⊕ B`: the pattern of `C` is the union of the patterns of `A` and
/// `B`; where both store an entry the values are combined with `op`.
/// `Err(DimensionMismatch)` when the dimensions differ.
///
/// Pending tuples in either operand are folded in first (on copies; the
/// operands are not mutated).
pub fn ewise_add<T, Op>(a: &Matrix<T>, b: &Matrix<T>, op: Op) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    Op: BinaryOp<T>,
{
    let merged = a.settled_content().merge(&b.settled_content(), op)?;
    Ok(Matrix::from_dcsr(merged))
}

/// In-place element-wise add: `acc = acc ⊕ b` without rebuilding `acc` from
/// scratch.  Delegates to [`Matrix::accum_matrix_op`], which merges through
/// `acc`'s reusable scratch buffers — the allocation-free form of the
/// cascade step and of the query-side sum `A = Σ_i A_i`.
pub fn ewise_add_into<T, Op>(acc: &mut Matrix<T>, b: &Matrix<T>, op: Op) -> GrbResult<()>
where
    T: ScalarType,
    Op: BinaryOp<T>,
{
    acc.accum_matrix_op(b, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Max, Plus};

    fn m(entries: &[(u64, u64, u64)]) -> Matrix<u64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(1 << 32, 1 << 32, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn union_of_patterns() {
        let a = m(&[(1, 1, 10), (2, 2, 20)]);
        let b = m(&[(2, 2, 5), (3, 3, 30)]);
        let c = ewise_add(&a, &b, Plus).unwrap();
        assert_eq!(c.nvals(), 3);
        assert_eq!(c.get(1, 1), Some(10));
        assert_eq!(c.get(2, 2), Some(25));
        assert_eq!(c.get(3, 3), Some(30));
    }

    #[test]
    fn other_operators() {
        let a = m(&[(1, 1, 10)]);
        let b = m(&[(1, 1, 3)]);
        assert_eq!(ewise_add(&a, &b, Max).unwrap().get(1, 1), Some(10));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::<u64>::new(4, 4);
        let b = Matrix::<u64>::new(4, 5);
        assert!(ewise_add(&a, &b, Plus).is_err());
    }

    #[test]
    fn pending_tuples_are_included() {
        let mut a = Matrix::<u64>::new(1 << 32, 1 << 32);
        a.accum_element(1, 1, 7).unwrap(); // pending only
        let b = m(&[(1, 1, 3)]);
        let c = ewise_add(&a, &b, Plus).unwrap();
        assert_eq!(c.get(1, 1), Some(10));
        // a unchanged
        assert_eq!(a.npending(), 1);
    }

    #[test]
    fn add_with_empty_is_identity() {
        let a = m(&[(5, 6, 1), (7, 8, 2)]);
        let empty = Matrix::<u64>::new(a.nrows(), a.ncols());
        let c = ewise_add(&a, &empty, Plus).unwrap();
        assert_eq!(c.nvals(), a.nvals());
        assert_eq!(c.get(5, 6), Some(1));
        assert_eq!(c.get(7, 8), Some(2));
    }

    #[test]
    fn commutative_under_plus() {
        let a = m(&[(1, 2, 3), (4, 5, 6)]);
        let b = m(&[(1, 2, 10), (9, 9, 1)]);
        let ab = ewise_add(&a, &b, Plus).unwrap();
        let ba = ewise_add(&b, &a, Plus).unwrap();
        assert_eq!(ab.extract_tuples(), ba.extract_tuples());
    }

    #[test]
    fn ewise_add_into_matches_functional_form() {
        let a = m(&[(1, 1, 10), (2, 2, 20)]);
        let b = m(&[(2, 2, 5), (3, 3, 30)]);
        let expect = ewise_add(&a, &b, Plus).unwrap();
        let mut acc = a.clone();
        ewise_add_into(&mut acc, &b, Plus).unwrap();
        assert_eq!(acc.extract_tuples(), expect.extract_tuples());
        let wrong = Matrix::<u64>::new(4, 4);
        assert!(ewise_add_into(&mut acc, &wrong, Plus).is_err());
    }

    #[test]
    fn ewise_add_into_matches_functional_form_for_non_plus_ops() {
        // Pending duplicates must settle under `+` in both forms; the
        // operand-combining operator applies only across the two matrices.
        let mut a = Matrix::<u64>::new(100, 100);
        a.accum_element(1, 1, 5).unwrap();
        a.accum_element(1, 1, 7).unwrap(); // pending duplicates
        let b = Matrix::from_tuples(100, 100, &[1], &[1], &[3u64], Plus).unwrap();
        let expect = ewise_add(&a, &b, Max).unwrap();
        let mut acc = a.clone();
        ewise_add_into(&mut acc, &b, Max).unwrap();
        assert_eq!(acc.extract_tuples(), expect.extract_tuples());
        assert_eq!(acc.get(1, 1), Some(12)); // max(5 + 7, 3)
    }
}
