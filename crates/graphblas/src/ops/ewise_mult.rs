//! Element-wise multiplication (set intersection) — `C = A ⊗ B`.
//!
//! The pattern of `C` is the *intersection* of the operand patterns; values
//! are combined with the operator.  In traffic analysis this implements
//! "flows present in both windows" style joins.

use crate::error::{GrbError, GrbResult};
use crate::matrix::Matrix;
use crate::ops::BinaryOp;
use crate::types::ScalarType;

/// `C = A ⊗ B`: intersection of patterns, values combined with `op`.
/// `Err(DimensionMismatch)` when the dimensions differ.
pub fn ewise_mult<T, Op>(a: &Matrix<T>, b: &Matrix<T>, op: Op) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    Op: BinaryOp<T>,
{
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(GrbError::DimensionMismatch {
            detail: format!("{}x{} vs {}x{}", a.nrows(), a.ncols(), b.nrows(), b.ncols()),
        });
    }
    let (da, db) = (a.settled_content(), b.settled_content());

    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();

    // Intersect on the smaller operand's non-empty rows.
    let (small, large, swapped) = if da.nrows_nonempty() <= db.nrows_nonempty() {
        (&da, &db, false)
    } else {
        (&db, &da, true)
    };
    for (slot, &r) in small.row_ids().iter().enumerate() {
        let (sc, sv) = small.row_slot(slot);
        if let Some((lc, lv)) = large.row(r) {
            let (mut i, mut j) = (0usize, 0usize);
            while i < sc.len() && j < lc.len() {
                if sc[i] == lc[j] {
                    rows.push(r);
                    cols.push(sc[i]);
                    let v = if swapped {
                        op.apply(lv[j], sv[i])
                    } else {
                        op.apply(sv[i], lv[j])
                    };
                    vals.push(v);
                    i += 1;
                    j += 1;
                } else if sc[i] < lc[j] {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    Matrix::from_tuples(
        a.nrows(),
        a.ncols(),
        &rows,
        &cols,
        &vals,
        crate::ops::binary::Second,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Minus, Plus, Times};

    fn m(entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(1 << 20, 1 << 20, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn intersection_of_patterns() {
        let a = m(&[(1, 1, 2), (2, 2, 3), (4, 4, 4)]);
        let b = m(&[(2, 2, 10), (4, 4, 10), (9, 9, 10)]);
        let c = ewise_mult(&a, &b, Times).unwrap();
        assert_eq!(c.nvals(), 2);
        assert_eq!(c.get(2, 2), Some(30));
        assert_eq!(c.get(4, 4), Some(40));
        assert_eq!(c.get(1, 1), None);
        assert_eq!(c.get(9, 9), None);
    }

    #[test]
    fn operand_order_respected_for_noncommutative_op() {
        let a = m(&[(1, 1, 10)]);
        let b = m(&[(1, 1, 3)]);
        assert_eq!(ewise_mult(&a, &b, Minus).unwrap().get(1, 1), Some(7));
        assert_eq!(ewise_mult(&b, &a, Minus).unwrap().get(1, 1), Some(-7));
        // Also exercise the swapped path (b has more non-empty rows than a).
        let a2 = m(&[(1, 1, 10)]);
        let b2 = m(&[(1, 1, 3), (2, 2, 1), (3, 3, 1)]);
        assert_eq!(ewise_mult(&a2, &b2, Minus).unwrap().get(1, 1), Some(7));
        assert_eq!(ewise_mult(&b2, &a2, Minus).unwrap().get(1, 1), Some(-7));
    }

    #[test]
    fn empty_intersection() {
        let a = m(&[(1, 1, 2)]);
        let b = m(&[(2, 2, 3)]);
        let c = ewise_mult(&a, &b, Times).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn dimension_mismatch() {
        let a = Matrix::<i64>::new(4, 4);
        let b = Matrix::<i64>::new(5, 4);
        assert!(ewise_mult(&a, &b, Times).is_err());
    }

    #[test]
    fn pending_included() {
        let mut a = Matrix::<i64>::new(10, 10);
        a.accum_element(1, 1, 6).unwrap();
        let b = m_small(&[(1, 1, 7)]);
        let c = ewise_mult(&a, &b, Times).unwrap();
        assert_eq!(c.get(1, 1), Some(42));
    }

    fn m_small(entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(10, 10, &rows, &cols, &vals, Plus).unwrap()
    }
}
