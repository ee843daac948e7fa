//! Sub-matrix extraction (`GrB_extract`).

use crate::error::{GrbError, GrbResult};
use crate::index::IndexRange;
use crate::matrix::Matrix;
use crate::ops::binary::Second;
use crate::types::ScalarType;

/// Extract the sub-matrix `A[rows, cols]`, re-indexed to the origin.
///
/// `C(i - rows.start, j - cols.start) = A(i, j)` for every stored entry
/// falling inside both ranges.  Empty ranges produce an error because a
/// zero-dimension matrix cannot be represented.
pub fn extract<T: ScalarType>(
    a: &Matrix<T>,
    rows: IndexRange,
    cols: IndexRange,
) -> GrbResult<Matrix<T>> {
    if rows.is_empty() || cols.is_empty() {
        return Err(GrbError::InvalidValue(
            "extract ranges must be non-empty".into(),
        ));
    }
    if rows.end > a.nrows() || cols.end > a.ncols() {
        return Err(GrbError::DimensionMismatch {
            detail: format!(
                "range [{}, {}) x [{}, {}) exceeds matrix {}x{}",
                rows.start,
                rows.end,
                cols.start,
                cols.end,
                a.nrows(),
                a.ncols()
            ),
        });
    }
    let (r, c, v) = a.extract_tuples();
    let mut out_r = Vec::new();
    let mut out_c = Vec::new();
    let mut out_v = Vec::new();
    for i in 0..r.len() {
        if rows.contains(r[i]) && cols.contains(c[i]) {
            out_r.push(r[i] - rows.start);
            out_c.push(c[i] - cols.start);
            out_v.push(v[i]);
        }
    }
    Matrix::from_tuples(rows.len(), cols.len(), &out_r, &out_c, &out_v, Second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;

    fn m() -> Matrix<u64> {
        Matrix::from_tuples(
            100,
            100,
            &[10, 10, 20, 50, 99],
            &[10, 20, 20, 60, 99],
            &[1, 2, 3, 4, 5],
            Plus,
        )
        .unwrap()
    }

    #[test]
    fn extract_window() {
        let sub = extract(
            &m(),
            IndexRange::new(10, 30).unwrap(),
            IndexRange::new(10, 30).unwrap(),
        )
        .unwrap();
        assert_eq!(sub.nrows(), 20);
        assert_eq!(sub.ncols(), 20);
        assert_eq!(sub.nvals(), 3);
        assert_eq!(sub.get(0, 0), Some(1)); // was (10,10)
        assert_eq!(sub.get(0, 10), Some(2)); // was (10,20)
        assert_eq!(sub.get(10, 10), Some(3)); // was (20,20)
    }

    #[test]
    fn extract_out_of_bounds() {
        assert!(extract(&m(), IndexRange::new(0, 101).unwrap(), IndexRange::all(100)).is_err());
        assert!(extract(&m(), IndexRange::new(5, 5).unwrap(), IndexRange::all(100)).is_err());
    }

    #[test]
    fn extract_whole_matrix_is_identity() {
        let a = m();
        let whole = extract(&a, IndexRange::all(100), IndexRange::all(100)).unwrap();
        assert_eq!(whole.extract_tuples(), a.extract_tuples());
    }

    #[test]
    fn extraction_with_pending() {
        let mut a = Matrix::<u64>::new(50, 50);
        a.accum_element(1, 2, 9).unwrap();
        let sub = extract(
            &a,
            IndexRange::new(0, 10).unwrap(),
            IndexRange::new(0, 10).unwrap(),
        )
        .unwrap();
        assert_eq!(sub.get(1, 2), Some(9));
    }
}
