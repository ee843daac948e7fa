//! Matrix transpose.

use crate::matrix::Matrix;
use crate::types::ScalarType;

/// `C = Aᵀ`.
///
/// Settles `a`'s pending tuples into a copy if it has any, then runs the
/// column-radix transpose kernel on the settled structure: one scatter on
/// the top varying column bits, every bucket finished in cache, no
/// comparison sort.  For a traffic matrix this converts "traffic by source"
/// into "traffic by destination".
pub fn transpose<T: ScalarType>(a: &Matrix<T>) -> Matrix<T> {
    Matrix::from_dcsr(a.settled_content().transposed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::ewise_add::ewise_add;

    fn m(nrows: u64, ncols: u64, entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn transpose_swaps_coordinates_and_dims() {
        let a = m(4, 8, &[(0, 7, 1), (3, 2, 5)]);
        let t = transpose(&a);
        assert_eq!(t.nrows(), 8);
        assert_eq!(t.ncols(), 4);
        assert_eq!(t.get(7, 0), Some(1));
        assert_eq!(t.get(2, 3), Some(5));
        assert_eq!(t.get(0, 7), None);
        assert_eq!(t.nvals(), 2);
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = m(100, 100, &[(1, 2, 3), (50, 60, -7), (99, 0, 4)]);
        let tt = transpose(&transpose(&a));
        assert_eq!(tt.extract_tuples(), a.extract_tuples());
        assert_eq!(tt.nrows(), a.nrows());
    }

    #[test]
    fn transpose_of_empty() {
        let a = Matrix::<i64>::new(5, 9);
        let t = transpose(&a);
        assert!(t.is_empty());
        assert_eq!(t.nrows(), 9);
        assert_eq!(t.ncols(), 5);
    }

    #[test]
    fn symmetrize_with_transpose() {
        let a = m(10, 10, &[(1, 2, 3)]);
        let sym = ewise_add(&a, &transpose(&a), Plus).unwrap();
        assert_eq!(sym.get(1, 2), Some(3));
        assert_eq!(sym.get(2, 1), Some(3));
    }

    #[test]
    fn pending_tuples_transposed() {
        let mut a = Matrix::<i64>::new(10, 20);
        a.accum_element(3, 15, 9).unwrap();
        let t = transpose(&a);
        assert_eq!(t.get(15, 3), Some(9));
    }
}
