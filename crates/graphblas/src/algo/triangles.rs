//! Triangle counting via the Burkhardt / Cohen masked-multiply formulation
//! (`ntri = sum(sum((A*A) .* A)) / 6` for a symmetric adjacency pattern).

use crate::ops::reader_mx::triangle_count_levels;
use crate::reader::CursorReader;
use crate::types::ScalarType;

/// Count triangles in an undirected graph whose *symmetric* adjacency
/// pattern is stored in `a` (both `(i,j)` and `(j,i)` present, no
/// self-loops).  Weights are ignored.
///
/// Runs over any [`CursorReader`]: the masked multiply is driven directly
/// off the reader's DCSR level slices ([`triangle_count_levels`]), so the
/// `A ⊕.⊗ A` intermediate is never formed and a hierarchical or snapshot
/// reader is consumed without materialising `Σ levels` or round-tripping
/// the pattern through tuples.
pub fn triangle_count<V, R>(a: &mut R) -> u64
where
    V: ScalarType,
    R: CursorReader<V> + ?Sized,
{
    let mut hits = 0u64;
    a.with_level_dcsrs(&mut |levels| {
        hits = triangle_count_levels(levels);
    });
    hits / 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;
    use crate::oracle::triangle_count_tuples;

    fn symmetric(edges: &[(u64, u64)], n: u64) -> Matrix<u64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for &(a, b) in edges {
            rows.push(a);
            cols.push(b);
            rows.push(b);
            cols.push(a);
        }
        let vals = vec![1u64; rows.len()];
        Matrix::from_tuples(n, n, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn single_triangle() {
        let mut g = symmetric(&[(0, 1), (1, 2), (0, 2)], 4);
        assert_eq!(triangle_count(&mut g), 1);
    }

    #[test]
    fn square_has_no_triangles() {
        let mut g = symmetric(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(triangle_count(&mut g), 0);
    }

    #[test]
    fn k4_has_four_triangles() {
        let mut g = symmetric(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(triangle_count(&mut g), 4);
    }

    #[test]
    fn weights_are_ignored() {
        let mut g = Matrix::from_tuples(
            4,
            4,
            &[0, 1, 1, 2, 0, 2],
            &[1, 0, 2, 1, 2, 0],
            &[9u64, 9, 9, 9, 9, 9],
            Plus,
        )
        .unwrap();
        assert_eq!(triangle_count(&mut g), 1);
    }

    #[test]
    fn empty_graph() {
        assert_eq!(triangle_count(&mut Matrix::<u64>::new(8, 8)), 0);
    }

    #[test]
    fn hypersparse_triangle() {
        let base = 1u64 << 33;
        let mut g = symmetric(
            &[(base, base + 1), (base + 1, base + 2), (base, base + 2)],
            1 << 40,
        );
        assert_eq!(triangle_count(&mut g), 1);
    }

    #[test]
    fn cursor_and_tuples_paths_agree() {
        let mut g = symmetric(
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 7),
                (7, 9),
            ],
            16,
        );
        assert_eq!(
            triangle_count(&mut g),
            triangle_count_tuples(&mut g).unwrap()
        );
    }
}
