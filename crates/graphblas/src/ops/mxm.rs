//! Matrix–matrix multiplication over a semiring — `C = A ⊕.⊗ B`.
//!
//! The kernel is a hypersparse row-wise Gustavson: for each non-empty row
//! `i` of `A`, the rows `B(k, :)` for every stored `A(i, k)` are scaled by
//! `A(i,k)` under `⊗` and merged under `⊕` into row `C(i, :)`.  Cost is
//! proportional to the number of multiply–add operations (flops) rather
//! than to any matrix dimension — essential when dimensions are `2^64`.
//!
//! That loop exists once, over level slices
//! ([`mxm_levels`](crate::ops::reader_mx)): a flat matrix is the one-level
//! case, so [`mxm`] settles a copy of an operand that has tuples pending
//! and hands each over as a single slice.  Its reference is `mxm_btree`
//! of the `oracle` module, pinned byte-identical by the
//! `tests/algo_equivalence.rs` proptests.

use crate::error::GrbResult;
use crate::mask::Mask;
use crate::matrix::Matrix;
use crate::ops::reader_mx::mxm_levels;
use crate::ops::spa::SpaScratch;
use crate::ops::Semiring;
use crate::types::ScalarType;

/// `C = A ⊕.⊗ B` over the given semiring; `Err(DimensionMismatch)` when
/// the inner dimensions disagree.  Iterated products that want to keep one
/// accumulator across calls use
/// [`mxm_reader`](crate::ops::reader_mx::mxm_reader) (a `Matrix` is a
/// reader).
pub fn mxm<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    mxm_levels(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        &[&a.settled_content()],
        &[&b.settled_content()],
        semiring,
        None::<&Mask<'_, T>>,
        &mut SpaScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{LorLand, MinPlus, PlusTimes};
    use crate::oracle::mxm_btree;

    fn m(nrows: u64, ncols: u64, entries: &[(u64, u64, i64)]) -> Matrix<i64> {
        let rows: Vec<_> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<_> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<_> = entries.iter().map(|e| e.2).collect();
        Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn small_dense_product() {
        // A = [1 2; 3 4], B = [5 6; 7 8] => C = [19 22; 43 50]
        let a = m(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
        let b = m(2, 2, &[(0, 0, 5), (0, 1, 6), (1, 0, 7), (1, 1, 8)]);
        let c = mxm(&a, &b, PlusTimes).unwrap();
        assert_eq!(c.get(0, 0), Some(19));
        assert_eq!(c.get(0, 1), Some(22));
        assert_eq!(c.get(1, 0), Some(43));
        assert_eq!(c.get(1, 1), Some(50));
    }

    #[test]
    fn hypersparse_product() {
        let big = 1u64 << 40;
        let a = m(big, big, &[(7, 1_000_000_000, 2)]);
        let b = m(big, big, &[(1_000_000_000, 99, 3)]);
        let c = mxm(&a, &b, PlusTimes).unwrap();
        assert_eq!(c.nvals(), 1);
        assert_eq!(c.get(7, 99), Some(6));
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = m(8, 8, &[(1, 1, 1)]);
        let empty = Matrix::<i64>::new(8, 8);
        assert!(mxm(&a, &empty, PlusTimes).unwrap().is_empty());
        assert!(mxm(&empty, &a, PlusTimes).unwrap().is_empty());
    }

    #[test]
    fn dimension_mismatch() {
        let a = Matrix::<i64>::new(4, 5);
        let b = Matrix::<i64>::new(4, 4);
        assert!(mxm(&a, &b, PlusTimes).is_err());
        assert!(mxm_btree(&a, &b, PlusTimes).is_err());
    }

    #[test]
    fn min_plus_shortest_paths_one_hop() {
        // Path weights: 0->1 (4), 1->2 (3), 0->2 (10).  One relaxation of
        // (min,+) over the adjacency gives 0->2 via 1 = 7.
        let adj = m(3, 3, &[(0, 1, 4), (1, 2, 3), (0, 2, 10)]);
        let two_hop = mxm(&adj, &adj, MinPlus).unwrap();
        assert_eq!(two_hop.get(0, 2), Some(7));
    }

    #[test]
    fn boolean_reachability() {
        let a = m(4, 4, &[(0, 1, 1), (1, 2, 1)]);
        let c = mxm(&a, &a, LorLand).unwrap();
        assert_eq!(c.get(0, 2), Some(1));
        assert_eq!(c.get(0, 1), None);
    }

    #[test]
    fn pending_tuples_participate() {
        let mut a = Matrix::<i64>::new(3, 3);
        a.accum_element(0, 1, 2).unwrap();
        let b = m(3, 3, &[(1, 2, 5)]);
        let c = mxm(&a, &b, PlusTimes).unwrap();
        assert_eq!(c.get(0, 2), Some(10));
    }

    #[test]
    fn square_of_triangle_counts_paths() {
        // Undirected triangle 0-1-2 stored symmetrically.
        let tri = m(
            3,
            3,
            &[
                (0, 1, 1),
                (1, 0, 1),
                (1, 2, 1),
                (2, 1, 1),
                (0, 2, 1),
                (2, 0, 1),
            ],
        );
        let sq = mxm(&tri, &tri, PlusTimes).unwrap();
        // diagonal = degree
        assert_eq!(sq.get(0, 0), Some(2));
        assert_eq!(sq.get(1, 1), Some(2));
        assert_eq!(sq.get(2, 2), Some(2));
        // off-diagonal = number of 2-paths = 1 for each pair
        assert_eq!(sq.get(0, 1), Some(1));
    }

    #[test]
    fn spa_matches_btree_on_mixed_spans() {
        // A narrow band (dense strategy) and a 2^40-wide scatter row in the
        // same product, against both semirings.
        let a = m(
            1 << 41,
            1 << 41,
            &[(0, 1, 2), (0, 2, 3), (5, 1, 1), (5, 2, -4)],
        );
        let b = m(
            1 << 41,
            1 << 41,
            &[(1, 10, 5), (1, 11, 6), (2, 10, 7), (2, 1 << 40, 8)],
        );
        for_both(&a, &b);
        fn for_both(a: &Matrix<i64>, b: &Matrix<i64>) {
            let fast = mxm(a, b, PlusTimes).unwrap();
            let slow = mxm_btree(a, b, PlusTimes).unwrap();
            assert_eq!(fast.extract_tuples(), slow.extract_tuples());
            let fast = mxm(a, b, MinPlus).unwrap();
            let slow = mxm_btree(a, b, MinPlus).unwrap();
            assert_eq!(fast.extract_tuples(), slow.extract_tuples());
        }
    }
}
