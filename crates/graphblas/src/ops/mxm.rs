//! Matrix–matrix multiplication over a semiring — `C = A ⊕.⊗ B`.
//!
//! The kernel is a hypersparse row-wise Gustavson: for each non-empty row
//! `i` of `A`, the rows `B(k, :)` for every stored `A(i, k)` are scaled by
//! `A(i,k)` under `⊗` and merged under `⊕` into row `C(i, :)`.  Cost is
//! proportional to the number of multiply–add operations (flops) rather
//! than to any matrix dimension — essential when dimensions are `2^64`.
//!
//! Row accumulation goes through the reusable [`SpaScratch`] (dense band or
//! sorted scatter per row — see [`crate::ops::spa`]); the previous
//! `BTreeMap` kernel is retained verbatim as [`mxm_btree`], and the
//! `tests/algo_equivalence.rs` proptests pin the SPA path byte-identical to
//! it.  Batch callers hold one scratch across calls via [`try_mxm_with`].

use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::matrix::Matrix;
use crate::ops::spa::SpaScratch;
use crate::ops::{BinaryOp, Semiring};
use crate::types::ScalarType;
use std::collections::BTreeMap;

/// `C = A ⊕.⊗ B` over the given semiring.
///
/// # Panics
/// Panics when the inner dimensions disagree; use [`try_mxm`] instead to
/// handle the error.
pub fn mxm<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> Matrix<T>
where
    T: ScalarType,
    S: Semiring<T>,
{
    try_mxm(a, b, semiring).expect("mxm dimension mismatch")
}

/// Fallible version of [`mxm`]; allocates a fresh accumulator scratch.
pub fn try_mxm<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    let mut spa = SpaScratch::new();
    try_mxm_with(a, b, semiring, &mut spa)
}

fn check_inner_dims<T: ScalarType>(a: &Matrix<T>, b: &Matrix<T>) -> GrbResult<()> {
    if a.ncols() != b.nrows() {
        return Err(GrbError::DimensionMismatch {
            detail: format!(
                "inner dimensions differ: A is {}x{}, B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    Ok(())
}

/// [`try_mxm`] with a caller-held [`SpaScratch`], so iterated products
/// (algorithm inner loops) reuse one allocation across calls.
pub fn try_mxm_with<T, S>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    check_inner_dims(a, b)?;
    let (sa, sb);
    let da = if a.npending() == 0 {
        a.dcsr()
    } else {
        sa = a.to_settled();
        sa.dcsr()
    };
    let db = if b.npending() == 0 {
        b.dcsr()
    } else {
        sb = b.to_settled();
        sb.dcsr()
    };
    mxm_dcsr(a.nrows(), b.ncols(), da, db, semiring, spa)
}

/// The SPA Gustavson core over settled DCSRs (shared with the reader-native
/// single-level fast path).
pub(crate) fn mxm_dcsr<T, S>(
    nrows: Index,
    ncols: Index,
    da: &Dcsr<T>,
    db: &Dcsr<T>,
    semiring: S,
    spa: &mut SpaScratch<T>,
) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    let add = semiring.add();
    let mul = semiring.mul();
    let mut row_ids = Vec::new();
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    // B-row hits of the current A row, gathered once so the span pass does
    // not repeat the row lookups.  Reused across rows.
    let mut hits: Vec<(T, &[Index], &[T])> = Vec::new();
    for &i in da.row_ids() {
        let (a_cols, a_vals) = da.row(i).expect("listed row is non-empty");
        hits.clear();
        let (mut lo, mut hi, mut flops) = (Index::MAX, 0u64, 0usize);
        for (idx, &k) in a_cols.iter().enumerate() {
            if let Some((b_cols, b_vals)) = db.row(k) {
                flops += b_cols.len();
                lo = lo.min(b_cols[0]);
                hi = hi.max(*b_cols.last().expect("stored row is non-empty"));
                hits.push((a_vals[idx], b_cols, b_vals));
            }
        }
        if flops == 0 {
            continue;
        }
        spa.begin(spa.choose(lo, hi, flops), lo, hi);
        for &(aik, b_cols, b_vals) in &hits {
            for (j_idx, &j) in b_cols.iter().enumerate() {
                spa.push(j, mul.apply(aik, b_vals[j_idx]), add);
            }
        }
        spa.drain(add, &mut |j, v| {
            col_idx.push(j);
            vals.push(v);
        });
        row_ids.push(i);
        row_ptr.push(col_idx.len());
    }
    spa.commit_stats();
    let d = Dcsr::try_from_raw_parts(nrows, ncols, row_ids, row_ptr, col_idx, vals)?;
    Ok(Matrix::from_dcsr(d))
}

/// The retained `BTreeMap`-accumulator kernel — the verification fallback
/// the equivalence proptests compare against.
///
/// # Panics
/// Panics when the inner dimensions disagree; see [`try_mxm_btree`].
pub fn mxm_btree<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> Matrix<T>
where
    T: ScalarType,
    S: Semiring<T>,
{
    try_mxm_btree(a, b, semiring).expect("mxm dimension mismatch")
}

/// Fallible version of [`mxm_btree`].
pub fn try_mxm_btree<T, S>(a: &Matrix<T>, b: &Matrix<T>, semiring: S) -> GrbResult<Matrix<T>>
where
    T: ScalarType,
    S: Semiring<T>,
{
    check_inner_dims(a, b)?;
    let add = semiring.add();
    let mul = semiring.mul();

    let (sa, sb);
    let da = if a.npending() == 0 {
        a.dcsr()
    } else {
        sa = a.to_settled();
        sa.dcsr()
    };
    let db = if b.npending() == 0 {
        b.dcsr()
    } else {
        sb = b.to_settled();
        sb.dcsr()
    };

    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();

    for &i in da.row_ids() {
        let (a_cols, a_vals) = da.row(i).expect("listed row is non-empty");
        // Sorted accumulator for row i of C.  BTreeMap keeps columns ordered;
        // the number of distinct columns touched is bounded by the flops.
        let mut acc: BTreeMap<u64, T> = BTreeMap::new();
        for (idx, &k) in a_cols.iter().enumerate() {
            let aik = a_vals[idx];
            if let Some((b_cols, b_vals)) = db.row(k) {
                for (j_idx, &j) in b_cols.iter().enumerate() {
                    let product = mul.apply(aik, b_vals[j_idx]);
                    acc.entry(j)
                        .and_modify(|v| *v = add.apply(*v, product))
                        .or_insert(product);
                }
            }
        }
        for (j, v) in acc {
            rows.push(i);
            cols.push(j);
            vals.push(v);
        }
    }
    Matrix::from_tuples(
        a.nrows(),
        b.ncols(),
        &rows,
        &cols,
        &vals,
        crate::ops::binary::Second,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{LorLand, MinPlus, PlusTimes};

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
        let c = mxm(&a, &b, PlusTimes);
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
        let c = mxm(&a, &b, PlusTimes);
        assert_eq!(c.nvals(), 1);
        assert_eq!(c.get(7, 99), Some(6));
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = m(8, 8, &[(1, 1, 1)]);
        let empty = Matrix::<i64>::new(8, 8);
        assert!(mxm(&a, &empty, PlusTimes).is_empty());
        assert!(mxm(&empty, &a, PlusTimes).is_empty());
    }

    #[test]
    fn dimension_mismatch() {
        let a = Matrix::<i64>::new(4, 5);
        let b = Matrix::<i64>::new(4, 4);
        assert!(try_mxm(&a, &b, PlusTimes).is_err());
        assert!(try_mxm_btree(&a, &b, PlusTimes).is_err());
    }

    #[test]
    fn min_plus_shortest_paths_one_hop() {
        // Path weights: 0->1 (4), 1->2 (3), 0->2 (10).  One relaxation of
        // (min,+) over the adjacency gives 0->2 via 1 = 7.
        let adj = m(3, 3, &[(0, 1, 4), (1, 2, 3), (0, 2, 10)]);
        let two_hop = mxm(&adj, &adj, MinPlus);
        assert_eq!(two_hop.get(0, 2), Some(7));
    }

    #[test]
    fn boolean_reachability() {
        let a = m(4, 4, &[(0, 1, 1), (1, 2, 1)]);
        let c = mxm(&a, &a, LorLand);
        assert_eq!(c.get(0, 2), Some(1));
        assert_eq!(c.get(0, 1), None);
    }

    #[test]
    fn pending_tuples_participate() {
        let mut a = Matrix::<i64>::new(3, 3);
        a.accum_element(0, 1, 2).unwrap();
        let b = m(3, 3, &[(1, 2, 5)]);
        let c = mxm(&a, &b, PlusTimes);
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
        let sq = mxm(&tri, &tri, PlusTimes);
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
            let fast = mxm(a, b, PlusTimes);
            let slow = mxm_btree(a, b, PlusTimes);
            assert_eq!(fast.extract_tuples(), slow.extract_tuples());
            let fast = mxm(a, b, MinPlus);
            let slow = mxm_btree(a, b, MinPlus);
            assert_eq!(fast.extract_tuples(), slow.extract_tuples());
        }
    }
}
