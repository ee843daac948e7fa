//! The pattern push, BFS's frontier kernel, driven directly off DCSR level
//! slices so a wave over a live hierarchy or snapshot never materializes
//! `Σ levels`.
//!
//! A [`CursorReader`](crate::reader::CursorReader) exposes its settled
//! content as level slices whose sum under the `+` monoid of the value type
//! is the represented matrix; a flat `Matrix` is the one-level case.  The
//! push looks each frontier row up by id and takes its *distinct* columns
//! from the [`cursor`](crate::cursor) module's one k-way column merge (a
//! row one level holds is its own slice), accumulating through the
//! caller's [`SpaScratch`].  A structural [`VectorMask`] — BFS passes the
//! complement of the visited vector — skips levelled vertices before any
//! accumulation.

use crate::cursor::merge_k_way;
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::mask::VectorMask;
use crate::ops::binary::First;
use crate::ops::spa::SpaScratch;
use crate::ops::BinaryOp;
use crate::types::ScalarType;

/// The pattern push: `w(j) = ⊕ u(i)` over the **distinct** stored cells
/// `(i, j)` of the level slices — stored values are ignored, duplicate
/// cells across levels contribute once.  `u` must be sorted by index;
/// `out` (cleared first) receives the result sorted by index.
///
/// BFS pushes a wave of ones under `min` against the complement-of-visited
/// mask.  The mask is applied *before* accumulation, so a denied column
/// costs one check instead of a scatter entry.
pub fn vxm_pattern_levels<T, U, A, M>(
    u: &[(Index, U)],
    levels: &[&Dcsr<T>],
    add: A,
    mask: Option<&VectorMask<'_, M>>,
    spa: &mut SpaScratch<U>,
    out: &mut Vec<(Index, U)>,
) where
    T: ScalarType,
    U: ScalarType,
    A: BinaryOp<U>,
    M: ScalarType,
{
    out.clear();
    if u.is_empty() || levels.is_empty() {
        return;
    }
    // The whole push is one accumulator row.
    spa.begin();
    let (mut parts, mut pool) = (Vec::new(), Vec::new());
    for &(i, ui) in u {
        // Distinct columns of row i, pushed as the one k-way merge emits
        // them (a row one level holds is its own slice).
        parts.clear();
        parts.extend(levels.iter().filter_map(|d| d.row(i)));
        let mut push = |j, _: T| {
            if mask.map_or(true, |m| m.allows(j)) {
                spa.push(j, ui);
            }
        };
        merge_k_way(&parts, First, &mut push, &mut pool);
    }
    spa.drain(add, &mut |j, v| out.push((j, v)));
    spa.commit_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Min, Plus};
    use crate::ops::spa::spa_kernel_stats;
    use crate::vector::SparseVector;

    #[test]
    fn pattern_push_deduplicates_levels() {
        // Cell (1, 5) stored in both levels: must contribute once.
        let l0 = Dcsr::from_tuples(16, 16, &[1, 1], &[5, 6], &[10i64, 20], Plus).unwrap();
        let l1 = Dcsr::from_tuples(16, 16, &[1, 2], &[5, 6], &[30i64, 40], Plus).unwrap();
        let levels: Vec<&Dcsr<i64>> = vec![&l0, &l1];
        let mut spa = SpaScratch::new();
        let mut out = Vec::new();
        let u = [(1u64, 2.0f64), (2, 5.0)];
        vxm_pattern_levels(
            &u,
            &levels,
            Plus,
            None::<&VectorMask<'_, f64>>,
            &mut spa,
            &mut out,
        );
        assert_eq!(out, vec![(5, 2.0), (6, 7.0)]);
        // Min push with a mask hiding column 6.
        let visible = SparseVector::from_tuples(16, &[5], &[1.0f64], Plus).unwrap();
        let mask = VectorMask::structural(&visible);
        vxm_pattern_levels(&u, &levels, Min, Some(&mask), &mut spa, &mut out);
        assert_eq!(out, vec![(5, 2.0)]);
    }

    /// A push is one scatter row of as many products as it scattered, and
    /// nothing reads as dense.  Other test threads commit too, so the
    /// scatter deltas are lower bounds.
    #[test]
    fn a_push_counts_its_scatter_row_and_products() {
        let l0 = Dcsr::from_tuples(16, 16, &[1, 1, 2], &[5, 6, 6], &[1u64, 1, 1], Plus).unwrap();
        let mut spa = SpaScratch::new();
        let mut out = Vec::new();
        let pre = spa_kernel_stats();
        let u = [(1u64, 1u64), (2, 1)];
        vxm_pattern_levels(
            &u,
            &[&l0],
            Min,
            None::<&VectorMask<'_, u64>>,
            &mut spa,
            &mut out,
        );
        let post = spa_kernel_stats();
        assert_eq!(out, vec![(5, 1), (6, 1)]);
        assert!(post.scatter_rows - pre.scatter_rows >= 1);
        assert!(post.scatter_flops - pre.scatter_flops >= 3);
        assert_eq!((post.dense_rows, post.dense_flops), (0, 0));
    }
}
