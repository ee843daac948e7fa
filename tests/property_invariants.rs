//! Property-based tests (proptest) of the core invariants:
//!
//! * GraphBLAS build / extract round-trips and format conversions agree;
//! * the column twin is the transpose, and transposing it again gives the
//!   matrix back;
//! * `ewise_add` is commutative and associative under `Plus` and its nvals
//!   equals the union of patterns;
//! * the hierarchical matrix equals a flat accumulation for *arbitrary*
//!   streams and cut schedules (the linearity property the paper's cascade
//!   relies on);
//! * DCSR structural invariants survive arbitrary merges.

mod common;

use common::{build_flat, cut_schedule, update_stream, DIM};
use hyperstream::graphblas::oracle;
use hyperstream::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn build_extract_round_trip(updates in update_stream(200, 0, 300)) {
        let m = build_flat(&updates);
        let (r, c, v) = m.extract_tuples();
        let rebuilt = Matrix::from_tuples(DIM, DIM, &r, &c, &v, Plus).unwrap();
        prop_assert_eq!(rebuilt.extract_tuples(), m.extract_tuples());
        m.check_invariants().unwrap();
    }

    #[test]
    fn ewise_add_commutative_and_union_sized(
        a in update_stream(200, 0, 200),
        b in update_stream(200, 0, 200),
    ) {
        let ma = build_flat(&a);
        let mb = build_flat(&b);
        let ab = ewise_add(&ma, &mb, Plus).unwrap();
        let ba = ewise_add(&mb, &ma, Plus).unwrap();
        prop_assert_eq!(ab.extract_tuples(), ba.extract_tuples());

        // nvals equals the size of the union of the patterns.
        let mut union: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        for (r, c, _) in ma.iter_settled().chain(mb.iter_settled()) {
            union.insert((r, c));
        }
        prop_assert_eq!(ab.nvals(), union.len());
        ab.check_invariants().unwrap();
    }

    #[test]
    fn ewise_add_associative(
        a in update_stream(200, 0, 120),
        b in update_stream(200, 0, 120),
        c in update_stream(200, 0, 120),
    ) {
        let (ma, mb, mc) = (build_flat(&a), build_flat(&b), build_flat(&c));
        let left = ewise_add(&ewise_add(&ma, &mb, Plus).unwrap(), &mc, Plus).unwrap();
        let right = ewise_add(&ma, &ewise_add(&mb, &mc, Plus).unwrap(), Plus).unwrap();
        prop_assert_eq!(left.extract_tuples(), right.extract_tuples());
    }

    #[test]
    fn hierarchy_matches_flat_for_arbitrary_cuts(
        updates in update_stream(200, 0, 400),
        cut0 in 1u64..64,
        growth in 2u64..10,
        levels in 2usize..5,
    ) {
        let cfg = HierConfig::geometric(levels, cut0, growth).unwrap();
        let mut hier = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        for &(r, c, v) in &updates {
            hier.update(r, c, v).unwrap();
        }
        let flat = build_flat(&updates);
        prop_assert_eq!(hier.materialize().extract_tuples(), flat.extract_tuples());
        // Linearity of the total weight.
        let expected: u64 = updates.iter().map(|u| u.2).sum();
        prop_assert_eq!(hier.total_weight(), expected);
    }

    #[test]
    fn hierarchy_batch_and_single_update_agree(updates in update_stream(200, 0, 250)) {
        let cfg = HierConfig::from_cuts(vec![32, 256]).unwrap();
        let mut one_by_one = HierMatrix::<u64>::new(DIM, DIM, cfg.clone()).unwrap();
        for &(r, c, v) in &updates {
            one_by_one.update(r, c, v).unwrap();
        }
        let mut batched = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        let rows: Vec<u64> = updates.iter().map(|u| u.0).collect();
        let cols: Vec<u64> = updates.iter().map(|u| u.1).collect();
        let vals: Vec<u64> = updates.iter().map(|u| u.2).collect();
        batched.update_batch(&rows, &cols, &vals).unwrap();
        prop_assert_eq!(
            one_by_one.materialize().extract_tuples(),
            batched.materialize().extract_tuples()
        );
    }

    #[test]
    fn cascade_schedule_invariance(
        updates in update_stream(200, 0, 400),
        cuts_a in cut_schedule(5),
        cuts_b in cut_schedule(5),
        query_at in 1usize..400,
    ) {
        // The paper's correctness claim: because ⊕ is associative and
        // commutative, the cascade schedule — *any* schedule — changes only
        // the cost of maintaining the matrix, never its content.  Two
        // hierarchies with independently random cut schedules, one of them
        // interrupted mid-stream by a materialisation and a full flush, must
        // both equal the flat accumulation.  Both are driven through the
        // `StreamingSink` interface the measurement harness uses.
        let cfg_a = HierConfig::from_cuts(cuts_a).unwrap();
        let cfg_b = HierConfig::from_cuts(cuts_b).unwrap();
        let mut a = HierMatrix::<u64>::new(DIM, DIM, cfg_a).unwrap();
        let mut b = HierMatrix::<u64>::new(DIM, DIM, cfg_b).unwrap();
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            StreamingSink::insert(&mut a, r, c, v).unwrap();
            StreamingSink::insert(&mut b, r, c, v).unwrap();
            if i == query_at {
                // Mid-stream query on `a`, mid-stream cascade-completion on
                // `b`: neither may disturb the represented matrix.
                let _ = a.materialize();
                StreamingSink::flush(&mut b).unwrap();
            }
        }
        let flat = build_flat(&updates);
        prop_assert_eq!(a.materialize().extract_tuples(), flat.extract_tuples());
        prop_assert_eq!(b.materialize().extract_tuples(), flat.extract_tuples());
        // Weight linearity holds at any moment, through the sink interface.
        let expected: u64 = updates.iter().map(|u| u.2).sum();
        prop_assert_eq!(StreamingSink::total_weight(&a), expected as f64);
        prop_assert_eq!(StreamingSink::total_weight(&b), expected as f64);
        prop_assert_eq!(StreamingSink::nvals(&a), flat.nvals());
    }

    #[test]
    fn transpose_involution(updates in update_stream(200, 0, 200)) {
        // The column twin is the one transpose kernel; the `oracle`
        // module's rebuild from the swapped tuples is its reference.
        let mut m = build_flat(&updates);
        let t = m.col_shadow();
        prop_assert_eq!(t.raw_parts(), oracle::transpose(&m).unwrap().dcsr().raw_parts());
        let tt = Matrix::from_dcsr(t.as_ref().clone()).col_shadow();
        prop_assert_eq!((tt.nrows(), tt.ncols()), (m.nrows(), m.ncols()));
        prop_assert_eq!(tt.extract_tuples(), m.extract_tuples());
    }

    #[test]
    fn reductions_conserve_total(updates in update_stream(200, 0, 300)) {
        let m = build_flat(&updates);
        let total = reduce_scalar(&m, PlusMonoid);
        let by_rows = reduce_rows(&m, PlusMonoid).reduce(PlusMonoid);
        let by_cols = reduce_cols(&m, PlusMonoid).reduce(PlusMonoid);
        prop_assert_eq!(total, by_rows);
        prop_assert_eq!(total, by_cols);
        let expected: u64 = updates.iter().map(|u| u.2).sum();
        prop_assert_eq!(total, expected);
    }
}
