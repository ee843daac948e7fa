//! Property-based equivalence of the skew-aware merge kernels: the
//! adaptive dispatch (bulk row copies, galloped skips, branchless
//! two-pointer) must produce **byte-identical** DCSR planes to the one
//! element-at-a-time linear reference, `oracle::merge`, across the three
//! public merge entry points, for operand size ratios from 1:1 to 1:10⁴
//! and for every overlap pattern (disjoint, interleaved, nested, identical)
//! — including the order-sensitive `First`/`Second`, which pin the
//! `op.apply(a, b)` operand order on collisions regardless of which side
//! the kernel gallops through.  Kernel and reference are also checked
//! against an independent model (a `BTreeMap` ⊕-fold).  A second generator
//! makes uniform hypersparse operands, nearly every row a single entry,
//! which is the shape the row loop's singleton step and its switch to
//! galloped run copies are built for.

use hyperstream_graphblas::formats::coo::Coo;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::merge_kernel_stats;
use hyperstream_graphblas::ops::binary::{First, Max, Min, Plus, Second};
use hyperstream_graphblas::ops::BinaryOp;
use hyperstream_graphblas::oracle;
use hyperstream_graphblas::MergeScratch;
use proptest::prelude::*;
use std::collections::BTreeMap;

const DIM: u64 = 1 << 32;

/// Deterministic 64-bit mix for coordinate jitter.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Build the large operand: `na` entries, 16 columns per (even) row,
/// hash-jittered column gaps.
fn a_tuples(na: usize, salt: u64) -> Vec<(u64, u64, u64)> {
    (0..na)
        .map(|i| {
            let row = 2 * (i as u64 / 16);
            let col = 8 * (i as u64 % 16) + mix(salt ^ i as u64) % 7;
            (row, col, 1 + mix(salt ^ i as u64) % 1000)
        })
        .collect()
}

/// Build the small operand from the large one under one overlap pattern:
/// 0 = disjoint rows, 1 = shared rows with interleaved columns,
/// 2 = nested (coordinates inside `A`'s span, collisions and gaps mixed),
/// 3 = identical coordinates (every entry collides).
fn b_tuples(a: &[(u64, u64, u64)], nb: usize, pattern: u8, salt: u64) -> Vec<(u64, u64, u64)> {
    (0..nb)
        .map(|k| {
            let h = mix(salt.wrapping_add(0xD1B5_4A32) ^ k as u64);
            let (ar, ac, _) = a[(h % a.len() as u64) as usize];
            let v = 1 + (h >> 32) % 1000;
            match pattern {
                0 => (ar + 1, ac, v),
                1 => (ar, ac * 2 + 1, v),
                2 => {
                    if h & 1 == 0 {
                        (ar, ac, v)
                    } else {
                        (ar, ac + 1 + h % 3, v)
                    }
                }
                _ => (ar, ac, v),
            }
        })
        .collect()
}

/// A uniform hypersparse operand: `nrows` row ids spread over `DIM`, one
/// entry per row except every ~40th row, which holds two to six.
fn hyper_tuples(nrows: usize, salt: u64) -> Vec<(u64, u64, u64)> {
    let mut t = Vec::new();
    for k in 0..nrows as u64 {
        let h = mix(salt ^ k);
        let len = if (h >> 40) % 40 == 0 {
            2 + (h >> 20) % 5
        } else {
            1
        };
        for j in 0..len {
            let c = mix(h ^ j);
            t.push((h % DIM, c % DIM, 1 + (c >> 40) % 1000));
        }
    }
    t
}

/// Two hypersparse operands of `na` and `nb` rows.  About 1% of `b`'s
/// entries move onto a row of `a`: half onto `a`'s column too (a colliding
/// entry), half keeping their own (a shared row, columns interleaved).
fn hyper_pair(na: usize, nb: usize, salt: u64) -> (Dcsr<u64>, Dcsr<u64>) {
    let at = hyper_tuples(na, salt);
    let mut bt = hyper_tuples(nb, !salt);
    for (k, e) in bt.iter_mut().enumerate() {
        let h = mix(salt.wrapping_add(0xA5A5) ^ k as u64);
        if h % 100 == 0 {
            let (r, c, _) = at[(h >> 8) as usize % at.len()];
            e.0 = r;
            if h & (1 << 40) != 0 {
                e.1 = c;
            }
        }
    }
    (build(&at), build(&bt))
}

/// Reference merge: fold `b` into `a`'s map with `op` (`a` is always the
/// left operand, matching the documented ⊕ collision order).
fn model<Op: BinaryOp<u64>>(a: &Dcsr<u64>, b: &Dcsr<u64>, op: Op) -> Vec<(u64, u64, u64)> {
    let mut m: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let (ar, ac, av) = a.extract_tuples();
    for i in 0..ar.len() {
        m.insert((ar[i], ac[i]), av[i]);
    }
    let (br, bc, bv) = b.extract_tuples();
    for i in 0..br.len() {
        m.entry((br[i], bc[i]))
            .and_modify(|acc| *acc = op.apply(*acc, bv[i]))
            .or_insert(bv[i]);
    }
    m.into_iter().map(|((r, c), v)| (r, c, v)).collect()
}

fn build(tuples: &[(u64, u64, u64)]) -> Dcsr<u64> {
    let mut coo = Coo::new(DIM, DIM);
    for &(r, c, v) in tuples {
        coo.push(r, c, v);
    }
    // Duplicate construction collisions fold under Second so the operand
    // itself is well-defined before the merge under test.
    coo.sort_dedup(Second);
    Dcsr::from_sorted_coo(&coo).expect("valid operand")
}

/// All three public merge entry points against the linear reference under
/// one op; every output must be byte-identical and match the model.
fn check_op<Op: BinaryOp<u64>>(a: &Dcsr<u64>, b: &Dcsr<u64>, op: Op, name: &str) {
    let linear = oracle::merge(a, b, op).expect("same dims");
    let merged = a.merge(b, op).expect("same dims");
    assert_eq!(merged.raw_parts(), linear.raw_parts(), "merge: {name}");

    let expect = model(a, b, op);
    let (mr, mc, mv) = linear.extract_tuples();
    let got: Vec<(u64, u64, u64)> = (0..mr.len()).map(|i| (mr[i], mc[i], mv[i])).collect();
    assert_eq!(got, expect, "reference vs model: {name}");

    let mut into = a.clone();
    let mut scratch = MergeScratch::new();
    into.merge_into(b, op, &mut scratch).expect("same dims");
    assert_eq!(into.raw_parts(), linear.raw_parts(), "merge_into: {name}");

    let (br, bc, bv) = b.extract_tuples();
    let mut coo = Coo::new(DIM, DIM);
    coo.extend_from_slices(&br, &bc, &bv).expect("in bounds");
    let mut from_coo = a.clone();
    from_coo
        .merge_sorted_coo_into(&coo, op, &mut scratch)
        .expect("same dims");
    assert_eq!(
        from_coo.raw_parts(),
        linear.raw_parts(),
        "merge_sorted_coo_into: {name}"
    );
}

fn check_all_ops(na: usize, ratio: usize, pattern: u8, salt: u64) {
    let at = a_tuples(na, salt);
    let bt = b_tuples(&at, (na / ratio).max(1), pattern, salt);
    let a = build(&at);
    let b = build(&bt);
    check_op(&a, &b, Plus, "Plus");
    check_op(&a, &b, Second, "Second");
    check_op(&a, &b, First, "First");
    check_op(&a, &b, Min, "Min");
    check_op(&a, &b, Max, "Max");
    // The merge is not symmetric in the operand roles (the adaptive
    // dispatch gallops whichever side is larger): drive the mirrored
    // orientation too, so the small-side-left case is pinned.
    check_op(&b, &a, Plus, "Plus (mirrored)");
    check_op(&b, &a, First, "First (mirrored)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Size ratios 1:1 through 1:10^4, every overlap pattern, every
    // accumulate op: adaptive output must be byte-identical to the linear
    // reference and to the model.
    #[test]
    fn adaptive_merges_equal_linear(
        na in 64usize..500,
        ratio_pow in 0u32..5,
        pattern in 0u8..4,
        salt in 0u64..u64::MAX,
    ) {
        check_all_ops(na, 10usize.pow(ratio_pow), pattern, salt);
    }

    // Dense-collision stress: both operands share most coordinates so the
    // collision arm of every kernel (branchless fused select included)
    // carries the bulk of the output.
    #[test]
    fn identical_coordinate_merges(na in 16usize..300, salt in 0u64..u64::MAX) {
        check_all_ops(na, 1, 3, salt);
    }

    // Uniform hypersparse operands, nearly every row a single entry: the
    // row-level singleton step carries the merge, and at every ratio some
    // side wins enough steps in a row to switch to a galloped bulk copy
    // mid-merge.
    #[test]
    fn hypersparse_singleton_merges(na in 500usize..3000, salt in 0u64..u64::MAX) {
        for ratio in [1, 2, 5, 8, 64] {
            let (a, b) = hyper_pair(na, (na / ratio).max(1), salt);
            for (x, y) in [(&a, &b), (&b, &a)] {
                check_op(x, y, Plus, "Plus");
                check_op(x, y, First, "First");
                check_op(x, y, Second, "Second");
            }
        }
    }
}

// A skewed colliding-row merge must go through the gallop kernel and a
// partially-overlapping one through the bulk row copy — observed via the
// process-global strategy counters.  Other tests merge concurrently, so
// only monotone growth is asserted.
#[test]
fn skewed_merge_gallops_and_disjoint_rows_bulk_copy() {
    let at = a_tuples(4096, 7);
    let a = build(&at);

    let before = merge_kernel_stats();
    let bt = b_tuples(&at, 4, 1, 7); // shared rows, interleaved: per-row skew ~512:1
    let b = build(&bt);
    let merged = a.merge(&b, Plus).expect("same dims");
    assert!(merged.nvals() >= a.nvals());
    let after = merge_kernel_stats();
    assert!(
        after.galloped_elems > before.galloped_elems,
        "skewed colliding-row merge must gallop (before {}, after {})",
        before.galloped_elems,
        after.galloped_elems
    );

    let before = merge_kernel_stats();
    let ct = b_tuples(&at, 64, 0, 7); // disjoint rows only
    let c = build(&ct);
    let merged = a.merge(&c, Plus).expect("same dims");
    assert_eq!(merged.nvals(), a.nvals() + c.nvals());
    let after = merge_kernel_stats();
    assert!(
        after.bulk_row_elems > before.bulk_row_elems,
        "disjoint-row merge must bulk-copy rows (before {}, after {})",
        before.bulk_row_elems,
        after.bulk_row_elems
    );

    let (a, b) = hyper_pair(2000, 2000, 7);
    let before = merge_kernel_stats();
    a.merge(&b, Plus).expect("same dims");
    let after = merge_kernel_stats();
    assert!(
        after.branchless_elems > before.branchless_elems,
        "1:1 singleton-row merge must step rows branch-free (before {}, after {})",
        before.branchless_elems,
        after.branchless_elems
    );
}
