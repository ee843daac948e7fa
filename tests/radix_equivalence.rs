//! Property-based equivalence of the two settle-sort kernels: the
//! packed-key MSD radix sort (dimensions ≤ 2^32, the dispatcher's choice
//! for the paper's IPv4 matrices) must produce **byte-identical**
//! `(rows, cols, vals)` to the comparison sort it replaced, for every
//! duplicate-combination operator — including the order-sensitive
//! `First`/`Second`, whose semantics depend on duplicates folding in
//! insertion order.  Both kernels are also checked against an independent
//! model (a `BTreeMap` fold in insertion order).

use hyperstream_graphblas::formats::coo::Coo;
use hyperstream_graphblas::ops::binary::{First, Max, Min, Plus, Second};
use hyperstream_graphblas::ops::BinaryOp;
use hyperstream_graphblas::{Index, MergeScratch};
use proptest::prelude::*;
use std::collections::BTreeMap;

const DIM: u64 = 1 << 32;

/// Tuple batches with heavy duplication (small id pool), plus guaranteed
/// boundary coordinates 0 and `DIM - 1` spliced in.
fn tuple_batch(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..50, 0u64..50, 0u64..100), 2..max_len).prop_map(|v| {
        let mut out: Vec<(u64, u64, u64)> = v
            .into_iter()
            .enumerate()
            .map(|(i, (r, c, w))| {
                // Scatter a few ids to the extremes of the index space.
                let row = match r {
                    0 => 0,
                    1 => DIM - 1,
                    _ => (r * 86_028_121) % DIM,
                };
                let col = match c {
                    0 => 0,
                    1 => DIM - 1,
                    _ => (c * 179_424_673) % DIM,
                };
                (row, col, w + i as u64)
            })
            .collect();
        // Duplicate runs: repeat a prefix so several cells collect many
        // values in a known insertion order.
        let dups: Vec<_> = out.iter().take(out.len() / 2).cloned().collect();
        out.extend(dups.into_iter().map(|(r, c, w)| (r, c, w + 1000)));
        out
    })
}

fn build_coo(updates: &[(u64, u64, u64)], dim: u64) -> Coo<u64> {
    let mut c = Coo::new(dim, dim);
    for &(r, col, v) in updates {
        c.push(r % dim, col % dim, v);
    }
    c
}

/// Reference settle: fold duplicates in insertion order into a sorted map.
fn model<Op: BinaryOp<u64>>(
    updates: &[(u64, u64, u64)],
    dim: u64,
    op: Op,
) -> (Vec<Index>, Vec<Index>, Vec<u64>) {
    let mut m: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for &(r, c, v) in updates {
        m.entry((r % dim, c % dim))
            .and_modify(|acc| *acc = op.apply(*acc, v))
            .or_insert(v);
    }
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for ((r, c), v) in m {
        rows.push(r);
        cols.push(c);
        vals.push(v);
    }
    (rows, cols, vals)
}

fn check_all_ops(updates: &[(u64, u64, u64)], dim: u64) {
    let mut scratch = MergeScratch::new();
    macro_rules! check {
        ($op:expr, $name:literal) => {
            let mut radix = build_coo(updates, dim);
            radix.sort_dedup_with($op, &mut scratch);
            let mut cmp = build_coo(updates, dim);
            cmp.sort_dedup_comparison_with($op, &mut scratch);
            assert_eq!(radix.parts(), cmp.parts(), "radix vs comparison: {}", $name);
            assert!(radix.is_sorted_dedup() && cmp.is_sorted_dedup());
            let (mr, mc, mv) = model(updates, dim, $op);
            assert_eq!(
                radix.parts(),
                (&mr[..], &mc[..], &mv[..]),
                "kernel vs model: {}",
                $name
            );
        };
    }
    check!(Plus, "Plus");
    check!(Second, "Second");
    check!(First, "First");
    check!(Min, "Min");
    check!(Max, "Max");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // At the paper's 2^32 dimension the dispatcher picks the radix kernel;
    // it must agree byte-for-byte with the comparison kernel and the model
    // under every duplicate operator.
    #[test]
    fn radix_equals_comparison_at_ipv4_dims(updates in tuple_batch(300)) {
        check_all_ops(&updates, DIM);
    }

    // Above 2^32 the dispatcher falls back to the comparison sort; the
    // public entry point must still match the model (and the explicit
    // comparison call remains the identity check).
    #[test]
    fn fallback_dims_stay_correct(updates in tuple_batch(150)) {
        check_all_ops(&updates, 1 << 40);
    }
}

/// splitmix64's output function: uniform 64-bit keys from a counter.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The packed key `k` as an update with value `v`.
fn cell(k: u64, v: u64) -> (u64, u64, u64) {
    (k >> 32, k & (DIM - 1), v)
}

/// `n` updates over uniform 64-bit packed keys; every fourth repeats an
/// earlier cell.  Values are distinct, so `First`/`Second` see the order.
fn uniform(n: u64) -> Vec<(u64, u64, u64)> {
    (0..n)
        .map(|i| cell(mix(if i % 4 == 3 { i / 2 } else { i }), i))
        .collect()
}

// The shapes the MSD kernel's partition has to get right, too slow for
// proptest, run once each: uniform keys around the rank-sort and
// partition-width boundaries and at settle sizes; one hub row holding most
// cells; an outlier with bit 63 set over a block agreeing on all but the
// low bits (the deepest recursion); all keys equal; one cell repeated
// among uniform cells (a bucket of equal keys beside others); the index
// space's ends.
#[test]
fn settle_shapes_match_comparison_and_model() {
    let mut shapes: Vec<Vec<(u64, u64, u64)>> = [1, 2, 24, 25, 48, 49, 1 << 14, 1 << 17, 200_000]
        .into_iter()
        .map(uniform)
        .collect();
    let n = 1u64 << 14;
    shapes.push(
        (0..n)
            .map(|i| match i % 8 {
                0 => cell(mix(i), i),
                _ => (0x8765_4321, mix(i) & 0xFFF, i),
            })
            .collect(),
    );
    let mut outlier: Vec<(u64, u64, u64)> = (0..n)
        .map(|i| (5, 0xABC0_0000 | (mix(i) & 0xFF), i))
        .collect();
    outlier.insert(n as usize / 2, (1 << 31, 7, n));
    shapes.push(outlier);
    shapes.push((0..4096).map(|i| (9, 9, i)).collect());
    shapes.push(
        (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    (9, 9, i)
                } else {
                    cell(mix(i) | 1 << 63, i)
                }
            })
            .collect(),
    );
    shapes.push(
        (0..1000)
            .map(|i| {
                let end = |x: u64| [0, DIM - 1, x & (DIM - 1)][(x % 3) as usize];
                (end(mix(i)), end(mix(i + 1000)), i)
            })
            .collect(),
    );
    for updates in &shapes {
        check_all_ops(updates, DIM);
    }
}
