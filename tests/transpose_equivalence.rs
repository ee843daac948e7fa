#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests of the column/transpose read path: for random
//! update streams, cut schedules and shard counts, every
//! column answer — column extract, column degree, column reduce, in-degree
//! top-k, in-degree histogram, column-band scan — must be byte-identical
//! to the retained cursor-sweep fallback *and* to the row-side answer of a
//! transposed flat matrix built from the same stream.  Snapshots taken
//! mid-stream must keep answering the captured state no matter how far the
//! source streams on.

mod common;

use common::{cut_schedule, reference_top_k, sharded, update_stream, DIM};
use hyperstream::graphblas::cursor::*;
use hyperstream::graphblas::oracle;
use hyperstream::prelude::*;
use proptest::prelude::*;

/// The transpose oracle: the same stream accumulated with coordinates
/// swapped, so its *row* answers are the expected *column* answers.
fn build_transposed(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(DIM, DIM);
    for &(r, c, v) in updates {
        m.accum_element(c, r, v).unwrap();
    }
    m.wait();
    m
}

/// Column-band entries of the transposed oracle, swapped back to
/// original (row, col, val) coordinates — (col, row)-major, the
/// `read_col_range` contract.
fn reference_col_band(transposed: &Matrix<u64>, lo: u64, hi: u64) -> Vec<(u64, u64, u64)> {
    transposed
        .iter_settled()
        .filter(|&(c, _, _)| c >= lo && c < hi)
        .map(|(c, r, v)| (r, c, v))
        .collect()
}

/// The column-band scan by sweep: the cells of columns `lo..hi` from one
/// merged row-major walk of `levels`, sorted (col, row)-major.
fn col_band_sweep(levels: &[&Dcsr<u64>], lo: u64, hi: u64) -> Vec<(u64, u64, u64)> {
    let mut hits = Vec::new();
    for_each_merged(levels, Plus, &mut |r, c, v| {
        if (lo..hi).contains(&c) {
            hits.push((r, c, v));
        }
    });
    hits.sort_unstable_by_key(|&(r, c, _)| (c, r));
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hier_column_twin_matches_sweep_and_transposed_flat(
        updates in update_stream(48, 1, 300),
        cuts in cut_schedule(4),
        flush_at in 0usize..300,
        k in 0usize..12,
    ) {
        let transposed = build_transposed(&updates);
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let mut hier = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        let mut snap = None;
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            hier.update(r, c, v).unwrap();
            if i == flush_at {
                // Mid-stream: a column query (activating the twin early),
                // a snapshot, then a flush — none may disturb the stream,
                // and the snapshot must freeze here.
                let _ = hier.read_in_top_k(3);
                snap = Some((hier.snapshot(), i));
                hier.flush().unwrap();
            }
        }
        // Twin-served answers == cursor-sweep fallback == transposed flat.
        prop_assert_eq!(hier.read_in_top_k(k), hier.with_levels(|lv| merged_in_top_k(lv, k)));
        prop_assert_eq!(hier.read_in_top_k(k), reference_top_k(&transposed, k));
        prop_assert_eq!(
            hier.read_in_degree_histogram(),
            hier.with_levels(merged_in_degree_histogram)
        );
        prop_assert_eq!(
            hier.read_in_degree_histogram(),
            {
                let mut t = transposed.clone();
                t.read_degree_histogram()
            }
        );
        for probe in [updates[0].1, (49 * 40_000_003) % DIM] {
            let mut got = Vec::new();
            hier.read_col(probe, &mut got);
            let mut swept = Vec::new();
            hier.with_levels(|lv| merged_col_into(lv, probe, Plus, &mut swept));
            prop_assert_eq!(&got, &swept);
            let mut expect = Vec::new();
            {
                let mut t = transposed.clone();
                t.read_row(probe, &mut expect);
            }
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(hier.read_col_degree(probe), hier.with_levels(|lv| merged_col_degree(lv, probe)));
            prop_assert_eq!(hier.read_col_degree(probe), expect.len());
            prop_assert_eq!(hier.read_col_reduce(probe), hier.with_levels(|lv| merged_col_reduce(lv, probe, Plus)));
        }
        // Column-band scans equal the transposed entries swapped back.
        let (lo, hi) = (updates[0].1.min(updates[updates.len() - 1].1),
                        updates[0].1.max(updates[updates.len() - 1].1) + 1);
        let mut got = Vec::new();
        hier.read_col_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        let swept = hier.with_levels(|lv| col_band_sweep(lv, lo, hi));
        prop_assert_eq!(&got, &swept);
        prop_assert_eq!(got, reference_col_band(&transposed, lo, hi));
        // The mid-stream snapshot still answers the captured prefix.
        if let Some((mut snap, at)) = snap {
            let prefix = build_transposed(&updates[..=at]);
            prop_assert_eq!(snap.read_in_top_k(5), reference_top_k(&prefix, 5));
            let probe = updates[0].1;
            let mut got = Vec::new();
            snap.read_col(probe, &mut got);
            let mut expect = Vec::new();
            {
                let mut p = prefix.clone();
                p.read_row(probe, &mut expect);
            }
            prop_assert_eq!(got, expect);
            prop_assert_eq!(snap.read_col_degree(probe), expect.len());
        }
    }

    #[test]
    fn sharded_column_pushdown_matches_transposed_flat(
        updates in update_stream(48, 1, 300),
        cuts in cut_schedule(4),
        shards in 1usize..=8,
        flush_at in 0usize..300,
        k in 0usize..12,
    ) {
        let transposed = build_transposed(&updates);
        let mut engine = sharded(shards, &cuts);
        let mut snap = None;
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == flush_at {
                snap = Some((engine.snapshot().unwrap(), i));
                engine.flush().unwrap();
            }
        }
        // A column's degree splits across the row-partitioned shards: the
        // producer must sum per-shard stats before ranking.  Answers equal
        // the transposed flat reference; nothing materialises.
        prop_assert_eq!(engine.read_in_top_k(k), reference_top_k(&transposed, k));
        prop_assert_eq!(
            engine.read_in_degree_histogram(),
            {
                let mut t = transposed.clone();
                t.read_degree_histogram()
            }
        );
        let probe = updates[0].1;
        let mut got = Vec::new();
        engine.read_col(probe, &mut got);
        let mut expect = Vec::new();
        {
            let mut t = transposed.clone();
            t.read_row(probe, &mut expect);
        }
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(engine.read_col_degree(probe), expect.len());
        prop_assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
        // Column bands fan out to every shard and come back (col, row)
        // sorted.
        let mut band = Vec::new();
        engine.read_col_range(0, DIM / 2, &mut |r, c, v| band.push((r, c, v)));
        prop_assert_eq!(band, reference_col_band(&transposed, 0, DIM / 2));
        // The engine-wide snapshot froze the captured prefix.
        if let Some((mut snap, at)) = snap {
            let prefix = build_transposed(&updates[..=at]);
            prop_assert_eq!(snap.read_in_top_k(4), reference_top_k(&prefix, 4));
            let mut got = Vec::new();
            snap.read_col(probe, &mut got);
            let mut expect = Vec::new();
            {
                let mut p = prefix.clone();
                p.read_row(probe, &mut expect);
            }
            prop_assert_eq!(got, expect);
        }
    }
}

/// Entries for the transpose-kernel property below, bent into one of the
/// shapes that stress a different part of the column radix: a single input
/// row, a single output row (no digit varies), a hub column holding half
/// the entries, no repeated row or column at all, nothing to sort, and
/// unconstrained.
fn shaped_entries(
    raw: Vec<(u64, u64, u64)>,
    shape: u64,
    nrows: u64,
    ncols: u64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let n = raw.len() as u64;
    let entries: Vec<(u64, u64, u64)> = raw
        .into_iter()
        .zip(0u64..)
        .map(|((r, c, v), i)| match shape {
            0 => (nrows / 3, c % ncols, v),
            1 => (r % nrows, ncols - 1, v),
            2 if i % 2 == 0 => (r % nrows, ncols / 2, v),
            3 => (i * (nrows / n), i * (ncols / n), v),
            _ => (r % nrows, c % ncols, v),
        })
        .filter(|_| shape != 4)
        .collect();
    (
        entries.iter().map(|e| e.0).collect(),
        entries.iter().map(|e| e.1).collect(),
        entries.iter().map(|e| e.2).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The one transpose kernel (`Dcsr::transposed`, behind
    // `Matrix::col_shadow`) is byte-identical to the `oracle` module's
    // rebuild from the swapped tuples, at every width of the column space:
    // 100 (one radix digit), 2^32 (three) and 2^40 with columns above 2^32
    // (four); the dimensions swap, pending tuples are settled into the
    // answer, an empty matrix (shape 4) has an empty transpose, and
    // transposing twice gives the matrix back.
    #[test]
    fn transpose_kernel_is_byte_identical_to_a_rebuild_from_swapped_tuples(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 1u64..1000), 1usize..100),
        shape in 0u64..7,
        row_dim in 0usize..3,
        col_dim in 0usize..3,
    ) {
        const DIMS: [u64; 3] = [100, 1 << 32, 1 << 40];
        let (nrows, ncols) = (DIMS[row_dim], DIMS[col_dim]);
        let (rows, cols, vals) = shaped_entries(raw, shape, nrows, ncols);
        let a = Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap();
        let want = oracle::transpose(&a).unwrap();
        prop_assert_eq!((want.nrows(), want.ncols()), (ncols, nrows));

        let twin = a.clone().col_shadow();
        prop_assert_eq!((twin.nrows(), twin.ncols()), (ncols, nrows));
        prop_assert_eq!(twin.raw_parts(), want.dcsr().raw_parts());
        prop_assert!(twin.check_invariants().is_ok());
        // Pending tuples are settled into the answer, not dropped.
        let mut pending = Matrix::<u64>::new(nrows, ncols);
        pending.accum_tuples(&rows, &cols, &vals).unwrap();
        prop_assert_eq!(pending.col_shadow().raw_parts(), want.dcsr().raw_parts());
        // An involution.
        let back = Matrix::from_dcsr(twin.as_ref().clone()).col_shadow();
        prop_assert_eq!((back.nrows(), back.ncols()), (nrows, ncols));
        prop_assert_eq!(back.raw_parts(), a.dcsr().raw_parts());
    }

    // A held column twin is merged forward, exactly: after any sequence of
    // public `Matrix` operations it is byte-identical to the transpose of a
    // matrix rebuilt from scratch out of the same content, it is present
    // exactly when the rules say it is kept, and a reader's `Arc` from an
    // early read is never written through.
    #[test]
    fn a_held_twin_equals_a_fresh_transpose_after_every_operation(
        steps in prop::collection::vec(
            (
                0usize..19,
                prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 1u64..1000), 1usize..40),
                0u64..7,
            ),
            1usize..40,
        ),
        row_dim in 0usize..3,
        col_dim in 0usize..3,
    ) {
        const DIMS: [u64; 3] = [100, 1 << 32, 1 << 40];
        let (nrows, ncols) = (DIMS[row_dim], DIMS[col_dim]);
        let mut m = Matrix::<u64>::new(nrows, ncols);
        let mut kept = false;
        let mut held: Option<(std::sync::Arc<Dcsr<u64>>, Dcsr<u64>)> = None;
        for (op, raw, shape) in steps {
            // A dozen ids per axis, spread over the whole index space:
            // steps keep hitting cells that earlier steps stored.
            const SPREAD: u64 = u64::MAX / 12;
            let raw = raw
                .into_iter()
                .map(|(r, c, v)| (r % 12 * SPREAD, c % 12 * SPREAD, v))
                .collect();
            let (rows, cols, vals) = shaped_entries(raw, shape, nrows, ncols);
            // An operand for the whole-matrix operations: settled, with a
            // twin or without one.
            let operand = |with_twin: bool| {
                let mut b = Matrix::from_tuples(nrows, ncols, &rows, &cols, &vals, Plus).unwrap();
                if with_twin {
                    let _ = b.col_shadow();
                }
                b
            };
            match op {
                0..=3 => m.accum_tuples(&rows, &cols, &vals).unwrap(),
                4 => {
                    for i in 0..rows.len().min(3) {
                        m.accum_element(rows[i], cols[i], vals[i]).unwrap();
                    }
                }
                5 => m.wait(),
                6 => m.wait_with(Second),
                7 | 8 => {
                    // Twin into twin, or the destination loses its own.
                    let b = operand(op == 8);
                    m.accum_matrix(&b).unwrap();
                    kept &= op == 8;
                }
                9 => {
                    let b = operand(true);
                    m.accum_matrix_op(&b, Second).unwrap();
                }
                10 => {
                    // A source whose twin is behind its pending tuples.
                    let mut b = operand(true);
                    b.accum_tuples(&rows, &cols, &vals).unwrap();
                    prop_assert!(b.held_col_shadow().is_some());
                    m.accum_matrix(&b).unwrap();
                    kept &= b.npending() == 0;
                }
                11 => {
                    let mut b = operand(true);
                    m.swap_settled(&mut b).unwrap();
                    prop_assert!(b.held_col_shadow().is_none());
                    kept = false;
                }
                12 => {
                    m.clear();
                    kept = false;
                }
                13 => {
                    m.clear_retaining_capacity();
                    kept = false;
                }
                14 => {
                    m.accum_tuples(&rows, &cols, &vals).unwrap();
                    m.truncate_pending(m.npending() / 2);
                }
                _ => {
                    let twin = m.col_shadow();
                    kept = true;
                    held.get_or_insert_with(|| (twin.clone(), twin.as_ref().clone()));
                }
            }
            prop_assert_eq!(m.held_col_shadow().is_some(), kept, "after op {}", op);
            // Read the live twin through a clone (clones share it), so that
            // the check itself settles nothing in `m`.
            let mut probe = m.clone();
            if kept {
                let twin = probe.col_shadow();
                prop_assert!(twin.check_invariants().is_ok());
                prop_assert_eq!(
                    twin.raw_parts(),
                    oracle::transpose(&probe).unwrap().dcsr().raw_parts(),
                    "after op {}", op
                );
            }
            prop_assert!(m.check_invariants().is_ok());
        }
        if let Some((arc, then)) = held {
            prop_assert_eq!(&*arc, &then);
        }
    }
}

/// In-degree top-k through the generic algorithm layer equals the
/// out-degree ranking of the explicitly transposed stream, for flat,
/// hierarchical and sharded systems alike (the asymmetry the column twin
/// removes: both directions are now O(k) reads, not sweeps).
#[test]
fn in_top_k_over_twin_matches_transposed_out_top_k() {
    let mut flat = Matrix::<u64>::new(DIM, DIM);
    let mut flat_t = Matrix::<u64>::new(DIM, DIM);
    let mut hier =
        HierMatrix::<u64>::new(DIM, DIM, HierConfig::from_cuts(vec![8, 64]).unwrap()).unwrap();
    let mut sharded = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 3).unwrap();
    for i in 0..4000u64 {
        let (r, c, v) = ((i % 53) * 1_000_003, (i * 11) % 83, i % 3 + 1);
        flat.accum_element(r, c, v).unwrap();
        flat_t.accum_element(c, r, v).unwrap();
        hier.update(r, c, v).unwrap();
        sharded.update(r, c, v).unwrap();
    }
    let expect = flat_t.read_top_k(9);
    assert_eq!(flat.read_in_top_k(9), expect);
    assert_eq!(hier.read_in_top_k(9), expect);
    assert_eq!(sharded.read_in_top_k(9), expect);
}
