#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests of the column/transpose read path: for random
//! update streams, cut schedules, shard counts and window rotations, every
//! column answer — column extract, column degree, column reduce, in-degree
//! top-k, in-degree histogram, column-band scan — must be byte-identical
//! to the retained cursor-sweep fallback *and* to the row-side answer of a
//! transposed flat matrix built from the same stream.  Snapshots taken
//! mid-stream must keep answering the captured state no matter how far the
//! source streams on.

use hyperstream::graphblas::cursor::*;
use hyperstream::prelude::*;
use proptest::prelude::*;

const DIM: u64 = 1 << 32;

// A stream from a small id pool (duplicates + cross-level collisions)
// scattered over the hypersparse index space.
fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..48, 0u64..48, 1u64..5), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

// An arbitrary valid cut schedule (strictly increasing, non-zero).
fn cut_schedule() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..64, 1usize..4).prop_map(|deltas| {
        let mut acc = 0u64;
        deltas
            .into_iter()
            .map(|d| {
                acc += d;
                acc
            })
            .collect()
    })
}

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

// Reference ranking (degree descending, id ascending) from a flat matrix;
// on the transposed oracle this is the in-degree top-k.
fn reference_top_k(flat: &Matrix<u64>, k: usize) -> Vec<(u64, usize)> {
    let d = flat.dcsr();
    let mut degs: Vec<(u64, usize)> = (0..d.nrows_nonempty())
        .map(|slot| (d.row_ids()[slot], d.row_slot(slot).0.len()))
        .collect();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    degs.truncate(k);
    degs
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hier_column_twin_matches_sweep_and_transposed_flat(
        updates in update_stream(300),
        cuts in cut_schedule(),
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
        let mut swept = Vec::new();
        hier.with_levels(|lv| merged_col_range(lv, lo, hi, Plus, &mut |r, c, v| swept.push((r, c, v))));
        prop_assert_eq!(&got, &swept);
        prop_assert_eq!(got, reference_col_band(&transposed, lo, hi));
        // Batched reads agree with their single-key loops.
        let rows: Vec<u64> = updates.iter().take(6).map(|&(r, _, _)| r).collect();
        let singles: Vec<Vec<(u64, u64)>> = rows.iter().map(|&r| {
            let mut out = Vec::new();
            hier.read_row(r, &mut out);
            out
        }).collect();
        prop_assert_eq!(hier.read_rows(&rows), singles);
        let keys: Vec<(u64, u64)> = updates.iter().take(6).map(|&(r, c, _)| (r, c)).collect();
        let points: Vec<Option<u64>> =
            keys.iter().map(|&(r, c)| hier.read_get(r, c)).collect();
        prop_assert_eq!(hier.read_get_many(&keys), points);
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
        updates in update_stream(300),
        cuts in cut_schedule(),
        shards in 1usize..=8,
        chunk in 1usize..64,
        flush_at in 0usize..300,
        k in 0usize..12,
        partitioner_sel in 0u64..2,
    ) {
        let transposed = build_transposed(&updates);
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let partitioner = if partitioner_sel == 1 {
            ShardPartitioner::RowRange
        } else {
            ShardPartitioner::RowHash
        };
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            cfg,
            ShardedConfig {
                partitioner,
                chunk_tuples: chunk,
                channel_depth: 2,
                round_tuples: 128,
                ..ShardedConfig::with_shards(shards)
            },
        )
        .unwrap();
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
        // Batched reads group keys by owning shard yet answer in request
        // order.
        let rows: Vec<u64> = updates.iter().take(6).map(|&(r, _, _)| r).collect();
        let singles: Vec<Vec<(u64, u64)>> = rows.iter().map(|&r| {
            let mut out = Vec::new();
            engine.read_row(r, &mut out);
            out
        }).collect();
        prop_assert_eq!(engine.read_rows(&rows), singles);
        let keys: Vec<(u64, u64)> = updates.iter().take(6).map(|&(r, c, _)| (r, c)).collect();
        let points: Vec<Option<u64>> =
            keys.iter().map(|&(r, c)| engine.read_get(r, c)).collect();
        prop_assert_eq!(engine.read_get_many(&keys), points);
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

    #[test]
    fn windowed_rotation_column_index_matches_sweep_and_retained_union(
        updates in update_stream(300),
        cuts in cut_schedule(),
        window in 10u64..120,
        max_windows in 1usize..4,
        k in 0usize..10,
    ) {
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let mut w =
            WindowedHierMatrix::<u64>::new(DIM, DIM, cfg, window, max_windows).unwrap();
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            w.update(r, c, v).unwrap();
            if i == updates.len() / 2 {
                // A mid-stream column query exercises the stale-mark +
                // wholesale-rebuild path across later rotations.
                let _ = w.read_in_top_k(3);
            }
        }
        // Eviction makes incremental column maintenance inexact, so the
        // union index rebuilds wholesale; answers must equal the cursor
        // sweep over retained windows and the transposed retained union.
        let retained = w.materialize_retained().unwrap();
        let (rrows, rcols, rvals) = retained.extract_tuples();
        let retained_t =
            Matrix::from_tuples(DIM, DIM, &rcols, &rrows, &rvals, Plus).unwrap();
        prop_assert_eq!(w.read_in_top_k(k), w.with_levels(|lv| merged_in_top_k(lv, k)));
        prop_assert_eq!(w.read_in_top_k(k), reference_top_k(&retained_t, k));
        prop_assert_eq!(
            w.read_in_degree_histogram(),
            w.with_levels(merged_in_degree_histogram)
        );
        let probe = updates[updates.len() - 1].1;
        let mut got = Vec::new();
        w.read_col(probe, &mut got);
        let mut swept = Vec::new();
        w.with_levels(|lv| merged_col_into(lv, probe, Plus, &mut swept));
        prop_assert_eq!(&got, &swept);
        let expect_deg = retained_t.dcsr().row(probe).map_or(0, |(c, _)| c.len());
        prop_assert_eq!(w.read_col_degree(probe), w.with_levels(|lv| merged_col_degree(lv, probe)));
        prop_assert_eq!(w.read_col_degree(probe), expect_deg);
        prop_assert_eq!(w.read_col_reduce(probe), w.with_levels(|lv| merged_col_reduce(lv, probe, Plus)));
        let mut band = Vec::new();
        w.read_col_range(0, DIM / 2, &mut |r, c, v| band.push((r, c, v)));
        let mut band_swept = Vec::new();
        w.with_levels(|lv| merged_col_range(lv, 0, DIM / 2, Plus, &mut |r, c, v| band_swept.push((r, c, v))));
        prop_assert_eq!(band, band_swept);
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

    // The one transpose kernel (`ops::transpose`, `Matrix::col_shadow`) is
    // byte-identical to rebuilding from the swapped tuples, at every width
    // of the column space: 100 (one radix digit), 2^32 (three) and 2^40
    // with columns above 2^32 (four).
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
        let (sr, sc, sv) = a.extract_tuples();
        let oracle = Dcsr::from_tuples(ncols, nrows, &sc, &sr, &sv, Plus).unwrap();

        let t = transpose(&a);
        prop_assert_eq!((t.nrows(), t.ncols()), (ncols, nrows));
        prop_assert_eq!(t.dcsr().raw_parts(), oracle.raw_parts());
        prop_assert!(t.check_invariants().is_ok());
        let twin = a.clone().col_shadow();
        prop_assert_eq!(twin.raw_parts(), oracle.raw_parts());
        prop_assert!(twin.check_invariants().is_ok());
        // Pending tuples are settled into the answer, not dropped.
        let mut pending = Matrix::<u64>::new(nrows, ncols);
        pending.accum_tuples(&rows, &cols, &vals).unwrap();
        prop_assert_eq!(transpose(&pending).dcsr().raw_parts(), oracle.raw_parts());
        // An involution.
        let back = transpose(&t);
        prop_assert_eq!((back.nrows(), back.ncols()), (nrows, ncols));
        prop_assert_eq!(back.dcsr().raw_parts(), a.dcsr().raw_parts());
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
                0usize..20,
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
        let rebuilt = |m: &Matrix<u64>| {
            let (r, c, v) = m.extract_tuples();
            Matrix::from_tuples(nrows, ncols, &r, &c, &v, Plus).unwrap()
        };
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
            // twin (`op` odd) or without one.
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
                5 => {
                    for i in 0..rows.len().min(3) {
                        m.set_element(rows[i], cols[i], vals[i]).unwrap();
                    }
                }
                6 => m.wait(),
                7 => m.wait_with(Second),
                8 | 9 => {
                    // Twin into twin, or the destination loses its own.
                    let b = operand(op == 9);
                    m.accum_matrix(&b).unwrap();
                    kept &= op == 9;
                }
                10 => {
                    let b = operand(true);
                    m.accum_matrix_op(&b, Second).unwrap();
                }
                11 => {
                    // A source whose twin is behind its pending tuples.
                    let mut b = operand(true);
                    b.accum_tuples(&rows, &cols, &vals).unwrap();
                    prop_assert!(b.has_col_shadow());
                    m.accum_matrix(&b).unwrap();
                    kept &= b.npending() == 0;
                }
                12 => {
                    let mut b = operand(true);
                    m.swap_settled(&mut b).unwrap();
                    prop_assert!(!b.has_col_shadow());
                    kept = false;
                }
                13 => {
                    m.clear();
                    kept = false;
                }
                14 => {
                    m.clear_retaining_capacity();
                    kept = false;
                }
                15 => {
                    m.accum_tuples(&rows, &cols, &vals).unwrap();
                    m.truncate_pending(m.npending() / 2);
                }
                _ => {
                    let twin = m.col_shadow();
                    kept = true;
                    held.get_or_insert_with(|| (twin.clone(), twin.as_ref().clone()));
                }
            }
            prop_assert_eq!(m.has_col_shadow(), kept, "after op {}", op);
            // Read the live twin through a clone (clones share it), so that
            // the check itself settles nothing in `m`.
            let mut probe = m.clone();
            if kept {
                let twin = probe.col_shadow();
                prop_assert!(twin.check_invariants().is_ok());
                prop_assert_eq!(
                    twin.raw_parts(),
                    transpose(&rebuilt(&probe)).dcsr().raw_parts(),
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
