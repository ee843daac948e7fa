#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests of the incremental degree index: for random update
//! streams, cut schedules, shard counts and mid-stream flushes, every index-served answer — per-row degree, row reduce, top-k,
//! nnz, degree histogram — must be byte-identical to the retained
//! cursor-sweep fallback *and* to the answer computed from the
//! materialised flat matrix.  Snapshots taken mid-stream must keep
//! answering the captured state no matter how far the source streams on.

mod common;

use common::{build_flat, cut_schedule, reference_top_k, sharded, update_stream, DIM};
use hyperstream::graphblas::cursor::*;
use hyperstream::graphblas::oracle;
use hyperstream::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hier_index_matches_sweep_and_flat(
        updates in update_stream(48, 1, 300),
        cuts in cut_schedule(4),
        flush_at in 0usize..300,
        k in 0usize..12,
    ) {
        let flat = build_flat(&updates);
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let mut hier = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        let mut snap = None;
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            hier.update(r, c, v).unwrap();
            if i == flush_at {
                // Mid-stream: query, snapshot, flush — none may disturb
                // the stream, and the snapshot must freeze here.
                let _ = hier.read_top_k(3);
                snap = Some((hier.snapshot(), i));
                hier.flush().unwrap();
            }
        }
        // Index-served answers == cursor-sweep fallback == flat reference.
        prop_assert_eq!(hier.read_nnz(), hier.with_levels(merged_nnz));
        prop_assert_eq!(hier.read_nnz(), flat.nvals());
        prop_assert_eq!(hier.read_top_k(k), hier.with_levels(|lv| merged_top_k(lv, k)));
        prop_assert_eq!(hier.read_top_k(k), reference_top_k(&flat, k));
        prop_assert_eq!(hier.read_degree_histogram(), hier.with_levels(merged_degree_histogram));
        prop_assert_eq!(
            hier.read_degree_histogram(),
            {
                let mut flat_ro = flat.clone();
                flat_ro.read_degree_histogram()
            }
        );
        for probe in [updates[0].0, (49 * 20_000_019) % DIM] {
            prop_assert_eq!(hier.read_row_degree(probe), hier.with_levels(|lv| merged_row_degree(lv, probe)));
            prop_assert_eq!(hier.read_row_reduce(probe), hier.with_levels(|lv| merged_row_reduce(lv, probe, Plus)));
            let expect_deg = flat.dcsr().row(probe).map_or(0, |(c, _)| c.len());
            prop_assert_eq!(hier.read_row_degree(probe), expect_deg);
        }
        // Row-range scans equal the filtered flat entries.
        let (lo, hi) = (updates[0].0.min(updates[updates.len() - 1].0),
                        updates[0].0.max(updates[updates.len() - 1].0) + 1);
        let mut got = Vec::new();
        hier.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r >= lo && r < hi)
            .collect();
        prop_assert_eq!(got, expect);
        // The mid-stream snapshot still answers the captured prefix.
        if let Some((mut snap, at)) = snap {
            let prefix = build_flat(&updates[..=at]);
            prop_assert_eq!(snap.read_nnz(), prefix.nvals());
            prop_assert_eq!(snap.read_top_k(5), reference_top_k(&prefix, 5));
            let probe = updates[0].0;
            prop_assert_eq!(
                snap.read_row_degree(probe),
                prefix.dcsr().row(probe).map_or(0, |(c, _)| c.len())
            );
        }
    }

    #[test]
    fn sharded_pushdown_index_matches_flat(
        updates in update_stream(48, 1, 300),
        cuts in cut_schedule(4),
        shards in 1usize..=8,
        flush_at in 0usize..300,
        k in 0usize..12,
    ) {
        let flat = build_flat(&updates);
        let mut engine = sharded(shards, &cuts);
        let mut snap = None;
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == flush_at {
                snap = Some((engine.snapshot().unwrap(), i));
                engine.flush().unwrap();
            }
        }
        // Answers off the shards' captures (each serving from its shard's
        // index view) equal the flat reference; nothing materialises.
        let captured = engine.capture_jobs();
        prop_assert_eq!(engine.read_nnz(), flat.nvals());
        prop_assert_eq!(engine.read_top_k(k), reference_top_k(&flat, k));
        prop_assert_eq!(
            engine.read_degree_histogram(),
            {
                let mut flat_ro = flat.clone();
                flat_ro.read_degree_histogram()
            }
        );
        let probe = updates[0].0;
        prop_assert_eq!(
            engine.read_row_degree(probe),
            flat.dcsr().row(probe).map_or(0, |(c, _)| c.len())
        );
        prop_assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
        // A range scan fans out to every shard (hashed rows of any range
        // fall in all of them) and merges back in row order.
        let (lo, hi) = (0u64, DIM / 2);
        let mut got = Vec::new();
        engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r < hi)
            .collect();
        prop_assert_eq!(got, expect);
        // The reads after the last write took one capture of every shard:
        // the first activated each shard's row index, the rest were
        // answered on the producer.
        prop_assert_eq!(engine.capture_jobs() - captured, shards as u64);
        // The engine-wide snapshot froze the captured prefix.
        if let Some((mut snap, at)) = snap {
            let prefix = build_flat(&updates[..=at]);
            prop_assert_eq!(snap.read_nnz(), prefix.nvals());
            prop_assert_eq!(snap.read_top_k(4), reference_top_k(&prefix, 4));
        }
    }
}

/// The cache widths a reader can ask for: nothing, inside the upkept
/// cover, exactly the cover, one past it, and "everything" twice over.
const KS: [usize; 7] = [0, 1, 10, 128, 129, 10_000, usize::MAX];

// One settle's worth of cells from skewed pools of 400 row and 400 column
// ids: enough distinct keys on both axes to overflow the 128-entry cache,
// skewed so that a few keys climb while most tie at low degrees.
fn settle_batch() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..400, 0u64..400, 1u64..5), 1usize..80).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| {
                (
                    (r * r / 400 * 20_000_019) % DIM,
                    (c * c / 400 * 40_000_003) % DIM,
                    w,
                )
            })
            .collect()
    })
}

/// A degree index over `flat`'s cells built in one go, every cell new:
/// keyed by row, or by column.
fn from_scratch_index(flat: &Matrix<u64>, by_col: bool) -> DegreeIndex<u64> {
    let (rows, cols, vals) = flat.extract_tuples();
    let mut ix = DegreeIndex::<u64>::new();
    let keys = if by_col { &cols } else { &rows };
    ix.observe(keys, &vals, &vec![true; vals.len()]);
    ix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The top-k cache the settle observer keeps current is exact: after
    // every settle, for every width, the row index (grouped feed) and the
    // column index (the same event's columns, so keys recur un-grouped),
    // both fed the same newness flags, answer exactly what an index built
    // from scratch over the same cells answers, and what the flat matrix
    // says.  A hierarchy driven by the same steps — whose two indexes are
    // fed by one walk of its levels per settle — gives the same answers
    // whichever side is asked first (`order`), from whichever step on
    // (`ask_from`), across `clear()` and `update_matrix`, with cells
    // sitting in several levels when a side is built (cuts of 8 and 64
    // against batches of up to 80).  All of it at dimension 2^32, and
    // again at 2^40 with every key shifted past 2^32.
    #[test]
    fn upkept_top_k_equals_from_scratch_index_and_flat(
        steps in prop::collection::vec((settle_batch(), 0usize..7, 0u64..12), 1usize..30),
        order in 0usize..4,
        ask_from in 0usize..6,
    ) {
        for (dim, shift) in [(DIM, 0), (1u64 << 40, 8)] {
            let mut row_ix = DegreeIndex::<u64>::new();
            let mut col_ix = DegreeIndex::<u64>::new();
            // The owner's half: which cells the union holds.
            let mut cells = std::collections::HashSet::new();
            let mut flat = Matrix::<u64>::new(dim, dim);
            let cfg = HierConfig::from_cuts(vec![8, 64]).unwrap();
            let mut hier = HierMatrix::<u64>::new(dim, dim, cfg).unwrap();
            // Which sides of the hierarchy step `i` may ask: rows then
            // columns, columns then rows, columns only, or both before the
            // first batch.
            let asks = |i: usize| match order {
                0 => (i >= ask_from, i >= ask_from + 2),
                1 => (i >= ask_from + 2, i >= ask_from),
                2 => (false, i >= ask_from),
                _ => (true, true),
            };
            if order == 3 {
                prop_assert!(hier.read_top_k(3).is_empty() && hier.read_in_top_k(3).is_empty());
            }
            // A view taken mid-stream with the answers it must keep giving.
            let mut frozen: Option<(DegreeIndexView<u64>, DegreeIndexView<u64>, Matrix<u64>)> =
                None;
            for (i, (batch, k_sel, action)) in steps.iter().cloned().enumerate() {
                let batch: Vec<(u64, u64, u64)> =
                    batch.into_iter().map(|(r, c, v)| (r << shift, c << shift, v)).collect();
                if action == 0 {
                    // The matrix was cleared: its owner starts both indexes
                    // afresh, as the hierarchy drops its own and builds them
                    // again at the next degree query over what is there.
                    row_ix = DegreeIndex::new();
                    col_ix = DegreeIndex::new();
                    cells.clear();
                    flat = Matrix::<u64>::new(dim, dim);
                    hier.clear();
                }
                // The settle's dedup-unpack: sorted row-major, duplicates
                // folded.
                let (r, c, v): (Vec<u64>, Vec<u64>, Vec<u64>) = (
                    batch.iter().map(|e| e.0).collect(),
                    batch.iter().map(|e| e.1).collect(),
                    batch.iter().map(|e| e.2).collect(),
                );
                let settled = Matrix::from_tuples(dim, dim, &r, &c, &v, Plus).unwrap();
                let (rows, cols, vals) = settled.extract_tuples();
                let new: Vec<bool> =
                    rows.iter().zip(&cols).map(|(&r, &c)| cells.insert((r, c))).collect();
                row_ix.observe(&rows, &vals, &new);
                col_ix.observe(&cols, &vals, &new);
                flat.accum_tuples(&rows, &cols, &vals).unwrap();
                flat.wait();
                let flat_t = oracle::transpose(&flat).unwrap();
                match action {
                    3 | 4 => hier.update_matrix(&settled).unwrap(),
                    5 => {
                        let mut pending = Matrix::<u64>::new(dim, dim);
                        pending.accum_tuples(&r, &c, &v).unwrap();
                        hier.update_matrix(&pending).unwrap();
                    }
                    _ => hier.update_batch(&r, &c, &v).unwrap(),
                }

                let mut scratch_row = from_scratch_index(&flat, false);
                let mut scratch_col = from_scratch_index(&flat, true);
                let (ask_rows, ask_cols) = asks(i);

                // This step's width first (it decides what the cache looks
                // like going into the next settle), then a narrow one.
                for k in [KS[k_sel], 10] {
                    let got = row_ix.view_mut().top_k(k);
                    prop_assert_eq!(&got, &scratch_row.view_mut().top_k(k));
                    prop_assert_eq!(&got, &reference_top_k(&flat, k));
                    if ask_rows {
                        prop_assert_eq!(&got, &hier.read_top_k(k));
                    }
                    let got = col_ix.view_mut().top_k(k);
                    prop_assert_eq!(&got, &scratch_col.view_mut().top_k(k));
                    prop_assert_eq!(&got, &reference_top_k(&flat_t, k));
                    if ask_cols {
                        prop_assert_eq!(&got, &hier.read_in_top_k(k));
                    }
                }
                prop_assert_eq!(row_ix.view_mut().nnz(), flat.nvals());
                prop_assert_eq!(col_ix.view_mut().nnz(), flat.nvals());
                // Degree and weight of a key of this batch, and nnz: off a
                // held index's count once a column read has settled the
                // levels.
                let (row, col) = (rows[0], cols[0]);
                if ask_cols {
                    prop_assert_eq!(
                        hier.read_col_degree(col),
                        scratch_col.view_mut().row_degree(col)
                    );
                    prop_assert_eq!(
                        hier.read_col_reduce(col),
                        scratch_col.view_mut().row_weight(col)
                    );
                    prop_assert_eq!(hier.nvals_exact(), flat.nvals());
                }
                if ask_rows {
                    prop_assert_eq!(
                        hier.read_row_degree(row),
                        scratch_row.view_mut().row_degree(row)
                    );
                    prop_assert_eq!(
                        hier.read_row_reduce(row),
                        scratch_row.view_mut().row_weight(row)
                    );
                    prop_assert_eq!(hier.read_nnz(), flat.nvals());
                }

                if let Some((row_view, col_view, at)) = frozen.as_mut() {
                    let at_t = oracle::transpose(at).unwrap();
                    for k in [1, 10, 128, usize::MAX] {
                        prop_assert_eq!(row_view.top_k(k), reference_top_k(at, k));
                        prop_assert_eq!(col_view.top_k(k), reference_top_k(&at_t, k));
                    }
                }
                if action == 1 {
                    frozen = Some((row_ix.view().clone(), col_ix.view().clone(), flat.clone()));
                }
            }
            // Whatever was asked along the way, both sides end exact.
            let flat_t = oracle::transpose(&flat).unwrap();
            for k in [10, usize::MAX] {
                prop_assert_eq!(hier.read_in_top_k(k), reference_top_k(&flat_t, k));
                prop_assert_eq!(hier.read_top_k(k), reference_top_k(&flat, k));
            }
            prop_assert_eq!(hier.read_nnz(), flat.nvals());
        }
    }
}

/// Hostile reads between batches, on every engine: `k = 0`, `k = MAX` and
/// out-of-range columns return the empty / full / zero answer, never
/// panic, and leave the next batches' answers exact.
#[test]
fn hostile_reads_between_batches_are_total_and_harmless() {
    fn drive<S: StreamingSystem<u64>>(sys: &mut S) {
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for batch in 0..6u64 {
            let rows: Vec<u64> = (0..500)
                .map(|i| ((i * 7 + batch) % 300) * 1_000_003)
                .collect();
            let cols: Vec<u64> = (0..500)
                .map(|i| ((i * i + batch) % 211) * 2_000_003)
                .collect();
            let vals = vec![1u64; 500];
            sys.insert_batch(&rows, &cols, &vals).unwrap();
            flat.accum_tuples(&rows, &cols, &vals).unwrap();
            flat.wait();
            let flat_t = oracle::transpose(&flat).unwrap();
            let name = sys.reader_name().to_string();
            assert!(sys.read_top_k(0).is_empty(), "{name}");
            assert!(sys.read_in_top_k(0).is_empty(), "{name}");
            assert_eq!(
                sys.read_top_k(usize::MAX),
                reference_top_k(&flat, usize::MAX),
                "{name}"
            );
            assert_eq!(
                sys.read_in_top_k(usize::MAX),
                reference_top_k(&flat_t, usize::MAX),
                "{name}"
            );
            // The wide reads above must not poison the narrow ones.
            assert_eq!(sys.read_top_k(10), reference_top_k(&flat, 10), "{name}");
            assert_eq!(
                sys.read_in_top_k(10),
                reference_top_k(&flat_t, 10),
                "{name}"
            );
            for col in [DIM, DIM + 1, u64::MAX] {
                let mut out = vec![(1, 1)];
                sys.read_col(col, &mut out);
                assert!(out.is_empty(), "{name}: column {col} is outside the matrix");
                assert_eq!(sys.read_col_degree(col), 0, "{name}");
            }
        }
    }
    let cfg = || HierConfig::from_cuts(vec![64, 1024]).unwrap();
    drive(&mut Matrix::<u64>::new(DIM, DIM));
    drive(&mut HierMatrix::<u64>::new(DIM, DIM, cfg()).unwrap());
    drive(&mut ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 3).unwrap());
}

/// The degree histogram served through the generic algorithm layer equals
/// the flat computation for every hierarchical system (the index sits
/// behind `read_degree_histogram`, which `algo::degree_distribution` uses).
#[test]
fn degree_distribution_over_index_matches_flat() {
    use hyperstream::graphblas::algo::degree::degree_distribution;

    let mut flat = Matrix::<u64>::new(DIM, DIM);
    let mut hier =
        HierMatrix::<u64>::new(DIM, DIM, HierConfig::from_cuts(vec![8, 64]).unwrap()).unwrap();
    let mut sharded = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 3).unwrap();
    for i in 0..4000u64 {
        let (r, c, v) = ((i % 53) * 1_000_003, (i * 11) % 83, i % 3 + 1);
        flat.accum_element(r, c, v).unwrap();
        hier.update(r, c, v).unwrap();
        sharded.update(r, c, v).unwrap();
    }
    let expect = degree_distribution(&mut flat);
    assert_eq!(degree_distribution(&mut hier).counts, expect.counts);
    assert_eq!(degree_distribution(&mut sharded).counts, expect.counts);
}
