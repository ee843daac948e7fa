#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests (proptest) of the `MatrixReader` cursor layer:
//! for random update streams, cut schedules, shard counts and mid-stream
//! flushes/queries, every reader answer (get / row / degree / reduce /
//! top-k / nnz / sorted entries) from *every* sink system must be
//! byte-identical to the answer computed from the materialised flat
//! matrix.  This is the read-side mirror of the write-side equivalence
//! suites: the cascade schedule, the sharding, the string keys and the
//! storage engines may only change the *cost* of a query, never its value.
//!
//! The level-backed stores (flat, hierarchy, windowed hierarchy, both
//! snapshot captures) share one `MatrixReader` implementation, the sharded
//! engine and its snapshot another (one route and one combine over their
//! shards); the same generated cases drive all 18 `read_*` methods of both
//! against a `BTreeMap<(row, col), value>` oracle through [`check_reads`].

use hyperstream::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const DIM: u64 = 1 << 32;

/// A stream of updates drawn from a small id pool (to force duplicates and
/// row collisions across hierarchy levels) scattered over the hypersparse
/// index space.
fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..60, 0u64..60, 1u64..5), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

/// An arbitrary valid cut schedule (strictly increasing, non-zero).
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

fn build_flat(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(DIM, DIM);
    for &(r, c, v) in updates {
        m.accum_element(r, c, v).unwrap();
    }
    m.wait();
    m
}

/// Reference top-k (degree descending, row ascending) from the flat matrix.
fn reference_top_k(flat: &Matrix<u64>, k: usize) -> Vec<(u64, usize)> {
    let d = flat.dcsr();
    let mut degs: Vec<(u64, usize)> = (0..d.nrows_nonempty())
        .map(|slot| (d.row_ids()[slot], d.row_slot(slot).0.len()))
        .collect();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    degs.truncate(k);
    degs
}

/// Every system under test, constructed with the randomised knobs.
fn all_systems(cuts: &[u64], shards: usize, chunk: usize) -> Vec<Box<dyn StreamingSystem<u64>>> {
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    vec![
        Box::new(Matrix::<u64>::new(DIM, DIM)),
        Box::new(HierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone()).unwrap()),
        // A window large enough never to rotate: retained content equals
        // the full stream, so the windowed reader is comparable too.
        Box::new(WindowedHierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone(), u64::MAX, 4).unwrap()),
        Box::new(
            ShardedHierMatrix::<u64>::new(
                DIM,
                DIM,
                hier_cfg,
                ShardedConfig {
                    partitioner: ShardPartitioner::RowHash,
                    chunk_tuples: chunk,
                    channel_depth: 2,
                    round_tuples: 128,
                    ..ShardedConfig::with_shards(shards)
                },
            )
            .unwrap(),
        ),
        Box::new(HierAssoc::new(
            HierAssocConfig::from_cuts(cuts.to_vec()).unwrap(),
        )),
    ]
}

/// The content oracle: every cell of the represented matrix.
type Cells = BTreeMap<(u64, u64), u64>;

fn cells_of(updates: &[(u64, u64, u64)]) -> Cells {
    let mut cells = Cells::new();
    for &(r, c, v) in updates {
        *cells.entry((r, c)).or_insert(0) += v;
    }
    cells
}

/// `cells` grouped by one coordinate: key -> sorted `(other, value)`.
fn grouped(cells: &Cells, by_col: bool) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut out: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (&(r, c), &v) in cells {
        let (key, other) = if by_col { (c, r) } else { (r, c) };
        out.entry(key).or_default().push((other, v));
    }
    for line in out.values_mut() {
        line.sort_unstable();
    }
    out
}

fn ranked(lines: &BTreeMap<u64, Vec<(u64, u64)>>, k: usize) -> Vec<(u64, usize)> {
    let mut all: Vec<(u64, usize)> = lines.iter().map(|(&key, l)| (key, l.len())).collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn histogram_of(lines: &BTreeMap<u64, Vec<(u64, u64)>>) -> BTreeMap<u64, u64> {
    let mut hist = BTreeMap::new();
    for l in lines.values() {
        *hist.entry(l.len() as u64).or_insert(0) += 1;
    }
    hist
}

/// All 18 `read_*` methods of one reader (and its `CursorReader` levels)
/// against the cell oracle: present and absent rows/columns, a straddling
/// range, the whole range and `lo >= hi`, `k` of 0, `k` and `usize::MAX`.
fn check_reads<S: CursorReader<u64>>(s: &mut S, cells: &Cells, dims: (u64, u64), k: usize) {
    let name = s.reader_name().to_string();
    let rows = grouped(cells, false);
    let cols = grouped(cells, true);
    assert_eq!(s.read_dims(), dims, "dims of {name}");
    assert_eq!(s.read_nnz(), cells.len(), "nnz of {name}");

    let mut entries = Vec::new();
    s.read_entries(&mut |r, c, v| entries.push(((r, c), v)));
    let expect: Vec<_> = cells.iter().map(|(&rc, &v)| (rc, v)).collect();
    assert_eq!(entries, expect, "entries of {name}");
    // The cursor form sums to the same content.
    let mut summed = Cells::new();
    s.with_level_dcsrs(&mut |levels| {
        for level in levels {
            for (r, c, v) in level.iter() {
                *summed.entry((r, c)).or_insert(0) += v;
            }
        }
    });
    assert_eq!(&summed, cells, "levels of {name}");

    // One probe set per side: first, last and an id nothing stores.
    let probes = |lines: &BTreeMap<u64, Vec<(u64, u64)>>, dim: u64| -> Vec<u64> {
        let absent = (0..dim).rev().find(|id| !lines.contains_key(id)).unwrap();
        let (first, last) = (
            lines.keys().next().unwrap(),
            lines.keys().next_back().unwrap(),
        );
        vec![*first, *last, absent]
    };
    let (row_probes, col_probes) = (probes(&rows, dims.0), probes(&cols, dims.1));
    let mut got = Vec::new();
    for &r in &row_probes {
        let line = rows.get(&r).cloned().unwrap_or_default();
        s.read_row(r, &mut got);
        assert_eq!(got, line, "row {r} of {name}");
        assert_eq!(
            s.read_row_degree(r),
            line.len(),
            "degree of row {r} of {name}"
        );
        let sum = (!line.is_empty()).then(|| line.iter().map(|&(_, v)| v).sum::<u64>());
        assert_eq!(s.read_row_reduce(r), sum, "reduce of row {r} of {name}");
        for &c in &col_probes {
            assert_eq!(
                s.read_get(r, c),
                cells.get(&(r, c)).copied(),
                "get of {name}"
            );
        }
    }
    for &c in &col_probes {
        let line = cols.get(&c).cloned().unwrap_or_default();
        s.read_col(c, &mut got);
        assert_eq!(got, line, "col {c} of {name}");
        assert_eq!(
            s.read_col_degree(c),
            line.len(),
            "degree of col {c} of {name}"
        );
        let sum = (!line.is_empty()).then(|| line.iter().map(|&(_, v)| v).sum::<u64>());
        assert_eq!(s.read_col_reduce(c), sum, "reduce of col {c} of {name}");
    }

    let batch = s.read_rows(&row_probes);
    let expect: Vec<_> = row_probes
        .iter()
        .map(|r| rows.get(r).cloned().unwrap_or_default())
        .collect();
    assert_eq!(batch, expect, "batched rows of {name}");
    let keys: Vec<(u64, u64)> = row_probes
        .iter()
        .flat_map(|&r| col_probes.iter().map(move |&c| (r, c)))
        .collect();
    let expect: Vec<_> = keys.iter().map(|rc| cells.get(rc).copied()).collect();
    assert_eq!(s.read_get_many(&keys), expect, "batched gets of {name}");

    for k in [0, k, usize::MAX] {
        assert_eq!(s.read_top_k(k), ranked(&rows, k), "top-{k} of {name}");
        assert_eq!(s.read_in_top_k(k), ranked(&cols, k), "in-top-{k} of {name}");
    }
    assert_eq!(
        s.read_degree_histogram(),
        histogram_of(&rows),
        "histogram of {name}"
    );
    assert_eq!(
        s.read_in_degree_histogram(),
        histogram_of(&cols),
        "in-degree histogram of {name}"
    );

    let mid = |probes: &[u64]| (probes[0] + probes[1]) / 2;
    for (lo, hi) in [
        (row_probes[0], mid(&row_probes) + 1),
        (0, dims.0),
        (mid(&row_probes), mid(&row_probes)),
        (row_probes[1], row_probes[0]),
    ] {
        let mut got = Vec::new();
        s.read_row_range(lo, hi, &mut |r, c, v| got.push(((r, c), v)));
        let expect: Vec<_> = cells
            .iter()
            .filter(|&(&(r, _), _)| r >= lo && r < hi)
            .map(|(&rc, &v)| (rc, v))
            .collect();
        assert_eq!(got, expect, "rows {lo}..{hi} of {name}");
    }
    for (lo, hi) in [
        (col_probes[0], mid(&col_probes) + 1),
        (0, dims.1),
        (mid(&col_probes), mid(&col_probes)),
        (col_probes[1], col_probes[0]),
    ] {
        let mut got = Vec::new();
        s.read_col_range(lo, hi, &mut |r, c, v| got.push(((c, r), v)));
        // Column-major: (col, row) ascending.
        let mut expect: Vec<_> = cells
            .iter()
            .filter(|&(&(_, c), _)| c >= lo && c < hi)
            .map(|(&(r, c), &v)| ((c, r), v))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "cols {lo}..{hi} of {name}");
    }
}

/// `check_reads` over every level-backed store fed `updates`: the flat
/// matrix, the hierarchy (pending tail unsettled), a windowed hierarchy
/// that rotates and evicts mid-stream, and both snapshot captures — one
/// settled with its stats views, one through `&self` with a pending tail.
fn check_level_backed_stores(updates: &[(u64, u64, u64)], cuts: &[u64], dim: u64, k: usize) {
    let cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let cells = cells_of(updates);

    let mut flat = Matrix::<u64>::new(dim, dim);
    let mut hier = HierMatrix::<u64>::new(dim, dim, cfg.clone()).unwrap();
    for &(r, c, v) in updates {
        flat.insert(r, c, v).unwrap();
        hier.insert(r, c, v).unwrap();
    }
    check_reads(&mut flat, &cells, (dim, dim), k);
    // Captured before any read settles the hierarchy: the tail is copied
    // and the degree answers sweep.
    let mut tailed = hier.snapshot_ref();
    check_reads(&mut tailed, &cells, (dim, dim), k);
    check_reads(&mut hier, &cells, (dim, dim), k);
    // Both indexes are live now, so their views ride along.
    let mut settled = hier.snapshot();
    assert!(settled.has_index() && settled.has_col_index());
    check_reads(&mut settled, &cells, (dim, dim), k);

    // Four-ish windows, two closed ones retained: the oldest are evicted.
    let window = (updates.len() as u64 / 4).max(1);
    let mut windowed = WindowedHierMatrix::<u64>::new(dim, dim, cfg, window, 2).unwrap();
    for (i, &(r, c, v)) in updates.iter().enumerate() {
        windowed.insert(r, c, v).unwrap();
        if i == updates.len() / 2 {
            // A mid-stream read must survive the rotations that follow.
            let _ = windowed.read_in_top_k(k);
        }
    }
    let current = (updates.len() as u64 - 1) / window;
    let first_retained = (current.saturating_sub(2) * window) as usize;
    assert_eq!(windowed.windows_closed(), current);
    check_reads(
        &mut windowed,
        &cells_of(&updates[first_retained..]),
        (dim, dim),
        k,
    );
}

/// `check_reads` over the sharded engine and a snapshot of it: the engine
/// mid-stream (tuples still staged producer-side) and at the end, the
/// snapshot — captured a third of the way in, again over staged tuples —
/// only after the rest of the stream has gone in behind it.
fn check_sharded_stores(
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    dim: u64,
    (shards, partitioner, chunk): (usize, ShardPartitioner, usize),
    k: usize,
) {
    let mut engine = ShardedHierMatrix::<u64>::new(
        dim,
        dim,
        HierConfig::from_cuts(cuts.to_vec()).unwrap(),
        ShardedConfig {
            partitioner,
            chunk_tuples: chunk,
            channel_depth: 2,
            round_tuples: 128,
            ..ShardedConfig::with_shards(shards)
        },
    )
    .unwrap();
    let third = (updates.len() / 3).max(1);
    let two_thirds = (2 * updates.len() / 3).max(third);
    let feed = |engine: &mut ShardedHierMatrix<u64>, part: &[(u64, u64, u64)]| {
        for &(r, c, v) in part {
            engine.insert(r, c, v).unwrap();
        }
    };
    feed(&mut engine, &updates[..third]);
    let mut snapshot = engine.snapshot().unwrap();
    feed(&mut engine, &updates[third..two_thirds]);
    check_reads(
        &mut engine,
        &cells_of(&updates[..two_thirds]),
        (dim, dim),
        k,
    );
    feed(&mut engine, &updates[two_thirds..]);
    check_reads(&mut snapshot, &cells_of(&updates[..third]), (dim, dim), k);
    check_reads(&mut engine, &cells_of(updates), (dim, dim), k);
    assert!(engine.take_read_error().is_none());
    assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_reader_matches_the_materialized_matrix(
        updates in update_stream(250),
        cuts in cut_schedule(),
        shards in 1usize..=8,
        chunk in 1usize..64,
        flush_at in 0usize..250,
        k in 0usize..10,
        read_shards in 1usize..=4,
        row_bands in 0usize..2,
    ) {
        let flat = build_flat(&updates);
        let expect_entries = flat.extract_tuples();
        let expect_top = reference_top_k(&flat, k);
        // Probe rows/cells: a present row, a row absent from the stream.
        let probe_row = updates[0].0;
        let absent_row = (61 * 20_000_019) % DIM;
        let (probe_cols, probe_vals) = flat.dcsr().row(probe_row).unwrap();
        let expect_row: Vec<(u64, u64)> = probe_cols
            .iter()
            .copied()
            .zip(probe_vals.iter().copied())
            .collect();
        let expect_reduce: u64 = expect_row.iter().map(|&(_, v)| v).sum();

        for sys in all_systems(&cuts, shards, chunk).iter_mut() {
            let name = sys.reader_name().to_string();
            for (i, &(r, c, v)) in updates.iter().enumerate() {
                sys.insert(r, c, v).unwrap();
                if i == flush_at {
                    // Mid-stream analytics + flush must not disturb the
                    // represented matrix.
                    let _ = sys.read_row_degree(r);
                    sys.flush().unwrap();
                }
            }
            // No trailing flush: readers must answer over pending /
            // staged / in-flight state.
            prop_assert_eq!(sys.read_nnz(), flat.nvals(), "nnz of {}", &name);
            let mut row = Vec::new();
            sys.read_row(probe_row, &mut row);
            prop_assert_eq!(&row, &expect_row, "row extract of {}", &name);
            prop_assert_eq!(
                sys.read_row_degree(probe_row),
                expect_row.len(),
                "degree of {}",
                &name
            );
            prop_assert_eq!(
                sys.read_row_reduce(probe_row),
                Some(expect_reduce),
                "row reduce of {}",
                &name
            );
            sys.read_row(absent_row, &mut row);
            prop_assert!(row.is_empty(), "absent row of {}", &name);
            prop_assert_eq!(sys.read_row_degree(absent_row), 0, "absent degree of {}", &name);
            prop_assert_eq!(sys.read_row_reduce(absent_row), None, "absent reduce of {}", &name);
            let (pc, pv) = (expect_row[0].0, expect_row[0].1);
            prop_assert_eq!(sys.read_get(probe_row, pc), Some(pv), "get of {}", &name);
            prop_assert_eq!(sys.read_get(absent_row, 0), None, "absent get of {}", &name);
            prop_assert_eq!(&sys.read_top_k(k), &expect_top, "top-k of {}", &name);
            let mut entries = (Vec::new(), Vec::new(), Vec::new());
            sys.read_entries(&mut |r, c, v| {
                entries.0.push(r);
                entries.1.push(c);
                entries.2.push(v);
            });
            prop_assert_eq!(&entries, &expect_entries, "entries of {}", &name);
        }
        check_level_backed_stores(&updates, &cuts, DIM, k);
        let partitioner = [ShardPartitioner::RowHash, ShardPartitioner::RowRange][row_bands];
        check_sharded_stores(&updates, &cuts, DIM, (read_shards, partitioner, chunk), k);
    }
}

/// The same battery where packed 32-bit keys cannot reach: `2^40`
/// dimensions and ids above `2^32`.
#[test]
fn level_backed_stores_answer_above_2_pow_32() {
    const WIDE: u64 = 1 << 40;
    let updates: Vec<(u64, u64, u64)> = (0..400u64)
        .map(|i| {
            let r = (1 << 32) + ((i % 37 + 1) * 20_000_000_019) % (WIDE - (1 << 32));
            let c = (1 << 33) + ((i * 7 % 53 + 1) * 40_000_000_003) % (WIDE - (1 << 33));
            (r, c, i % 4 + 1)
        })
        .collect();
    assert!(updates.iter().all(|&(r, c, _)| r > 1 << 32 && c > 1 << 32));
    check_level_backed_stores(&updates, &[8, 64], WIDE, 5);
    for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
        check_sharded_stores(&updates, &[8, 64], WIDE, (3, partitioner, 16), 5);
    }
}

/// A retained-window union is a `CursorReader` like any other level store,
/// so the graph algorithms run over it directly.
#[test]
fn pagerank_over_retained_windows_matches_the_materialized_union() {
    use hyperstream::graphblas::algo::pagerank;

    let cfg = HierConfig::from_cuts(vec![8, 64]).unwrap();
    let mut windowed = WindowedHierMatrix::<u64>::new(DIM, DIM, cfg, 300, 2).unwrap();
    for i in 0..1500u64 {
        windowed
            .insert((i * 13) % 101, (i * 7 + i / 300) % 101, 1)
            .unwrap();
    }
    assert!(windowed.windows_closed() > windowed.retained_windows() as u64);
    let mut union = windowed.materialize_retained().unwrap();
    let got = pagerank(&mut windowed, 0.85, 40, 1e-12);
    let want = pagerank(&mut union, 0.85, 40, 1e-12);
    assert_eq!(got.nvals(), want.nvals());
    for (v, rank) in got.iter() {
        let expect = want.get(v).expect("same active set");
        assert!(
            (rank - expect).abs() < 1e-9,
            "vertex {v}: {rank} vs {expect}"
        );
    }
}

/// A caller-chosen `k` never sizes an allocation: `usize::MAX` ranks every
/// row and column through the provided defaults (a defaults-only wrapper,
/// the D4M store) and through the sharded engine and its snapshot.
#[test]
fn hostile_k_ranks_everything() {
    /// Only the required methods: every other answer is a provided default.
    struct Defaults(Matrix<u64>);
    impl MatrixReader<u64> for Defaults {
        fn reader_name(&self) -> &str {
            "defaults-only"
        }
        fn read_dims(&self) -> (u64, u64) {
            self.0.read_dims()
        }
        fn read_get(&mut self, r: u64, c: u64) -> Option<u64> {
            self.0.read_get(r, c)
        }
        fn read_row(&mut self, r: u64, out: &mut Vec<(u64, u64)>) {
            self.0.read_row(r, out)
        }
        fn read_entries(&mut self, f: &mut dyn FnMut(u64, u64, u64)) {
            self.0.read_entries(f)
        }
    }

    let updates: Vec<(u64, u64, u64)> = (0..500u64).map(|i| (i % 23, (i * 7) % 41, 1)).collect();
    let cells = cells_of(&updates);
    let (by_row, by_col) = (
        ranked(&grouped(&cells, false), usize::MAX),
        ranked(&grouped(&cells, true), usize::MAX),
    );
    let mut flat = Matrix::<u64>::new(DIM, DIM);
    let mut assoc = HierAssoc::with_default_config();
    let mut engine = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 3).unwrap();
    for &(r, c, v) in &updates {
        flat.insert(r, c, v).unwrap();
        StreamingSink::<u64>::insert(&mut assoc, r, c, v).unwrap();
        engine.insert(r, c, v).unwrap();
    }
    let mut snapshot = engine.snapshot().unwrap();
    let readers: [&mut dyn MatrixReader<u64>; 4] =
        [&mut Defaults(flat), &mut assoc, &mut engine, &mut snapshot];
    for reader in readers {
        let name = reader.reader_name().to_string();
        for k in [usize::MAX, usize::MAX - 1, 1_000_000_000_000] {
            assert_eq!(reader.read_top_k(k), by_row, "top-{k} of {name}");
            assert_eq!(reader.read_in_top_k(k), by_col, "in-top-{k} of {name}");
        }
    }
}

/// The graph algorithms run over any reader: spot-check that degree
/// analytics computed straight off a hierarchical matrix (no snapshot)
/// equal those computed from the materialised flat matrix.
#[test]
fn algorithms_over_readers_match_flat() {
    use hyperstream::graphblas::algo::degree::{degree_distribution, row_degree};

    let mut hier =
        HierMatrix::<u64>::new(DIM, DIM, HierConfig::from_cuts(vec![8, 64]).unwrap()).unwrap();
    let mut flat = Matrix::<u64>::new(DIM, DIM);
    for i in 0..3000u64 {
        let (r, c) = ((i % 41) * 1_000_003, (i * 7) % 97);
        hier.update(r, c, 1).unwrap();
        flat.accum_element(r, c, 1).unwrap();
    }
    let hier_deg = row_degree(&mut hier);
    let flat_deg = row_degree(&mut flat);
    assert_eq!(hier_deg.nvals(), flat_deg.nvals());
    for (i, d) in hier_deg.iter() {
        assert_eq!(flat_deg.get(i), Some(d));
    }
    assert_eq!(
        degree_distribution(&mut hier).counts,
        degree_distribution(&mut flat).counts
    );
}
