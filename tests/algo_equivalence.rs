#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests (proptest) of the graph algorithms: for random
//! update streams, cut schedules, shard counts and mid-stream flushes,
//! `bfs_levels` (the masked pattern push over level slices) and `pagerank`
//! (the CSR front end) must agree across every system, square or wider
//! than tall: the cursor-native primaries on every level-slice reader —
//! flat, hierarchical, sharded and both snapshot flavours — and the
//! `oracle::*_tuples` references (a `BTreeMap` product over the rebuilt
//! pattern) on every sink system; PageRank to 1e-9, BFS exactly, whole
//! vectors.

mod common;

use common::{build_flat_in, cut_schedule, sharded_in, update_stream, DIM};
use hyperstream::graphblas::algo::{bfs_levels, pagerank};
use hyperstream::graphblas::oracle;
use hyperstream::prelude::*;
use proptest::prelude::*;

/// Every cursor-capable system fed the same updates (with a mid-stream
/// flush), boxed behind the trait the algorithms consume.
fn cursor_systems(
    (nrows, ncols): (u64, u64),
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    flush_at: usize,
) -> Vec<(String, Box<dyn CursorReader<u64>>)> {
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let mut flat = Matrix::<u64>::new(nrows, ncols);
    let mut hier = HierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone()).unwrap();
    let mut hier_snap = HierMatrix::<u64>::new(nrows, ncols, hier_cfg).unwrap();
    let mut sharded = sharded_in((nrows, ncols), shards, cuts);
    let mut sharded_snap = sharded_in((nrows, ncols), shards, cuts);
    for (i, &(r, c, v)) in updates.iter().enumerate() {
        flat.insert(r, c, v).unwrap();
        hier.insert(r, c, v).unwrap();
        hier_snap.insert(r, c, v).unwrap();
        sharded.insert(r, c, v).unwrap();
        sharded_snap.insert(r, c, v).unwrap();
        if i == flush_at {
            // Mid-stream flush on half the systems: readers must answer
            // the same over settled and in-flight state.
            hier.flush().unwrap();
            sharded.flush().unwrap();
        }
    }
    vec![
        (
            "flat".to_string(),
            Box::new(flat) as Box<dyn CursorReader<u64>>,
        ),
        ("hier".to_string(), Box::new(hier)),
        ("hier-snapshot".to_string(), Box::new(hier_snap.snapshot())),
        ("sharded".to_string(), Box::new(sharded)),
        (
            "sharded-snapshot".to_string(),
            Box::new(sharded_snap.snapshot().unwrap()),
        ),
    ]
}

/// BFS and pagerank agree across every system of
/// the given dimensions: cursor-native primaries on the level readers, the
/// `oracle::*_tuples` references on every sink system.  Primaries and
/// references size their vectors alike (`max(nrows, ncols)`), so whole
/// vectors are compared.
fn check_algorithms_agree(
    dims: (u64, u64),
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    flush_at: usize,
) {
    let (nrows, ncols) = dims;
    let mut flat = build_flat_in(dims, updates);
    let source = updates[0].0;
    let expect_bfs = bfs_levels(&mut flat, source);
    let expect_pr = pagerank(&mut flat, 0.85, 40, 1e-12);
    prop_assert_eq!(expect_pr.size(), nrows.max(ncols));
    let close = |got: &SparseVector<f64>| {
        got.nvals() == expect_pr.nvals()
            && got
                .iter()
                .zip(expect_pr.iter())
                .all(|((gj, gv), (ej, ev))| gj == ej && (gv - ev).abs() < 1e-9)
    };

    // Cursor-native primaries over every level-slice reader.
    for (name, mut sys) in cursor_systems(dims, updates, cuts, shards, flush_at) {
        prop_assert_eq!(
            &bfs_levels(sys.as_mut(), source),
            &expect_bfs,
            "bfs of {}",
            &name
        );
        let pr = pagerank(sys.as_mut(), 0.85, 40, 1e-12);
        prop_assert!(
            pr.size() == expect_pr.size() && close(&pr),
            "pagerank of {}: {:?}",
            &name,
            pr
        );
    }

    // The references over every sink system.
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let mut systems: Vec<Box<dyn StreamingSystem<u64>>> = vec![
        Box::new(Matrix::<u64>::new(nrows, ncols)),
        Box::new(HierMatrix::<u64>::new(nrows, ncols, hier_cfg).unwrap()),
        Box::new(sharded_in(dims, shards, cuts)),
    ];
    for sys in systems.iter_mut() {
        let name = sys.reader_name().to_string();
        for &(r, c, v) in updates {
            sys.insert(r, c, v).unwrap();
        }
        let r = sys.as_mut();
        let bfs = oracle::bfs_levels_tuples(r, source).unwrap();
        let pr = oracle::pagerank_tuples(r, 0.85, 40, 1e-12).unwrap();
        prop_assert_eq!(&bfs, &expect_bfs, "reference bfs of {}", &name);
        prop_assert_eq!(pr.size(), expect_pr.size(), "pagerank size of {}", &name);
        prop_assert!(close(&pr), "reference pagerank of {}: {:?}", &name, pr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn algorithms_agree_across_all_systems(
        updates in update_stream(60, 1, 150),
        cuts in cut_schedule(4),
        shards in 1usize..=8,
        flush_at in 0usize..150,
        wide in 0u8..2,
    ) {
        // Square, or wider than tall: every row id of `update_stream` lies
        // below 2^31, its column ids reach past it.
        let dims = if wide == 1 { (DIM / 2, DIM) } else { (DIM, DIM) };
        check_algorithms_agree(dims, &updates, &cuts, shards, flush_at);
    }
}
