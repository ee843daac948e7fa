#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests (proptest) of the semiring kernels and the graph
//! algorithms built on them: for random update streams, cut schedules,
//! shard counts and mid-stream flushes,
//!
//! * the SPA-based `mxm`/`vxm` kernels must be **byte-identical** to the
//!   retained `*_btree` fallbacks over every semiring (the sorted-scatter
//!   sequence tiebreak reproduces the BTreeMap fold order exactly, so this
//!   holds even for non-commutative ⊗ like `first`);
//! * the cursor-consuming `mxm_reader`/`mxv_reader`/`vxm_reader` entry
//!   points (masked and unmasked) over every `CursorReader` — flat,
//!   hierarchical, sharded, and both snapshot flavours — must be
//!   byte-identical to the flat-oracle kernel over the materialised
//!   matrix; and
//! * `triangle_count` / `bfs_levels` / `connected_components` /
//!   `pagerank` must agree across every system: cursor-native primaries
//!   on the level-slice readers, `*_tuples` fallbacks on every sink
//!   system (pagerank to 1e-9; everything else exactly).

use hyperstream::graphblas::algo::{
    bfs_levels, bfs_levels_tuples, connected_components, connected_components_tuples, pagerank,
    pagerank_tuples, triangle_count, triangle_count_tuples,
};
use hyperstream::graphblas::ops::semiring::MinFirst;
use hyperstream::prelude::*;
use proptest::prelude::*;

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

/// A sparse operand vector over the stream's row ids (deterministic
/// weights, some rows absent so kernels see misses too).
fn operand_vector(updates: &[(u64, u64, u64)]) -> SparseVector<u64> {
    let mut rows: Vec<u64> = updates.iter().map(|&(r, _, _)| r).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut u = SparseVector::<u64>::new(DIM);
    for (i, &r) in rows.iter().enumerate() {
        if i % 3 != 2 {
            u.set(r, 1 + (i as u64 % 7)).unwrap();
        }
    }
    u
}

fn vec_entries(v: &SparseVector<u64>) -> Vec<(u64, u64)> {
    v.iter().collect()
}

/// Every cursor-capable system fed the same updates (with a mid-stream
/// flush), boxed behind the trait the reader kernels consume.
fn cursor_systems(
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    chunk: usize,
    flush_at: usize,
) -> Vec<(String, Box<dyn CursorReader<u64>>)> {
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let scfg = ShardedConfig {
        partitioner: ShardPartitioner::RowHash,
        chunk_tuples: chunk,
        channel_depth: 2,
        round_tuples: 128,
        ..ShardedConfig::with_shards(shards)
    };
    let mut flat = Matrix::<u64>::new(DIM, DIM);
    let mut hier = HierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone()).unwrap();
    let mut hier_snap = HierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone()).unwrap();
    let mut sharded = ShardedHierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone(), scfg).unwrap();
    let mut sharded_snap = ShardedHierMatrix::<u64>::new(DIM, DIM, hier_cfg, scfg).unwrap();
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

/// The SPA kernels must reproduce the BTreeMap fallbacks byte for
/// byte, over commutative and non-commutative semirings alike.
fn check_spa_vs_btree(a_updates: &[(u64, u64, u64)], b_updates: &[(u64, u64, u64)]) {
    let a = build_flat(a_updates);
    let b = build_flat(b_updates);
    let u = operand_vector(a_updates);

    macro_rules! check {
        ($s:expr, $name:literal) => {
            prop_assert_eq!(
                mxm(&a, &b, $s).extract_tuples(),
                mxm_btree(&a, &b, $s).extract_tuples(),
                concat!("mxm over ", $name)
            );
            prop_assert_eq!(
                vec_entries(&vxm(&u, &a, $s)),
                vec_entries(&vxm_btree(&u, &a, $s)),
                concat!("vxm over ", $name)
            );
        };
    }
    check!(PlusTimes, "plus-times");
    check!(MinPlus, "min-plus");
    check!(MinFirst, "min-first");
}

/// The cursor-consuming entry points (masked and unmasked) over every
/// `CursorReader` must be byte-identical to the flat-oracle kernels.
#[allow(clippy::too_many_arguments)]
fn check_readers_vs_oracle(
    updates: &[(u64, u64, u64)],
    b_updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    chunk: usize,
    flush_at: usize,
) {
    let flat = build_flat(updates);
    let mut flat_b = build_flat(b_updates);
    let u = operand_vector(updates);
    // Vector mask: the odd-position operand rows; matrix mask: b's
    // pattern (exercises both polarity flags).
    let mut mask_vec = SparseVector::<u64>::new(DIM);
    for (i, (j, _)) in u.iter().enumerate() {
        if i % 2 == 1 {
            mask_vec.set(j, 1).unwrap();
        }
    }

    let mut spa = SpaScratch::<u64>::new();
    let expect_vxm = vec_entries(&vxm(&u, &flat, PlusTimes));
    let expect_vxm_min = vec_entries(&vxm(&u, &flat, MinPlus));
    let expect_mxv = vec_entries(&mxv(&flat, &u, PlusTimes));
    let expect_mxm = mxm(&flat, &flat_b, PlusTimes).extract_tuples();
    // Masked oracles: masking only skips denied outputs, so the
    // answer is the unmasked oracle filtered by the mask.
    let vmask = VectorMask::structural(&mask_vec);
    let vmask_c = VectorMask::<u64>::complement(&mask_vec);
    let expect_vxm_masked: Vec<(u64, u64)> = expect_vxm
        .iter()
        .copied()
        .filter(|&(j, _)| vmask.allows(j))
        .collect();
    let expect_mxv_masked: Vec<(u64, u64)> = expect_mxv
        .iter()
        .copied()
        .filter(|&(i, _)| vmask_c.allows(i))
        .collect();
    let mask_m = build_flat(b_updates);
    let mmask = Mask::structural(&mask_m);
    let expect_mxm_masked = {
        let (r, c, v) = &expect_mxm;
        let mut fr = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..r.len() {
            if mmask.allows(r[k], c[k]) {
                fr.0.push(r[k]);
                fr.1.push(c[k]);
                fr.2.push(v[k]);
            }
        }
        fr
    };

    for (name, mut sys) in cursor_systems(updates, cuts, shards, chunk, flush_at) {
        let got = vxm_reader(&u, sys.as_mut(), PlusTimes, &mut spa).unwrap();
        prop_assert_eq!(vec_entries(&got), expect_vxm.clone(), "vxm of {}", &name);
        let got = vxm_reader(&u, sys.as_mut(), MinPlus, &mut spa).unwrap();
        prop_assert_eq!(
            vec_entries(&got),
            expect_vxm_min.clone(),
            "vxm min-plus of {}",
            &name
        );
        let got = vxm_reader_masked(&u, sys.as_mut(), PlusTimes, &vmask, &mut spa).unwrap();
        prop_assert_eq!(
            vec_entries(&got),
            expect_vxm_masked.clone(),
            "masked vxm of {}",
            &name
        );
        let got = mxv_reader(sys.as_mut(), &u, PlusTimes).unwrap();
        prop_assert_eq!(vec_entries(&got), expect_mxv.clone(), "mxv of {}", &name);
        let got = mxv_reader_masked(sys.as_mut(), &u, PlusTimes, &vmask_c).unwrap();
        prop_assert_eq!(
            vec_entries(&got),
            expect_mxv_masked.clone(),
            "masked mxv of {}",
            &name
        );
        let got = mxm_reader(sys.as_mut(), &mut flat_b, PlusTimes, &mut spa).unwrap();
        prop_assert_eq!(got.extract_tuples(), expect_mxm.clone(), "mxm of {}", &name);
        let got =
            mxm_reader_masked(sys.as_mut(), &mut flat_b, PlusTimes, &mmask, &mut spa).unwrap();
        prop_assert_eq!(
            got.extract_tuples(),
            expect_mxm_masked.clone(),
            "masked mxm of {}",
            &name
        );
    }
}

/// Triangles, BFS, components and pagerank agree across every system:
/// cursor-native primaries on the level readers, `*_tuples` fallbacks
/// on every sink system.
fn check_algorithms_agree(
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    chunk: usize,
    flush_at: usize,
) {
    let mut flat = build_flat(updates);
    let source = updates[0].0;
    let expect_tri = triangle_count(&mut flat);
    let expect_bfs = vec_entries(&bfs_levels(&mut flat, source));
    let expect_cc = vec_entries(&connected_components(&mut flat));
    let expect_pr: Vec<(u64, f64)> = pagerank(&mut flat, 0.85, 40, 1e-12).iter().collect();
    let close = |got: &[(u64, f64)]| {
        got.len() == expect_pr.len()
            && got
                .iter()
                .zip(expect_pr.iter())
                .all(|(&(gj, gv), &(ej, ev))| gj == ej && (gv - ev).abs() < 1e-9)
    };

    // Cursor-native primaries over every level-slice reader.
    for (name, mut sys) in cursor_systems(updates, cuts, shards, chunk, flush_at) {
        prop_assert_eq!(
            triangle_count(sys.as_mut()),
            expect_tri,
            "triangles of {}",
            &name
        );
        prop_assert_eq!(
            vec_entries(&bfs_levels(sys.as_mut(), source)),
            expect_bfs.clone(),
            "bfs of {}",
            &name
        );
        prop_assert_eq!(
            vec_entries(&connected_components(sys.as_mut())),
            expect_cc.clone(),
            "components of {}",
            &name
        );
        let pr: Vec<(u64, f64)> = pagerank(sys.as_mut(), 0.85, 40, 1e-12).iter().collect();
        prop_assert!(close(&pr), "pagerank of {}: {:?}", &name, pr);
    }

    // Tuple fallbacks over every sink system, the D4M store included.
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let mut systems: Vec<Box<dyn StreamingSystem<u64>>> = vec![
        Box::new(Matrix::<u64>::new(DIM, DIM)),
        Box::new(HierMatrix::<u64>::new(DIM, DIM, hier_cfg.clone()).unwrap()),
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
    ];
    for sys in systems.iter_mut() {
        let name = sys.reader_name().to_string();
        for &(r, c, v) in updates {
            sys.insert(r, c, v).unwrap();
        }
        let r = sys.as_mut();
        prop_assert_eq!(
            triangle_count_tuples(r),
            expect_tri,
            "tuple triangles of {}",
            &name
        );
        prop_assert_eq!(
            vec_entries(&bfs_levels_tuples(r, source)),
            expect_bfs.clone(),
            "tuple bfs of {}",
            &name
        );
        prop_assert_eq!(
            vec_entries(&connected_components_tuples(r)),
            expect_cc.clone(),
            "tuple components of {}",
            &name
        );
        let pr: Vec<(u64, f64)> = pagerank_tuples(r, 0.85, 40, 1e-12).iter().collect();
        prop_assert!(close(&pr), "tuple pagerank of {}: {:?}", &name, pr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn spa_kernels_match_btree_fallbacks(
        a_updates in update_stream(200),
        b_updates in update_stream(200),
    ) {
        check_spa_vs_btree(&a_updates, &b_updates);
    }

    #[test]
    fn reader_kernels_match_flat_oracle(
        updates in update_stream(200),
        b_updates in update_stream(100),
        cuts in cut_schedule(),
        shards in 1usize..=8,
        chunk in 1usize..64,
        flush_at in 0usize..200,
    ) {
        check_readers_vs_oracle(&updates, &b_updates, &cuts, shards, chunk, flush_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn algorithms_agree_across_all_systems(
        updates in update_stream(150),
        cuts in cut_schedule(),
        shards in 1usize..=8,
        chunk in 1usize..64,
        flush_at in 0usize..150,
    ) {
        check_algorithms_agree(&updates, &cuts, shards, chunk, flush_at);
    }
}
