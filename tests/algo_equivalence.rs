#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests (proptest) of the semiring kernels and the graph
//! algorithms built on them: for random update streams, cut schedules,
//! shard counts and mid-stream flushes,
//!
//! * there is one product kernel, over level slices, and `oracle::mxm_btree`
//!   / `oracle::vxm_btree` are its references: the flat `mxm` / `mxv` /
//!   `vxm` (its one-level case) must be **byte-identical** to them over
//!   every semiring (the sorted-scatter sequence tiebreak reproduces the
//!   BTreeMap fold order exactly, so this holds even for non-commutative ⊗
//!   like `first`);
//! * the same kernel over k levels — `mxm_reader` / `mxv_reader` /
//!   `vxm_reader`, masked and unmasked, over every `CursorReader`: flat,
//!   hierarchical, sharded, and both snapshot flavours — must equal the
//!   one-level case and the reference alike;
//! * every product entry answers a hostile shape (mismatched dimensions, an
//!   empty operand, a level that disagrees with its reader's dimensions, a
//!   mask of the wrong size) with `GrbError::DimensionMismatch` or the empty
//!   product, never a panic; and
//! * `triangle_count` / `bfs_levels` / `connected_components` /
//!   `pagerank` must agree across every system, square or wider than tall:
//!   cursor-native primaries on the level-slice readers, the `oracle::*_tuples`
//!   references on every sink system (pagerank to 1e-9; everything else
//!   exactly, whole vectors where the system is bounded).

use hyperstream::graphblas::algo::{bfs_levels, connected_components, pagerank, triangle_count};
use hyperstream::graphblas::ops::semiring::MinFirst;
use hyperstream::graphblas::oracle;
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
    build_flat_in((DIM, DIM), updates)
}

fn build_flat_in(dims: (u64, u64), updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(dims.0, dims.1);
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
    (nrows, ncols): (u64, u64),
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
    let mut flat = Matrix::<u64>::new(nrows, ncols);
    let mut hier = HierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone()).unwrap();
    let mut hier_snap = HierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone()).unwrap();
    let mut sharded = ShardedHierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone(), scfg).unwrap();
    let mut sharded_snap = ShardedHierMatrix::<u64>::new(nrows, ncols, hier_cfg, scfg).unwrap();
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

/// The one-level case of the kernel must reproduce the BTreeMap
/// references byte for byte, over commutative and non-commutative
/// semirings alike — `Result`s compared whole.
fn check_spa_vs_btree(a_updates: &[(u64, u64, u64)], b_updates: &[(u64, u64, u64)]) {
    let a = build_flat(a_updates);
    let b = build_flat(b_updates);
    let u = operand_vector(a_updates);
    let a_t = transpose(&a);

    macro_rules! check {
        ($s:expr, $name:literal) => {
            prop_assert_eq!(
                mxm(&a, &b, $s).map(|c| c.extract_tuples()),
                oracle::mxm_btree(&a, &b, $s).map(|c| c.extract_tuples()),
                concat!("mxm over ", $name)
            );
            prop_assert_eq!(
                vxm(&u, &a, $s),
                oracle::vxm_btree(&u, &a, $s),
                concat!("vxm over ", $name)
            );
        };
    }
    check!(PlusTimes, "plus-times");
    check!(MinPlus, "min-plus");
    check!(MinFirst, "min-first");
    // `A u` is `u Aᵀ` wherever ⊗ commutes.
    prop_assert_eq!(
        mxv(&a, &u, PlusTimes),
        oracle::vxm_btree(&u, &a_t, PlusTimes)
    );
    prop_assert_eq!(mxv(&a, &u, MinPlus), oracle::vxm_btree(&u, &a_t, MinPlus));
}

/// k levels == one level == reference: the cursor-consuming entry points
/// (masked and unmasked) over every `CursorReader`, and the flat entry
/// points over the materialised matrix, must be byte-identical to the
/// `oracle::*_btree` products.
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
    let flat_t = transpose(&flat);
    let expect_vxm = vec_entries(&oracle::vxm_btree(&u, &flat, PlusTimes).unwrap());
    let expect_vxm_min = vec_entries(&oracle::vxm_btree(&u, &flat, MinPlus).unwrap());
    let expect_mxv = vec_entries(&oracle::vxm_btree(&u, &flat_t, PlusTimes).unwrap());
    let expect_mxm = oracle::mxm_btree(&flat, &flat_b, PlusTimes)
        .unwrap()
        .extract_tuples();
    // One level: the flat entry points.
    prop_assert_eq!(
        vec_entries(&vxm(&u, &flat, PlusTimes).unwrap()),
        expect_vxm.clone()
    );
    prop_assert_eq!(
        vec_entries(&vxm(&u, &flat, MinPlus).unwrap()),
        expect_vxm_min.clone()
    );
    prop_assert_eq!(
        vec_entries(&mxv(&flat, &u, PlusTimes).unwrap()),
        expect_mxv.clone()
    );
    prop_assert_eq!(
        mxm(&flat, &flat_b, PlusTimes).unwrap().extract_tuples(),
        expect_mxm.clone()
    );
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

    // k levels: every reader.
    for (name, mut sys) in cursor_systems((DIM, DIM), updates, cuts, shards, chunk, flush_at) {
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

/// Triangles, BFS, components and pagerank agree across every system of
/// the given dimensions: cursor-native primaries on the level readers, the
/// `oracle::*_tuples` references on every sink system.  Primaries and
/// references size their vectors alike (`max(nrows, ncols)`), so whole
/// vectors are compared wherever the system reports these dimensions (the
/// D4M store is unbounded: entries only).
fn check_algorithms_agree(
    dims: (u64, u64),
    updates: &[(u64, u64, u64)],
    cuts: &[u64],
    shards: usize,
    chunk: usize,
    flush_at: usize,
) {
    let (nrows, ncols) = dims;
    let mut flat = build_flat_in(dims, updates);
    let source = updates[0].0;
    let expect_tri = triangle_count(&mut flat);
    let expect_bfs = bfs_levels(&mut flat, source);
    let expect_cc = connected_components(&mut flat);
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
    for (name, mut sys) in cursor_systems(dims, updates, cuts, shards, chunk, flush_at) {
        prop_assert_eq!(
            triangle_count(sys.as_mut()),
            expect_tri,
            "triangles of {}",
            &name
        );
        prop_assert_eq!(
            &bfs_levels(sys.as_mut(), source),
            &expect_bfs,
            "bfs of {}",
            &name
        );
        prop_assert_eq!(
            &connected_components(sys.as_mut()),
            &expect_cc,
            "components of {}",
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

    // The references over every sink system, the D4M store included.
    let hier_cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    let mut systems: Vec<Box<dyn StreamingSystem<u64>>> = vec![
        Box::new(Matrix::<u64>::new(nrows, ncols)),
        Box::new(HierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone()).unwrap()),
        Box::new(
            WindowedHierMatrix::<u64>::new(nrows, ncols, hier_cfg.clone(), u64::MAX, 4).unwrap(),
        ),
        Box::new(
            ShardedHierMatrix::<u64>::new(
                nrows,
                ncols,
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
        let bounded = r.read_dims() == dims;
        prop_assert_eq!(
            oracle::triangle_count_tuples(r),
            Ok(expect_tri),
            "reference triangles of {}",
            &name
        );
        let bfs = oracle::bfs_levels_tuples(r, source).unwrap();
        let cc = oracle::connected_components_tuples(r).unwrap();
        let pr = oracle::pagerank_tuples(r, 0.85, 40, 1e-12).unwrap();
        if bounded {
            prop_assert_eq!(&bfs, &expect_bfs, "reference bfs of {}", &name);
            prop_assert_eq!(&cc, &expect_cc, "reference components of {}", &name);
            prop_assert_eq!(pr.size(), expect_pr.size(), "pagerank size of {}", &name);
        }
        prop_assert_eq!(vec_entries(&bfs), vec_entries(&expect_bfs), "{}", &name);
        prop_assert_eq!(vec_entries(&cc), vec_entries(&expect_cc), "{}", &name);
        prop_assert!(close(&pr), "reference pagerank of {}: {:?}", &name, pr);
    }
}

/// A store whose one level disagrees with the dimensions it claims.
struct Lying(Dcsr<u64>);

impl LevelStore for Lying {
    type Value = u64;

    fn store_name(&self) -> &str {
        "lying"
    }

    fn store_dims(&self) -> (u64, u64) {
        (DIM, DIM)
    }

    fn with_levels<R>(&mut self, f: impl FnOnce(&[&Dcsr<u64>]) -> R) -> R {
        f(&[&self.0])
    }

    fn with_twins<R>(&mut self, f: impl FnOnce(&[&Dcsr<u64>]) -> R) -> R {
        f(&[])
    }
}

/// Every product entry — flat, reader, masked reader, over every reader of
/// `cursor_systems` — given a hostile shape answers
/// `GrbError::DimensionMismatch` or the empty product, and never panics.
#[test]
fn product_entries_answer_hostile_shapes_with_typed_errors() {
    fn mismatch<T: std::fmt::Debug>(r: GrbResult<T>, what: &str) {
        assert!(
            matches!(r, Err(GrbError::DimensionMismatch { .. })),
            "{what}: {r:?}"
        );
    }
    let updates: Vec<(u64, u64, u64)> = (0..40u64)
        .map(|i| ((i % 7) * 20_000_019, (i % 5) * 40_000_003, 1 + i % 3))
        .collect();
    let u = operand_vector(&updates);
    let mut b = build_flat(&updates);
    let spa = &mut SpaScratch::<u64>::new();

    // Operands and masks one off the systems' DIM x DIM.
    let wrong_u = SparseVector::<u64>::new(DIM + 1);
    let mut wrong_b = Matrix::<u64>::new(DIM + 1, DIM + 1);
    let wrong_mask_m = Matrix::<u64>::new(DIM, DIM + 1);
    let wrong_mask = Mask::structural(&wrong_mask_m);
    let wrong_vmask = VectorMask::structural(&wrong_u);
    // ... and ones that fit but hold nothing.
    let empty_u = SparseVector::<u64>::new(DIM);
    let mut empty_b = Matrix::<u64>::new(DIM, DIM);
    let all_m = Matrix::<u64>::new(DIM, DIM);
    let all = Mask::complement(&all_m);
    let all_v = VectorMask::complement(&empty_u);

    // The flat entries (one level).
    let a = build_flat(&updates);
    mismatch(mxm(&a, &wrong_b, PlusTimes), "flat mxm");
    mismatch(mxv(&a, &wrong_u, PlusTimes), "flat mxv");
    mismatch(vxm(&wrong_u, &a, PlusTimes), "flat vxm");
    mismatch(ewise_add(&a, &wrong_b, Plus), "ewise_add");
    mismatch(ewise_mult(&a, &wrong_b, Times), "ewise_mult");
    assert!(mxm(&a, &empty_b, PlusTimes).unwrap().is_empty());
    assert!(mxm(&empty_b, &a, PlusTimes).unwrap().is_empty());
    assert!(mxv(&a, &empty_u, PlusTimes).unwrap().is_empty());
    assert!(vxm(&empty_u, &a, PlusTimes).unwrap().is_empty());

    // The reader entries, over every reader (k levels), full and empty.
    let mut readers = cursor_systems((DIM, DIM), &updates, &[3, 9], 2, 4, 17);
    readers.extend(
        cursor_systems((DIM, DIM), &[], &[3, 9], 2, 4, 0)
            .into_iter()
            .map(|(name, sys)| (format!("empty {name}"), sys)),
    );
    for (name, mut sys) in readers {
        let r = sys.as_mut();
        mismatch(mxm_reader(r, &mut wrong_b, PlusTimes, spa), &name);
        mismatch(mxm_reader(&mut wrong_b, r, PlusTimes, spa), &name);
        mismatch(
            mxm_reader_masked(r, &mut wrong_b, PlusTimes, &all, spa),
            &name,
        );
        mismatch(
            mxm_reader_masked(r, &mut b, PlusTimes, &wrong_mask, spa),
            &name,
        );
        mismatch(mxv_reader(r, &wrong_u, PlusTimes), &name);
        mismatch(mxv_reader_masked(r, &wrong_u, PlusTimes, &all_v), &name);
        mismatch(mxv_reader_masked(r, &u, PlusTimes, &wrong_vmask), &name);
        mismatch(vxm_reader(&wrong_u, r, PlusTimes, spa), &name);
        mismatch(
            vxm_reader_masked(&wrong_u, r, PlusTimes, &all_v, spa),
            &name,
        );
        mismatch(
            vxm_reader_masked(&u, r, PlusTimes, &wrong_vmask, spa),
            &name,
        );

        let empty = name.starts_with("empty");
        let c = mxm_reader(r, &mut empty_b, PlusTimes, spa).unwrap();
        assert!(c.is_empty(), "{name}");
        let c = mxm_reader_masked(r, &mut b, PlusTimes, &all, spa).unwrap();
        assert_eq!(c.is_empty(), empty, "{name}");
        assert!(mxv_reader(r, &empty_u, PlusTimes).unwrap().is_empty());
        assert!(vxm_reader(&empty_u, r, PlusTimes, spa).unwrap().is_empty());
        let w = vxm_reader_masked(&u, r, PlusTimes, &all_v, spa).unwrap();
        assert_eq!(w.is_empty(), empty, "{name}");
        let w = mxv_reader_masked(r, &empty_u, PlusTimes, &all_v).unwrap();
        assert!(w.is_empty(), "{name}");
    }

    // A level that is not the size its reader claims, on either side.
    let level = Dcsr::from_tuples(8, 8, &[1], &[2], &[3u64], Plus).unwrap();
    let mut lying = Lying(level);
    mismatch(mxm_reader(&mut lying, &mut b, PlusTimes, spa), "lying A");
    mismatch(mxm_reader(&mut b, &mut lying, PlusTimes, spa), "lying B");
    mismatch(
        mxm_reader_masked(&mut lying, &mut b, PlusTimes, &all, spa),
        "lying A",
    );
    mismatch(mxv_reader(&mut lying, &u, PlusTimes), "lying mxv");
    mismatch(
        mxv_reader_masked(&mut lying, &u, PlusTimes, &all_v),
        "lying mxv",
    );
    mismatch(vxm_reader(&u, &mut lying, PlusTimes, spa), "lying vxm");
    mismatch(
        vxm_reader_masked(&u, &mut lying, PlusTimes, &all_v, spa),
        "lying vxm",
    );
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
        wide in 0u8..2,
    ) {
        // Square, or wider than tall: every row id of `update_stream` lies
        // below 2^31, its column ids reach past it.
        let dims = if wide == 1 { (DIM / 2, DIM) } else { (DIM, DIM) };
        check_algorithms_agree(dims, &updates, &cuts, shards, chunk, flush_at);
    }
}
