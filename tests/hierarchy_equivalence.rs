//! Cross-crate integration tests: the hierarchical matrix must represent
//! exactly the same mathematical object as a flat GraphBLAS matrix and as a
//! D4M associative array fed the same stream, regardless of the cut
//! schedule, and the whole pipeline (workload -> hierarchy -> analytics)
//! must hold together.

use hyperstream::prelude::*;

fn stream(n: usize, seed: u64) -> Vec<Edge> {
    let gen = PowerLawGenerator::new(PowerLawConfig {
        vertices: 5_000,
        dim: 1 << 32,
        seed,
        ..PowerLawConfig::default()
    });
    gen.take(n).collect()
}

#[test]
fn hierarchy_equals_flat_for_many_cut_schedules() {
    let edges = stream(20_000, 11);
    // Flat reference.
    let mut flat = Matrix::<u64>::new(1 << 32, 1 << 32);
    for e in &edges {
        flat.accum_element(e.src, e.dst, e.weight).unwrap();
    }
    flat.wait();

    for cuts in [
        vec![16u64],
        vec![64, 512],
        vec![100, 1_000, 10_000],
        vec![1 << 12, 1 << 15, 1 << 18],
    ] {
        let cfg = HierConfig::from_cuts(cuts.clone()).unwrap();
        let mut hier = HierMatrix::<u64>::new(1 << 32, 1 << 32, cfg).unwrap();
        for e in &edges {
            hier.update(e.src, e.dst, e.weight).unwrap();
        }
        let snap = hier.materialize();
        assert_eq!(
            snap.extract_tuples(),
            flat.extract_tuples(),
            "hierarchy with cuts {cuts:?} diverged from the flat matrix"
        );
    }
}

#[test]
fn hierarchy_equals_d4m_assoc_on_the_same_stream() {
    let edges = stream(3_000, 23);
    let mut hier = HierMatrix::<u64>::with_default_config(1 << 32, 1 << 32).unwrap();
    let mut assoc = HierAssoc::with_default_config();
    for e in &edges {
        hier.update(e.src, e.dst, e.weight).unwrap();
        assoc.update(&e.src.to_string(), &e.dst.to_string(), e.weight as f64);
    }
    // Same total weight and same number of distinct cells.
    assert_eq!(hier.total_weight(), assoc.total() as u64);
    assert_eq!(hier.nvals_exact(), assoc.materialize().nnz());
    // Spot-check a handful of cells through both APIs.
    for e in edges.iter().take(50) {
        let h = hier.get(e.src, e.dst).unwrap();
        let a = assoc.get(&e.src.to_string(), &e.dst.to_string()).unwrap();
        assert_eq!(h as f64, a);
    }
}

#[test]
fn end_to_end_traffic_analytics_pipeline() {
    // workload -> hierarchical matrix -> graph analytics, all through the
    // facade crate's prelude.
    let dim = IpVersion::V4.dim();
    let mut m = HierMatrix::<u64>::with_default_config(dim, dim).unwrap();
    let gen = IpTrafficGenerator::new(IpTrafficConfig {
        supernodes: 8,
        supernode_fraction: 0.5,
        seed: 99,
        ..IpTrafficConfig::default()
    });
    let supers: Vec<u64> = gen.supernode_addresses().to_vec();
    for flow in gen.take(30_000) {
        m.update(flow.src, flow.dst, flow.weight).unwrap();
    }
    let snap = m.materialize();
    assert!(snap.nvals() > 1000);

    // Per-destination packet counts must rank a supernode near the top.
    let per_dest = reduce_cols(&snap, PlusMonoid);
    let top: Vec<u64> = per_dest.top_k(8).into_iter().map(|(a, _)| a).collect();
    assert!(
        top.iter().any(|a| supers.contains(a)),
        "no supernode among the top destinations"
    );

    // Total packets conserved through the whole pipeline.
    let total_from_reduce: u64 = reduce_scalar(&snap, PlusMonoid);
    assert_eq!(total_from_reduce, m.total_weight());
}

// ----- the batch fold in front of level 0 ------------------------------
//
// `update_batch` folds a batch's repeats before they reach level 0 wherever
// the packed `row << 32 | col` key exists.  A `2^40`-dimension matrix has
// no such key and takes the raw append, so the same batches fed to a
// `2^32` matrix and to a `2^40` twin compare the folded path with the
// unfolded one at identical batch boundaries: same cells, same counters.
// (One `update` at a time cascades *inside* what was a batch, so it agrees
// on content and `updates` only — as it did before the fold.)

/// SplitMix64: the scenarios below need nothing but a repeatable stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type Batch = (Vec<u64>, Vec<u64>, Vec<u64>);

/// `len` tuples over `cells` possible cells of a `dim`-wide matrix, weights
/// near `u64::MAX` one time in four so that sums wrap.
fn batch(seed: &mut u64, len: usize, cells: u64, dim: u64) -> Batch {
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..len {
        let cell = splitmix(seed) % cells;
        rows.push(cell.wrapping_mul(0x9E37_79B9) % dim);
        cols.push(cell.wrapping_mul(0x85EB_CA6B) % dim);
        vals.push(match splitmix(seed) % 4 {
            0 => u64::MAX - splitmix(seed) % 3,
            _ => splitmix(seed) % 5 + 1,
        });
    }
    (rows, cols, vals)
}

/// Two batches end to end, so that the first decides what the fold's
/// sample sees.
fn concat(mut a: Batch, b: Batch) -> Batch {
    a.0.extend(b.0);
    a.1.extend(b.1);
    a.2.extend(b.2);
    a
}

/// Batch sequences that between them take every path through the fold.
fn scenarios(dim: u64) -> Vec<(&'static str, Vec<Batch>)> {
    let mut s = 0xF01D;
    let mut many = |spec: &[(usize, u64)]| -> Vec<Batch> {
        spec.iter()
            .map(|&(len, cells)| batch(&mut s, len, cells, dim))
            .collect()
    };
    let heavy = many(&[(20_000, 700), (9_000, 50), (30_000, 4_000)]);
    let free = many(&[(6_000, u64::MAX), (12_000, u64::MAX)]);
    let mixed = many(&[
        (5_000, 300),
        (5_000, u64::MAX),
        (100, 10),
        (8_000, 2_000),
        (0, 1),
    ]);
    // A repeating prefix sends the batch into the fold; 150k draws over 200k
    // cells then bring ~105k distinct ones, more than the index holds.
    let mut over = many(&[(8_000, 500), (150_000, 200_000), (10_000, 200_000)]);
    let over = vec![concat(over.remove(0), over.remove(0)), over.remove(0)];
    let short = many(&[(4_095, 64), (1, 1), (500, 20), (4_096, 64)]);
    vec![
        ("duplicate-heavy", heavy),
        ("duplicate-free", free),
        ("mixed", mixed),
        ("over capacity", over),
        ("shorter than the sample", short),
    ]
}

/// The scenarios take the paths they are named for: seen from outside, a
/// folded batch leaves fewer pending tuples in level 0 than it had.
#[test]
fn fold_scenarios_reach_the_fold() {
    let pending_after = |b: &Batch| {
        let mut m = HierMatrix::<u64>::new(1 << 32, 1 << 32, HierConfig::effectively_flat());
        let m = m.as_mut().unwrap();
        m.update_batch(&b.0, &b.1, &b.2).unwrap();
        m.entries_per_level()[0]
    };
    for (name, batches) in scenarios(1 << 32) {
        let pending: Vec<usize> = batches.iter().map(pending_after).collect();
        let lens: Vec<usize> = batches.iter().map(|b| b.0.len()).collect();
        match name {
            "duplicate-heavy" => assert!(pending.iter().zip(&lens).all(|(p, l)| p * 4 < *l)),
            "duplicate-free" => assert_eq!(pending, lens),
            // Up to the first batch as long as the sample, which folds.
            "shorter than the sample" => assert_eq!(pending, [4_095, 1, 500, 64]),
            "mixed" => assert!(pending[0] < 400 && pending[1] == lens[1] && pending[2] == lens[2]),
            // Folded (fewer than sent), spilled (more than the 2^16 cells
            // the index holds).
            _ => assert!(pending[0] > 1 << 16 && pending[0] < lens[0] - 20_000),
        }
    }
}

fn cells_of(m: &mut HierMatrix<u64>) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    m.materialize().extract_tuples()
}

#[test]
fn folded_batches_equal_raw_batches_and_single_updates() {
    for cuts in [
        vec![64u64, 512],
        vec![3_000, 30_000, 90_000],
        vec![1 << 17, 1 << 20, 1 << 23],
    ] {
        for (name, batches) in scenarios(1 << 32) {
            let cfg = HierConfig::from_cuts(cuts.clone()).unwrap();
            let mut folded = HierMatrix::<u64>::new(1 << 32, 1 << 32, cfg.clone()).unwrap();
            let mut raw = HierMatrix::<u64>::new(1 << 40, 1 << 40, cfg.clone()).unwrap();
            let mut singles = HierMatrix::<u64>::new(1 << 32, 1 << 32, cfg).unwrap();
            for (rows, cols, vals) in &batches {
                folded.update_batch(rows, cols, vals).unwrap();
                raw.update_batch(rows, cols, vals).unwrap();
                for i in 0..rows.len() {
                    singles.update(rows[i], cols[i], vals[i]).unwrap();
                }
                // Reads between batches see the same matrix on all three
                // (and settle level 0 on all three alike).
                for i in (0..rows.len()).step_by(rows.len() / 3 + 1) {
                    let want = singles.get(rows[i], cols[i]);
                    assert!(want.is_some());
                    assert_eq!(folded.get(rows[i], cols[i]), want, "{name} {cuts:?}");
                    assert_eq!(raw.get(rows[i], cols[i]), want, "{name} {cuts:?}");
                    let (mut f, mut r, mut s) = (Vec::new(), Vec::new(), Vec::new());
                    folded.read_row(rows[i], &mut f);
                    raw.read_row(rows[i], &mut r);
                    singles.read_row(rows[i], &mut s);
                    assert_eq!(f, s, "{name} {cuts:?}");
                    assert_eq!(r, s, "{name} {cuts:?}");
                }
            }
            assert_eq!(folded.stats(), raw.stats(), "{name} {cuts:?}");
            assert_eq!(folded.stats().updates, singles.stats().updates);
            let want = cells_of(&mut singles);
            assert_eq!(cells_of(&mut folded), want, "{name} {cuts:?}");
            assert_eq!(cells_of(&mut raw), want, "{name} {cuts:?}");
            folded.flush().unwrap();
            raw.flush().unwrap();
            assert_eq!(folded.stats(), raw.stats(), "{name} {cuts:?} after flush");
            assert_eq!(cells_of(&mut folded), want, "{name} {cuts:?} after flush");
        }
    }
}

#[test]
fn batches_above_the_packed_key_space_equal_single_updates() {
    let cfg = HierConfig::from_cuts(vec![3_000, 30_000]).unwrap();
    for (name, batches) in scenarios(1 << 40) {
        let mut batched = HierMatrix::<u64>::new(1 << 40, 1 << 40, cfg.clone()).unwrap();
        let mut singles = HierMatrix::<u64>::new(1 << 40, 1 << 40, cfg.clone()).unwrap();
        for (rows, cols, vals) in &batches {
            batched.update_batch(rows, cols, vals).unwrap();
            for i in 0..rows.len() {
                singles.update(rows[i], cols[i], vals[i]).unwrap();
            }
        }
        assert!(
            cells_of(&mut batched).0.iter().any(|&r| r >= 1 << 32),
            "{name}"
        );
        assert_eq!(cells_of(&mut batched), cells_of(&mut singles), "{name}");
    }
}

/// `f64` weights agree with the unfolded path up to reassociation, not to
/// the bit: the fold sums a cell's repeats *within a batch* first, the
/// settle sums whatever is pending left to right, and the two orders differ
/// whenever a cell's tuples from two batches (or from two sides of a
/// spill) meet before a settle.  With weights that add exactly the sums
/// are equal; this pins that nothing but the order changed.
#[test]
fn f64_batches_fold_to_the_same_sums() {
    let cfg = HierConfig::from_cuts(vec![3_000, 30_000]).unwrap();
    let mut folded = HierMatrix::<f64>::new(1 << 32, 1 << 32, cfg.clone()).unwrap();
    let mut raw = HierMatrix::<f64>::new(1 << 40, 1 << 40, cfg).unwrap();
    for (_, batches) in scenarios(1 << 32) {
        for (rows, cols, vals) in &batches {
            // Multiples of 1/8 below 2^20: every partial sum is exact.
            let vals: Vec<f64> = vals.iter().map(|&v| (v % 64) as f64 / 8.0).collect();
            folded.update_batch(rows, cols, &vals).unwrap();
            raw.update_batch(rows, cols, &vals).unwrap();
        }
    }
    assert_eq!(folded.stats(), raw.stats());
    assert_eq!(
        folded.materialize().extract_tuples(),
        raw.materialize().extract_tuples()
    );
}

/// The deterministic tripwire for the fold (no clock): on a fixed 20 x 10k
/// power-law stream, a batch that stays under the first cut leaves level 0
/// holding exactly its distinct cells, and the counters after the flush are
/// the ones the commit before the fold produced — the fold moved no settle
/// and no cascade.
#[test]
fn fold_tripwire_on_a_fixed_power_law_stream() {
    let mut gen = PowerLawGenerator::new(PowerLawConfig::paper());
    let cfg = HierConfig::from_cuts(vec![1 << 14, 1 << 16, 1 << 18]).unwrap();
    let mut m = HierMatrix::<u64>::new(1 << 32, 1 << 32, cfg).unwrap();
    for b in 0..20 {
        let (rows, cols, vals) = edges_to_tuples(&gen.batch(10_000));
        m.update_batch(&rows, &cols, &vals).unwrap();
        if b == 0 {
            let mut distinct: Vec<(u64, u64)> = rows.iter().copied().zip(cols).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() < 9_000, "the stream repeats cells");
            assert_eq!(m.entries_per_level(), vec![distinct.len(), 0, 0, 0]);
        }
    }
    m.flush().unwrap();
    assert_eq!(
        *m.stats(),
        HierStats {
            updates: 200_000,
            cascades: vec![4, 1, 1, 0],
            entries_moved: vec![75_912, 60_283, 60_283, 0],
            materializations: 0,
        }
    );
}
