//! E7 — GraphBLAS kernel micro-benchmarks: build-from-tuples, ewise_add
//! (the cascade primitive), mxm and reduce on hypersparse operands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperstream_graphblas::algo::pagerank;
use hyperstream_graphblas::cursor::{merge_levels, merged_nnz, merged_row_into, merged_top_k};
use hyperstream_graphblas::formats::coo::Coo;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::ewise_add::ewise_add;
use hyperstream_graphblas::ops::monoid::PlusMonoid;
use hyperstream_graphblas::ops::mxm::mxm;
use hyperstream_graphblas::ops::reduce::reduce_rows;
use hyperstream_graphblas::ops::semiring::PlusTimes;
use hyperstream_graphblas::Matrix;
use hyperstream_graphblas::MatrixSnapshot;
use hyperstream_graphblas::MergeScratch;
use hyperstream_workload::{PowerLawConfig, PowerLawGenerator};
use std::sync::Arc;

const DIM: u64 = 1 << 32;

fn random_matrix(nnz: usize, seed: u64) -> Matrix<u64> {
    let mut gen = PowerLawGenerator::new(PowerLawConfig {
        seed,
        ..PowerLawConfig::paper()
    });
    let edges = gen.batch(nnz);
    let rows: Vec<u64> = edges.iter().map(|e| e.src).collect();
    let cols: Vec<u64> = edges.iter().map(|e| e.dst).collect();
    let vals: Vec<u64> = edges.iter().map(|e| e.weight).collect();
    Matrix::from_tuples(DIM, DIM, &rows, &cols, &vals, Plus).unwrap()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_tuples");
    for &nnz in &[10_000usize, 100_000] {
        let mut gen = PowerLawGenerator::new(PowerLawConfig::paper());
        let edges = gen.batch(nnz);
        let rows: Vec<u64> = edges.iter().map(|e| e.src).collect();
        let cols: Vec<u64> = edges.iter().map(|e| e.dst).collect();
        let vals: Vec<u64> = edges.iter().map(|e| e.weight).collect();
        group.throughput(Throughput::Elements(nnz as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nnz), &nnz, |b, _| {
            b.iter(|| {
                Matrix::from_tuples(DIM, DIM, &rows, &cols, &vals, Plus)
                    .unwrap()
                    .nvals()
            })
        });
    }
    group.finish();
}

fn bench_ewise_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("ewise_add");
    group.sample_size(20);
    for &(small, large) in &[(10_000usize, 100_000usize), (100_000, 1_000_000)] {
        let a = random_matrix(small, 1);
        let b = random_matrix(large, 2);
        group.throughput(Throughput::Elements((small + large) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{small}_into_{large}")),
            &(small, large),
            |bench, _| bench.iter(|| ewise_add(&a, &b, Plus).nvals()),
        );
    }
    group.finish();
}

/// The streaming bulk-insert path: one batch through `accum_tuples` (one
/// validation pass + bulk pending extend + one settle check) versus the
/// per-element `accum_element` loop it replaced.  The settle (`wait`) is
/// included so the scratch-reusing sort/merge is measured too.
fn bench_accum_tuples(c: &mut Criterion) {
    let mut group = c.benchmark_group("accum_tuples");
    let mut gen = PowerLawGenerator::new(PowerLawConfig::paper());
    const NNZ: usize = 100_000;
    let edges = gen.batch(NNZ);
    let rows: Vec<u64> = edges.iter().map(|e| e.src).collect();
    let cols: Vec<u64> = edges.iter().map(|e| e.dst).collect();
    let vals: Vec<u64> = edges.iter().map(|e| e.weight).collect();
    group.throughput(Throughput::Elements(NNZ as u64));
    group.bench_function("bulk_batch_100k", |b| {
        b.iter(|| {
            let mut m = Matrix::<u64>::new(DIM, DIM);
            m.accum_tuples(&rows, &cols, &vals).unwrap();
            m.wait();
            m.nvals_settled()
        })
    });
    group.bench_function("per_element_100k", |b| {
        b.iter(|| {
            let mut m = Matrix::<u64>::new(DIM, DIM);
            for i in 0..NNZ {
                m.accum_element(rows[i], cols[i], vals[i]).unwrap();
            }
            m.wait();
            m.nvals_settled()
        })
    });
    group.finish();
}

/// Input shapes for the settle-sort micro-benchmark.  `sorted` and
/// `reverse` are the best/worst cases for a comparison sort; `random`
/// scatters uniformly over a 2^20 id pool; `power_law` is the paper's
/// skewed traffic shape (duplicate-heavy).
fn sort_input(pattern: &str, n: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    match pattern {
        "sorted" => {
            // Ascending except the first tuple moved to the end, so the
            // is-sorted fast path does not short-circuit the sort itself.
            let mut rows: Vec<u64> = (1..n as u64 + 1).map(|i| i / 1000).collect();
            let mut cols: Vec<u64> = (1..n as u64 + 1).map(|i| i % 1000).collect();
            rows.rotate_left(1);
            cols.rotate_left(1);
            let vals = vec![1u64; n];
            (rows, cols, vals)
        }
        "reverse" => {
            let rows: Vec<u64> = (0..n as u64).rev().map(|i| i / 1000).collect();
            let cols: Vec<u64> = (0..n as u64).rev().map(|i| i % 1000).collect();
            (rows, cols, vec![1u64; n])
        }
        "random" => {
            let rows: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
                .collect();
            let cols: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 44)
                .collect();
            (rows, cols, vec![1u64; n])
        }
        "power_law" => {
            let mut gen = PowerLawGenerator::new(PowerLawConfig::paper());
            let edges = gen.batch(n);
            (
                edges.iter().map(|e| e.src).collect(),
                edges.iter().map(|e| e.dst).collect(),
                edges.iter().map(|e| e.weight).collect(),
            )
        }
        other => panic!("unknown input pattern {other}"),
    }
}

/// The settle kernel head-to-head: packed-key LSD radix sort versus the
/// permutation comparison sort it replaced, across input sizes and shapes.
/// Both variants clone the same unsorted COO per iteration (identical
/// overhead) and sort through a persistent `MergeScratch`, exactly like the
/// streaming settle path.
fn bench_sort_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_dedup");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        for pattern in ["sorted", "reverse", "random", "power_law"] {
            let (rows, cols, vals) = sort_input(pattern, n);
            let mut base = Coo::<u64>::new(DIM, DIM);
            base.extend_from_slices(&rows, &cols, &vals).unwrap();
            assert!(
                !base.is_sorted_dedup(),
                "{pattern}/{n} must exercise the sort"
            );
            group.throughput(Throughput::Elements(n as u64));
            let mut scratch = MergeScratch::new();
            group.bench_with_input(
                BenchmarkId::new(format!("radix_{pattern}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut coo = base.clone();
                        coo.sort_dedup_with(Plus, &mut scratch);
                        coo.len()
                    })
                },
            );
            let mut scratch = MergeScratch::new();
            group.bench_with_input(
                BenchmarkId::new(format!("comparison_{pattern}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut coo = base.clone();
                        coo.sort_dedup_comparison_with(Plus, &mut scratch);
                        coo.len()
                    })
                },
            );
        }
    }
    group.finish();
}

/// The read-path kernel head-to-head: one k-way cursor pass over a
/// hierarchy-shaped level set versus the pairwise `merge` chain it
/// replaced, plus the materialisation-free queries (nnz, top-k, row
/// extract) against their materialise-then-answer equivalents.
fn bench_merged_cursor(c: &mut Criterion) {
    let mut group = c.benchmark_group("merged_cursor");
    group.sample_size(20);
    // Geometric level sizes shaped like a settled 4-level hierarchy.
    let sizes = [1usize << 10, 1 << 13, 1 << 16, 1 << 19];
    let levels: Vec<Dcsr<u64>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &nnz)| {
            let mut gen = PowerLawGenerator::new(PowerLawConfig {
                seed: 11 + i as u64,
                ..PowerLawConfig::paper()
            });
            let edges = gen.batch(nnz);
            let rows: Vec<u64> = edges.iter().map(|e| e.src).collect();
            let cols: Vec<u64> = edges.iter().map(|e| e.dst).collect();
            let vals: Vec<u64> = edges.iter().map(|e| e.weight).collect();
            Dcsr::from_tuples(DIM, DIM, &rows, &cols, &vals, Plus).unwrap()
        })
        .collect();
    let refs: Vec<&Dcsr<u64>> = levels.iter().collect();
    let total: u64 = levels.iter().map(|d| d.nvals() as u64).sum();

    group.throughput(Throughput::Elements(total));
    group.bench_function("merge_levels_scratch_4", |b| {
        b.iter(|| merge_levels(DIM, DIM, &refs, Plus).unwrap().nvals())
    });
    group.bench_function("merge_fresh_alloc_4", |b| {
        b.iter(|| {
            let mut acc = Dcsr::<u64>::new(DIM, DIM);
            for d in &refs {
                acc = acc.merge(d, Plus).unwrap();
            }
            acc.nvals()
        })
    });
    group.bench_function("merged_nnz_cursor", |b| b.iter(|| merged_nnz(&refs)));
    group.bench_function("merged_top_k_8", |b| b.iter(|| merged_top_k(&refs, 8)));
    // The graph algorithms' vertex-relabel front end over the same four
    // levels: PageRank with zero iterations is its set-up and hand-over.
    let mut snap = MatrixSnapshot::new(
        "levels",
        DIM,
        DIM,
        levels.iter().cloned().map(Arc::new).collect(),
        (&[], &[], &[]),
        None,
    );
    group.bench_function("compact_graph", |b| {
        b.iter(|| pagerank(&mut snap, 0.85, 0, 0.0).nvals())
    });
    let probe_rows: Vec<u64> = levels[3].row_ids().iter().step_by(64).copied().collect();
    group.throughput(Throughput::Elements(probe_rows.len() as u64));
    group.bench_function("merged_row_queries", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut n = 0usize;
            for &r in &probe_rows {
                merged_row_into(&refs, r, Plus, &mut out);
                n += out.len();
            }
            n
        })
    });
    group.finish();
}

/// Batched point/row reads versus their single-query loops: `read_rows`
/// and `read_get_many` pay the settle check and cursor setup once per
/// batch instead of once per key, which is the win the sharded engine
/// turns into one push-down round per owning shard.
fn bench_batched_reads(c: &mut Criterion) {
    use hyperstream_graphblas::MatrixReader;
    use hyperstream_hier::{HierConfig, HierMatrix};

    let mut group = c.benchmark_group("batched_reads");
    group.sample_size(20);
    let mut gen = PowerLawGenerator::new(PowerLawConfig {
        seed: 21,
        ..PowerLawConfig::paper()
    });
    let edges = gen.batch(200_000);
    let rows: Vec<u64> = edges.iter().map(|e| e.src).collect();
    let cols: Vec<u64> = edges.iter().map(|e| e.dst).collect();
    let vals: Vec<u64> = edges.iter().map(|e| e.weight).collect();
    let mut m = HierMatrix::<u64>::new(DIM, DIM, HierConfig::paper_default()).unwrap();
    m.update_batch(&rows, &cols, &vals).unwrap();
    let probe_rows: Vec<u64> = rows.iter().step_by(781).copied().collect();
    let keys: Vec<(u64, u64)> = edges.iter().step_by(781).map(|e| (e.src, e.dst)).collect();

    group.throughput(Throughput::Elements(probe_rows.len() as u64));
    group.bench_function("hier_read_rows_batched", |b| {
        b.iter(|| m.read_rows(&probe_rows).len())
    });
    group.bench_function("hier_read_row_loop", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut n = 0usize;
            for &r in &probe_rows {
                m.read_row(r, &mut out);
                n += out.len();
            }
            n
        })
    });
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("hier_get_many_batched", |b| {
        b.iter(|| m.read_get_many(&keys).iter().flatten().sum::<u64>())
    });
    group.bench_function("hier_get_loop", |b| {
        b.iter(|| {
            keys.iter()
                .filter_map(|&(r, c)| m.read_get(r, c))
                .sum::<u64>()
        })
    });
    group.finish();
}

/// The transpose read path head-to-head: column extract and in-degree
/// top-k served from the lazily-built column twin / column degree index
/// versus the whole-matrix cursor sweeps they replace.
fn bench_column_queries(c: &mut Criterion) {
    use hyperstream_graphblas::cursor::{merged_col_into, merged_in_top_k};
    use hyperstream_graphblas::MatrixReader;

    let mut group = c.benchmark_group("column_queries");
    group.sample_size(20);
    let mut m = random_matrix(200_000, 9);
    let probe_col = m.dcsr().row_slot(0).0[0];
    // Build the column twin once, outside the timed region, so the bench
    // measures the steady-state O(k) answer (first-query activation is a
    // one-off full transpose).
    let mut warm = Vec::new();
    m.read_col(probe_col, &mut warm);
    assert!(!warm.is_empty());

    group.bench_function("read_col_twin", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            m.read_col(probe_col, &mut out);
            out.len()
        })
    });
    group.bench_function("read_col_sweep", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            merged_col_into(&[m.dcsr()], probe_col, Plus, &mut out);
            out.len()
        })
    });
    group.bench_function("in_top_k_8_indexed", |b| b.iter(|| m.read_in_top_k(8)));
    group.bench_function("in_top_k_8_sweep", |b| {
        b.iter(|| merged_in_top_k(&[m.dcsr()], 8))
    });
    group.finish();
}

fn bench_mxm_and_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("mxm_reduce");
    group.sample_size(10);
    let a = random_matrix(20_000, 7);
    group.bench_function("mxm_20k_squared", |b| {
        b.iter(|| mxm(&a, &a, PlusTimes).nvals())
    });
    let big = random_matrix(200_000, 8);
    group.bench_function("reduce_rows_200k", |b| {
        b.iter(|| reduce_rows(&big, PlusMonoid).nvals())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_ewise_add,
    bench_accum_tuples,
    bench_sort_dedup,
    bench_merged_cursor,
    bench_batched_reads,
    bench_column_queries,
    bench_mxm_and_reduce
);
criterion_main!(benches);
