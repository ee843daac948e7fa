//! Experiment E12 — algorithm throughput through the reader-native
//! semiring kernels: pagerank / BFS / triangle counting, pure and under
//! sustained ingest, for every cursor-capable system.
//!
//! The paper's workflow computes "various network statistics" on each
//! traffic matrix while updates keep arriving.  This harness measures that
//! end to end:
//!
//! * **kernel points** — `vxm`/`mxm` through the sparse-accumulator (SPA)
//!   kernels against the retained `*_btree` fallbacks, on the same flat
//!   matrix, recording the per-strategy accumulator counters
//!   (`spa_kernel_stats`) alongside every timing;
//! * **pure algorithm points** — reader-native `pagerank`, `bfs_levels`
//!   and `triangle_count` driven directly off the DCSR level slices of the
//!   flat matrix, the hierarchical matrix, the sharded engine (its
//!   snapshot's level slices; BFS by pattern pushes dispatched to the
//!   owning shards) and a settled snapshot;
//! * **under-ingest points** — the hierarchical and sharded systems
//!   re-run pagerank (and triangle counting on a capped prefix) after
//!   every 100,000-edge batch of a power-law stream, reporting the
//!   sustained insert rate *with* the analysis stalls included.
//!
//! Triangle counting and `mxm` cost grows with the square of the hub
//! degree, so those points run on a recorded *capped* prefix of the stream
//! (`tri_batches` / `mxm_edges` in the artifact — never a silent cap).
//! The run writes `BENCH_algo_rate.json` with best-of-N rates, per-trial
//! spreads and SPA strategy counters.  Flags: `--quick` (reduced stream +
//! the SPA-speedup, reader-vs-tuples and pagerank set-up tripwires CI
//! relies on), `--batches N`.

use hyperstream_bench::{arg_value, bench_meta, fmt_rate, quick_mode, TrialRates};
use hyperstream_graphblas::algo::{bfs_levels, pagerank, pagerank_tuples, triangle_count};
use hyperstream_graphblas::ops::mxm::{mxm, mxm_btree};
use hyperstream_graphblas::ops::mxv::{vxm, vxm_btree};
use hyperstream_graphblas::ops::semiring::PlusTimes;
use hyperstream_graphblas::{
    spa_kernel_stats, Matrix, MatrixSnapshot, SpaKernelStats, SparseVector,
};
use hyperstream_hier::{HierConfig, HierMatrix, ShardedConfig, ShardedHierMatrix};
use hyperstream_workload::{edges_to_tuples_into, Edge};

const DIM: u64 = 1 << 32;
const BATCH_SIZE: usize = 100_000;
const SHARDS: usize = 4;
const DAMPING: f64 = 0.85;
const PURE_ITERS: usize = 20;
const INGEST_ITERS: usize = 10;
const TOL: f64 = 1e-12;
const FRONTIER_CAP: usize = 65_536;
const VXM_REPS: usize = 8;

fn json_label(s: &str) -> &str {
    assert!(
        !s.contains(['"', '\\']) && s.is_ascii(),
        "label needs JSON escaping: {s}"
    );
    s
}

/// SPA strategy counters accumulated during one measurement, as JSON
/// object fields (no surrounding braces or trailing comma).
fn spa_json(s: &SpaKernelStats) -> String {
    format!(
        "\"spa_dense_rows\": {}, \"spa_scatter_rows\": {}, \"spa_dense_flops\": {}, \"spa_scatter_flops\": {}",
        s.dense_rows, s.scatter_rows, s.dense_flops, s.scatter_flops
    )
}

fn spa_delta(before: SpaKernelStats, after: SpaKernelStats) -> SpaKernelStats {
    SpaKernelStats {
        dense_rows: after.dense_rows - before.dense_rows,
        dense_flops: after.dense_flops - before.dense_flops,
        scatter_rows: after.scatter_rows - before.scatter_rows,
        scatter_flops: after.scatter_flops - before.scatter_flops,
    }
}

/// One best-of-N measurement of a repeated operation: best per-op seconds,
/// every trial's ops/sec, and the SPA counters the best trial accumulated.
struct Point {
    seconds: f64,
    trials: TrialRates,
    spa: SpaKernelStats,
    /// Scalar summary of the result (nvals, triangle count, ...) so the
    /// artifact attests the measured work produced a real answer.
    out: u64,
}

/// Measure `op` best-of-`runs`, `reps` calls per trial; `op` returns a
/// scalar summary of its result.
fn measure<F: FnMut() -> u64>(runs: usize, reps: usize, mut op: F) -> Point {
    let mut trials = TrialRates::default();
    let mut best = f64::INFINITY;
    let mut spa = SpaKernelStats::default();
    let mut out = 0u64;
    for _ in 0..runs.max(1) {
        let before = spa_kernel_stats();
        let start = std::time::Instant::now();
        for _ in 0..reps.max(1) {
            out = std::hint::black_box(op());
        }
        let secs = start.elapsed().as_secs_f64().max(1e-12) / reps.max(1) as f64;
        let delta = spa_delta(before, spa_kernel_stats());
        trials.push(1.0 / secs);
        if secs < best {
            best = secs;
            spa = delta;
        }
    }
    Point {
        seconds: best,
        trials,
        spa,
        out,
    }
}

impl Point {
    fn json(&self, head: &str) -> String {
        format!(
            "{{{head}, \"seconds\": {:.6}, \"ops_per_sec\": {:.3}, \"out\": {}, \"best_of\": {}, {}, {}}}",
            self.seconds,
            1.0 / self.seconds.max(1e-12),
            self.out,
            self.trials.best_of(),
            self.trials.json_fields("ops_per_sec"),
            spa_json(&self.spa),
        )
    }
}

/// One under-ingest measurement: a full stream replay with an algorithm
/// re-run after every batch.
struct IngestPoint {
    algo: &'static str,
    inserts: u64,
    algo_runs: u64,
    total_seconds: f64,
    algo_seconds: f64,
    spa: SpaKernelStats,
    out: u64,
}

impl IngestPoint {
    /// Sustained insert rate with analysis stalls included.
    fn insert_rate(&self) -> f64 {
        self.inserts as f64 / self.total_seconds.max(1e-12)
    }

    fn algo_rate(&self) -> f64 {
        self.algo_runs as f64 / self.algo_seconds.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "{{\"algo\": \"{}\", \"inserts\": {}, \"algo_runs\": {}, \"total_seconds\": {:.6}, \"algo_seconds\": {:.6}, \"insert_rate\": {:.1}, \"algo_runs_per_sec\": {:.3}, \"out\": {}, {}}}",
            json_label(self.algo),
            self.inserts,
            self.algo_runs,
            self.total_seconds,
            self.algo_seconds,
            self.insert_rate(),
            self.algo_rate(),
            self.out,
            spa_json(&self.spa),
        )
    }
}

/// The cursor-capable systems under test, with their different call shapes
/// folded behind one interface.
enum System {
    Flat(Matrix<u64>),
    Hier(HierMatrix<u64>),
    Sharded(ShardedHierMatrix<u64>),
    Snapshot(MatrixSnapshot<u64>),
}

impl System {
    fn label(&self) -> &'static str {
        match self {
            System::Flat(_) => "flat-graphblas",
            System::Hier(_) => "hier-graphblas",
            System::Sharded(_) => "sharded-hier-graphblas",
            System::Snapshot(_) => "hier-snapshot",
        }
    }

    fn ingest(&mut self, rows: &[u64], cols: &[u64], vals: &[u64]) {
        match self {
            System::Flat(m) => {
                for i in 0..rows.len() {
                    m.accum_element(rows[i], cols[i], vals[i])
                        .expect("in-bounds");
                }
                m.wait();
            }
            System::Hier(m) => m.update_batch(rows, cols, vals).expect("in-bounds"),
            System::Sharded(m) => m.update_batch(rows, cols, vals).expect("healthy engine"),
            System::Snapshot(_) => panic!("snapshots are immutable"),
        }
    }

    fn pagerank(&mut self, iters: usize) -> SparseVector<f64> {
        match self {
            System::Flat(m) => pagerank(m, DAMPING, iters, TOL),
            System::Hier(m) => pagerank(m, DAMPING, iters, TOL),
            System::Sharded(m) => pagerank(m, DAMPING, iters, TOL),
            System::Snapshot(s) => pagerank(s, DAMPING, iters, TOL),
        }
    }

    fn bfs(&mut self, source: u64) -> SparseVector<u64> {
        match self {
            System::Flat(m) => bfs_levels(m, source),
            System::Hier(m) => bfs_levels(m, source),
            System::Sharded(m) => m.bfs_levels(source).expect("healthy engine"),
            System::Snapshot(s) => bfs_levels(s, source),
        }
    }

    fn triangles(&mut self) -> u64 {
        match self {
            System::Flat(m) => triangle_count(m),
            System::Hier(m) => triangle_count(m),
            System::Sharded(m) => triangle_count(m),
            System::Snapshot(s) => triangle_count(s),
        }
    }
}

/// The four systems in report order, each freshly ingesting `stream`.
/// The snapshot system is a settled capture of an identically fed
/// hierarchical matrix.
fn build_systems(stream: &[Vec<Edge>]) -> Vec<System> {
    let mut out = Vec::new();
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for kind in 0..4usize {
        let mut sys = match kind {
            0 => System::Flat(Matrix::new(DIM, DIM)),
            1 | 3 => System::Hier(
                HierMatrix::new(DIM, DIM, HierConfig::paper_default()).expect("valid dims"),
            ),
            _ => System::Sharded(
                ShardedHierMatrix::new(
                    DIM,
                    DIM,
                    HierConfig::paper_default(),
                    ShardedConfig::with_shards(SHARDS),
                )
                .expect("valid dims"),
            ),
        };
        for batch in stream {
            edges_to_tuples_into(batch, &mut rows, &mut cols, &mut vals);
            sys.ingest(&rows, &cols, &vals);
        }
        if kind == 3 {
            let System::Hier(mut h) = sys else {
                unreachable!()
            };
            sys = System::Snapshot(h.snapshot());
        }
        out.push(sys);
    }
    out
}

/// Replay `stream` into a fresh system, re-running `algo` after every
/// batch; reports the sustained insert rate with the analysis stalls
/// included.
fn measure_under_ingest(
    mut sys: System,
    stream: &[Vec<Edge>],
    algo: &'static str,
    mut run: impl FnMut(&mut System) -> u64,
) -> IngestPoint {
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let before = spa_kernel_stats();
    let mut algo_seconds = 0.0;
    let mut out = 0u64;
    let start = std::time::Instant::now();
    for batch in stream {
        edges_to_tuples_into(batch, &mut rows, &mut cols, &mut vals);
        sys.ingest(&rows, &cols, &vals);
        let a = std::time::Instant::now();
        out = std::hint::black_box(run(&mut sys));
        algo_seconds += a.elapsed().as_secs_f64();
    }
    IngestPoint {
        algo,
        inserts: stream.iter().map(|b| b.len() as u64).sum(),
        algo_runs: stream.len() as u64,
        total_seconds: start.elapsed().as_secs_f64().max(1e-12),
        algo_seconds,
        spa: spa_delta(before, spa_kernel_stats()),
        out,
    }
}

/// A flat matrix holding the whole stream (settled).
fn build_flat(stream: &[Vec<Edge>]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(DIM, DIM);
    for batch in stream {
        for e in batch {
            m.accum_element(e.src, e.dst, e.weight).expect("in-bounds");
        }
    }
    m.wait();
    m
}

/// The most frequent source vertex of the first batch — the power-law hub,
/// the interesting BFS root.
fn hub_source(stream: &[Vec<Edge>]) -> u64 {
    let mut counts = std::collections::HashMap::new();
    for e in &stream[0] {
        *counts.entry(e.src).or_insert(0u64) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(src, n)| (n, src))
        .map(|(src, _)| src)
        .expect("non-empty batch")
}

/// A frontier of up to [`FRONTIER_CAP`] distinct first-batch sources,
/// weight 1 — the vxm operand (ascending sets append in O(1)).
fn frontier_vector(stream: &[Vec<Edge>]) -> SparseVector<u64> {
    let mut srcs: Vec<u64> = stream[0].iter().map(|e| e.src).collect();
    srcs.sort_unstable();
    srcs.dedup();
    srcs.truncate(FRONTIER_CAP);
    let mut u = SparseVector::<u64>::new(DIM);
    for s in srcs {
        u.set(s, 1).expect("in range");
    }
    u
}

struct SystemResult {
    label: &'static str,
    pure: Vec<(String, Point)>,
    under_ingest: Vec<IngestPoint>,
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    quick: bool,
    batches: usize,
    tri_batches: usize,
    mxm_edges: usize,
    kernels: &[(String, Point)],
    speedups: &[(&str, f64)],
    systems: &[SystemResult],
) -> std::io::Result<()> {
    use std::fmt::Write as _;

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"algo_rate\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"dim\": {DIM},");
    out.push_str(&bench_meta().json_fields());
    let _ = writeln!(out, "  \"batch_size\": {BATCH_SIZE},");
    let _ = writeln!(out, "  \"batches\": {batches},");
    let _ = writeln!(out, "  \"tri_batches\": {tri_batches},");
    let _ = writeln!(out, "  \"mxm_edges\": {mxm_edges},");
    let _ = writeln!(out, "  \"pagerank_iters_pure\": {PURE_ITERS},");
    let _ = writeln!(out, "  \"pagerank_iters_ingest\": {INGEST_ITERS},");
    out.push_str("  \"kernels\": [\n");
    for (i, (head, p)) in kernels.iter().enumerate() {
        let _ = write!(out, "    {}", p.json(head));
        out.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    for (name, x) in speedups {
        let _ = writeln!(out, "  \"{}\": {x:.3},", json_label(name));
    }
    out.push_str("  \"systems\": [\n");
    for (i, sys) in systems.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"system\": \"{}\", \"pure\": [",
            json_label(sys.label)
        );
        for (j, (head, p)) in sys.pure.iter().enumerate() {
            let _ = write!(out, "      {}", p.json(head));
            out.push_str(if j + 1 < sys.pure.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ], \"under_ingest\": [\n");
        for (j, p) in sys.under_ingest.iter().enumerate() {
            let _ = write!(out, "      {}", p.json());
            out.push_str(if j + 1 < sys.under_ingest.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("    ]}");
        out.push_str(if i + 1 < systems.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn print_point(sys: &str, what: &str, p: &Point) {
    let total = p.spa.total_rows().max(1);
    println!(
        "{:<24} {:>18} {:>12.6} {:>12} {:>10} {:>9.1}% {:>8.1}%",
        sys,
        what,
        p.seconds,
        fmt_rate(1.0 / p.seconds.max(1e-12)),
        p.out,
        100.0 * p.trials.spread(),
        100.0 * p.spa.dense_rows as f64 / total as f64,
    );
}

fn main() {
    let quick = quick_mode();
    let batches = arg_value("--batches")
        .map(|v| v as usize)
        .unwrap_or(if quick { 2 } else { 10 });
    // Triangle counting and mxm cost grows with the square of the hub
    // degree; they run on a recorded prefix of the stream.
    let tri_batches = batches.min(if quick { 1 } else { 2 });
    let mxm_edges = if quick { 20_000 } else { 50_000 };
    let runs = if quick { 1 } else { 2 };

    println!("=== E10: algorithm rate (reader-native semiring kernels) ===");
    println!(
        "workload: power-law stream, {} batches x {} edges (triangles/mxm capped to {} batches / {} edges){}",
        batches,
        BATCH_SIZE,
        tri_batches,
        mxm_edges,
        if quick { "  [--quick]" } else { "" }
    );
    println!();
    println!(
        "{:<24} {:>18} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "system", "measurement", "seconds", "ops/sec", "out", "spread", "dense"
    );
    println!("{}", "-".repeat(102));

    let stream = hyperstream_bench::paper_batches(batches, 2020);
    let tri_stream = &stream[..tri_batches];
    let source = hub_source(&stream);

    // --- Kernel points: SPA kernels vs the retained BTreeMap fallbacks ---
    let flat = build_flat(&stream);
    let frontier = frontier_vector(&stream);
    let vxm_spa = measure(runs, VXM_REPS, || {
        vxm(&frontier, &flat, PlusTimes).nvals() as u64
    });
    let vxm_bt = measure(runs, VXM_REPS, || {
        vxm_btree(&frontier, &flat, PlusTimes).nvals() as u64
    });
    print_point("kernel", "vxm-spa", &vxm_spa);
    print_point("kernel", "vxm-btree", &vxm_bt);

    let mxm_input = build_flat(&[stream[0][..mxm_edges.min(stream[0].len())].to_vec()]);
    let mxm_spa = measure(runs, 1, || {
        mxm(&mxm_input, &mxm_input, PlusTimes).nvals() as u64
    });
    let mxm_bt = measure(runs, 1, || {
        mxm_btree(&mxm_input, &mxm_input, PlusTimes).nvals() as u64
    });
    print_point("kernel", "mxm-spa", &mxm_spa);
    print_point("kernel", "mxm-btree", &mxm_bt);

    let vxm_speedup = vxm_bt.seconds / vxm_spa.seconds.max(1e-12);
    let mxm_speedup = mxm_bt.seconds / mxm_spa.seconds.max(1e-12);
    let kernels = vec![
        (
            "\"kernel\": \"vxm\", \"variant\": \"spa\"".to_string(),
            vxm_spa,
        ),
        (
            "\"kernel\": \"vxm\", \"variant\": \"btree\"".to_string(),
            vxm_bt,
        ),
        (
            "\"kernel\": \"mxm\", \"variant\": \"spa\"".to_string(),
            mxm_spa,
        ),
        (
            "\"kernel\": \"mxm\", \"variant\": \"btree\"".to_string(),
            mxm_bt,
        ),
    ];

    // --- Pure algorithm points over every cursor-capable system ---
    let mut results: Vec<SystemResult> = Vec::new();
    let mut pagerank_tuples_seconds = f64::INFINITY;
    let mut pagerank_reader_seconds = f64::INFINITY;
    let mut pagerank_setup_over_five_iters = f64::INFINITY;
    for mut sys in build_systems(&stream) {
        let label = sys.label();
        let mut pure = Vec::new();

        let pr = measure(runs, 1, || sys.pagerank(PURE_ITERS).nvals() as u64);
        print_point(label, "pagerank", &pr);
        if matches!(sys, System::Hier(_)) {
            pagerank_reader_seconds = pr.seconds;
        }
        pure.push(("\"algo\": \"pagerank\"".to_string(), pr));

        let bfs = measure(runs, 1, || sys.bfs(source).nvals() as u64);
        print_point(label, "bfs", &bfs);
        pure.push(("\"algo\": \"bfs\"".to_string(), bfs));

        // The tuple-materialising fallback on the hierarchical system: the
        // retained baseline the reader-native path must keep beating.
        if let System::Hier(h) = &mut sys {
            let pt = measure(1, 1, || {
                pagerank_tuples(h, DAMPING, PURE_ITERS, TOL).nvals() as u64
            });
            print_point(label, "pagerank-tuples", &pt);
            pagerank_tuples_seconds = pt.seconds;
            pure.push(("\"algo\": \"pagerank_tuples\"".to_string(), pt));

            // Set-up against iterations on the same hierarchy: one call
            // costs S + k·I, so two iteration counts (tolerance 0: no early
            // stop) separate the two.  A ratio, so host speed cancels.
            let mut at = |iters: usize| {
                measure(3, 1, || pagerank(h, DAMPING, iters, 0.0).nvals() as u64).seconds
            };
            let (one, twenty_one) = (at(1), at(21));
            let iter = ((twenty_one - one) / 20.0).max(1e-12);
            pagerank_setup_over_five_iters = (one - iter) / (5.0 * iter);
        }

        results.push(SystemResult {
            label,
            pure,
            under_ingest: Vec::new(),
        });
    }

    // Triangles run on fresh instances fed the capped prefix.
    for mut sys in build_systems(tri_stream) {
        let label = sys.label();
        let tri = measure(runs, 1, || sys.triangles());
        print_point(label, "triangles", &tri);
        let slot = results
            .iter_mut()
            .find(|r| r.label == label)
            .expect("same system order");
        slot.pure.push(("\"algo\": \"triangles\"".to_string(), tri));
    }

    // --- Under-ingest: hier and sharded re-run analysis after each batch ---
    for sharded in [false, true] {
        let mk = || -> System {
            if sharded {
                System::Sharded(
                    ShardedHierMatrix::new(
                        DIM,
                        DIM,
                        HierConfig::paper_default(),
                        ShardedConfig::with_shards(SHARDS),
                    )
                    .expect("valid dims"),
                )
            } else {
                System::Hier(
                    HierMatrix::new(DIM, DIM, HierConfig::paper_default()).expect("valid dims"),
                )
            }
        };
        let label = mk().label();
        let pr = measure_under_ingest(mk(), &stream, "pagerank", |s| {
            s.pagerank(INGEST_ITERS).nvals() as u64
        });
        let tri = measure_under_ingest(mk(), tri_stream, "triangles", |s| s.triangles());
        for p in [&pr, &tri] {
            println!(
                "{:<24} {:>18} {:>12.6} {:>12} {:>10} {:>9} {:>8}",
                label,
                format!("{}+ingest", p.algo),
                p.algo_seconds / p.algo_runs.max(1) as f64,
                fmt_rate(p.insert_rate()),
                p.out,
                format!("{} runs", p.algo_runs),
                "-",
            );
        }
        let slot = results
            .iter_mut()
            .find(|r| r.label == label)
            .expect("same system order");
        slot.under_ingest = vec![pr, tri];
    }

    let speedups = [
        ("vxm_spa_over_btree", vxm_speedup),
        ("mxm_spa_over_btree", mxm_speedup),
        (
            "pagerank_reader_over_tuples",
            pagerank_tuples_seconds / pagerank_reader_seconds.max(1e-12),
        ),
        (
            "pagerank_setup_over_five_iters",
            pagerank_setup_over_five_iters,
        ),
    ];
    println!();
    println!(
        "SPA kernel speedup over btree fallback: vxm {vxm_speedup:.1}x, mxm {mxm_speedup:.1}x"
    );
    println!(
        "reader-native pagerank over tuple-rebuild fallback (hier): {:.1}x",
        speedups[2].1
    );
    println!(
        "pagerank set-up over five of its iterations (hier): {pagerank_setup_over_five_iters:.1}x"
    );

    let json_path = "BENCH_algo_rate.json";
    match write_json(
        json_path,
        quick,
        batches,
        tri_batches,
        mxm_edges,
        &kernels,
        &speedups,
        &results,
    ) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("failed to write {json_path}: {e}"),
    }

    // CI tripwires (quick mode only; release builds only — under
    // debug_assertions the SPA kernels run their own self-checks, which is
    // exactly the overhead the thresholds exist to catch).
    if quick && !cfg!(debug_assertions) {
        // The mxm (Gustavson) point is where the accumulator dominates;
        // the single-row vxm point has a cache-resident btree baseline at
        // quick scale, so it only carries a no-regression floor.
        if mxm_speedup < 2.0 || vxm_speedup < 1.0 {
            eprintln!(
                "SPA tripwire FAILED: SPA kernels only mxm {mxm_speedup:.2}x / vxm \
                 {vxm_speedup:.2}x the btree fallbacks (need mxm >= 2x, vxm >= 1x) — \
                 the accumulator has regressed"
            );
            std::process::exit(1);
        }
        println!(
            "SPA tripwire: mxm {mxm_speedup:.1}x, vxm {vxm_speedup:.1}x btree — accumulator healthy"
        );
        if pagerank_reader_seconds >= pagerank_tuples_seconds {
            eprintln!(
                "reader tripwire FAILED: reader-native pagerank ({pagerank_reader_seconds:.3}s) \
                 no longer beats the read_tuples rebuild ({pagerank_tuples_seconds:.3}s)"
            );
            std::process::exit(1);
        }
        println!(
            "reader tripwire: pagerank {pagerank_reader_seconds:.3}s vs tuples rebuild \
             {pagerank_tuples_seconds:.3}s — cursor path healthy"
        );
        // The relabel front end is linear passes over the edges; a
        // comparison sort or a per-edge search creeping back in shows here
        // (about 7x before the front end existed, about 2x with it).
        if pagerank_setup_over_five_iters > 4.0 {
            eprintln!(
                "set-up tripwire FAILED: pagerank set-up costs \
                 {pagerank_setup_over_five_iters:.1}x five of its iterations (need <= 4x)"
            );
            std::process::exit(1);
        }
        println!(
            "set-up tripwire: pagerank set-up {pagerank_setup_over_five_iters:.1}x five \
             iterations — front end healthy"
        );
    }
}
