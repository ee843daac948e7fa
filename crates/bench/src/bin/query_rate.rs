//! Experiment E9 — mixed ingest + query rates through the `MatrixReader`
//! layer: the repo's measured read/mixed workload.
//!
//! The paper's point in sustaining extreme insert rates is to *analyse*
//! traffic while it arrives.  This harness drives every system through the
//! combined `StreamingSystem` interface: a sustained power-law ingest
//! stream with `Q` queries interleaved after every 100,000-edge batch, in
//! two blends:
//!
//! * **rotating** — row extract / row degree / point get / top-k, swept at
//!   `Q ∈ {0, 16, 128, 512}` (the `Q = 512` point shows where the old
//!   sweep-served top-k quarter collapsed ingest to ~10% of pure);
//! * **topk-heavy** — three top-k scans per degree-distribution query,
//!   the blend the incremental degree index exists for;
//! * **col-heavy** — column extract / column degree / two in-degree top-k
//!   scans per cycle, the transpose-direction blend the lazily-maintained
//!   column twin and column degree index exist for.
//!
//! The slower database analogues run a shorter stream and skip the
//! heaviest points (rates stay per-operation and comparable).  The run
//! writes `BENCH_query_rate.json` with per-mix insert/query rates *and*
//! the per-trial rates + relative spread of every best-of-N measurement,
//! so the single-core host drift is visible in the artifact instead of
//! silently folded away.  Flags: `--quick` (reduced stream + the top-k
//! and in-degree sweep-regression tripwires and the top-k flatness
//! tripwire CI relies on), `--batches N`.

use hyperstream_bench::{arg_value, bench_meta, fmt_rate, quick_mode, TrialRates};
use hyperstream_cluster::{measure_mixed, MixedRate, QueryMix, SystemKind};

const DIM: u64 = 1 << 32;
const BATCH_SIZE: usize = 100_000;

/// One measured (mix, Q) point: the best trial plus every trial's rates.
struct MixPoint {
    best: MixedRate,
    insert_trials: TrialRates,
    query_trials: TrialRates,
}

fn json_label(s: &str) -> &str {
    assert!(
        !s.contains(['"', '\\']) && s.is_ascii(),
        "label needs JSON escaping: {s}"
    );
    s
}

fn write_json(
    path: &str,
    quick: bool,
    batches: usize,
    results: &[(SystemKind, Vec<MixPoint>)],
) -> std::io::Result<()> {
    use std::fmt::Write as _;

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"query_rate\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"dim\": {DIM},");
    out.push_str(&bench_meta().json_fields());
    let _ = writeln!(out, "  \"batch_size\": {BATCH_SIZE},");
    let _ = writeln!(out, "  \"batches\": {batches},");
    out.push_str("  \"systems\": [\n");
    for (i, (sys, points)) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"system\": \"{}\", \"label\": \"{}\", \"mixes\": [",
            json_label(&format!("{sys:?}")),
            json_label(sys.label()),
        );
        for (j, p) in points.iter().enumerate() {
            let r = &p.best;
            let _ = write!(
                out,
                "      {{\"mix\": \"{}\", \"queries_per_batch\": {}, \"read_write_ratio\": {:.6}, \"inserts\": {}, \"queries\": {}, \"seconds\": {:.6}, \"insert_rate\": {:.1}, \"query_rate\": {:.1}, \"best_of\": {}, {}, {}}}",
                r.mix.label(),
                r.queries_per_batch,
                r.queries as f64 / r.inserts.max(1) as f64,
                r.inserts,
                r.queries,
                r.seconds,
                r.insert_rate(),
                r.query_rate(),
                p.insert_trials.best_of(),
                p.insert_trials.json_fields("insert_rates"),
                p.query_trials.json_fields("query_rates"),
            );
            out.push_str(if j + 1 < points.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ]}");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Measure one (system, mix, Q) point best-of-`runs`, recording every
/// trial's rates.
fn measure_point(
    sys: SystemKind,
    stream: &[Vec<hyperstream_workload::Edge>],
    q: usize,
    mix: QueryMix,
    runs: usize,
) -> MixPoint {
    let mut insert_trials = TrialRates::default();
    let mut query_trials = TrialRates::default();
    let mut best: Option<MixedRate> = None;
    for _ in 0..runs.max(1) {
        let r = measure_mixed(sys, stream, q, DIM, mix);
        insert_trials.push(r.insert_rate());
        query_trials.push(r.query_rate());
        if best.map_or(true, |b| r.seconds < b.seconds) {
            best = Some(r);
        }
    }
    MixPoint {
        best: best.expect("at least one run"),
        insert_trials,
        query_trials,
    }
}

/// The sweep-regression tripwire behind `--quick` (run by the CI smoke):
/// a burst of top-k + degree-distribution queries against a freshly
/// ingested hierarchical matrix must complete within a generous budget.
/// Served from the degree index the burst is milliseconds; if a regression
/// sends top-k back to full cursor sweeps, the burst costs thousands of
/// whole-matrix walks and blows the budget.
fn topk_tripwire(stream: &[Vec<hyperstream_workload::Edge>]) -> Result<f64, f64> {
    use hyperstream_graphblas::MatrixReader;
    use hyperstream_hier::{HierConfig, HierMatrix};

    const BURST: usize = 2_000;
    const BUDGET_SECONDS: f64 = 5.0;

    let mut m = HierMatrix::<u64>::new(DIM, DIM, HierConfig::paper_default()).expect("valid dims");
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for batch in stream {
        hyperstream_workload::edges_to_tuples_into(batch, &mut rows, &mut cols, &mut vals);
        m.update_batch(&rows, &cols, &vals).expect("in-bounds");
    }
    let start = std::time::Instant::now();
    let mut checksum = 0u64;
    for i in 0..BURST {
        if i % 4 == 3 {
            checksum ^= m.read_degree_histogram().len() as u64;
        } else {
            checksum ^= m.read_top_k(8).first().map(|t| t.0).unwrap_or(0);
        }
    }
    std::hint::black_box(checksum);
    let took = start.elapsed().as_secs_f64();
    if took <= BUDGET_SECONDS {
        Ok(took)
    } else {
        Err(took)
    }
}

/// The transpose-direction tripwire behind `--quick`: a burst of in-degree
/// top-k + column-extract queries against a freshly ingested hierarchical
/// matrix must complete within the same budget.  Served from the column
/// degree index and column twin the burst is milliseconds; a regression to
/// cursor sweeps costs thousands of whole-matrix walks.  On success returns
/// `(burst seconds, per-query speedup of the indexed in-degree top-k over
/// the cursor-sweep answer)`.
fn col_tripwire(stream: &[Vec<hyperstream_workload::Edge>]) -> Result<(f64, f64), f64> {
    use hyperstream_graphblas::MatrixReader;
    use hyperstream_hier::{HierConfig, HierMatrix};

    const BURST: usize = 2_000;
    const BUDGET_SECONDS: f64 = 5.0;
    const SWEEP_BURST: usize = 16;

    let mut m = HierMatrix::<u64>::new(DIM, DIM, HierConfig::paper_default()).expect("valid dims");
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for batch in stream {
        hyperstream_workload::edges_to_tuples_into(batch, &mut rows, &mut cols, &mut vals);
        m.update_batch(&rows, &cols, &vals).expect("in-bounds");
    }
    let probe_col = stream[0][0].dst;
    let start = std::time::Instant::now();
    let mut checksum = 0u64;
    let mut col_buf = Vec::new();
    for i in 0..BURST {
        if i % 4 == 0 {
            m.read_col(probe_col, &mut col_buf);
            checksum ^= col_buf.len() as u64;
        } else {
            checksum ^= m.read_in_top_k(8).first().map(|t| t.0).unwrap_or(0);
        }
    }
    std::hint::black_box(checksum);
    let took = start.elapsed().as_secs_f64();
    if took > BUDGET_SECONDS {
        return Err(took);
    }
    let indexed_per_query = took / BURST as f64;

    // Per-query cost of the cursor-sweep answer to the same in-degree
    // top-k, over the identical settled data (a flat rebuild of the
    // stream): the baseline the column index is supposed to beat.
    let mut flat = hyperstream_graphblas::Matrix::<u64>::new(DIM, DIM);
    for batch in stream {
        for e in batch {
            flat.accum_element(e.src, e.dst, e.weight)
                .expect("in-bounds");
        }
    }
    flat.wait();
    let start = std::time::Instant::now();
    let mut checksum = 0u64;
    for _ in 0..SWEEP_BURST {
        let top = hyperstream_graphblas::cursor::merged_in_top_k(&[flat.dcsr()], 8);
        checksum ^= top.first().map(|t| t.0).unwrap_or(0);
    }
    std::hint::black_box(checksum);
    let sweep_per_query = start.elapsed().as_secs_f64() / SWEEP_BURST as f64;
    Ok((took, sweep_per_query / indexed_per_query.max(1e-12)))
}

/// The flatness tripwire behind `--quick`: ranking reads must keep up with
/// the stream.  Over 20 batches, each followed by one `read_top_k(10)` and
/// one `read_in_top_k(10)`, the summed read time must stay under a tenth
/// of the summed `update_batch` time.  The settle observers keep both
/// top-k caches current, so each read is a 10-entry copy; if a regression
/// sends the first read after every batch back to a rebuild over all rows
/// the share is ~0.7 and grows with the stream.  A ratio, so host speed
/// cancels.  The pending tail is settled (untimed, exactly the work the
/// next batch would do) before the reads so that they time the index
/// alone.  Returns the share either way.
fn flatness_tripwire() -> Result<f64, f64> {
    use hyperstream_graphblas::{CursorReader, MatrixReader};
    use hyperstream_hier::{HierConfig, HierMatrix};
    use std::time::Instant;

    const BATCHES: usize = 20;
    const MAX_SHARE: f64 = 0.10;

    let mut m = HierMatrix::<u64>::new(DIM, DIM, HierConfig::paper_default()).expect("valid dims");
    // Activate both indexes while empty: every batch then pays its upkeep.
    std::hint::black_box((m.read_top_k(10), m.read_in_top_k(10)));
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ingest, mut reads) = (0.0f64, 0.0f64);
    for batch in &hyperstream_bench::paper_batches(BATCHES, 2020) {
        hyperstream_workload::edges_to_tuples_into(batch, &mut rows, &mut cols, &mut vals);
        let start = Instant::now();
        m.update_batch(&rows, &cols, &vals).expect("in-bounds");
        ingest += start.elapsed().as_secs_f64();
        m.with_level_dcsrs(&mut |_| {});
        let start = Instant::now();
        std::hint::black_box((m.read_top_k(10), m.read_in_top_k(10)));
        reads += start.elapsed().as_secs_f64();
    }
    let share = reads / ingest;
    if share < MAX_SHARE {
        Ok(share)
    } else {
        Err(share)
    }
}

fn main() {
    let quick = quick_mode();
    let batches = arg_value("--batches")
        .map(|v| v as usize)
        .unwrap_or(if quick { 3 } else { 10 });
    // The rotating blend sweeps a pure-ingest baseline plus increasingly
    // read-heavy mixes; the top-k-heavy blend isolates the degree-ranking
    // path.  Points are (mix, queries per 100,000-edge batch).
    let rotating: &[usize] = if quick {
        &[0, 4, 32]
    } else {
        &[0, 16, 128, 512]
    };
    let topk: &[usize] = if quick { &[8] } else { &[16, 128, 512] };
    let colheavy: &[usize] = if quick { &[8] } else { &[16, 128, 512] };

    println!("=== E9: mixed ingest + query rate (MatrixReader layer) ===");
    println!(
        "workload: power-law stream, {} batches x {} edges; blends: rotating row/degree/get/top-k and top-k-heavy{}",
        batches,
        BATCH_SIZE,
        if quick { "  [--quick]" } else { "" }
    );
    println!();
    println!(
        "{:<28} {:>11} {:>8} {:>10} {:>10} {:>14} {:>14} {:>8}",
        "system", "mix", "q/batch", "seconds", "queries", "inserts/sec", "queries/sec", "spread"
    );
    println!("{}", "-".repeat(110));

    let stream = hyperstream_bench::paper_batches(batches, 2020);
    let runs = if quick { 1 } else { 2 };
    let mut results: Vec<(SystemKind, Vec<MixPoint>)> = Vec::new();
    for &sys in SystemKind::all() {
        // The GraphBLAS-backed systems run the full stream and every
        // point; the slow database analogues get a shorter stream and skip
        // the heaviest points (rates stay per-operation and comparable).
        let graphblas_native = matches!(
            sys,
            SystemKind::HierGraphBlas
                | SystemKind::ShardedHierGraphBlas
                | SystemKind::FlatGraphBlas
        );
        let sys_stream: Vec<_> = if graphblas_native {
            stream.clone()
        } else {
            stream.iter().take(stream.len().min(3)).cloned().collect()
        };
        let mut points: Vec<(QueryMix, usize)> = rotating
            .iter()
            .filter(|&&q| graphblas_native || q <= 128)
            .map(|&q| (QueryMix::Rotating, q))
            .collect();
        points.extend(
            topk.iter()
                .filter(|&&q| graphblas_native || q <= 16)
                .map(|&q| (QueryMix::TopKHeavy, q)),
        );
        points.extend(
            colheavy
                .iter()
                .filter(|&&q| graphblas_native || q <= 16)
                .map(|&q| (QueryMix::ColHeavy, q)),
        );

        let mut measured = Vec::new();
        for (mix, q) in points {
            let p = measure_point(sys, &sys_stream, q, mix, runs);
            let r = &p.best;
            println!(
                "{:<28} {:>11} {:>8} {:>10.3} {:>10} {:>14} {:>14} {:>7.1}%",
                sys.label(),
                mix.label(),
                q,
                r.seconds,
                r.queries,
                fmt_rate(r.insert_rate()),
                if q == 0 {
                    "-".to_string()
                } else {
                    fmt_rate(r.query_rate())
                },
                100.0 * p.insert_trials.spread(),
            );
            measured.push(p);
        }
        results.push((sys, measured));
    }

    let json_path = "BENCH_query_rate.json";
    match write_json(json_path, quick, batches, &results) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\nfailed to write {json_path}: {e}"),
    }

    // Headline: how much ingest rate the hierarchical system keeps while
    // answering the heaviest rotating mix, and what the top-k-heavy blend
    // sustains.
    if let Some((_, points)) = results
        .iter()
        .find(|(s, _)| *s == SystemKind::HierGraphBlas)
    {
        let pure = points
            .iter()
            .find(|p| p.best.mix == QueryMix::Rotating && p.best.queries_per_batch == 0);
        let heavy = points.iter().rfind(|p| p.best.mix == QueryMix::Rotating);
        if let (Some(pure), Some(heavy)) = (pure, heavy) {
            println!(
                "\nhier-graphblas ingest under heaviest rotating mix (Q={}): {:.1}% of pure-ingest ({} vs {})",
                heavy.best.queries_per_batch,
                100.0 * heavy.best.insert_rate() / pure.best.insert_rate().max(1e-9),
                fmt_rate(heavy.best.insert_rate()),
                fmt_rate(pure.best.insert_rate()),
            );
        }
        if let Some(tk) = points.iter().rfind(|p| p.best.mix == QueryMix::TopKHeavy) {
            println!(
                "hier-graphblas top-k-heavy mix (Q={}): {} queries/sec at {} inserts/sec",
                tk.best.queries_per_batch,
                fmt_rate(tk.best.query_rate()),
                fmt_rate(tk.best.insert_rate()),
            );
        }
        if let Some(ch) = points.iter().rfind(|p| p.best.mix == QueryMix::ColHeavy) {
            println!(
                "hier-graphblas col-heavy mix (Q={}): {} queries/sec at {} inserts/sec",
                ch.best.queries_per_batch,
                fmt_rate(ch.best.query_rate()),
                fmt_rate(ch.best.insert_rate()),
            );
        }
    }

    // CI sweep-regression tripwire (quick mode only: the smoke must stay
    // fast, and the budget is generous enough for any healthy index).
    // Release builds only: under debug_assertions every indexed answer
    // re-derives itself through a full cursor sweep, which is exactly the
    // cost the budget exists to catch.
    if quick && !cfg!(debug_assertions) {
        match topk_tripwire(&stream) {
            Ok(took) => println!(
                "top-k tripwire: 2000-query burst in {took:.3}s (budget 5s) — index path healthy"
            ),
            Err(took) => {
                eprintln!(
                    "top-k tripwire FAILED: 2000-query burst took {took:.3}s (budget 5s) — \
                     degree-ranking queries have regressed to full sweeps"
                );
                std::process::exit(1);
            }
        }
        match col_tripwire(&stream) {
            Ok((took, speedup)) => println!(
                "in-degree tripwire: 2000-query burst in {took:.3}s (budget 5s), \
                 indexed in-degree top-k {speedup:.0}x the cursor sweep — column twin healthy"
            ),
            Err(took) => {
                eprintln!(
                    "in-degree tripwire FAILED: 2000-query burst took {took:.3}s (budget 5s) — \
                     column queries have regressed to full sweeps"
                );
                std::process::exit(1);
            }
        }
        match flatness_tripwire() {
            Ok(share) => println!(
                "flatness tripwire: top-k reads after each of 20 batches cost {:.2}% of ingest \
                 (budget 10%) — caches kept current by the settle",
                100.0 * share
            ),
            Err(share) => {
                eprintln!(
                    "flatness tripwire FAILED: top-k reads after each of 20 batches cost {:.0}% of \
                     ingest (budget 10%) — the first read after a batch is rebuilding its cache",
                    100.0 * share
                );
                std::process::exit(1);
            }
        }
    }
}
