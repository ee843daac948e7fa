//! The five workloads: what each sets up, which engine it drives, how its
//! repetitions are interleaved with the flat comparator, and how the
//! repetitions turn into the declared metrics.

use crate::host;
use crate::layers;
use crate::query::{self, Kind};
use crate::rep::{self, Between, Build, Engine, Mode, Plan, RepData};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, Summary};
use crate::stream::{self, Oracle, SplitMix64, StreamKind, DIM};
use crate::trace::{SpanId, Tracer};
use hyperstream_graphblas::{GrbError, Matrix, StreamingSink};
use hyperstream_hier::{
    DurableConfig, FsyncPolicy, HierConfig, HierMatrix, ShardedConfig, ShardedHierMatrix,
};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PowerlawIngest,
    UniqueIngest,
    QueryMix,
    DurableIngest,
    ShardedIngest,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PowerlawIngest,
        Workload::UniqueIngest,
        Workload::QueryMix,
        Workload::DurableIngest,
        Workload::ShardedIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PowerlawIngest => "powerlaw_ingest",
            Workload::UniqueIngest => "unique_ingest",
            Workload::QueryMix => "query_mix",
            Workload::DurableIngest => "durable_ingest",
            Workload::ShardedIngest => "sharded_ingest",
        }
    }

    /// Why the workload exists: which layers do most of its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PowerlawIngest => "the paper's power-law stream, many updates per cell: append and radix settle do the work, cascades little",
            Workload::UniqueIngest => "every update a new cell, far beyond cache: cascade merges and buffer growth do the work, settle dedups nothing",
            Workload::QueryMix => "32 reads after every batch and PageRank beside ingest: settle-on-read, degree index and column twin land on the rate",
            Workload::DurableIngest => "the power-law stream through WAL and checkpoints (fsync never), then reopen and read: encode, write and checkpoint do the work",
            Workload::ShardedIngest => "the power-law stream through two shard workers, reads by fan-out: partition, channel and barrier do the work",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn stream(self) -> StreamKind {
        match self {
            Workload::UniqueIngest => StreamKind::Unique,
            _ => StreamKind::PowerLaw,
        }
    }
}

/// Options of one invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured repetitions of one workload run.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// `benchmark/out`: results, trace files and the durable store.
    pub out_dir: PathBuf,
}

/// Input sizes and repetition floors.
pub struct Sizes {
    pub batches: usize,
    pub batch_len: usize,
    /// Measured repetitions never fall below this, however short
    /// `--seconds` is.
    pub min_reps: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Repetitions of each reference measurement in the traced run.
    pub refs: usize,
}

/// Never more repetitions than this, however long `--seconds` is.
const MAX_REPS: usize = 64;

impl Sizes {
    /// Batches of 100,000 updates, a fifth as many as the streams the
    /// workloads were sized on (200 for the paper's stream, 100 for the
    /// others), so that three set-ups, a warm-up and ten seconds of
    /// repetitions fit the time one benchmark run is given.  `--smoke`
    /// runs a tenth of that, twice.
    pub fn of(w: Workload, smoke: bool) -> Self {
        let batches = match w {
            Workload::PowerlawIngest | Workload::ShardedIngest => 40,
            Workload::UniqueIngest | Workload::QueryMix | Workload::DurableIngest => 20,
        };
        if smoke {
            return Self {
                batches: batches / 10,
                batch_len: 100_000,
                min_reps: 2,
                setups: 1,
                refs: 1,
            };
        }
        Self {
            batches,
            batch_len: 100_000,
            min_reps: if w == Workload::QueryMix { 3 } else { 5 },
            setups: 3,
            refs: 3,
        }
    }
}

/// Shard workers of `sharded_ingest`: two, or one on a single-core host.
pub fn shard_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Restrict this thread — and every thread spawned from it afterwards — to
/// the CPUs in `list` (`taskset` syntax).  There is no affinity call in
/// `std`, so util-linux does it; returns whether it did.
fn set_affinity(list: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-cp", list, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Build the inputs of workload `w` from the seed: stream, oracle, query
/// keys.  Returns the plan and the seconds the stream generator took.
pub fn set_up(w: Workload, seed: u64, sz: &Sizes) -> (Plan, f64) {
    let t0 = Instant::now();
    let batches = stream::generate(w.stream(), seed, sz.batches, sz.batch_len);
    let gen_s = t0.elapsed().as_secs_f64();
    let oracle = Oracle::build(&batches);
    let mut rng = SplitMix64::new(seed ^ 0x7175_6572_6965_7321);
    let (mix, pagerank_every) = if w == Workload::QueryMix {
        let mix = batches
            .iter()
            .map(|b| query::sample_mix(b, &mut rng))
            .collect();
        (Some(mix), (sz.batches / 4).max(1))
    } else {
        (None, 0)
    };
    // 1,000 point and degree reads plus both top-10 rankings, compared
    // with the oracle after every repetition.
    let checks = query::sample(&batches, &mut rng, |k| match k {
        Kind::Get => 400,
        Kind::RowDegree | Kind::ColDegree => 300,
        Kind::TopK | Kind::InTopK => 1,
        Kind::Row | Kind::Col => 0,
    });
    let plan = Plan {
        batches,
        oracle,
        mix,
        pagerank_every,
        burst_seed: seed,
        checks,
    };
    (plan, gen_s)
}

/// Every repetition of one run, by what it was.
#[derive(Default)]
pub struct Runs {
    /// Untraced repetitions of the engine under test: the source of every
    /// end-to-end metric.
    pub plain: Vec<RepData>,
    /// Traced repetitions (traced run only), interleaved with `plain`.
    pub traced: Vec<RepData>,
    /// The same stream into a flat `Matrix`, interleaved rep by rep.
    pub flat: Vec<RepData>,
    /// Host-clock readings taken between the repetitions.
    pub host: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Runs {
    /// How many times slower than its nominal speed the host ran during
    /// these repetitions.
    fn host_slowdown(&self) -> f64 {
        stats::median(&self.host) / host::NOMINAL_S
    }

    pub fn absorb(&mut self, d: &RepData) {
        self.attempted += d.attempted;
        self.failed += d.failed;
        for n in &d.notes {
            if self.notes.len() < 16 {
                self.notes.push(n.clone());
            }
        }
    }
}

pub fn keep<E>(e: E, _: &mut Tracer, _: Option<SpanId>, _: &mut RepData) -> Result<E, GrbError> {
    Ok(e)
}

pub fn new_flat() -> Result<Matrix<u64>, GrbError> {
    Matrix::try_new(DIM, DIM)
}

pub fn new_hier() -> Result<HierMatrix<u64>, GrbError> {
    HierMatrix::new(DIM, DIM, HierConfig::paper_default())
}

/// PageRank after an ingest-only window runs in a repetition only while
/// it has taken less than this share of the measured time so far (and
/// always in the first).  On `unique_ingest`'s four million vertices one
/// PageRank takes several times as long as the window it follows; without
/// a ration it would leave room for too few windows.
const ANALYTICS_SHARE: f64 = 1.0 / 3.0;

/// One discarded warm-up, then measured repetitions on a fresh engine
/// each — engine under test and flat comparator interleaved — until
/// `seconds` have passed and the floor is met.
fn drive<E: Engine>(
    plan: &Plan,
    o: &Opts,
    sz: &Sizes,
    tr: &mut Tracer,
    build: Build<E>,
    between: Between<E>,
) -> Result<Runs, GrbError> {
    let mut runs = Runs::default();
    tr.set_enabled(false);
    let full = Mode::Full { analytics: true };
    let warm = rep::run(plan, full, tr, build, between)?;
    runs.absorb(&warm);
    let warm = rep::run(plan, Mode::IngestOnly, tr, &mut new_flat, &mut keep)?;
    runs.absorb(&warm);

    let start = Instant::now();
    let mut analytics_s = 0.0;
    runs.host.push(host::clock());
    loop {
        let analytics = analytics_s <= ANALYTICS_SHARE * start.elapsed().as_secs_f64();
        let mode = Mode::Full { analytics };
        if o.trace {
            tr.set_enabled(true);
            let d = rep::run(plan, mode, tr, build, between)?;
            runs.absorb(&d);
            runs.traced.push(d);
        }
        // The flat repetitions of a traced run are traced too, so that the
        // trace file shows both systems; nothing is derived from it.
        let d = rep::run(plan, Mode::IngestOnly, tr, &mut new_flat, &mut keep)?;
        runs.absorb(&d);
        runs.flat.push(d);
        tr.set_enabled(false);
        let d = rep::run(plan, mode, tr, build, between)?;
        runs.absorb(&d);
        if plan.mix.is_none() {
            analytics_s += d.analytics_ms.iter().sum::<f64>() / 1e3;
        }
        runs.plain.push(d);
        runs.host.push(host::clock());

        let n = runs.plain.len();
        if n >= MAX_REPS || (n >= sz.min_reps && start.elapsed().as_secs_f64() >= o.seconds) {
            return Ok(runs);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes this process has handed to `write()` so far.
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar: "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The durable store's configuration: `paper_default` cuts, and no fsync
/// on append — fsync is near-free on this sandbox's disk, so the policy
/// that isolates the encode/write/checkpoint cost is the one measured.
pub fn durable_config(dir: &Path) -> DurableConfig {
    DurableConfig::new(dir).fsync(FsyncPolicy::Never)
}

pub fn new_durable(dir: &Path, cfg: DurableConfig) -> Result<HierMatrix<u64>, GrbError> {
    let _ = std::fs::remove_dir_all(dir);
    HierMatrix::new_durable(DIM, DIM, HierConfig::paper_default(), cfg)
}

/// Run workload `w` and turn its repetitions into the declared metrics.
pub fn run(w: Workload, o: &Opts) -> Result<Outcome, String> {
    let sz = Sizes::of(w, o.smoke);
    // Set-up is repeated so that `setup_s` is a median like every other
    // time; the repetitions use the last (identical) plan.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut plan = None;
    for _ in 0..sz.setups {
        // Freed first, so that two plans are never held at once.
        drop(plan.take());
        let t0 = Instant::now();
        let (p, g) = set_up(w, o.seed, &sz);
        // Stated at the host's nominal speed, like every other time.
        setup_s.push(t0.elapsed().as_secs_f64() * host::NOMINAL_S / host::clock());
        gen_s.push(g);
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");

    let mut tr = Tracer::new(o.trace);
    let store = o
        .out_dir
        .join("tmp")
        .join(format!("durable-{}", std::process::id()));
    let runs = match w {
        Workload::PowerlawIngest | Workload::UniqueIngest | Workload::QueryMix => {
            drive(&plan, o, &sz, &mut tr, &mut new_hier, &mut keep)
        }
        Workload::DurableIngest => {
            std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
            let wchar0 = Cell::new(0u64);
            drive(
                &plan,
                o,
                &sz,
                &mut tr,
                &mut || {
                    let m = new_durable(&store, durable_config(&store));
                    wchar0.set(wchar());
                    m
                },
                &mut |m: HierMatrix<u64>, tr, parent, d| {
                    let written = wchar() - wchar0.get();
                    let (appends, syncs) = m.wal_telemetry().unwrap_or((0, 0));
                    let bytes = dir_bytes(&store) as f64;
                    d.extra.extend([
                        ("persist.wal_appends", appends as f64),
                        ("persist.wal_syncs", syncs as f64),
                        ("persist.store_bytes", bytes),
                        ("persist.store_bytes_per_entry", bytes / d.nnz.max(1) as f64),
                        (
                            "persist.wchar_per_update",
                            written as f64 / plan.n_updates() as f64,
                        ),
                    ]);
                    let t0 = Instant::now();
                    drop(m);
                    let t1 = Instant::now();
                    let reopened = HierMatrix::<u64>::open_with(durable_config(&store));
                    let t2 = Instant::now();
                    tr.record("persist.drop", parent, t0, t1);
                    tr.record("persist.open", parent, t1, t2);
                    d.extra
                        .push(("persist.open_clean_ms", (t2 - t1).as_secs_f64() * 1e3));
                    let m = d
                        .call("open", reopened)
                        .ok_or_else(|| GrbError::InvalidValue("the store did not reopen".into()))?;
                    let last = plan.oracle.last();
                    let (nnz, weight) = (m.nvals(), m.total_weight());
                    d.check(nnz == plan.oracle.distinct(last), || {
                        format!("reopened nvals {nnz}")
                    });
                    d.check(weight == plan.oracle.total_weight(last), || {
                        format!("reopened total_weight {weight}")
                    });
                    Ok(m)
                },
            )
        }
        Workload::ShardedIngest => {
            // Producer and shard workers share one CPU.  Left to the
            // scheduler, three threads on this host's two cores settle into
            // one of two placements per run — 12M or 21M updates/s, 25 or
            // 110 us per fan-out read — so that run-to-run spread was 50%
            // and nothing could be told from it.  On one CPU every
            // hand-over between producer and worker is a context switch:
            // partition, channel and barrier cost add up where they can be
            // seen, which is what a guard for the sharded engine's own code
            // needs.  It measures no parallel speed-up, and claims none.
            // Both counted before pinning: afterwards one CPU is all
            // `available_parallelism` sees.
            let shards = shard_count();
            let all_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let pinned = set_affinity("0");
            let runs = drive(
                &plan,
                o,
                &sz,
                &mut tr,
                &mut || {
                    ShardedHierMatrix::new(
                        DIM,
                        DIM,
                        HierConfig::paper_default(),
                        ShardedConfig::with_shards(shards),
                    )
                },
                &mut |m: ShardedHierMatrix<u64>, _, _, d| {
                    let updates: Vec<f64> = (0..m.num_shards())
                        .map(|i| m.shard_stats(i).map(|s| s.updates as f64))
                        .collect::<Result<_, _>>()?;
                    let mean = updates.iter().sum::<f64>() / updates.len() as f64;
                    let max = updates.iter().copied().fold(0.0, f64::max);
                    d.extra.extend([
                        ("sharded.chunks_sent", m.chunks_sent() as f64),
                        ("sharded.rounds", m.rounds() as f64),
                        ("sharded.shard_skew", max / mean),
                    ]);
                    Ok(m)
                },
            );
            if pinned {
                set_affinity(&format!("0-{}", all_cpus - 1));
            }
            runs.map(|mut r| {
                if !pinned {
                    r.notes.push("taskset not available: threads were not pinned to one CPU, expect two modes".into());
                }
                r
            })
        }
    };
    let mut runs = runs.map_err(|e| format!("{}: {e}", w.name()))?;

    let mut metrics = Metrics::new(o.trace);
    if o.trace {
        per_layer(w, &plan, &runs, &tr, &gen_s, &mut metrics);
        layers::measure(w, &plan, &sz, &store, &mut tr, &mut runs, &mut metrics)
            .map_err(|e| format!("{}: {e}", w.name()))?;
        std::fs::create_dir_all(&o.out_dir).map_err(|e| e.to_string())?;
        let path = o.out_dir.join(format!("trace-{}.json", w.name()));
        tr.write_chrome(&path, w.name())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        runs.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
        runs.notes.push(layer_self_times(&runs, &tr));
    } else {
        let notes = end_to_end(&plan, &runs, &setup_s, &mut metrics);
        runs.notes.extend(notes);
    }
    let _ = std::fs::remove_dir_all(&store);
    runs.notes.push(format!("why: {}", w.why()));
    runs.notes.push(format!(
        "{} measured reps of {} updates ({} distinct cells), seed {}, {} core(s)",
        runs.plain.len(),
        plan.n_updates(),
        plan.oracle.distinct(plan.oracle.last()),
        o.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    Ok(Outcome {
        workload: w.name(),
        attempted: runs.attempted,
        failed: runs.failed,
        metrics,
        notes: runs.notes,
    })
}

fn rates(reps: &[RepData], updates: usize) -> Vec<f64> {
    reps.iter().map(|d| updates as f64 / d.window_s).collect()
}

/// The engine's rate over the flat matrix's, pair by pair: repetition `i`
/// of each ran back to back, so both saw the same state of the host, and
/// the ratio holds still when the host does not.
fn over_flat(runs: &Runs) -> Summary {
    let pairs: Vec<f64> = runs
        .plain
        .iter()
        .zip(&runs.flat)
        .map(|(engine, flat)| flat.window_s / engine.window_s)
        .collect();
    stats::summarize(&pairs)
}

/// All read latencies recorded under span `name`, pooled over `reps`.
fn pooled(reps: &[RepData], name: &str) -> Vec<f64> {
    reps.iter()
        .flat_map(|d| d.queries.iter().chain(&d.activations))
        .filter(|q| q.0 == name)
        .map(|q| q.1)
        .collect()
}

/// A pooled tail: the percentile as a value, the sample count beside it.
/// When the sample is too small for `wanted` (a `--smoke` run), the next
/// lower supported percentile stands in and a note says so.
fn tail_summary(name: &str, samples: &[f64], wanted: f64, notes: &mut Vec<String>) -> Summary {
    let (used, value) = stats::tail(samples, wanted);
    if used != wanted {
        notes.push(format!(
            "{name}: {} samples support p{used} at most, reported in place of p{wanted}",
            samples.len()
        ));
    }
    Summary {
        n: samples.len(),
        ..Summary::exact(value)
    }
}

fn median_summary(samples: &[f64]) -> Summary {
    Summary {
        n: samples.len(),
        ..Summary::exact(stats::median(samples))
    }
}

/// The end-to-end metrics, always from untraced repetitions: medians over
/// repetitions, except the two that pool samples over repetitions (batch
/// latencies, made relative first; PageRank times).
///
/// Every time is stated at the host's nominal speed: divided by how many
/// times slower than nominal the host clock ran beside the repetitions
/// (see `host`).  The ratios need no such correction.
fn end_to_end(plan: &Plan, runs: &Runs, setup_s: &[f64], m: &mut Metrics) -> Vec<String> {
    let slow = runs.host_slowdown();
    let n = plan.n_updates();
    let raw_rate = stats::median(&rates(&runs.plain, n));
    let mut notes = vec![format!(
        "host clock {slow:.3}x its nominal time over {} readings: times are stated at nominal speed \
         (as measured, updates_per_s was {raw_rate:.0})",
        runs.host.len()
    )];
    // Set-up is making the inputs plus constructing the engine: work a
    // change moves out of the window into either shows here.
    let construct: Vec<f64> = runs.plain.iter().map(|d| d.construct_s).collect();
    let construct = stats::median(&construct) / slow;
    let made = stats::summarize(setup_s);
    m.set(
        "setup_s",
        Summary {
            median: made.median + construct,
            q1: made.q1 + construct,
            q3: made.q3 + construct,
            n: made.n,
        },
    );
    m.set(
        "updates_per_s",
        stats::summarize(&rates(&runs.plain, n)).scaled(slow),
    );
    m.set("over_flat", over_flat(runs));
    m.set(
        "batch_p95_over_mean",
        tail_summary(
            "batch_p95_over_mean",
            &relative_batch_latencies(&runs.plain),
            95.0,
            &mut notes,
        ),
    );
    // Query percentiles are taken per repetition (each has well over ten
    // samples beyond its p95) and the median over repetitions reported:
    // pooled over repetitions, a tail is made of whichever repetitions the
    // host slowed down.
    for (name, wanted) in [("query_p50_us", 50.0), ("query_p95_us", 95.0)] {
        let per_rep: Vec<f64> = runs
            .plain
            .iter()
            .map(|d| {
                let us: Vec<f64> = d.queries.iter().map(|q| q.1).collect();
                let (used, value) = stats::tail(&us, wanted);
                let note = format!(
                    "{name}: {} queries per rep support p{used} at most, reported in place of p{wanted}",
                    us.len()
                );
                if used != wanted && !notes.contains(&note) {
                    notes.push(note);
                }
                value
            })
            .collect();
        m.set(name, stats::summarize(&per_rep).scaled(1.0 / slow));
    }
    let analytics: Vec<f64> = runs
        .plain
        .iter()
        .flat_map(|d| d.analytics_ms.clone())
        .collect();
    m.set(
        "analytics_p50_ms",
        median_summary(&analytics).scaled(1.0 / slow),
    );
    let per_entry: Vec<f64> = runs
        .plain
        .iter()
        .map(|d| d.mem_bytes as f64 / d.nnz.max(1) as f64)
        .collect();
    m.set("mem_bytes_per_entry", stats::summarize(&per_entry));
    notes
}

/// Every `insert_batch` latency over the mean `insert_batch` latency of its
/// own repetition, pooled over repetitions.  Stated this way the stall a
/// live feed sees (a cascade, a checkpoint) keeps its size when the host
/// slows a whole repetition down, which a latency in milliseconds does not.
fn relative_batch_latencies(reps: &[RepData]) -> Vec<f64> {
    reps.iter()
        .flat_map(|d| {
            let mean = d.batch_ms.iter().sum::<f64>() / d.batch_ms.len() as f64;
            d.batch_ms.iter().map(move |ms| ms / mean)
        })
        .collect()
}

fn per_rep(reps: &[RepData], f: impl Fn(&RepData) -> f64) -> Summary {
    stats::summarize(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Seconds of the `insert_batch` calls of one rep that cascaded to `depth`.
fn class_seconds(d: &RepData, depth: Option<usize>) -> f64 {
    d.batch_ms
        .iter()
        .zip(&d.batch_depth)
        .filter(|b| *b.1 == depth)
        .fold(0.0, |s, b| s + b.0 / 1e3)
}

/// The per-layer metrics that come straight from the traced repetitions
/// (the ones needing extra measurements are added by `layers::measure`).
fn per_layer(w: Workload, plan: &Plan, runs: &Runs, tr: &Tracer, gen_s: &[f64], m: &mut Metrics) {
    let n = plan.n_updates();
    let o = &plan.oracle;
    let t = &runs.traced;
    let gen_rates: Vec<f64> = gen_s.iter().map(|s| n as f64 / s).collect();
    m.set("workload.gen_edges_per_s", stats::summarize(&gen_rates));
    m.set_exact("workload.dup_ratio", n as f64 / o.distinct(o.last()) as f64);

    // graphblas.matrix: the flat repetitions are exactly `accum_tuples`
    // per batch and one final `wait`.
    let flat_ms: Vec<f64> = runs.flat.iter().flat_map(|d| d.batch_ms.clone()).collect();
    let batch_len = plan.batches[0].len() as f64;
    m.set(
        "matrix.append_ns_per_update",
        median_summary(
            &flat_ms
                .iter()
                .map(|ms| ms * 1e6 / batch_len)
                .collect::<Vec<_>>(),
        ),
    );
    m.set("matrix.flat_wait_s", per_rep(&runs.flat, |d| d.flush_s));
    m.set(
        "matrix.flat_batch_p95_ms",
        tail_summary("matrix.flat_batch_p95_ms", &flat_ms, 95.0, &mut Vec::new()),
    );
    m.set(
        "matrix.flat_updates_per_s",
        stats::summarize(&rates(&runs.flat, n)),
    );

    // graphblas.formats.merge: which kernels the rep's merges went through.
    for (name, pick) in [
        ("merge.galloped_share", 0),
        ("merge.bulk_share", 1),
        ("merge.branchless_share", 2),
    ] {
        m.set(
            name,
            per_rep(t, |d| {
                let k = &d.merge;
                let part = [k.galloped_elems, k.bulk_row_elems, k.branchless_elems][pick];
                part as f64 / k.total().max(1) as f64
            }),
        );
    }

    // hier.matrix: write time split by how deep each batch cascaded.
    if t.iter().all(|d| !d.batch_depth.is_empty()) {
        m.set(
            "hier.append_batch_s",
            per_rep(t, |d| class_seconds(d, None)),
        );
        m.set(
            "hier.cascade_l0_s",
            per_rep(t, |d| class_seconds(d, Some(0))),
        );
        m.set(
            "hier.cascade_l1_s",
            per_rep(t, |d| class_seconds(d, Some(1))),
        );
        m.set(
            "hier.cascade_l2_s",
            per_rep(t, |d| class_seconds(d, Some(2))),
        );
    }
    let stat = |f: &dyn Fn(&hyperstream_hier::HierStats) -> f64| {
        per_rep(t, |d| d.stats.as_ref().map_or(0.0, f))
    };
    for l in 0..3 {
        let name = format!("hier.cascades_l{l}");
        m.set(&name, stat(&|s| s.cascades_from_level(l) as f64));
        let name = format!("hier.entries_moved_l{l}");
        m.set(&name, stat(&|s| s.entries_moved_from_level(l) as f64));
    }
    m.set("hier.write_amp", stat(&|s| s.write_amplification()));
    m.set(
        "hier.fast_update_fraction",
        stat(&|s| s.fast_update_fraction()),
    );
    let batch_ms: Vec<f64> = t.iter().flat_map(|d| d.batch_ms.clone()).collect();
    m.set(
        "hier.batch_p95_ms",
        tail_summary("hier.batch_p95_ms", &batch_ms, 95.0, &mut Vec::new()),
    );
    m.set("hier.flush_s", per_rep(t, |d| d.flush_s));
    m.set("hier.mem_bytes", per_rep(t, |d| d.mem_bytes as f64));
    m.set("hier.over_flat", over_flat(runs));

    // graphblas.reader + cursor, degree_index: one span per query kind.
    let p50_us = |name: &str| median_summary(&pooled(t, name));
    let p50_ms = |name: &str| {
        let ms: Vec<f64> = pooled(t, name).iter().map(|us| us / 1e3).collect();
        median_summary(&ms)
    };
    m.set("read.settle_ms", p50_ms("read.settle"));
    m.set("read.get_p50_us", p50_us("read.get"));
    m.set("read.row_p50_us", p50_us("read.row"));
    m.set("read.row_degree_p50_us", p50_us("read.row_degree"));
    m.set("read.col_p50_us", p50_us("read.col"));
    m.set("read.col_first_ms", p50_ms("read.col_first"));
    m.set("read.col_degree_p50_us", p50_us("read.col_degree"));
    m.set("read.top_k_p50_us", p50_us("read.top_k"));
    m.set("read.in_top_k_p50_us", p50_us("read.in_top_k"));
    m.set("read.nnz_ms", per_rep(t, |d| d.nnz_ms.unwrap_or(0.0)));
    m.set(
        "read.query_time_share",
        per_rep(t, |d| d.window_read_s / d.window_s),
    );
    let levels: Vec<f64> = t.iter().flat_map(|d| d.levels_seen.clone()).collect();
    m.set(
        "cursor.levels_per_read",
        Summary {
            n: levels.len(),
            ..Summary::exact(levels.iter().sum::<f64>() / levels.len().max(1) as f64)
        },
    );
    m.set("index.activation_ms", p50_ms("index.activation"));

    // graphblas.algo + ops
    let analytics: Vec<f64> = t.iter().flat_map(|d| d.analytics_ms.clone()).collect();
    m.set(
        "algo.pagerank_iter_ms",
        median_summary(&analytics.iter().map(|ms| ms / 5.0).collect::<Vec<_>>()),
    );
    m.set("algo.bfs_ms", per_rep(t, |d| d.bfs_ms.unwrap_or(0.0)));
    m.set(
        "ops.spa_scatter_flops",
        per_rep(t, |d| d.spa.scatter_flops as f64),
    );
    m.set(
        "ops.spa_dense_flops",
        per_rep(t, |d| d.spa.dense_flops as f64),
    );

    // hier.persist / hier.sharded: what the workload's `between` step read.
    for name in [
        "persist.wal_appends",
        "persist.wal_syncs",
        "persist.wchar_per_update",
        "persist.store_bytes",
        "persist.store_bytes_per_entry",
        "persist.open_clean_ms",
        "sharded.chunks_sent",
        "sharded.rounds",
        "sharded.shard_skew",
    ] {
        if t.iter().all(|d| d.extra(name).is_some()) {
            m.set(name, per_rep(t, |d| d.extra(name).unwrap_or(0.0)));
        }
    }
    if w == Workload::DurableIngest {
        // A batch whose counters show a completed cascade chain ended in a
        // checkpoint; the flush adds one more.
        m.set(
            "persist.checkpoints",
            per_rep(t, |d| {
                d.batch_depth.iter().filter(|b| b.is_some()).count() as f64 + 1.0
            }),
        );
        let ms: Vec<f64> = t
            .iter()
            .flat_map(|d| d.batch_ms.iter().zip(&d.batch_depth))
            .filter(|b| b.1.is_some())
            .map(|b| *b.0)
            .collect();
        m.set("persist.checkpoint_batch_p50_ms", median_summary(&ms));
    }
    if w == Workload::ShardedIngest {
        m.set("sharded.insert_batch_s", per_rep(t, RepData::insert_s));
        m.set("sharded.flush_barrier_ms", per_rep(t, |d| d.flush_s * 1e3));
        m.set("sharded.fanout_get_p50_us", p50_us("read.get"));
        m.set("sharded.fanout_top_k_p50_us", p50_us("read.top_k"));
        m.set(
            "sharded.read_nnz_ms",
            per_rep(t, |d| d.nnz_ms.unwrap_or(0.0)),
        );
    }

    // The harness itself.  Per-layer times are as measured; this is the
    // host speed they were measured at.
    m.set(
        "host.clock_ms",
        stats::summarize(&runs.host.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
    m.set_exact("host.slowdown", runs.host_slowdown());
    // Traced repetition `i` and untraced repetition `i` ran within a second
    // of each other: pair by pair, like `over_flat`.
    let overhead: Vec<f64> = t
        .iter()
        .zip(&runs.plain)
        .map(|(traced, plain)| traced.window_s / plain.window_s - 1.0)
        .collect();
    m.set("trace.overhead_share", stats::summarize(&overhead));
    m.set("trace.coverage", per_rep(t, |d| tr.coverage(d.rep)));
}

/// Self time per layer (a span's time minus its children's) in the median
/// traced repetition, as one human-readable note.
fn layer_self_times(runs: &Runs, tr: &Tracer) -> String {
    let mut per_layer: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for d in &runs.traced {
        let mut of_rep: std::collections::BTreeMap<&str, f64> = Default::default();
        for (name, totals) in tr.totals(d.rep) {
            let layer = name.split('.').next().unwrap_or(name);
            *of_rep.entry(layer).or_default() += totals.self_ns as f64 / 1e9;
        }
        for (layer, s) in of_rep {
            per_layer.entry(layer).or_default().push(s);
        }
    }
    let parts: Vec<String> = per_layer
        .iter()
        .map(|(layer, s)| format!("{layer} {:.4}", stats::median(s)))
        .collect();
    format!(
        "self seconds per layer, median traced rep: {}",
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_one_line_reason_and_round_trips_by_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                !w.why().contains('\n') && w.why().len() <= 200,
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn smoke_run_reports_correct_results_on_both_kinds_of_run() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp/test-smoke");
        for trace in [false, true] {
            let o = Opts {
                seed: 11,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let mut sz = Sizes::of(Workload::QueryMix, true);
            sz.batches = 3;
            sz.batch_len = 3000;
            let (plan, _) = set_up(Workload::QueryMix, o.seed, &sz);
            let mut tr = Tracer::new(trace);
            let runs = drive(&plan, &o, &sz, &mut tr, &mut new_hier, &mut keep).unwrap();
            assert_eq!(runs.failed, 0, "{:?}", runs.notes);
            assert!(runs.attempted > 2000);
            assert_eq!(runs.plain.len(), 2);
            assert_eq!(runs.traced.len(), if trace { 2 } else { 0 });
            let mut m = Metrics::new(trace);
            if trace {
                per_layer(Workload::QueryMix, &plan, &runs, &tr, &[0.1], &mut m);
                let cov = m.rows().iter().find(|r| r.0 == "trace.coverage").unwrap().2;
                assert!(cov.median > 0.5 && cov.median <= 1.0, "{cov:?}");
            } else {
                let notes = end_to_end(&plan, &runs, &[0.1], &mut m);
                assert!(
                    notes.iter().any(|n| n.starts_with("batch_p95_over_mean")),
                    "{notes:?}"
                );
                assert!(m.rows().iter().all(|r| r.2.median > 0.0), "{:?}", m.rows());
            }
        }
    }
}
