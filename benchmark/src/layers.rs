//! The traced run's extra measurements: the per-layer metrics that need
//! more than spans around the workload's own calls.
//!
//! * a **layer replay** drives real batches through the three public
//!   `Matrix` calls a cascade is made of (`accum_tuples`, `wait`,
//!   `accum_matrix`), one at a time;
//! * **reference repetitions** ingest the same batches into a plain
//!   in-memory hierarchy, the base of every `*_tax` / `over_*` ratio;
//! * the durable and sharded workloads add the measurements only they
//!   have (replay reopen, fsync-every-batch, partitioning alone).

use crate::rep::{self, Mode, Plan, RepData};
use crate::report::Metrics;
use crate::stats;
use crate::stream::{Batch, Oracle, DIM};
use crate::trace::Tracer;
use crate::workload::{self, Runs, Sizes, Workload};
use hyperstream_graphblas::{GrbError, Matrix, StreamingSink};
use hyperstream_hier::{FsyncPolicy, HierConfig, HierMatrix, PartitionBuffers, ShardPartitioner};
use std::path::Path;
use std::time::Instant;

/// Batches the settle replay times one by one.
const SETTLE_BATCHES: usize = 8;
/// Repetitions of each merge-replay size.
const MERGE_REPS: usize = 3;

/// `graphblas.formats.coo`: `Matrix::wait` on one batch of pending tuples
/// at a time — the radix settle, with nothing to merge into.
fn settle_replay(plan: &Plan, m: &mut Metrics) -> Result<(), GrbError> {
    let mut ns = Vec::new();
    let mut kept = Vec::new();
    for b in plan.batches.iter().take(SETTLE_BATCHES) {
        let mut flat = Matrix::<u64>::try_new(DIM, DIM)?;
        flat.accum_tuples(&b.rows, &b.cols, &b.vals)?;
        let t0 = Instant::now();
        flat.wait();
        let dt = t0.elapsed();
        ns.push(dt.as_nanos() as f64 / b.len() as f64);
        kept.push(flat.nvals_settled() as f64 / b.len() as f64);
    }
    m.set("coo.settle_ns_per_tuple", stats::summarize(&ns));
    m.set("coo.dedup_ratio", stats::summarize(&kept));
    Ok(())
}

/// A settled matrix of the stream's tuples `lo..hi` (flattened across
/// batches).
fn settled_slice(batches: &[Batch], lo: usize, hi: usize) -> Result<Matrix<u64>, GrbError> {
    let mut m = Matrix::<u64>::try_new(DIM, DIM)?;
    let mut at = 0;
    for b in batches {
        let (from, to) = (lo.max(at), hi.min(at + b.len()));
        if from < to {
            let r = from - at..to - at;
            m.accum_tuples(&b.rows[r.clone()], &b.cols[r.clone()], &b.vals[r])?;
        }
        at += b.len();
    }
    m.wait();
    Ok(m)
}

/// `graphblas.formats.merge` + `dcsr`: `Matrix::accum_matrix` of a small
/// settled matrix into one built from 1x, 8x and 64x as many tuples — the
/// merge a cascade does, at the size ratios the merge kernels switch on.
fn merge_replay(plan: &Plan, m: &mut Metrics) -> Result<(), GrbError> {
    let total = plan.n_updates();
    let unit = (total / 65).min(plan.batches[0].len() / 4).max(1);
    let small = settled_slice(&plan.batches, total - unit, total)?;
    for (name, ratio) in [
        ("merge.ns_per_elem_r1", 1),
        ("merge.ns_per_elem_r8", 8),
        ("merge.ns_per_elem_r64", 64),
    ] {
        let mut ns = Vec::new();
        for _ in 0..MERGE_REPS {
            // Built afresh each time: merging into a clone would time the
            // copy-on-write of the shared settled structure instead.
            let mut large = settled_slice(&plan.batches, 0, ratio * unit)?;
            let elems = (large.nvals_settled() + small.nvals_settled()) as f64;
            let t0 = Instant::now();
            large.accum_matrix(&small)?;
            ns.push(t0.elapsed().as_nanos() as f64 / elems);
        }
        m.set(name, stats::summarize(&ns));
    }
    Ok(())
}

/// Ingest-only repetitions of `plan` into an in-memory hierarchy with
/// `cuts`: the reference the ratios are taken against.
fn reference(
    plan: &Plan,
    cuts: &HierConfig,
    n: usize,
    tr: &mut Tracer,
    runs: &mut Runs,
) -> Result<Vec<RepData>, GrbError> {
    (0..n)
        .map(|_| {
            let d = rep::run(
                plan,
                Mode::IngestOnly,
                tr,
                &mut || HierMatrix::<u64>::new(DIM, DIM, cuts.clone()),
                &mut workload::keep,
            )?;
            runs.absorb(&d);
            Ok(d)
        })
        .collect()
}

fn median_of(reps: &[RepData], f: impl Fn(&RepData) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// `hier.persist` measurements beyond the workload's own repetitions.
fn persist_extras(
    plan: &Plan,
    sz: &Sizes,
    store: &Path,
    tr: &mut Tracer,
    runs: &mut Runs,
    m: &mut Metrics,
) -> Result<(), GrbError> {
    // A rep dropped without `flush()`: the reopen replays the WAL, and
    // every acknowledged batch must be there.
    let mut d = RepData::default();
    let mut e = workload::new_durable(store, workload::durable_config(store))?;
    let mut acknowledged = None;
    for (b, batch) in plan.batches.iter().enumerate() {
        if d.call(
            "insert_batch",
            e.insert_batch(&batch.rows, &batch.cols, &batch.vals),
        )
        .is_some()
        {
            acknowledged = Some(b as u32);
        }
    }
    drop(e);
    let t0 = Instant::now();
    let reopened = HierMatrix::<u64>::open_with(workload::durable_config(store));
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(e), Some(upto)) = (d.call("open", reopened), acknowledged) {
        let replayed = e.recovery_report().map_or(0, |r| r.wal_records_replayed);
        let (nnz, weight) = (e.nvals(), e.total_weight());
        d.check(nnz == plan.oracle.distinct(upto), || {
            format!(
                "replayed nvals {nnz} after {} acknowledged batches",
                upto + 1
            )
        });
        d.check(weight == plan.oracle.total_weight(upto), || {
            format!("replayed total_weight {weight}")
        });
        m.set_exact("persist.open_replay_ms", open_ms);
        m.set_exact("persist.wal_replayed", replayed as f64);
    }
    runs.absorb(&d);

    // Information only: what fsync-per-batch costs on this disk, on a
    // quarter of the stream, policies interleaved.
    let short = Plan {
        batches: plan.batches[..(sz.batches / 4).max(1)].to_vec(),
        oracle: Oracle::build(&plan.batches[..(sz.batches / 4).max(1)]),
        mix: None,
        pagerank_every: 0,
        burst_seed: 0,
        checks: Vec::new(),
    };
    let mut windows = [Vec::new(), Vec::new()];
    for _ in 0..sz.refs {
        for (i, policy) in [FsyncPolicy::Never, FsyncPolicy::EveryBatch]
            .into_iter()
            .enumerate()
        {
            let d = rep::run(
                &short,
                Mode::IngestOnly,
                tr,
                &mut || workload::new_durable(store, workload::durable_config(store).fsync(policy)),
                &mut workload::keep,
            )?;
            runs.absorb(&d);
            windows[i].push(d.window_s);
        }
    }
    m.set_exact(
        "persist.every_batch_tax",
        stats::median(&windows[1]) / stats::median(&windows[0]),
    );
    Ok(())
}

/// `hier.sharded` + `hier.pool`: routing and staging every update, alone —
/// `ShardPartitioner::shard` + `PartitionBuffers::push`, no channel, no
/// worker.
fn partition_alone(plan: &Plan, m: &mut Metrics) {
    let shards = workload::shard_count();
    let mut staged = PartitionBuffers::<u64>::new(shards);
    let mut ns = Vec::new();
    for b in &plan.batches {
        let t0 = Instant::now();
        for i in 0..b.len() {
            let shard = ShardPartitioner::RowHash.shard(b.rows[i], DIM, shards);
            staged.push(shard, b.rows[i], b.cols[i], b.vals[i]);
        }
        ns.push(t0.elapsed().as_nanos() as f64 / b.len() as f64);
        std::hint::black_box(staged.total());
        staged.reset();
    }
    m.set("sharded.partition_ns_per_update", stats::summarize(&ns));
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the traced run of workload `w` measures beyond its own
/// repetitions.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: Workload,
    plan: &Plan,
    sz: &Sizes,
    store: &Path,
    tr: &mut Tracer,
    runs: &mut Runs,
    m: &mut Metrics,
) -> Result<(), GrbError> {
    tr.set_enabled(false);
    settle_replay(plan, m)?;
    merge_replay(plan, m)?;

    let n = plan.n_updates() as f64;
    let plain_window = median_of(&runs.plain, |d| d.window_s);
    match w {
        // The cut schedules trade rate, stall and memory against each
        // other: the same stream through two alternatives.
        Workload::PowerlawIngest | Workload::UniqueIngest => {
            for (name, base) in [
                ("hier.cuts_4k8_updates_per_s", 1 << 12),
                ("hier.cuts_64k8_updates_per_s", 1 << 16),
            ] {
                let cuts = HierConfig::geometric(4, base, 8)?;
                let reps = reference(plan, &cuts, sz.refs, tr, runs)?;
                let rates: Vec<f64> = reps.iter().map(|d| n / d.window_s).collect();
                m.set(name, stats::summarize(&rates));
            }
        }
        // What the reads cost the ingest itself: seconds inside
        // `insert_batch` with reads beside it, over the same without.
        Workload::QueryMix => {
            let reps = reference(plan, &HierConfig::paper_default(), sz.refs, tr, runs)?;
            m.set_exact(
                "index.ingest_tax",
                median_of(&runs.plain, RepData::insert_s) / median_of(&reps, RepData::insert_s),
            );
        }
        Workload::DurableIngest => {
            let reps = reference(plan, &HierConfig::paper_default(), sz.refs, tr, runs)?;
            m.set_exact(
                "persist.ingest_tax",
                plain_window / median_of(&reps, |d| d.window_s),
            );
            persist_extras(plan, sz, store, tr, runs, m)?;
        }
        Workload::ShardedIngest => {
            let reps = reference(plan, &HierConfig::paper_default(), sz.refs, tr, runs)?;
            m.set_exact(
                "sharded.over_single",
                median_of(&reps, |d| d.window_s) / plain_window,
            );
            partition_alone(plan, m);
        }
    }
    m.set_exact("proc.peak_rss_mb", peak_rss_mib());
    Ok(())
}
