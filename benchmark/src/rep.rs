//! One repetition of a workload against one engine: the timed window
//! (first `insert_batch` to the return of the final `flush`), the read
//! phase, and the checks against the oracle.  Every call into the engine
//! is timed here, from outside, and — in the traced run — recorded as a
//! span.

use crate::query::{self, Answer, Kind, Query};
use crate::stream::{Batch, Oracle, SplitMix64};
use crate::trace::{SpanId, Tracer};
use hyperstream_graphblas::{
    algo, merge_kernel_stats, spa_kernel_stats, CursorReader, GrbError, Matrix, MergeKernelStats,
    SpaKernelStats, StreamingSink,
};
use hyperstream_hier::{HierMatrix, HierStats, ShardedHierMatrix};
use std::time::Instant;

/// PageRank as every workload runs it: damping 0.85, exactly five
/// iterations (tolerance 0 never stops early).
const PAGERANK_ITERS: usize = 5;

/// What the benchmark needs from a system under test beyond the product's
/// own `StreamingSink` + `CursorReader` traits.
pub trait Engine: StreamingSink<u64> + CursorReader<u64> {
    /// Span names of the two write calls.
    const INSERT: &'static str;
    const FLUSH: &'static str;

    /// Cascade counters that can be read between batches without making
    /// the engine do anything (`None` where reading them would).
    fn live_stats(&self) -> Option<&HierStats> {
        None
    }

    /// Cascade counters after the final flush.
    fn final_stats(&mut self) -> Option<HierStats>;

    /// Bytes held after the final flush.
    fn mem_bytes(&mut self) -> usize;

    /// An error the infallible reader surface swallowed since the last
    /// call.
    fn take_error(&mut self) -> Option<GrbError> {
        None
    }
}

impl Engine for HierMatrix<u64> {
    const INSERT: &'static str = "hier.insert";
    const FLUSH: &'static str = "hier.flush";

    fn live_stats(&self) -> Option<&HierStats> {
        Some(self.stats())
    }

    fn final_stats(&mut self) -> Option<HierStats> {
        Some(self.stats().clone())
    }

    fn mem_bytes(&mut self) -> usize {
        self.memory_bytes()
    }
}

impl Engine for ShardedHierMatrix<u64> {
    const INSERT: &'static str = "sharded.insert";
    const FLUSH: &'static str = "sharded.flush";

    fn final_stats(&mut self) -> Option<HierStats> {
        self.aggregate_stats().ok()
    }

    /// The sharded engine exposes no `memory_bytes()`: the settled level
    /// structures of every shard are what can be seen from outside.
    fn mem_bytes(&mut self) -> usize {
        let mut bytes = 0;
        self.with_level_dcsrs(&mut |levels| {
            bytes = levels.iter().map(|d| d.memory().total()).sum();
        });
        bytes
    }

    fn take_error(&mut self) -> Option<GrbError> {
        self.take_read_error()
    }
}

impl Engine for Matrix<u64> {
    const INSERT: &'static str = "matrix.accum_tuples";
    const FLUSH: &'static str = "matrix.wait";

    fn final_stats(&mut self) -> Option<HierStats> {
        None
    }

    fn mem_bytes(&mut self) -> usize {
        self.memory().total()
    }
}

/// Deepest level that cascaded between two readings of the counters, i.e.
/// how far the batch in between pushed data down (`None`: a pure append).
pub fn cascade_depth(before: &HierStats, after: &HierStats) -> Option<usize> {
    (0..after.cascades.len())
        .rev()
        .find(|&l| after.cascades_from_level(l) > before.cascades_from_level(l))
}

/// Span name of a hierarchy `insert_batch` by the depth it cascaded to.
pub fn insert_span(depth: Option<usize>) -> &'static str {
    match depth {
        None => "hier.insert.append",
        Some(0) => "hier.insert.cascade_l0",
        Some(1) => "hier.insert.cascade_l1",
        Some(_) => "hier.insert.cascade_l2",
    }
}

/// The inputs of a repetition, fixed in set-up.
pub struct Plan {
    pub batches: Vec<Batch>,
    pub oracle: Oracle,
    /// `query_mix`: the queries that follow each batch inside the window.
    pub mix: Option<Vec<Vec<Query>>>,
    /// Run PageRank inside the window after every this-many batches
    /// (`query_mix`); 0 runs it once, after the window.
    pub pagerank_every: usize,
    /// Seed of the timed query bursts that follow an ingest-only window.
    pub burst_seed: u64,
    /// Untimed reads compared with the oracle after every repetition.
    pub checks: Vec<Query>,
}

impl Plan {
    pub fn n_updates(&self) -> usize {
        self.oracle.n_updates()
    }

    /// The timed queries that follow the window of repetition `rep` of an
    /// ingest-only workload (`query_mix` reads inside its window instead).
    /// Every repetition draws its own keys, so that the percentiles pooled
    /// over repetitions rest on thousands of distinct keys and not on the
    /// same few hundred — a tail made of five heavy rows would be a
    /// property of the seed.
    fn burst(&self, rep: u32) -> Vec<Query> {
        if self.mix.is_some() {
            return Vec::new();
        }
        let mut rng = SplitMix64::new(self.burst_seed ^ (u64::from(rep) << 32 | 0x6275_7273));
        query::sample(&self.batches, &mut rng, |_| query::BURST_PER_KIND)
    }
}

/// How much of the plan a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as declared: window, reads, checks.  `analytics`
    /// says whether the PageRank that follows an ingest-only window runs
    /// in this repetition (the caller rations it, see `workload::drive`).
    Full { analytics: bool },
    /// The plan's batches and the content check only — the flat comparator
    /// and the reference repetitions the per-layer ratios are taken
    /// against.
    IngestOnly,
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct RepData {
    pub rep: u32,
    pub construct_s: f64,
    pub window_s: f64,
    pub flush_s: f64,
    /// Latency of each `insert_batch`, and (traced hierarchy only) how
    /// deep it cascaded.
    pub batch_ms: Vec<f64>,
    pub batch_depth: Vec<Option<usize>>,
    /// Latency in microseconds of each timed query, by the span it was
    /// recorded under.
    pub queries: Vec<(&'static str, f64)>,
    /// The same for the one-off reads that follow an ingest-only window
    /// and build the degree indexes and the column twin: timed, but not
    /// part of the query percentiles.
    pub activations: Vec<(&'static str, f64)>,
    /// Seconds of queries and analytics inside the window.
    pub window_read_s: f64,
    pub analytics_ms: Vec<f64>,
    pub bfs_ms: Option<f64>,
    pub nnz_ms: Option<f64>,
    pub levels_seen: Vec<f64>,
    pub mem_bytes: usize,
    pub nnz: usize,
    pub stats: Option<HierStats>,
    pub merge: MergeKernelStats,
    pub spa: SpaKernelStats,
    /// Calls made plus answers checked, and how many returned `Err` or
    /// differed from the oracle.
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Engine-specific readings a workload's `between` step attaches
    /// (store size, WAL counters, shard skew, ...), by per-layer metric
    /// name.
    pub extra: Vec<(&'static str, f64)>,
}

impl RepData {
    pub fn insert_s(&self) -> f64 {
        self.batch_ms.iter().sum::<f64>() / 1e3
    }

    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    pub fn call<T>(&mut self, what: &str, r: Result<T, GrbError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what} returned {e}"));
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// What the timed reads of one repetition have seen so far, so that the
/// first column read after a batch and the first degree read of a rep can
/// be told apart from the steady-state ones.
#[derive(Default)]
struct ReadState {
    col_twin_fresh: bool,
    index_active: bool,
    buf: Vec<(u64, u64)>,
    /// `(batches applied, query, answer)` for the oracle check afterwards.
    answers: Vec<(u32, Query, Answer)>,
}

#[allow(clippy::too_many_arguments)]
fn timed_query<E: Engine>(
    e: &mut E,
    q: &Query,
    upto: u32,
    pooled: bool,
    st: &mut ReadState,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    d: &mut RepData,
) -> f64 {
    let t0 = Instant::now();
    let answer = query::run(e, q, &mut st.buf);
    let t1 = Instant::now();
    // The first column read after new data rebuilds the column twin and
    // the first degree read of a rep activates the row degree index:
    // those two are layers of their own.
    let name = match q.kind {
        Kind::Col if !st.col_twin_fresh => {
            st.col_twin_fresh = true;
            "read.col_first"
        }
        Kind::RowDegree | Kind::TopK if !st.index_active => {
            st.index_active = true;
            "index.activation"
        }
        k => k.span(),
    };
    tr.record(name, parent, t0, t1);
    d.attempted += 1;
    let sample = (name, secs(t0, t1) * 1e6);
    if pooled {
        d.queries.push(sample);
    } else {
        d.activations.push(sample);
    }
    st.answers.push((upto, *q, answer));
    secs(t0, t1)
}

/// Traced run only: settle the pending tail by itself first, so that its
/// cost is timed alone instead of landing on whichever query the mix
/// happens to start with.  `with_level_dcsrs` settles and touches no
/// index; the level slices it hands over also tell how many non-empty
/// levels a cursor read has to merge.
fn isolate_settle<E: Engine>(
    e: &mut E,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    d: &mut RepData,
) -> f64 {
    let mut seen = 0usize;
    let t0 = Instant::now();
    e.with_level_dcsrs(&mut |levels| seen = levels.iter().filter(|l| l.nvals() > 0).count());
    let t1 = Instant::now();
    tr.record("read.settle", parent, t0, t1);
    d.activations.push(("read.settle", secs(t0, t1) * 1e6));
    d.levels_seen.push(seen as f64);
    secs(t0, t1)
}

fn pagerank<E: Engine>(
    e: &mut E,
    whole_stream: Option<&Oracle>,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    d: &mut RepData,
) -> f64 {
    let t0 = Instant::now();
    let ranks = algo::pagerank(e, 0.85, PAGERANK_ITERS, 0.0);
    let t1 = Instant::now();
    tr.record("algo.pagerank", parent, t0, t1);
    d.analytics_ms.push(secs(t0, t1) * 1e3);
    d.attempted += 1;
    if let Some(o) = whole_stream {
        d.check(ranks.nvals() == o.vertices(), || {
            format!(
                "pagerank ranked {} of {} vertices",
                ranks.nvals(),
                o.vertices()
            )
        });
    }
    secs(t0, t1)
}

/// The timed window: every batch, the reads that follow it in
/// `query_mix`, and the final flush.
fn window<E: Engine>(
    e: &mut E,
    plan: &Plan,
    mode: Mode,
    st: &mut ReadState,
    tr: &mut Tracer,
    rep_span: Option<SpanId>,
    d: &mut RepData,
) {
    let win = tr.open("window", rep_span);
    let start = Instant::now();
    for (b, batch) in plan.batches.iter().enumerate() {
        let before = if tr.enabled() {
            e.live_stats().cloned()
        } else {
            None
        };
        let t0 = Instant::now();
        let r = e.insert_batch(&batch.rows, &batch.cols, &batch.vals);
        let t1 = Instant::now();
        d.call("insert_batch", r);
        d.batch_ms.push(secs(t0, t1) * 1e3);
        let name = match (&before, e.live_stats()) {
            (Some(before), Some(after)) => {
                let depth = cascade_depth(before, after);
                d.batch_depth.push(depth);
                insert_span(depth)
            }
            _ => E::INSERT,
        };
        tr.record(name, win, t0, t1);

        let Some(mix) = plan.mix.as_ref().filter(|_| mode != Mode::IngestOnly) else {
            continue;
        };
        st.col_twin_fresh = false;
        if tr.enabled() {
            d.window_read_s += isolate_settle(e, tr, win, d);
        }
        for q in &mix[b] {
            d.window_read_s += timed_query(e, q, b as u32, true, st, tr, win, d);
        }
        if plan.pagerank_every > 0 && (b + 1) % plan.pagerank_every == 0 {
            let whole = (b + 1 == plan.batches.len()).then_some(&plan.oracle);
            d.window_read_s += pagerank(e, whole, tr, win, d);
        }
    }
    let t0 = Instant::now();
    let r = e.flush();
    let t1 = Instant::now();
    d.call("flush", r);
    tr.record(E::FLUSH, win, t0, t1);
    tr.close(win);
    d.flush_s = secs(t0, t1);
    d.window_s = secs(start, t1);
}

/// After the window: what every ingest must have produced, whatever the
/// engine — the oracle's cell count and weight.
fn check_content<E: Engine>(e: &mut E, o: &Oracle, d: &mut RepData) {
    let (nnz, weight) = (e.nvals(), e.total_weight());
    d.nnz = nnz;
    d.check(nnz == o.distinct(o.last()), || {
        format!("nvals {nnz}, oracle {}", o.distinct(o.last()))
    });
    d.check(weight == o.total_weight(o.last()) as f64, || {
        format!("total_weight {weight}, oracle {}", o.total_weight(o.last()))
    });
}

/// The reads after the window: the timed burst and PageRank of the
/// ingest-only workloads, the traced run's extra probes, then — with the
/// `reads` span closed — the untimed checks against the oracle.
fn read_phase<E: Engine>(
    e: &mut E,
    plan: &Plan,
    analytics: bool,
    st: &mut ReadState,
    tr: &mut Tracer,
    reads: Option<SpanId>,
    d: &mut RepData,
) {
    let o = &plan.oracle;
    st.col_twin_fresh = false;
    if tr.enabled() {
        isolate_settle(e, tr, reads, d);
    }
    let burst = plan.burst(d.rep);
    if let Some(first) = burst.first() {
        // An engine that has only ingested has built neither degree index
        // nor column twin; the first reads that need them build them,
        // once.  They are timed here as layers of their own, so that the
        // burst's percentiles describe an engine that is being read.
        // (`query_mix` is where reads pay these costs where a user would:
        // inside the window, batch after batch.)
        for kind in [Kind::RowDegree, Kind::ColDegree, Kind::Col] {
            let q = Query { kind, ..*first };
            timed_query(e, &q, o.last(), false, st, tr, reads, d);
        }
    }
    for q in &burst {
        timed_query(e, q, o.last(), true, st, tr, reads, d);
    }
    let spa0 = spa_kernel_stats();
    if plan.pagerank_every == 0 && analytics {
        pagerank(e, Some(o), tr, reads, d);
    }
    if tr.enabled() {
        let t0 = Instant::now();
        let nnz = e.read_nnz();
        let t1 = Instant::now();
        tr.record("read.nnz", reads, t0, t1);
        d.nnz_ms = Some(secs(t0, t1) * 1e3);
        d.check(nnz == o.distinct(o.last()), || format!("read_nnz {nnz}"));

        let source = o.top_rows()[0];
        let levels = algo::bfs_levels(e, source.0);
        let t2 = Instant::now();
        tr.record("algo.bfs", reads, t1, t2);
        d.bfs_ms = Some(secs(t1, t2) * 1e3);
        // The source and (self-loop aside) each of its out-neighbours.
        d.check(
            levels.get(source.0) == Some(1) && levels.nvals() >= source.1,
            || format!("bfs from {} reached {}", source.0, levels.nvals()),
        );
    }
    let spa1 = spa_kernel_stats();
    d.spa = SpaKernelStats {
        dense_rows: spa1.dense_rows - spa0.dense_rows,
        dense_flops: spa1.dense_flops - spa0.dense_flops,
        scatter_rows: spa1.scatter_rows - spa0.scatter_rows,
        scatter_flops: spa1.scatter_flops - spa0.scatter_flops,
    };
    tr.close(reads);

    for q in &plan.checks {
        let got = query::run(e, q, &mut st.buf);
        st.answers.push((o.last(), *q, got));
    }
    for (upto, q, got) in st.answers.drain(..) {
        if let Some(want) = query::expected(o, &q, upto) {
            d.check(got == want, || {
                format!("{q:?} after batch {upto}: got {got:?}, oracle {want:?}")
            });
        }
    }
    if let Some(err) = e.take_error() {
        d.check(false, || format!("reader swallowed {err}"));
    }
}

/// Constructs a fresh engine for a repetition.
pub type Build<'a, E> = &'a mut dyn FnMut() -> Result<E, GrbError>;
/// Runs between a repetition's window and its reads, under the `reads`
/// span; may replace the engine.
pub type Between<'a, E> =
    &'a mut dyn FnMut(E, &mut Tracer, Option<SpanId>, &mut RepData) -> Result<E, GrbError>;

/// One repetition.  `build` constructs a fresh engine; `between` runs
/// after the window and before the reads, and may replace the engine (the
/// durable workload drops and reopens it there).
///
/// A repetition has two root spans, `rep` (construction and the window)
/// and `reads` (what `between` does, the burst, the analytics).  The
/// content check between them and the oracle checks after them are the
/// benchmark's own work and stay outside both, so coverage is measured
/// over what a user of the engine waits for.
pub fn run<E: Engine>(
    plan: &Plan,
    mode: Mode,
    tr: &mut Tracer,
    build: Build<E>,
    between: Between<E>,
) -> Result<RepData, GrbError> {
    let mut d = RepData {
        rep: tr.next_rep(),
        ..RepData::default()
    };
    let mut st = ReadState::default();
    let rep_span = tr.open("rep", None);

    let t0 = Instant::now();
    let mut e = build()?;
    let t1 = Instant::now();
    tr.record("construct", rep_span, t0, t1);
    d.construct_s = secs(t0, t1);

    let merge0 = merge_kernel_stats();
    window(&mut e, plan, mode, &mut st, tr, rep_span, &mut d);
    let merge1 = merge_kernel_stats();
    tr.close(rep_span);
    d.merge = MergeKernelStats {
        galloped_elems: merge1.galloped_elems - merge0.galloped_elems,
        bulk_row_elems: merge1.bulk_row_elems - merge0.bulk_row_elems,
        branchless_elems: merge1.branchless_elems - merge0.branchless_elems,
        linear_elems: merge1.linear_elems - merge0.linear_elems,
    };

    check_content(&mut e, &plan.oracle, &mut d);
    d.mem_bytes = e.mem_bytes();
    d.stats = e.final_stats();
    let Mode::Full { analytics } = mode else {
        return Ok(d);
    };

    let reads = tr.open("reads", None);
    let mut e = between(e, tr, reads, &mut d)?;
    read_phase(&mut e, plan, analytics, &mut st, tr, reads, &mut d);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cascades: [u64; 4]) -> HierStats {
        HierStats {
            updates: 0,
            cascades: cascades.to_vec(),
            entries_moved: vec![0; 4],
            materializations: 0,
        }
    }

    #[test]
    fn cascade_depth_is_the_deepest_level_that_moved() {
        let before = stats([3, 1, 0, 0]);
        assert_eq!(cascade_depth(&before, &stats([3, 1, 0, 0])), None);
        assert_eq!(cascade_depth(&before, &stats([4, 1, 0, 0])), Some(0));
        assert_eq!(cascade_depth(&before, &stats([4, 2, 0, 0])), Some(1));
        assert_eq!(cascade_depth(&before, &stats([4, 2, 1, 0])), Some(2));
        // a deeper cascade without a shallower one still counts
        assert_eq!(cascade_depth(&before, &stats([3, 1, 1, 0])), Some(2));
        assert_eq!(insert_span(None), "hier.insert.append");
        assert_eq!(insert_span(Some(0)), "hier.insert.cascade_l0");
        assert_eq!(insert_span(Some(2)), "hier.insert.cascade_l2");
    }
}
