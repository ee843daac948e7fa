//! The sharded parallel ingest engine: a **persistent pool** of N worker
//! threads, each owning a private [`HierMatrix`] shard, fed through
//! long-lived bounded SPSC tuple-batch channels.
//!
//! The paper's 75 G-updates/s headline is the *sum* of many independent
//! hierarchical hypersparse matrices, one per process.  Within one process
//! the same structure is a [`ShardedHierMatrix`]: a row partitioner routes
//! every update to the shard that owns its row, each shard is an ordinary
//! [`HierMatrix`] maintained by its own worker thread, and a read is
//! `⊕` over what the shards say — valid because the shards hold disjoint
//! row sets and ⊕ is associative and commutative.
//!
//! Two effects make sharding pay:
//!
//! * **parallelism** — shards never communicate, so N cores stream N times
//!   as fast (the paper's process-level scaling, here at thread level); and
//! * **working-set reduction** — each shard's levels hold ~1/N of the
//!   entries, so every cascade merge rewrites ~1/N of the data.  This is
//!   measurable even on a single core once a stream outgrows one
//!   hierarchy's cut schedule (`sharded.over_single` of the
//!   `sharded_ingest` benchmark workload).
//!
//! # Threading model
//!
//! Workers are **persistent threads** spawned once at construction.  Each
//! worker owns its shard (behind an uncontended mutex that queries take
//! after a drain barrier), parks on its SPSC command channel when idle, and
//! lives until the engine is dropped — there are no per-round spawns or
//! joins.  The long-lived threads are also the parking spot the roadmap's
//! NUMA/affinity follow-on needs: a worker is a stable OS thread that can
//! be pinned once, not a scoped thread that vanishes every round.
//!
//! Inserts are staged into per-shard partition buffers
//! ([`PartitionBuffers`]); a shard's staging is handed to its worker
//! *whole* (a zero-copy `Vec` handoff, with emptied buffers recycled back
//! through a return channel) as soon as [`ShardedConfig::chunk_tuples`]
//! accumulate, so partitioning overlaps worker application continuously.
//! Every [`ShardedConfig::round_tuples`] staged updates the engine counts
//! one ingest *round* and force-dispatches all remainders.  The bounded
//! command channels provide backpressure: the producer blocks when a shard
//! falls [`ShardedConfig::channel_depth`] batches behind.
//!
//! Queries and [`ShardedHierMatrix::flush`] use a **drain barrier**: a
//! barrier message per worker, acknowledged only after every previously
//! queued batch has been applied (workers also report their thread id,
//! which the thread-reuse tests round-trip).
//!
//! # The read path
//!
//! A read is a [`Query`] value and goes **route → ask → combine**, each
//! written once for anything that is a set of row-disjoint shards — the
//! live engine and a [`ShardedSnapshot`] of it.  *Route* picks who can hold
//! part of the answer: the one owner of a row, the row bands a range
//! overlaps (every shard under `RowHash`), every shard for whole-matrix and
//! column reads, or — for a batch of keys — each key's owner with just its
//! keys.  *Ask* puts the query to those shards: the engine over its worker
//! channels, behind each shard's staged tuples, with every wait bounded and
//! every loss typed (below); the snapshot by calling
//! [`MatrixReader::answer`] on its captures; a worker answers with the same
//! method.  *Combine* folds the parts by query kind, and every rule is
//! exact for the same reason: a row lives in one shard.  Cell counts,
//! per-column row counts and row-degree histogram bins add; a column's
//! weights fold under `+`; the global row top-k is the top-k of the local
//! top-k's, because each row is ranked by exactly one shard; entry lists
//! and column slices are sorted per shard and share no key, so linear
//! merges order them.  In-degrees alone cannot be combined after the
//! fact — a column's cells split over the shards, so a shard's in-degree
//! ranking or histogram says nothing about the global one: every shard
//! ships its complete column → degree list, the lists are *summed per
//! column first* and ranked or binned afterwards, and the sum is held until
//! the content changes.  No read answers without a shard it is routed to: a
//! lost one is a typed error.
//! [`ShardedHierMatrix::try_read`] is the fallible form of all of it; the
//! engine's [`MatrixReader::answer`] wraps it, answers empty on an error
//! and latches the error for [`ShardedHierMatrix::take_read_error`].
//!
//! # Fault tolerance
//!
//! Every worker runs under a panic-catching supervision wrapper: a panic
//! is captured (payload preserved), the worker's shared liveness flag
//! clears, and the engine observes the death as a *typed* error —
//! [`GrbError::ShardsLost`] — instead of panicking or hanging.  The
//! producer never blocks unboundedly: sends fail immediately once a dead
//! worker's channel disconnects (a live worker always drains, so the
//! blocking send is bounded by backpressure alone), and every ack/reply
//! wait is capped by [`ShardedConfig::wait_timeout`]
//! ([`GrbError::Timeout`]; a timeout does not declare the worker dead).
//! [`ShardedHierMatrix::health`] reports the pool state as an
//! [`EngineHealth`].  Reads are strict: one that touches a lost shard
//! returns [`GrbError::ShardsLost`], whole-matrix reads, snapshots and
//! statistics included.  [`ShardedHierMatrix::respawn_shard`] rebuilds a
//! dead worker on one recovery path: a durable shard reopens its own
//! store, an in-memory shard restarts empty, and either way the tuples
//! that may be gone are counted ([`ShardRecovery::lost_tuples`]), never
//! retained.  The `failpoints` feature
//! compiles deterministic fault-injection sites into the worker loop
//! (see [`crate::failpoint`]) — the chaos suite drives panics, injected
//! errors, and stalls through every one of these paths.

use crate::config::HierConfig;
use crate::matrix::HierMatrix;
use crate::persist::{DurableConfig, RecoveryReport};
use crate::pool::{row_hash, PartitionBuffers};
use crate::stats::HierStats;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::ewise_add::ewise_add_into;
use hyperstream_graphblas::reader::{Answer, Query};
use hyperstream_graphblas::sink::check_tuple_lengths;
use hyperstream_graphblas::GrbError;
use hyperstream_graphblas::{
    validate_index, GrbResult, Index, Matrix, MatrixReader, MatrixSnapshot, ScalarType,
    StreamingSink,
};
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

mod read;
pub use read::ShardedSnapshot;

/// How updates are routed to shards.  Both strategies depend only on the
/// row, so every `(row, col)` cell lives in exactly one shard and per-shard
/// results sum without overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Multiplicative row hash (default): spreads adjacent rows across
    /// shards, robust to skewed row spaces.
    RowHash,
    /// Contiguous row bands: shard `k` owns rows
    /// `[k·ceil(nrows/N), (k+1)·ceil(nrows/N))`.  Preserves row locality
    /// within a shard (useful when queries are row-range scans).
    RowRange,
}

impl ShardPartitioner {
    /// The shard that owns `row` in an `nshards`-way partition of `nrows`.
    pub fn shard(&self, row: Index, nrows: Index, nshards: usize) -> usize {
        match self {
            ShardPartitioner::RowHash => (row_hash(row) % nshards.max(1) as u64) as usize,
            ShardPartitioner::RowRange => {
                let band = nrows.div_ceil(nshards.max(1) as u64).max(1);
                ((row / band) as usize).min(nshards.max(1) - 1)
            }
        }
    }
}

/// Tuning knobs of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of shards (= persistent worker threads).  Clamped to at
    /// least 1.
    pub shards: usize,
    /// Row partitioning strategy.
    pub partitioner: ShardPartitioner,
    /// Staged tuples at which a shard's buffer is handed to its worker.
    /// Larger batches amortise channel synchronisation; smaller batches
    /// start workers sooner.
    pub chunk_tuples: usize,
    /// Bounded channel capacity in batches — the producer blocks when a
    /// worker falls this far behind (backpressure).
    pub channel_depth: usize,
    /// Staged tuples that count one ingest round (all remainders are
    /// force-dispatched).  Rounds also complete on flush and queries.
    pub round_tuples: usize,
    /// Upper bound on any single wait for a worker (barrier acks, query
    /// replies).  A wait that exceeds it returns [`GrbError::Timeout`]
    /// instead of blocking forever; a timeout does *not* mark the worker
    /// lost (a slow worker is not a dead one — channel disconnection is
    /// what proves death).  The default is generous: it exists to bound
    /// pathological stalls, not to race healthy workers.
    pub wait_timeout: Duration,
}

impl ShardedConfig {
    /// Default knobs for `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            partitioner: ShardPartitioner::RowHash,
            chunk_tuples: 8192,
            channel_depth: 4,
            round_tuples: 1 << 19,
            wait_timeout: Duration::from_secs(60),
        }
    }
}

impl Default for ShardedConfig {
    /// One shard per available core.
    fn default() -> Self {
        Self::with_shards(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }
}

/// Supervision state of the worker pool, derived from per-worker liveness.
///
/// A worker is *lost* when its thread has exited — by panic (the panic
/// payload is captured and reported in [`GrbError::ShardsLost`]) or by
/// channel disconnection.  Losses are permanent until
/// [`ShardedHierMatrix::respawn_shard`] rebuilds the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineHealth {
    /// Every worker is alive.
    Healthy,
    /// Some workers died; the listed shards' row bands are unreachable.
    /// A read routed only to survivors is answered in full; one that
    /// touches a lost shard returns [`GrbError::ShardsLost`].
    Degraded {
        /// Indices of the lost shards, ascending.
        lost: Vec<usize>,
    },
    /// Every worker died — no data is reachable through the pool.
    Failed,
}

/// The outcome of [`ShardedHierMatrix::respawn_shard`]: how much of the
/// lost shard's stream may be gone.  Nothing is replayed: a durable shard
/// reopens its own store, an in-memory shard restarts empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The respawned shard.
    pub shard: usize,
    /// In-memory engine: the tuples the dead worker was handed since it
    /// was spawned — all of them are gone with its hierarchy.
    ///
    /// Durable engine: an *upper bound* on the at-risk tuples — those
    /// dispatched since the worker last acknowledged a `flush()` barrier
    /// cleanly, which may or may not have reached the store before the
    /// worker died (a batch is
    /// WAL-logged before its apply is acknowledged, so under
    /// [`crate::persist::FsyncPolicy::EveryBatch`] everything the worker
    /// acknowledged is on disk).
    ///
    /// Either way, zero means the rebuilt shard is exact.  Tuples still
    /// staged for the shard were never handed over; they flow to the fresh
    /// worker and are not counted.
    pub lost_tuples: u64,
    /// Present when the shard is durable: what reopening its on-disk
    /// store observed.  `None` on in-memory engines.
    pub disk: Option<RecoveryReport>,
}

/// State shared between the engine and one worker thread's panic wrapper.
#[derive(Debug)]
struct WorkerShared {
    /// Cleared (release) by the worker's unwind wrapper on any exit, and
    /// by the producer when a send/recv finds the channel disconnected.
    /// An `AtomicBool` rather than a mutexed flag so `&self` read paths
    /// (e.g. [`StreamingSink::nvals`]) can record a discovered loss.
    alive: AtomicBool,
    /// The captured panic payload, if the worker died panicking.
    panic_msg: Mutex<Option<String>>,
}

impl WorkerShared {
    fn new() -> Self {
        Self {
            alive: AtomicBool::new(true),
            panic_msg: Mutex::new(None),
        }
    }
}

/// Tuples handed to one shard's worker, counted the two ways
/// [`ShardRecovery::lost_tuples`] reports a loss.
#[derive(Debug, Default, Clone, Copy)]
struct Dispatched {
    /// Since the worker was spawned: what an in-memory respawn loses.
    since_spawn: u64,
    /// Since the worker last acknowledged a [`ShardedHierMatrix::flush`]
    /// barrier cleanly: what a durable respawn may lose.
    since_ack: u64,
}

/// A tuple batch travelling to a worker (and, emptied, back).
type TupleBuf<T> = (Vec<Index>, Vec<Index>, Vec<T>);

/// Commands a worker consumes from its SPSC channel.
enum WorkerMsg<T> {
    /// Apply a batch of pre-validated tuples to the shard.  The buffers
    /// return through the recycle channel.
    Apply(TupleBuf<T>),
    /// Complete the shard's outstanding cascades.
    Flush,
    /// Acknowledge once every prior message has been applied.
    Barrier(SyncSender<BarrierAck>),
    /// Answer a read from the owned shard.  Rides the same FIFO channel as
    /// `Apply`, so by the time the worker answers it has applied every
    /// previously queued batch (the drain barrier and the query are one
    /// message); the other workers keep ingesting meanwhile.
    Query(Query, SyncSender<Answer<T>>),
    /// Capture the shard at this point of its queue (Arc'd levels + the
    /// degree-index views that are live): the analytics-while-ingest
    /// handoff — the producer sweeps the capture while this worker keeps
    /// draining.
    Snapshot(SyncSender<MatrixSnapshot<T>>),
}

/// A worker's answer to a drain barrier.
struct BarrierAck {
    /// Index of the acknowledging shard.
    shard: usize,
    /// OS thread identity — round-tripped by the thread-reuse tests to
    /// prove the pool is persistent.
    worker: ThreadId,
    /// First error since the previous barrier, if any — a failed shard
    /// flush or a failed batch apply is latched worker-side and surfaces
    /// here rather than being lost.
    result: GrbResult<()>,
}

/// The producer-side handle of one persistent worker.
#[derive(Debug)]
struct ShardWorker<T> {
    /// Command channel (bounded: provides ingest backpressure).
    tx: SyncSender<WorkerMsg<T>>,
    /// Emptied tuple buffers coming back from the worker.
    recycled: Receiver<TupleBuf<T>>,
    /// The worker thread, joined on drop.
    handle: JoinHandle<()>,
    /// Liveness flag and captured panic payload.
    shared: Arc<WorkerShared>,
}

/// One batch apply inside the worker, behind the fallible
/// `worker-apply-error` fault site — a failure is latched worker-side and
/// surfaces in the next barrier ack.
#[cfg_attr(not(feature = "failpoints"), allow(unused_variables))]
fn apply_batch<T: ScalarType>(
    shard_idx: usize,
    shard: &Mutex<HierMatrix<T>>,
    rows: &[Index],
    cols: &[Index],
    vals: &[T],
) -> GrbResult<()> {
    crate::failpoint!("worker-apply-error", shard_idx);
    shard.lock().update_batch(rows, cols, vals)
}

/// The worker thread body: park on the channel, apply batches to the owned
/// shard, answer barriers.  Exits when the engine drops its sender.
fn worker_loop<T: ScalarType>(
    shard_idx: usize,
    shard: Arc<Mutex<HierMatrix<T>>>,
    rx: Receiver<WorkerMsg<T>>,
    recycle: Sender<TupleBuf<T>>,
) {
    let mut error: GrbResult<()> = Ok(());
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Apply((mut rows, mut cols, mut vals)) => {
                crate::failpoint_panic!("worker-apply", shard_idx);
                if error.is_ok() {
                    error = apply_batch(shard_idx, &shard, &rows, &cols, &vals);
                }
                rows.clear();
                cols.clear();
                vals.clear();
                // The engine may already be shutting down; dropping the
                // buffers then is fine.
                let _ = recycle.send((rows, cols, vals));
                // With fewer cores than threads a producer blocked on this
                // worker's full channel otherwise waits out the whole
                // backlog (four chunks per shard) in one stall; handing the
                // core over after each chunk lets it refill the freed slot.
                // Free when nobody else is runnable on this core.
                std::thread::yield_now();
            }
            WorkerMsg::Flush => {
                // Latch a failed flush: the next barrier ack reports it
                // instead of the outcome silently vanishing.
                let result = shard.lock().flush();
                if error.is_ok() {
                    error = result;
                }
            }
            WorkerMsg::Barrier(ack) => {
                crate::failpoint_panic!("worker-barrier", shard_idx);
                let _ = ack.send(BarrierAck {
                    shard: shard_idx,
                    worker: std::thread::current().id(),
                    result: std::mem::replace(&mut error, Ok(())),
                });
            }
            WorkerMsg::Query(query, reply) => {
                crate::failpoint_panic!("worker-query", shard_idx);
                let _ = reply.send(shard.lock().answer(&query));
            }
            WorkerMsg::Snapshot(reply) => {
                crate::failpoint_panic!("worker-query", shard_idx);
                // Settled through the observers, so the capture carries
                // each degree view that is live — and activates none.
                let mut shard = shard.lock();
                shard.settle_levels();
                let _ = reply.send(shard.snapshot_ref());
            }
        }
    }
}

/// An N-way sharded hierarchical hypersparse matrix with parallel ingest
/// over a persistent worker pool.
///
/// See the [module documentation](self) for the design.  The engine
/// implements [`StreamingSink`], so the existing `make_sink`/`drive_sink`
/// measurement harness drives it unchanged.
#[derive(Debug)]
pub struct ShardedHierMatrix<T> {
    nrows: Index,
    ncols: Index,
    config: ShardedConfig,
    /// The shard hierarchies.  A worker locks its own shard only while
    /// applying a batch; the engine locks a shard only after a drain
    /// barrier, so the mutexes are uncontended by construction.
    shards: Vec<Arc<Mutex<HierMatrix<T>>>>,
    workers: Vec<ShardWorker<T>>,
    staging: PartitionBuffers<T>,
    /// Exact sum of all successfully ingested weight (staged, in flight,
    /// or applied) — kept producer-side so [`StreamingSink::total_weight`]
    /// needs no barrier.
    ingested_weight: f64,
    /// Staged tuples since the last completed round.
    since_round: usize,
    rounds: u64,
    chunks_sent: u64,
    /// Rounds of reads put to the worker pool (never answered through a
    /// materialised matrix) — the counter the cache-hit and one-round
    /// tests assert against.
    pushdown_queries: u64,
    /// Workers consulted by the most recent round — the range-dispatch
    /// tests assert a narrow `read_row_range` on a RowRange-partitioned
    /// engine touches only the overlapping workers.
    last_fanout: usize,
    /// The held column → in-degree sum ([`read::SummedInDegrees`]).  Any staged
    /// tuple empties it; flushes and settles don't (they never change the
    /// represented union); a respawn does.
    in_degrees_cache: Option<read::SummedInDegrees>,
    /// Per shard, the tuples its worker was handed.
    dispatched: Vec<Dispatched>,
    /// Shard cut schedule, kept so [`Self::respawn_shard`] can build a
    /// fresh hierarchy identical to the lost one's.
    hier_config: HierConfig,
    /// Durable backing for the whole engine: shard `i` persists to
    /// `dir/shard-i` ([`DurableConfig::shard`]).  `None` for in-memory
    /// engines.  Kept so [`Self::respawn_shard`] can reopen a lost
    /// shard's store.
    durable: Option<DurableConfig>,
    /// First error swallowed by an infallible [`MatrixReader`] method since
    /// the last [`Self::take_read_error`] — the trait's signatures cannot
    /// carry it, so it is latched here instead of vanishing.  Mutexed so
    /// `&self` paths (e.g. [`StreamingSink::nvals`]) can latch too.
    last_error: Mutex<Option<GrbError>>,
}

/// Spawn one supervised worker thread for shard `i`: the loop runs under
/// `catch_unwind`, and any exit — panic or channel closure — clears the
/// shared liveness flag so the producer observes the death instead of
/// blocking on it.
fn spawn_worker<T: ScalarType>(
    i: usize,
    shard: Arc<Mutex<HierMatrix<T>>>,
    depth: usize,
) -> ShardWorker<T> {
    let (tx, rx) = sync_channel::<WorkerMsg<T>>(depth);
    let (recycle_tx, recycle_rx) = channel::<TupleBuf<T>>();
    let shared = Arc::new(WorkerShared::new());
    let worker_shared = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name(format!("shard-worker-{i}"))
        .spawn(move || {
            // AssertUnwindSafe: on panic the shard hierarchy may be
            // mid-mutation; the engine treats a lost shard's contents as
            // unreliable and rebuilds from scratch on respawn, so the
            // broken invariants never escape.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                worker_loop(i, shard, rx, recycle_tx)
            }));
            if let Err(payload) = outcome {
                let msg = panic_message(payload.as_ref());
                *worker_shared.panic_msg.lock() = Some(msg);
            }
            worker_shared.alive.store(false, Ordering::Release);
        })
        .expect("spawn shard worker");
    ShardWorker {
        tx,
        recycled: recycle_rx,
        handle,
        shared,
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Create an engine whose shards are `nrows x ncols` hierarchies with
    /// the cut schedule `hier_config`, spawning one persistent worker
    /// thread per shard.
    pub fn new(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, hier_config, config, None)
    }

    /// Create a *durable* engine: shard `i` persists to `durable.dir/shard-i`
    /// with the configured fsync policy.  If the per-shard directories
    /// already hold initialised stores they are reopened (crash recovery
    /// included); otherwise fresh stores are created.  Inspect what each
    /// shard's recovery observed via [`Self::shard_recovery_reports`].
    ///
    /// The shard count, dimensions, and cut schedule must match the ones
    /// the stores were created with ([`GrbError::InvalidValue`] otherwise) —
    /// re-sharding an existing store is not supported, because rows would
    /// migrate between shard directories.
    pub fn new_durable(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
        durable: DurableConfig,
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, hier_config, config, Some(durable))
    }

    fn build(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
        durable: Option<DurableConfig>,
    ) -> GrbResult<Self> {
        let nshards = config.shards.max(1);
        let depth = config.channel_depth.max(1);
        let mut shards = Vec::with_capacity(nshards);
        let mut workers = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let hier = match &durable {
                Some(dcfg) => {
                    HierMatrix::open_or_create(nrows, ncols, hier_config.clone(), dcfg.shard(i))?
                }
                None => HierMatrix::new(nrows, ncols, hier_config.clone())?,
            };
            let shard = Arc::new(Mutex::new(hier));
            workers.push(spawn_worker(i, Arc::clone(&shard), depth));
            shards.push(shard);
        }
        Ok(Self {
            nrows,
            ncols,
            config: ShardedConfig {
                shards: nshards,
                ..config
            },
            staging: PartitionBuffers::new(nshards),
            shards,
            workers,
            ingested_weight: 0.0,
            since_round: 0,
            rounds: 0,
            chunks_sent: 0,
            pushdown_queries: 0,
            last_fanout: 0,
            in_degrees_cache: None,
            dispatched: vec![Dispatched::default(); nshards],
            hier_config,
            durable,
            last_error: Mutex::new(None),
        })
    }

    /// Per-shard recovery reports from a durable open: `reports[i]` is
    /// what reopening shard `i`'s store observed, `None` when the shard
    /// was freshly created (or the engine is in-memory, in which case
    /// every entry is `None`).
    pub fn shard_recovery_reports(&self) -> Vec<Option<RecoveryReport>> {
        self.shards
            .iter()
            .map(|s| s.lock().recovery_report().cloned())
            .collect()
    }

    /// Whether this engine persists its shards to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Convenience constructor: `shards` shards with the paper-default cut
    /// schedule and default engine knobs.
    pub fn with_shards(nrows: Index, ncols: Index, shards: usize) -> GrbResult<Self> {
        Self::new(
            nrows,
            ncols,
            HierConfig::paper_default(),
            ShardedConfig::with_shards(shards),
        )
    }

    /// Number of shards (= persistent workers).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// [`GrbError::IndexOutOfBounds`] unless `i` names a shard.
    fn check_shard(&self, i: usize) -> GrbResult<()> {
        validate_index(i as Index, self.workers.len() as Index)
    }

    /// Whether shard `i`'s worker thread is alive.
    fn is_alive(&self, i: usize) -> bool {
        self.workers[i].shared.alive.load(Ordering::Acquire)
    }

    /// Indices of the lost shards, ascending.
    pub fn lost_shards(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| !self.is_alive(i))
            .collect()
    }

    /// Current supervision state of the worker pool.
    pub fn health(&self) -> EngineHealth {
        let lost = self.lost_shards();
        if lost.is_empty() {
            EngineHealth::Healthy
        } else if lost.len() == self.workers.len() {
            EngineHealth::Failed
        } else {
            EngineHealth::Degraded { lost }
        }
    }

    /// Take (and clear) the first error swallowed by an infallible
    /// [`MatrixReader`] method since the previous call.  [`Self::try_read`]
    /// never latches — prefer it on supervised engines.
    pub fn take_read_error(&self) -> Option<GrbError> {
        self.last_error.lock().take()
    }

    /// The typed error describing the given lost shards, carrying the
    /// first captured panic payload as detail.
    fn lost_error(&self, shards: Vec<usize>) -> GrbError {
        let detail = shards
            .iter()
            .find_map(|&i| self.workers[i].shared.panic_msg.lock().clone())
            .unwrap_or_else(|| "worker channel closed".to_string());
        GrbError::ShardsLost { shards, detail }
    }

    /// The typed error naming those of `shards` that are lost, if any.
    fn ensure_live(&self, shards: impl Iterator<Item = usize>) -> GrbResult<()> {
        let lost: Vec<usize> = shards.filter(|&i| !self.is_alive(i)).collect();
        if lost.is_empty() {
            Ok(())
        } else {
            Err(self.lost_error(lost))
        }
    }

    /// Record shard `i`'s worker as dead after a disconnected channel and
    /// return the typed error.
    fn mark_lost(&self, i: usize) -> GrbError {
        self.workers[i].shared.alive.store(false, Ordering::Release);
        self.lost_error(vec![i])
    }

    /// Send one command to shard `i`'s worker.  The send blocks only while
    /// the bounded channel is full of a *live* worker's backlog
    /// (backpressure); a dead worker's channel is disconnected, which
    /// returns immediately — so this cannot hang.  Returns the message on
    /// failure so callers can salvage its payload.
    fn send_msg(&self, i: usize, msg: WorkerMsg<T>) -> Result<(), WorkerMsg<T>> {
        self.workers[i].tx.send(msg).map_err(|e| e.0)
    }

    /// Bounded wait for one reply from shard `i`: a disconnect marks the
    /// worker lost; exceeding [`ShardedConfig::wait_timeout`] returns a
    /// typed timeout *without* declaring the worker dead.
    fn recv_bounded<R>(&self, i: usize, what: &'static str, rx: &Receiver<R>) -> GrbResult<R> {
        match rx.recv_timeout(self.config.wait_timeout) {
            Ok(r) => Ok(r),
            Err(RecvTimeoutError::Disconnected) => Err(self.mark_lost(i)),
            Err(RecvTimeoutError::Timeout) => Err(GrbError::Timeout {
                what,
                after_ms: self.config.wait_timeout.as_millis() as u64,
            }),
        }
    }

    /// A snapshot of one shard's hierarchy statistics (drains that shard's
    /// worker first so in-flight batches are counted).
    pub fn shard_stats(&self, i: usize) -> GrbResult<HierStats> {
        self.check_shard(i)?;
        self.barrier_shard(i)?;
        Ok(self.shards[i].lock().stats().clone())
    }

    /// Ingest rounds completed so far.  Rounds meter the stream into
    /// [`ShardedConfig::round_tuples`] slices; since the worker pool is
    /// persistent they no longer imply any thread spawns.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Tuple batches handed to workers so far.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent
    }

    /// The OS thread ids of the worker pool, obtained through a drain
    /// barrier.  Repeated calls on a live engine return the same ids —
    /// the property the thread-reuse tests assert.
    pub fn worker_ids(&self) -> GrbResult<Vec<ThreadId>> {
        let mut acks = Vec::with_capacity(self.workers.len());
        for (shard, ack) in self.collect_barrier_acks() {
            let ack = ack?;
            debug_assert_eq!(ack.shard, shard);
            ack.result?;
            acks.push((ack.shard, ack.worker));
        }
        acks.sort_by_key(|&(shard, _)| shard);
        Ok(acks.into_iter().map(|(_, worker)| worker).collect())
    }

    /// Aggregate hierarchy statistics (sums over shards, after a drain).
    pub fn aggregate_stats(&self) -> GrbResult<HierStats> {
        self.barrier_live()?;
        let levels = self.shards.first().map(|m| m.lock().levels()).unwrap_or(1);
        let mut agg = HierStats::new(levels);
        for m in &self.shards {
            let m = m.lock();
            let s = m.stats();
            agg.updates += s.updates;
            agg.materializations += s.materializations;
            for l in 0..levels {
                agg.cascades[l] += s.cascades_from_level(l);
                agg.entries_moved[l] += s.entries_moved_from_level(l);
            }
        }
        Ok(agg)
    }

    /// Apply one streaming update `A(row, col) += val`.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        let shard = self
            .config
            .partitioner
            .shard(row, self.nrows, self.shards.len());
        self.staging.push(shard, row, col, val);
        self.ingested_weight += val.to_f64();
        self.since_round += 1;
        self.in_degrees_cache = None;
        if self.staging.staged(shard) >= self.config.chunk_tuples.max(1) {
            self.dispatch_shard(shard)?;
        }
        self.maybe_complete_round()
    }

    /// Apply a batch of updates given as parallel slices.  The batch is
    /// validated up front and applies atomically.
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        check_tuple_lengths(rows, cols, vals)?;
        for i in 0..rows.len() {
            validate_index(rows[i], self.nrows)?;
            validate_index(cols[i], self.ncols)?;
        }
        let nshards = self.shards.len();
        for i in 0..rows.len() {
            let shard = self.config.partitioner.shard(rows[i], self.nrows, nshards);
            self.staging.push(shard, rows[i], cols[i], vals[i]);
            self.ingested_weight += vals[i].to_f64();
        }
        self.since_round += rows.len();
        if !rows.is_empty() {
            self.in_degrees_cache = None;
        }
        let chunk = self.config.chunk_tuples.max(1);
        for shard in 0..nshards {
            if self.staging.staged(shard) >= chunk {
                self.dispatch_shard(shard)?;
            }
        }
        self.maybe_complete_round()
    }

    /// Hand `shard`'s staged tuples to its worker: swap the staging vectors
    /// out (replaced by recycled buffers when the worker has returned any),
    /// and send them whole over the bounded channel.  Blocks when the
    /// worker is `channel_depth` batches behind — the engine's
    /// backpressure (a *dead* worker's channel is disconnected and fails
    /// immediately instead).  On a send failure the batch is re-staged, so
    /// a later [`Self::respawn_shard`] can still dispatch it; a sent batch
    /// is counted in `dispatched`.
    fn dispatch_shard(&mut self, shard: usize) -> GrbResult<()> {
        if self.staging.staged(shard) == 0 {
            return Ok(());
        }
        if !self.is_alive(shard) {
            return Err(self.lost_error(vec![shard]));
        }
        let replacement = self.workers[shard].recycled.try_recv().unwrap_or_default();
        let buf = self.staging.take_shard(shard, replacement);
        let n = buf.0.len() as u64;
        if let Err(msg) = self.send_msg(shard, WorkerMsg::Apply(buf)) {
            // The worker died between the liveness check and the send:
            // salvage the batch back into staging, where it waits for a
            // respawn instead of counting as handed over.
            if let WorkerMsg::Apply((rows, cols, vals)) = msg {
                for i in 0..rows.len() {
                    self.staging.push(shard, rows[i], cols[i], vals[i]);
                }
            }
            return Err(self.mark_lost(shard));
        }
        self.chunks_sent += 1;
        let d = &mut self.dispatched[shard];
        d.since_spawn += n;
        d.since_ack += n;
        Ok(())
    }

    /// Dispatch every live shard's staged remainder, surfacing the first
    /// failure after trying them all.
    fn dispatch_all(&mut self) -> GrbResult<()> {
        let mut result = Ok(());
        for shard in 0..self.shards.len() {
            if self.staging.staged(shard) == 0 {
                continue;
            }
            if !self.is_alive(shard) {
                // Leave the staged tuples in place for a future respawn.
                if result.is_ok() {
                    result = Err(self.lost_error(vec![shard]));
                }
                continue;
            }
            let r = self.dispatch_shard(shard);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Count a round once `round_tuples` have been staged since the last
    /// one, force-dispatching all remainders so the round is fully in
    /// flight.
    fn maybe_complete_round(&mut self) -> GrbResult<()> {
        if self.since_round >= self.config.round_tuples.max(1) {
            let r = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
            return r;
        }
        Ok(())
    }

    /// Enqueue one reply-carrying message for `shard`'s worker behind that
    /// shard's staged tuples (FIFO ⇒ the message is its own drain barrier),
    /// and hand back where the reply will arrive.
    fn post<R>(
        &mut self,
        shard: usize,
        msg: impl FnOnce(SyncSender<R>) -> WorkerMsg<T>,
    ) -> GrbResult<Receiver<R>> {
        self.dispatch_shard(shard)?;
        let (reply_tx, reply_rx) = sync_channel(1);
        if self.send_msg(shard, msg(reply_tx)).is_err() {
            return Err(self.mark_lost(shard));
        }
        Ok(reply_rx)
    }

    /// One supervised round trip to each listed worker, all in flight at
    /// once: every message is enqueued before any reply is awaited, so the
    /// workers compute concurrently, and one reply channel per worker
    /// keeps loss attribution exact.  Replies come back in `asks` order.
    fn ask_workers<Q, R>(
        &mut self,
        asks: Vec<(usize, Q)>,
        msg: impl Fn(Q, SyncSender<R>) -> WorkerMsg<T>,
    ) -> GrbResult<Vec<R>> {
        if asks.is_empty() {
            return Ok(Vec::new());
        }
        let mut pending = Vec::with_capacity(asks.len());
        for (shard, q) in asks {
            pending.push((shard, self.post(shard, |tx| msg(q, tx))?));
        }
        self.pushdown_queries += 1;
        self.last_fanout = pending.len();
        pending
            .iter()
            .map(|(shard, rx)| self.recv_bounded(*shard, "query reply", rx))
            .collect()
    }

    /// Workers consulted by the most recent pushed-down query.
    pub fn last_query_fanout(&self) -> usize {
        self.last_fanout
    }

    /// Block until `shard`'s worker has applied everything queued so far,
    /// surfacing any worker error (a failed apply or flush latched since
    /// the previous barrier) — never swallowed.
    fn barrier_shard(&self, shard: usize) -> GrbResult<()> {
        if !self.is_alive(shard) {
            return Err(self.lost_error(vec![shard]));
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.send_msg(shard, WorkerMsg::Barrier(ack_tx)).is_err() {
            return Err(self.mark_lost(shard));
        }
        let ack = self.recv_bounded(shard, "barrier ack", &ack_rx)?;
        debug_assert_eq!(ack.shard, shard);
        ack.result
    }

    /// Send a drain barrier to every *live* worker and collect the
    /// acknowledgements, one entry per shard.  A known-lost or
    /// newly-disconnected shard yields a typed error entry; the rest are
    /// still drained (all barriers are sent before any ack is awaited, so
    /// live workers drain concurrently).
    fn collect_barrier_acks(&self) -> Vec<(usize, GrbResult<BarrierAck>)> {
        let mut pending: Vec<(usize, Result<Receiver<BarrierAck>, GrbError>)> =
            Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            if !self.is_alive(i) {
                pending.push((i, Err(self.lost_error(vec![i]))));
                continue;
            }
            let (ack_tx, ack_rx) = sync_channel(1);
            match self.send_msg(i, WorkerMsg::Barrier(ack_tx)) {
                Ok(()) => pending.push((i, Ok(ack_rx))),
                Err(_) => pending.push((i, Err(self.mark_lost(i)))),
            }
        }
        pending
            .into_iter()
            .map(|(i, rx)| {
                let ack = rx.and_then(|rx| self.recv_bounded(i, "barrier ack", &rx));
                (i, ack)
            })
            .collect()
    }

    /// Drain every worker, surfacing the first error; a lost shard is one
    /// (a dead worker's hierarchy may be mid-mutation and is never read).
    fn barrier_live(&self) -> GrbResult<()> {
        self.ensure_live(0..self.workers.len())?;
        self.collect_barrier_acks()
            .into_iter()
            .try_for_each(|(_, ack)| ack.and_then(|a| a.result))
    }

    /// Complete all deferred work: dispatch staged tuples, wait for the
    /// workers to apply them, and finish every shard's outstanding
    /// cascades.  The workers stay parked on their channels afterwards.
    /// On a degraded engine the surviving shards are still flushed and the
    /// first loss is reported.  A clean ack proves its worker applied every
    /// batch it was handed, so it clears that shard's at-risk count.
    pub fn flush(&mut self) -> GrbResult<()> {
        let mut result = Ok(());
        if self.since_round > 0 || self.staging.total() > 0 {
            result = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
        }
        for i in 0..self.workers.len() {
            if !self.is_alive(i) {
                if result.is_ok() {
                    result = Err(self.lost_error(vec![i]));
                }
                continue;
            }
            if self.send_msg(i, WorkerMsg::Flush).is_err() {
                let e = self.mark_lost(i);
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        for (shard, ack) in self.collect_barrier_acks() {
            let r = ack.and_then(|a| a.result);
            if r.is_ok() {
                self.dispatched[shard].since_ack = 0;
            } else if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Materialise the full matrix `A = Σ_shards Σ_levels` (staged and
    /// in-flight tuples are applied first; streaming can continue
    /// afterwards).  A lost shard is a [`GrbError::ShardsLost`].
    pub fn materialize(&mut self) -> GrbResult<Matrix<T>> {
        self.ensure_live(0..self.workers.len())?;
        for s in 0..self.shards.len() {
            self.dispatch_shard(s)?;
        }
        self.barrier_live()?;
        Ok(self.shard_sum(&[]))
    }

    /// `Σ_shards Σ_levels` of the shards' contents, excluding `skip` (lost
    /// shards, whose hierarchies may be mid-mutation).  Callers must have
    /// drained the live workers; tuples still staged producer-side are
    /// folded in by the caller where required.  This is the *snapshot*
    /// path — it counts one materialisation per shard, which is how the
    /// tests verify that the query push-down never comes through here.
    fn shard_sum(&self, skip: &[usize]) -> Matrix<T> {
        let mut acc = Matrix::new(self.nrows, self.ncols);
        for (i, shard) in self.shards.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            let level_sum = shard.lock().materialize();
            ewise_add_into(&mut acc, &level_sum, Plus).expect("shards share dimensions");
        }
        acc
    }

    /// Rebuild shard `i` after a worker loss: fresh channels and a fresh
    /// supervised thread over the shard's own store reopened (durable) or
    /// an empty hierarchy (in-memory).  Nothing is replayed; the returned
    /// [`ShardRecovery`] counts what may be gone, so data loss is always
    /// explicit.  A no-op on a live worker.
    pub fn respawn_shard(&mut self, i: usize) -> GrbResult<ShardRecovery> {
        self.check_shard(i)?;
        if self.is_alive(i) {
            return Ok(ShardRecovery {
                shard: i,
                lost_tuples: 0,
                disk: None,
            });
        }
        // Durable shards recover from their on-disk store: checkpointed
        // levels plus the WAL tail the dead worker logged before it
        // acknowledged each apply.  The old worker's file handles are
        // harmless — the thread has already exited, so nothing writes
        // through them.
        let hier = match &self.durable {
            Some(dcfg) => HierMatrix::open_or_create(
                self.nrows,
                self.ncols,
                self.hier_config.clone(),
                dcfg.shard(i),
            )?,
            None => HierMatrix::new(self.nrows, self.ncols, self.hier_config.clone())?,
        };
        let disk = hier.recovery_report().cloned();
        let fresh = Arc::new(Mutex::new(hier));
        let depth = self.config.channel_depth.max(1);
        let old = std::mem::replace(
            &mut self.workers[i],
            spawn_worker(i, Arc::clone(&fresh), depth),
        );
        self.shards[i] = fresh;
        drop(old.tx);
        drop(old.recycled);
        // The old thread already exited (that is what being lost means);
        // join just reaps it.
        let _ = old.handle.join();
        // Answers derived from the dead shard's contents are stale now.
        self.in_degrees_cache = None;
        let d = std::mem::take(&mut self.dispatched[i]);
        let lost_tuples = if self.durable.is_some() {
            d.since_ack
        } else {
            d.since_spawn
        };
        // Tuples still staged for the shard were never sent anywhere; they
        // remain valid and flow to the fresh worker now.
        self.dispatch_shard(i)?;
        Ok(ShardRecovery {
            shard: i,
            lost_tuples,
            disk,
        })
    }

    /// Latch an error swallowed by an infallible signature (never
    /// overwrites an earlier unretrieved one).
    fn latch_err(&self, e: GrbError) {
        let mut slot = self.last_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Sum of all weight currently represented — staged, in flight, or
    /// applied.  Maintained producer-side, so this is exact at any moment
    /// and never blocks on the workers.
    pub fn total_weight_f64(&self) -> f64 {
        self.ingested_weight
    }
}

/// Join the pool on drop: closing the command channels unparks every
/// worker, which then exits its loop.  Dead workers are reaped the same
/// way (their channels are already disconnected), so dropping an engine
/// with lost shards or in-flight tuples never hangs: every live worker
/// exits as soon as it drains, and `join` on an exited thread returns
/// immediately.
impl<T> Drop for ShardedHierMatrix<T> {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.tx);
            drop(w.recycled);
            // Panics were captured by the supervision wrapper, so this
            // join cannot propagate one (propagating out of drop would
            // abort).
            let _ = w.handle.join();
        }
    }
}

/// The harness-facing interface: identical contract to every other sink in
/// the workspace, so `make_sink`/`drive_sink` measure the parallel engine
/// with the same loop that measures the single-instance systems.
impl<T: ScalarType> StreamingSink<T> for ShardedHierMatrix<T> {
    fn sink_name(&self) -> &str {
        "sharded-hier-graphblas"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.update(row, col, val)
    }

    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        self.update_batch(rows, cols, vals)
    }

    fn flush(&mut self) -> GrbResult<()> {
        ShardedHierMatrix::flush(self)
    }

    fn nvals(&self) -> usize {
        // Infallible legacy signature: drain what can be drained, latch
        // any error into `take_read_error`, and count the surviving
        // shards (a lost hierarchy may be mid-mutation and is never
        // read).  Bounded like every other wait — this cannot hang.
        for (_, ack) in self.collect_barrier_acks() {
            if let Err(e) = ack.and_then(|a| a.result) {
                self.latch_err(e);
            }
        }
        let lost = self.lost_shards();
        if self.staging.total() == 0 {
            // Shards own disjoint row sets: distinct cells simply add up.
            self.shards
                .iter()
                .enumerate()
                .filter(|(i, _)| !lost.contains(i))
                .map(|(_, s)| s.lock().nvals_exact())
                .sum()
        } else {
            // Staged tuples may collide with stored cells; settle a snapshot.
            let mut acc = self.shard_sum(&lost);
            for s in 0..self.staging.shards() {
                if lost.contains(&s) {
                    continue;
                }
                let (r, c, v) = self.staging.shard_slices(s);
                acc.accum_tuples(r, c, v).expect("staged tuples validated");
            }
            acc.nvals()
        }
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) const DIM: u64 = 1 << 32;

    fn small_cfg() -> HierConfig {
        HierConfig::from_cuts(vec![16, 128, 1024]).unwrap()
    }

    pub(super) fn tiny_engine(
        shards: usize,
        partitioner: ShardPartitioner,
    ) -> ShardedHierMatrix<u64> {
        ShardedHierMatrix::new(
            DIM,
            DIM,
            small_cfg(),
            ShardedConfig {
                shards,
                partitioner,
                chunk_tuples: 64,
                channel_depth: 2,
                round_tuples: 256,
                ..ShardedConfig::with_shards(shards)
            },
        )
        .unwrap()
    }

    pub(super) fn stream(n: u64) -> Vec<(u64, u64, u64)> {
        (0..n)
            .map(|i| ((i * 7919) % 5000 * 797_003, (i * 104_729) % 3000, i % 4 + 1))
            .collect()
    }

    #[test]
    fn matches_flat_accumulation_for_both_partitioners() {
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(4, partitioner);
            let mut flat = Matrix::<u64>::new(DIM, DIM);
            for &(r, c, v) in &stream(3000) {
                engine.update(r, c, v).unwrap();
                flat.accum_element(r, c, v).unwrap();
            }
            flat.wait();
            let snap = engine.materialize().unwrap();
            assert_eq!(
                snap.extract_tuples(),
                flat.extract_tuples(),
                "{partitioner:?}"
            );
            assert!(engine.rounds() > 1, "expected multiple ingest rounds");
            assert!(engine.chunks_sent() > engine.rounds());
        }
    }

    #[test]
    fn batch_and_single_update_agree() {
        let updates = stream(2000);
        let rows: Vec<u64> = updates.iter().map(|u| u.0).collect();
        let cols: Vec<u64> = updates.iter().map(|u| u.1).collect();
        let vals: Vec<u64> = updates.iter().map(|u| u.2).collect();

        let mut singles = tiny_engine(3, ShardPartitioner::RowHash);
        for &(r, c, v) in &updates {
            singles.update(r, c, v).unwrap();
        }
        let mut batched = tiny_engine(3, ShardPartitioner::RowHash);
        batched.update_batch(&rows, &cols, &vals).unwrap();
        assert_eq!(
            singles.materialize().unwrap().extract_tuples(),
            batched.materialize().unwrap().extract_tuples()
        );
    }

    #[test]
    fn mid_stream_query_and_flush_do_not_disturb() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        let updates = stream(1500);
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == 700 {
                let _ = engine.materialize().unwrap();
                engine.flush().unwrap();
            }
        }
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &updates {
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
    }

    #[test]
    fn weight_exact_with_staged_tuples() {
        let mut engine = tiny_engine(4, ShardPartitioner::RowHash);
        engine.update(1, 1, 10).unwrap();
        engine.update(2, 2, 5).unwrap();
        // Nothing dispatched yet (chunk_tuples = 64), weight still exact.
        assert_eq!(engine.rounds(), 0);
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.read_get(1, 1), Some(10));
        assert_eq!(StreamingSink::nvals(&engine), 2);
        engine.flush().unwrap();
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.read_get(1, 1), Some(10));
        assert_eq!(engine.aggregate_stats().unwrap().updates, 2);
    }

    #[test]
    fn bounds_rejected_and_batches_atomic() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        assert!(engine.update(DIM, 0, 1).is_err());
        assert!(engine.update(0, DIM, 1).is_err());
        assert!(engine.update_batch(&[1, DIM], &[1, 1], &[1, 1]).is_err());
        assert!(engine.update_batch(&[1], &[1, 2], &[1]).is_err());
        assert_eq!(engine.total_weight_f64(), 0.0);
        assert_eq!(StreamingSink::nvals(&engine), 0);
    }

    #[test]
    fn single_shard_works() {
        let mut engine = tiny_engine(1, ShardPartitioner::RowRange);
        for &(r, c, v) in &stream(500) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.num_shards(), 1);
        assert_eq!(engine.aggregate_stats().unwrap().updates, 500);
        // Zero shards clamps to one.
        let clamped = ShardedHierMatrix::<u64>::with_shards(100, 100, 0).unwrap();
        assert_eq!(clamped.num_shards(), 1);
    }

    #[test]
    fn sink_interface_round_trip() {
        let mut sink: Box<dyn StreamingSink<u64>> =
            Box::new(tiny_engine(3, ShardPartitioner::RowHash));
        for &(r, c, v) in &stream(800) {
            sink.insert(r, c, v).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "sharded-hier-graphblas");
        let expected: u64 = stream(800).iter().map(|u| u.2).sum();
        assert_eq!(sink.total_weight(), expected as f64);
        assert!(sink.nvals() > 0);
    }

    #[test]
    fn partitioners_cover_all_shards() {
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut seen = [false; 8];
            for r in 0..10_000u64 {
                // Spread rows over the whole index space for RowRange.
                let row = r * (DIM / 10_000);
                seen[partitioner.shard(row, DIM, 8)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{partitioner:?} starves shards");
        }
        // Rows at the very top of the space stay in range.
        assert!(ShardPartitioner::RowRange.shard(DIM - 1, DIM, 7) < 7);
        assert!(ShardPartitioner::RowHash.shard(DIM - 1, DIM, 7) < 7);
    }

    #[test]
    fn shard_stats_aggregate() {
        let mut engine = tiny_engine(4, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        let agg = engine.aggregate_stats().unwrap();
        assert_eq!(agg.updates, 2000);
        assert!(agg.total_cascades() > 0, "small cuts must cascade");
        assert!((0..engine.num_shards()).all(|i| engine.shard_stats(i).unwrap().updates > 0));
    }

    #[test]
    fn level_sweeps_and_snapshots_activate_no_degree_index() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(5000) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        let bytes = |e: &ShardedHierMatrix<u64>| -> Vec<usize> {
            e.shards.iter().map(|s| s.lock().memory_bytes()).collect()
        };
        let before = bytes(&engine);
        let _ = hyperstream_graphblas::algo::pagerank(&mut engine, 0.85, 5, 1e-9);
        assert_eq!(bytes(&engine), before, "pagerank");
        let snapshot = engine.snapshot().unwrap();
        assert_eq!(bytes(&engine), before, "snapshot");
        drop(snapshot);
        // The first degree question still activates the row index.
        let _ = engine.read_top_k(3);
        assert!(bytes(&engine).iter().zip(&before).all(|(a, b)| a > b));
    }

    #[test]
    fn out_of_range_shard_index_is_a_typed_error() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let dim = engine.num_shards() as Index;
        for i in [engine.num_shards(), usize::MAX] {
            let want = GrbError::IndexOutOfBounds {
                index: i as Index,
                dim,
            };
            assert_eq!(engine.shard_stats(i).unwrap_err(), want);
            assert_eq!(engine.respawn_shard(i).unwrap_err(), want);
        }
        // The engine is untouched: every shard still answers.
        assert!(engine.shard_stats(2).is_ok());
        assert_eq!(engine.health(), EngineHealth::Healthy);
    }

    #[test]
    fn workers_persist_across_rounds_and_flushes() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let ids_start = engine.worker_ids().unwrap();
        assert_eq!(ids_start.len(), 3);
        // All workers are distinct threads, none of them this one.
        let me = std::thread::current().id();
        assert!(ids_start.iter().all(|&id| id != me));
        for i in 0..3 {
            for j in 0..3 {
                assert!(i == j || ids_start[i] != ids_start[j]);
            }
        }
        for round in 0..5 {
            for &(r, c, v) in &stream(700) {
                engine.update(r, c, v).unwrap();
            }
            engine.flush().unwrap();
            let _ = engine.materialize().unwrap();
            assert_eq!(
                engine.worker_ids().unwrap(),
                ids_start,
                "worker set changed in round {round}"
            );
        }
        assert!(engine.rounds() >= 5);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(300) {
            engine.update(r, c, v).unwrap();
        }
        // Dropping with staged + in-flight tuples must not hang or panic.
        drop(engine);
    }
}
