//! The sharded parallel ingest engine: a **persistent pool** of N worker
//! threads, each the only owner of a [`HierMatrix`] shard, fed through
//! long-lived bounded SPSC channels.
//!
//! The paper's 75 G-updates/s headline is the *sum* of many independent
//! hierarchical hypersparse matrices, one per process.  Within one process
//! the same structure is a [`ShardedHierMatrix`]: a row hash routes every
//! update to the shard that owns its row, each shard is an ordinary
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
//! Workers are **persistent threads** spawned once at construction.  A
//! shard's hierarchy moves into its worker's thread, and no other thread
//! can reach it: the producer holds only the worker's channel.  A message
//! is either a tuple batch to apply or a job to run on the shard, and every
//! other request — a drain barrier, a flush, a read, a capture, statistics,
//! the worker's thread id — is a job that sends its own reply.  The channel
//! is FIFO, so a job runs after every batch queued before it: each job is
//! its own drain barrier.  A worker parks on its channel when idle and
//! lives until the engine is dropped — there are no per-round spawns or
//! joins, and a worker is a stable OS thread that can be pinned once (the
//! parking spot the roadmap's NUMA/affinity follow-on needs).
//!
//! Inserts are staged into per-shard partition buffers
//! ([`PartitionBuffers`]); a shard's staging is handed to its worker
//! *whole* (a zero-copy `Vec` handoff, with emptied buffers recycled back
//! through a return channel) once it reaches the hand-off size — 8192
//! tuples, or the shard's level-0 cut if that is smaller, so that a
//! hand-off never holds more than level 0 absorbs before it cascades.
//! Every 64 hand-offs' worth of staged updates the engine counts one ingest
//! *round* and dispatches all remainders.  A channel holds four hand-offs:
//! a producer that far ahead of a worker blocks (backpressure).  None of
//! these is an option; for [`HierConfig::paper_default`] they come to 8192
//! tuples, 4 hand-offs and 2^19 tuples a round.
//!
//! # The read path
//!
//! A read is a [`Query`](hyperstream_graphblas::Query) value and goes
//! **route → capture → `level_read`**, written once for anything that is a
//! set of row-disjoint shards — the live engine and a [`ShardedSnapshot`]
//! of it.  *Route* picks who can hold part of the answer: a row's one owner
//! for the reads keyed by one row, no shard when the answer is empty
//! whatever they hold (`k = 0`, an empty range), else every shard.
//! *Capture*: the answer comes from per-shard captures — a shard's settled
//! levels and, as far as they are live, the views of its degree indexes
//! and its per-level column twins, all `Arc` handles taken by one job
//! behind the shard's staged tuples.  The engine holds one capture per
//! shard between writes and takes a routed shard's only when it holds none
//! that serves the query, all in flight at once and every wait bounded; so
//! a burst of reads between two writes costs one job per shard, and each
//! read after that is answered on the producer thread.  Every write —
//! `update`, `update_batch`, `flush`, `respawn_shard` — drops all captures
//! before a tuple or job reaches a worker, so no worker ever copy-on-writes
//! a level a capture still holds.  A capture activates exactly what the
//! query would activate on a live [`HierMatrix`]: a side's degree index for
//! the degree-centric kinds, the twins for column extracts and scans.  A
//! read that needs a side's index captures every live shard with it, so no
//! later read of the burst pays one shard's activation; a snapshot,
//! `with_level_dcsrs` and `materialize` activate nothing.  *`level_read`*:
//! the routed captures, joined, are one more
//! [`LevelStore`](hyperstream_graphblas::LevelStore), answered by the one
//! level-read path every store uses, so no kind has a sharded answer of
//! its own.  Their levels (and twins) end to end are a level decomposition
//! of the matrix.  A row lives in one shard, so their row stats are
//! key-disjoint parts, which that path combines: counts add, the top-k is
//! the top-k of the parts' top-k's, histogram bins add.  A column's cells
//! split over the shards, so its stats would add only per key: the column
//! side is one part, the per-column sum of every shard's column stats
//! ([`DegreeIndex::absorb`](hyperstream_graphblas::DegreeIndex::absorb)),
//! built by the first column-stats read of a capture set and held with the
//! captures.  No read answers without a shard it is routed to: a lost one
//! is a typed error, whether or not its capture is held.
//! [`ShardedHierMatrix::try_read`] is the fallible form of all of it; the
//! engine's `MatrixReader::answer` wraps it, answers empty on an error and
//! latches the error for [`ShardedHierMatrix::take_read_error`].
//!
//! # Fault tolerance
//!
//! Every worker runs under a panic-catching supervision wrapper: a panic
//! is captured (payload preserved), the worker's shared liveness flag
//! clears, and the engine observes the death as a *typed* error —
//! [`GrbError::ShardsLost`] — instead of panicking or hanging.  The
//! producer never blocks unboundedly: sends fail immediately once a dead
//! worker's channel disconnects (a live worker always drains, so the
//! blocking send is bounded by backpressure alone), and every reply wait
//! is capped by [`ShardedConfig::wait_timeout`]
//! ([`GrbError::Timeout`]; a timeout does not declare the worker dead).
//! [`ShardedHierMatrix::health`] reports the pool state as an
//! [`EngineHealth`].  Reads are strict: one that touches a lost shard
//! returns [`GrbError::ShardsLost`], whole-matrix reads, snapshots and
//! statistics included.  [`ShardedHierMatrix::respawn_shard`] rebuilds a
//! dead worker on one recovery path: a durable shard reopens its own
//! store, an in-memory shard restarts empty, and either way the tuples
//! that may be gone are counted ([`ShardRecovery::lost_tuples`]), never
//! retained.  The `failpoints` feature
//! compiles deterministic fault-injection sites into the worker, armed
//! through the engine's own handle (`ShardedHierMatrix::failpoints`) and
//! shared by its shards alone — the chaos suite drives panics, injected
//! errors, and stalls through every one of these paths.

use crate::config::HierConfig;
use crate::failpoint::Failpoints;
use crate::matrix::{check_batch, distinct_cells, HierMatrix, Live};
use crate::persist::{DurableConfig, RecoveryReport};
use crate::pool::{row_hash, PartitionBuffers};
use crate::stats::HierStats;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::ewise_add::ewise_add_into;
use hyperstream_graphblas::GrbError;
use hyperstream_graphblas::{
    validate_index, GrbResult, Index, Matrix, MatrixSnapshot, ScalarType, StreamingSink,
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

/// How updates are routed to shards: by the row alone, so every
/// `(row, col)` cell lives in exactly one shard and per-shard results sum
/// without overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Multiplicative row hash: spreads adjacent rows across shards,
    /// robust to skewed row spaces.
    RowHash,
}

impl ShardPartitioner {
    /// The shard that owns `row` in an `nshards`-way partition (a hash
    /// needs no row count: `nrows` is ignored); the same as [`owner`].
    pub fn shard(&self, row: Index, _nrows: Index, nshards: usize) -> usize {
        owner(row, nshards)
    }
}

/// The shard that owns `row` among `nshards`, for updates and reads alike.
pub fn owner(row: Index, nshards: usize) -> usize {
    (row_hash(row) % nshards.max(1) as u64) as usize
}

/// The most tuples a shard stages before they are handed to its worker.
const MAX_HAND_OFF: u64 = 8192;

/// Hand-offs a worker's channel holds before the producer blocks.
const CHANNEL_DEPTH: usize = 4;

/// Hand-offs' worth of staged updates that make one ingest round.
const ROUND_HAND_OFFS: usize = 64;

/// Options of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of shards (= persistent worker threads).  Clamped to at
    /// least 1.
    pub shards: usize,
    /// Upper bound on any single wait for a worker's reply.  A wait that
    /// exceeds it returns [`GrbError::Timeout`] instead of blocking
    /// forever; a timeout does *not* mark the worker lost (a slow worker is
    /// not a dead one — channel disconnection is what proves death).  The
    /// default is generous: it exists to bound pathological stalls, not to
    /// race healthy workers.
    pub wait_timeout: Duration,
}

impl ShardedConfig {
    /// Default options for `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
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
    /// Some workers died; the listed shards' rows are unreachable.
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
    /// dispatched since the worker last acknowledged a `flush()` cleanly,
    /// which may or may not have reached the store before the worker died
    /// (a batch is WAL-logged before its apply is acknowledged, so under
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

/// Tuples handed to one shard's worker, counted the two ways
/// [`ShardRecovery::lost_tuples`] reports a loss.
#[derive(Debug, Default, Clone, Copy)]
struct Dispatched {
    /// Since the worker was spawned: what an in-memory respawn loses.
    since_spawn: u64,
    /// Since the worker last acknowledged a [`ShardedHierMatrix::flush`]
    /// cleanly: what a durable respawn may lose.
    since_ack: u64,
}

/// A tuple batch travelling to a worker (and, emptied, back).
type TupleBuf<T> = (Vec<Index>, Vec<Index>, Vec<T>);

/// One shard as its worker owns it.
struct Shard<T> {
    /// Which shard this is: the index the fault-injection sites report.
    idx: usize,
    hier: HierMatrix<T>,
    /// The first error since the worker last acknowledged — a failed batch
    /// apply or shard flush is latched here and surfaces in the next
    /// acknowledgement rather than being lost.  Batches are not applied
    /// while one is latched.
    error: GrbResult<()>,
}

impl<T: ScalarType> Shard<T> {
    /// Acknowledge as a drain barrier — everything queued before this job
    /// has been applied — reporting (and clearing) the latched error.
    fn ack(&mut self) -> GrbResult<()> {
        self.hier.fp.check_panic("worker-barrier", self.idx);
        std::mem::replace(&mut self.error, Ok(()))
    }

    /// Complete the shard's outstanding cascades, then acknowledge.
    fn flush(&mut self) -> GrbResult<()> {
        let flushed = self.hier.flush();
        if self.error.is_ok() {
            self.error = flushed;
        }
        self.ack()
    }

    /// The shard's statistics, after an acknowledgement.
    fn stats(&mut self) -> GrbResult<HierStats> {
        self.ack()?;
        Ok(self.hier.stats().clone())
    }

    /// Capture the shard for the producer's reads — Arc'd levels, the
    /// degree views and twins that are live, with `need` made live first
    /// — and say what is live in it.  The producer answers from the capture
    /// while this worker keeps draining.
    fn capture(&mut self, need: Live) -> (MatrixSnapshot<T>, Live) {
        self.hier.fp.check_panic("worker-query", self.idx);
        self.hier.capture(need)
    }

    /// Distinct cells of the shard with `staged` (the cells of tuples the
    /// producer still holds for it) accumulated in.  Nothing is
    /// materialised.
    fn nvals_with(&self, staged: Vec<(Index, Index)>) -> usize {
        distinct_cells(&self.hier, staged)
    }
}

/// Work a worker runs on its shard, in queue order; it sends its own reply.
type Job<T> = Box<dyn FnOnce(&mut Shard<T>) + Send>;

/// What a worker consumes from its SPSC channel.
enum WorkerMsg<T> {
    /// Apply a batch of pre-validated tuples to the shard.  The buffers
    /// return through the recycle channel.
    Apply(TupleBuf<T>),
    /// Run a job on the shard: a barrier, flush, read, capture or count.
    Run(Job<T>),
}

/// The producer's side of one shard: its worker's handle and what the
/// producer accounts for it.
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
    /// What reopening the shard's store observed when the worker was
    /// spawned; `None` when the shard was created fresh or is in-memory.
    recovery: Option<RecoveryReport>,
    /// The weight the shard represents: its hierarchy's total when the
    /// worker was spawned plus every tuple staged for it since.
    weight: f64,
    /// The tuples the worker was handed.
    dispatched: Dispatched,
}

/// The worker thread body: park on the channel, apply batches to the owned
/// shard, run jobs on it.  Exits when the engine drops its sender.
fn worker_loop<T: ScalarType>(
    mut shard: Shard<T>,
    rx: Receiver<WorkerMsg<T>>,
    recycle: Sender<TupleBuf<T>>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Apply((mut rows, mut cols, mut vals)) => {
                let hier = &mut shard.hier;
                hier.fp.check_panic("worker-apply", shard.idx);
                if shard.error.is_ok() {
                    let applied = hier.fp.check("worker-apply-error", shard.idx);
                    shard.error = applied.and_then(|()| hier.update_batch(&rows, &cols, &vals));
                }
                rows.clear();
                cols.clear();
                vals.clear();
                // The engine may already be shutting down; dropping the
                // buffers then is fine.
                let _ = recycle.send((rows, cols, vals));
                // With fewer cores than threads a producer blocked on this
                // worker's full channel otherwise waits out the whole
                // backlog (four hand-offs) in one stall; handing the core
                // over after each batch lets it refill the freed slot.
                // Free when nobody else is runnable on this core.
                std::thread::yield_now();
            }
            WorkerMsg::Run(job) => job(&mut shard),
        }
    }
}

/// Spawn one supervised worker thread that owns `hier` as shard `i`: the
/// loop runs under `catch_unwind`, and any exit — panic or channel closure
/// — clears the shared liveness flag so the producer observes the death
/// instead of blocking on it.
fn spawn_worker<T: ScalarType>(i: usize, hier: HierMatrix<T>) -> ShardWorker<T> {
    let recovery = hier.recovery_report().cloned();
    let weight = hier.total_weight_f64();
    let (tx, rx) = sync_channel::<WorkerMsg<T>>(CHANNEL_DEPTH);
    let (recycle_tx, recycle_rx) = channel::<TupleBuf<T>>();
    let shared = Arc::new(WorkerShared {
        alive: AtomicBool::new(true),
        panic_msg: Mutex::new(None),
    });
    let worker_shared = Arc::clone(&shared);
    let shard = Shard {
        idx: i,
        hier,
        error: Ok(()),
    };
    let handle = std::thread::Builder::new()
        .name(format!("shard-worker-{i}"))
        .spawn(move || {
            // AssertUnwindSafe: on panic the shard hierarchy may be
            // mid-mutation; it dies with the thread, and a respawn builds
            // a fresh one, so the broken invariants never escape.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(shard, rx, recycle_tx)));
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
        recovery,
        weight,
        dispatched: Dispatched::default(),
    }
}

impl<T> ShardWorker<T> {
    /// Close the worker's channels and reap its thread: a live worker
    /// exits as soon as it drains, a dead one already has.  Panics were
    /// captured by the supervision wrapper, so the join cannot propagate
    /// one (propagating out of drop would abort).
    fn join(self) {
        drop(self.tx);
        drop(self.recycled);
        let _ = self.handle.join();
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
    /// Staged tuples at which a shard's buffer is handed to its worker.
    hand_off: usize,
    workers: Vec<ShardWorker<T>>,
    staging: PartitionBuffers<T>,
    /// Staged tuples since the last completed round.
    since_round: usize,
    rounds: u64,
    chunks_sent: u64,
    /// What reads are answered from: the shards' captures taken since the
    /// last write, and the in-degree sum built from them.  Every write
    /// empties it before a tuple or job reaches a worker, so no worker
    /// copy-on-writes a level a capture still holds.
    held: ShardedSnapshot<T>,
    /// Capture jobs put to the workers so far.
    capture_jobs: u64,
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
    /// The fault sites of the engine, shared by every shard's hierarchy.
    fp: Failpoints,
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
        let hand_off = hier_config.cut(0).unwrap_or(u64::MAX).min(MAX_HAND_OFF) as usize;
        let mut engine = Self {
            nrows,
            ncols,
            config: ShardedConfig {
                shards: nshards,
                ..config
            },
            hand_off,
            workers: Vec::with_capacity(nshards),
            staging: PartitionBuffers::new(nshards),
            since_round: 0,
            rounds: 0,
            chunks_sent: 0,
            held: ShardedSnapshot::new(nrows, ncols, nshards),
            capture_jobs: 0,
            hier_config,
            durable,
            last_error: Mutex::new(None),
            fp: Failpoints::default(),
        };
        for i in 0..nshards {
            let hier = engine.open_shard(i)?;
            engine.workers.push(spawn_worker(i, hier));
        }
        Ok(engine)
    }

    /// Shard `i`'s hierarchy as it starts a worker: its store reopened
    /// (durable: checkpointed levels plus the WAL tail) or created, or an
    /// empty hierarchy (in-memory).  It evaluates the engine's fault sites
    /// from then on, so opening it fires none.
    fn open_shard(&self, i: usize) -> GrbResult<HierMatrix<T>> {
        let cfg = self.hier_config.clone();
        let mut hier = match &self.durable {
            Some(d) => HierMatrix::open_or_create(self.nrows, self.ncols, cfg, d.shard(i))?,
            None => HierMatrix::new(self.nrows, self.ncols, cfg)?,
        };
        hier.fp = self.fp.clone();
        Ok(hier)
    }

    /// Per-shard recovery reports from a durable open: `reports[i]` is
    /// what reopening shard `i`'s store observed, `None` when the shard
    /// was freshly created (or the engine is in-memory, in which case
    /// every entry is `None`).
    pub fn shard_recovery_reports(&self) -> Vec<Option<RecoveryReport>> {
        self.workers.iter().map(|w| w.recovery.clone()).collect()
    }

    /// Whether this engine persists its shards to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The engine's fault sites, for a test to arm: every shard, a
    /// respawned one included, evaluates them.
    #[cfg(feature = "failpoints")]
    pub fn failpoints(&self) -> &Failpoints {
        &self.fp
    }

    /// Convenience constructor: `shards` shards with the paper-default cut
    /// schedule and default engine options.
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
        self.workers.len()
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
    /// [`MatrixReader`](hyperstream_graphblas::MatrixReader) method since
    /// the previous call.  [`Self::try_read`] never latches — prefer it on
    /// supervised engines.
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

    /// Queue `job` for shard `i`'s worker behind everything sent to it so
    /// far, and hand back where its result will arrive.  The send blocks
    /// only while the bounded channel is full of a *live* worker's backlog
    /// (backpressure); a dead worker's channel is disconnected, which
    /// returns a typed error at once — so this cannot hang.
    fn post<R: Send + 'static>(
        &self,
        i: usize,
        job: impl FnOnce(&mut Shard<T>) -> GrbResult<R> + Send + 'static,
    ) -> GrbResult<Receiver<GrbResult<R>>> {
        if !self.is_alive(i) {
            return Err(self.lost_error(vec![i]));
        }
        let (reply, rx) = sync_channel(1);
        // A producer that timed out has dropped `rx`; the reply is dropped.
        let run: Job<T> = Box::new(move |shard| {
            let _ = reply.send(job(shard));
        });
        match self.workers[i].tx.send(WorkerMsg::Run(run)) {
            Ok(()) => Ok(rx),
            Err(_) => Err(self.mark_lost(i)),
        }
    }

    /// Bounded wait for shard `i`'s result: a disconnect marks the worker
    /// lost; exceeding [`ShardedConfig::wait_timeout`] returns a typed
    /// timeout *without* declaring the worker dead.
    fn recv_bounded<R>(&self, i: usize, rx: &Receiver<GrbResult<R>>) -> GrbResult<R> {
        match rx.recv_timeout(self.config.wait_timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Disconnected) => Err(self.mark_lost(i)),
            Err(RecvTimeoutError::Timeout) => Err(GrbError::Timeout {
                what: "worker reply",
                after_ms: self.config.wait_timeout.as_millis() as u64,
            }),
        }
    }

    /// Run `job` on shard `i` and wait (bounded) for its result.
    fn run<R: Send + 'static>(
        &self,
        i: usize,
        job: impl FnOnce(&mut Shard<T>) -> GrbResult<R> + Send + 'static,
    ) -> GrbResult<R> {
        let rx = self.post(i, job)?;
        self.recv_bounded(i, &rx)
    }

    /// Run `job` on each listed shard with that shard's argument, all in
    /// flight at once: every job is queued before any result is awaited,
    /// so the workers run them concurrently, and one reply channel per
    /// worker keeps loss attribution exact.  One result per ask, in order.
    fn run_each<A: Send + 'static, R: Send + 'static>(
        &self,
        asks: impl IntoIterator<Item = (usize, A)>,
        job: impl Fn(A, &mut Shard<T>) -> GrbResult<R> + Copy + Send + 'static,
    ) -> Vec<GrbResult<R>> {
        let pending: Vec<_> = asks
            .into_iter()
            .map(|(i, a)| (i, self.post(i, move |shard| job(a, shard))))
            .collect();
        pending
            .into_iter()
            .map(|(i, rx)| rx.and_then(|rx| self.recv_bounded(i, &rx)))
            .collect()
    }

    /// Every shard, each with no argument: the asks of a pool-wide job.
    fn every_shard(&self) -> impl Iterator<Item = (usize, ())> {
        (0..self.workers.len()).map(|i| (i, ()))
    }

    /// A snapshot of one shard's hierarchy statistics (drains that shard's
    /// worker first so in-flight batches are counted).
    pub fn shard_stats(&self, i: usize) -> GrbResult<HierStats> {
        self.check_shard(i)?;
        self.run(i, Shard::stats)
    }

    /// Ingest rounds completed so far.  Rounds meter the stream into
    /// slices of 64 hand-offs; since the worker pool is persistent they
    /// imply no thread spawns.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Tuple batches handed to workers so far.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent
    }

    /// The OS thread ids of the worker pool, each reported behind a drain
    /// barrier.  Repeated calls on a live engine return the same ids — the
    /// property the thread-reuse tests assert.
    pub fn worker_ids(&self) -> GrbResult<Vec<ThreadId>> {
        self.run_each(self.every_shard(), |(), shard| {
            shard.ack().map(|()| std::thread::current().id())
        })
        .into_iter()
        .collect()
    }

    /// Aggregate hierarchy statistics (sums over shards, after a drain).
    pub fn aggregate_stats(&self) -> GrbResult<HierStats> {
        self.ensure_live(0..self.workers.len())?;
        let mut agg = HierStats::new(self.hier_config.levels());
        for stats in self.run_each(self.every_shard(), |(), shard| shard.stats()) {
            let s = stats?;
            agg.updates += s.updates;
            agg.materializations += s.materializations;
            for l in 0..agg.cascades.len() {
                agg.cascades[l] += s.cascades_from_level(l);
                agg.entries_moved[l] += s.entries_moved_from_level(l);
            }
        }
        Ok(agg)
    }

    /// Stage one tuple for the shard that owns its row.
    fn stage(&mut self, row: Index, col: Index, val: T) -> usize {
        let shard = owner(row, self.workers.len());
        self.staging.push(shard, row, col, val);
        self.workers[shard].weight += val.to_f64();
        shard
    }

    /// Apply one streaming update `A(row, col) += val`.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        self.held.clear();
        let shard = self.stage(row, col, val);
        self.since_round += 1;
        if self.staging.staged(shard) >= self.hand_off {
            self.dispatch_shard(shard)?;
        }
        self.maybe_complete_round()
    }

    /// Apply a batch of updates given as parallel slices.  The batch is
    /// validated up front and applies atomically.
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        check_batch((self.nrows, self.ncols), rows, cols, vals)?;
        if !rows.is_empty() {
            self.held.clear();
        }
        for i in 0..rows.len() {
            self.stage(rows[i], cols[i], vals[i]);
        }
        self.since_round += rows.len();
        for shard in 0..self.workers.len() {
            if self.staging.staged(shard) >= self.hand_off {
                self.dispatch_shard(shard)?;
            }
        }
        self.maybe_complete_round()
    }

    /// Hand `shard`'s staged tuples to its worker: swap the staging vectors
    /// out (replaced by recycled buffers when the worker has returned any),
    /// and send them whole over the bounded channel.  Blocks when the
    /// worker's channel is full — the engine's backpressure (a *dead*
    /// worker's channel is disconnected and fails immediately instead).  On
    /// a send failure the batch is re-staged, so a later
    /// [`Self::respawn_shard`] can still dispatch it; a sent batch is
    /// counted in the shard's `dispatched`.
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
        if let Err(e) = self.workers[shard].tx.send(WorkerMsg::Apply(buf)) {
            // The worker died between the liveness check and the send:
            // salvage the batch back into staging, where it waits for a
            // respawn instead of counting as handed over.
            if let WorkerMsg::Apply((rows, cols, vals)) = e.0 {
                for i in 0..rows.len() {
                    self.staging.push(shard, rows[i], cols[i], vals[i]);
                }
            }
            return Err(self.mark_lost(shard));
        }
        self.chunks_sent += 1;
        let d = &mut self.workers[shard].dispatched;
        d.since_spawn += n;
        d.since_ack += n;
        Ok(())
    }

    /// Dispatch every live shard's staged remainder, surfacing the first
    /// failure after trying them all.  A lost shard's tuples stay staged
    /// for a future respawn.
    fn dispatch_all(&mut self) -> GrbResult<()> {
        let mut result = Ok(());
        for shard in 0..self.workers.len() {
            let r = self.dispatch_shard(shard);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Count a round once 64 hand-offs' worth of tuples have been staged
    /// since the last one, force-dispatching all remainders so the round is
    /// fully in flight.
    fn maybe_complete_round(&mut self) -> GrbResult<()> {
        if self.since_round >= ROUND_HAND_OFFS * self.hand_off {
            let r = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
            return r;
        }
        Ok(())
    }

    /// Capture jobs put to the workers so far: one for each shard a read
    /// found without a capture that serves it.  A burst of reads with no
    /// write in between adds at most one per shard and side activated.
    pub fn capture_jobs(&self) -> u64 {
        self.capture_jobs
    }

    /// Complete all deferred work: dispatch staged tuples, wait for the
    /// workers to apply them, and finish every shard's outstanding
    /// cascades.  The workers stay parked on their channels afterwards.
    /// On a degraded engine the surviving shards are still flushed and the
    /// first loss is reported.  A clean acknowledgement proves its worker
    /// applied every batch it was handed, so it clears that shard's
    /// at-risk count.
    pub fn flush(&mut self) -> GrbResult<()> {
        self.held.clear();
        let mut result = Ok(());
        if self.since_round > 0 || self.staging.total() > 0 {
            result = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
        }
        let acks = self.run_each(self.every_shard(), |(), shard| shard.flush());
        for (w, ack) in self.workers.iter_mut().zip(acks) {
            match ack {
                Ok(()) => w.dispatched.since_ack = 0,
                Err(e) if result.is_ok() => result = Err(e),
                Err(_) => {}
            }
        }
        result
    }

    /// Materialise the full matrix `A = Σ_shards Σ_levels` (staged and
    /// in-flight tuples are applied first; streaming can continue
    /// afterwards).  A lost shard is a [`GrbError::ShardsLost`].  Each
    /// shard counts one materialisation, which is how the tests verify
    /// that the query push-down never comes through here.
    pub fn materialize(&mut self) -> GrbResult<Matrix<T>> {
        self.ensure_live(0..self.workers.len())?;
        self.dispatch_all()?;
        let parts = self.run_each(self.every_shard(), |(), shard| {
            shard.ack()?;
            Ok(shard.hier.materialize())
        });
        let mut acc = Matrix::new(self.nrows, self.ncols);
        for part in parts {
            ewise_add_into(&mut acc, &part?, Plus)?;
        }
        Ok(acc)
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
        // Answers derived from the dead shard's contents are stale now.
        self.held.clear();
        // The old worker's file handles are harmless — the thread has
        // already exited, so nothing writes through them.
        let mut fresh = spawn_worker(i, self.open_shard(i)?);
        // Tuples still staged for the shard were never sent anywhere; they
        // remain valid, stay counted, and flow to the fresh worker now.
        let (_, _, staged) = self.staging.shard_slices(i);
        fresh.weight += staged.iter().map(|v| v.to_f64()).sum::<f64>();
        let disk = fresh.recovery.clone();
        let old = std::mem::replace(&mut self.workers[i], fresh);
        let lost_tuples = if self.durable.is_some() {
            old.dispatched.since_ack
        } else {
            old.dispatched.since_spawn
        };
        old.join();
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

    /// Sum of all weight currently represented — stored, staged, or in
    /// flight.  Maintained producer-side per shard (seeded from what each
    /// shard's store held when its worker was spawned), so this is exact
    /// at any moment and never blocks on the workers.
    pub fn total_weight_f64(&self) -> f64 {
        self.workers.iter().map(|w| w.weight).sum()
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
        self.workers.drain(..).for_each(ShardWorker::join);
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
        // Infallible legacy signature: every shard acknowledges and counts
        // its cells with the tuples still staged for it (shards own
        // disjoint row sets, so the counts add); an error is latched into
        // `take_read_error`, and a lost shard counts nothing (its
        // hierarchy died with its worker).  Bounded like every other wait.
        let ask = |i| {
            let (r, c, _) = self.staging.shard_slices(i);
            (i, r.iter().copied().zip(c.iter().copied()).collect())
        };
        let counts = self.run_each((0..self.workers.len()).map(ask), |staged, shard| {
            Ok((shard.ack(), shard.nvals_with(staged)))
        });
        let mut total = 0;
        for count in counts {
            let (acked, n) = count.unwrap_or_else(|e| (Err(e), 0));
            total += n;
            if let Err(e) = acked {
                self.latch_err(e);
            }
        }
        total
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperstream_graphblas::MatrixReader;

    pub(super) const DIM: u64 = 1 << 32;

    pub(super) fn small_cfg() -> HierConfig {
        HierConfig::from_cuts(vec![16, 128, 1024]).unwrap()
    }

    /// An engine over `small_cfg`: hand-offs of 16 tuples, rounds of 1024.
    pub(super) fn tiny_engine(shards: usize) -> ShardedHierMatrix<u64> {
        ShardedHierMatrix::new(DIM, DIM, small_cfg(), ShardedConfig::with_shards(shards)).unwrap()
    }

    pub(super) fn stream(n: u64) -> Vec<(u64, u64, u64)> {
        (0..n)
            .map(|i| ((i * 7919) % 5000 * 797_003, (i * 104_729) % 3000, i % 4 + 1))
            .collect()
    }

    pub(super) fn flat_of(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in updates {
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        flat
    }

    #[test]
    fn matches_flat_accumulation() {
        let mut engine = tiny_engine(4);
        let updates = stream(3000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let snap = engine.materialize().unwrap();
        assert_eq!(snap.extract_tuples(), flat_of(&updates).extract_tuples());
        assert!(engine.rounds() > 1, "expected multiple ingest rounds");
        assert!(engine.chunks_sent() > engine.rounds());
    }

    /// The hand-off, channel depth and round are derived, not options:
    /// `paper_default` gets 8192 / 4 / 2^19 (what the `sharded_ingest`
    /// benchmark workload runs with), and a small level-0 cut gets a small
    /// hand-off that dispatches at its threshold while a full channel
    /// holds the producer.
    #[test]
    fn hand_off_is_derived_from_the_level_0_cut() {
        let paper = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 1).unwrap();
        assert_eq!(
            (
                paper.hand_off,
                CHANNEL_DEPTH,
                ROUND_HAND_OFFS * paper.hand_off
            ),
            (8192, 4, 1 << 19)
        );
        let mut engine = tiny_engine(1);
        assert_eq!(engine.hand_off, 16);
        // Stall the worker in a job, then stage four hand-offs and most of
        // a fifth: each goes out the moment it is full.
        let (release, stalled) = sync_channel::<()>(0);
        let job = engine.post(0, move |_| Ok(stalled.recv().is_ok())).unwrap();
        let updates = stream(4 * 16 + 15);
        for (n, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            assert_eq!(engine.chunks_sent(), (n as u64 + 1) / 16);
        }
        assert_eq!(engine.staging.staged(0), 15);
        // The four hand-offs fill the channel behind the stalled job: one
        // more message would block the producer.
        let probe = WorkerMsg::Run(Box::new(|_: &mut Shard<u64>| {}));
        assert!(matches!(
            engine.workers[0].tx.try_send(probe),
            Err(std::sync::mpsc::TrySendError::Full(_))
        ));
        release.send(()).unwrap();
        assert_eq!(engine.recv_bounded(0, &job), Ok(true));
        assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat_of(&updates).extract_tuples()
        );
    }

    #[test]
    fn batch_and_single_update_agree() {
        let updates = stream(2000);
        let rows: Vec<u64> = updates.iter().map(|u| u.0).collect();
        let cols: Vec<u64> = updates.iter().map(|u| u.1).collect();
        let vals: Vec<u64> = updates.iter().map(|u| u.2).collect();

        let mut singles = tiny_engine(3);
        for &(r, c, v) in &updates {
            singles.update(r, c, v).unwrap();
        }
        let mut batched = tiny_engine(3);
        batched.update_batch(&rows, &cols, &vals).unwrap();
        assert_eq!(
            singles.materialize().unwrap().extract_tuples(),
            batched.materialize().unwrap().extract_tuples()
        );
    }

    #[test]
    fn mid_stream_query_and_flush_do_not_disturb() {
        let mut engine = tiny_engine(2);
        let updates = stream(1500);
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == 700 {
                let _ = engine.materialize().unwrap();
                engine.flush().unwrap();
            }
        }
        assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat_of(&updates).extract_tuples()
        );
    }

    #[test]
    fn weight_exact_with_staged_tuples() {
        let mut engine = tiny_engine(4);
        engine.update(1, 1, 10).unwrap();
        engine.update(2, 2, 5).unwrap();
        // Nothing dispatched yet (hand-offs of 16), weight still exact.
        assert_eq!(engine.rounds(), 0);
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.read_get(1, 1), Some(10));
        assert_eq!(StreamingSink::nvals(&engine), 2);
        engine.flush().unwrap();
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.read_get(1, 1), Some(10));
        assert_eq!(engine.aggregate_stats().unwrap().updates, 2);
    }

    /// Counting cells mid-stream — tuples staged, in flight and pending in
    /// level 0, some on cells the levels already hold — looks the staged
    /// and pending cells up in each shard's settled levels; it materialises
    /// nothing.
    #[test]
    fn nvals_mid_stream_counts_without_materializing() {
        for shards in 1..=4 {
            let mut engine = tiny_engine(shards);
            let updates = stream(1000);
            for (i, &(r, c, v)) in updates.iter().enumerate() {
                engine.update(r, c, v).unwrap();
                if i % 97 == 0 {
                    let want = flat_of(&updates[..=i]).nvals();
                    assert_eq!(StreamingSink::nvals(&engine), want, "{shards} shards, {i}");
                }
            }
            let stats = engine.aggregate_stats().unwrap();
            assert_eq!(stats.materializations, 0, "{shards} shards");
            assert!(engine.take_read_error().is_none());
        }
    }

    #[test]
    fn bounds_rejected_and_batches_atomic() {
        let mut engine = tiny_engine(2);
        assert!(engine.update(DIM, 0, 1).is_err());
        assert!(engine.update(0, DIM, 1).is_err());
        assert!(engine.update_batch(&[1, DIM], &[1, 1], &[1, 1]).is_err());
        assert!(engine.update_batch(&[1], &[1, 2], &[1]).is_err());
        assert_eq!(engine.total_weight_f64(), 0.0);
        assert_eq!(StreamingSink::nvals(&engine), 0);
    }

    #[test]
    fn single_shard_works() {
        let mut engine = tiny_engine(1);
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
        let mut sink: Box<dyn StreamingSink<u64>> = Box::new(tiny_engine(3));
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
    fn partitioner_covers_all_shards() {
        let mut seen = [false; 8];
        for r in 0..10_000u64 {
            seen[ShardPartitioner::RowHash.shard(r * (DIM / 10_000), DIM, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "the row hash starves shards");
        // Rows at the very top of the space stay in range.
        assert!(ShardPartitioner::RowHash.shard(DIM - 1, DIM, 7) < 7);
    }

    #[test]
    fn shard_stats_aggregate() {
        let mut engine = tiny_engine(4);
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
        let mut engine = tiny_engine(2);
        for &(r, c, v) in &stream(5000) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        let bytes = |e: &ShardedHierMatrix<u64>| -> Vec<usize> {
            e.run_each(e.every_shard(), |(), s| Ok(s.hier.memory_bytes()))
                .into_iter()
                .map(Result::unwrap)
                .collect()
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
        let mut engine = tiny_engine(3);
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
        let mut engine = tiny_engine(3);
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
        let mut engine = tiny_engine(2);
        for &(r, c, v) in &stream(300) {
            engine.update(r, c, v).unwrap();
        }
        // Dropping with staged + in-flight tuples must not hang or panic.
        drop(engine);
    }
}
