#![cfg(feature = "failpoints")]
#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Chaos suite for the supervised sharded engine (`--features failpoints`).
//!
//! Each case arms a deterministic failpoint (worker panic, injected apply
//! error, or an injected stall), drives a stream into a
//! `ShardedHierMatrix`, and asserts the fault-tolerance contract:
//!
//! * a worker panic never panics the producer and never hangs it — every
//!   wait is bounded by `ShardedConfig::wait_timeout`;
//! * failures surface as *typed* errors (`GrbError::ShardsLost`,
//!   `GrbError::Timeout`, `GrbError::Injected`) naming the lost shards, and
//!   every `Query` kind routed to a lost shard refuses rather than answer
//!   without it;
//! * `respawn_shard` restarts an in-memory shard empty and counts exactly
//!   the tuples it held; every `Query` kind then combines the empty shard
//!   with the others into the flat oracle of what is left;
//! * dropping the engine mid-fault (barrier outstanding, worker dead)
//!   completes in bounded time.
//!
//! The failpoint registry is process-global, so every test serialises
//! through [`exclusive`], which also disarms all sites on scope exit.
//! That keeps armed sites from leaking into a concurrently running test.

mod common;

use common::{build_flat, reference_top_k, sharded, update_stream, DIM};
use hyperstream::hier::failpoint::{self, FailAction};
use hyperstream::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Global test-order lock: held for the duration of any test that arms
/// failpoints.  Disarms everything when released, even on panic.
static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Exclusive(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for Exclusive {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

fn exclusive() -> Exclusive {
    // A previous test panicking under the lock poisons it; the registry is
    // reset below, so the poison carries no state worth propagating.
    let guard = REGISTRY_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    failpoint::disarm_all();
    quiet_failpoint_panics();
    Exclusive(guard)
}

/// Injected worker panics are the *point* of this suite; silence their
/// default backtrace spew while leaving every other panic loud.
fn quiet_failpoint_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                previous(info);
            }
        }));
    });
}

/// One query of every kind: the row-targeted ones aimed at `row`, the rest
/// at the whole matrix.
fn every_kind(row: u64, col: u64, k: usize) -> Vec<Query> {
    vec![
        Query::Get(row, col),
        Query::Row(row),
        Query::RowDegree(row),
        Query::RowReduce(row),
        Query::TopK(k),
        Query::Nnz,
        Query::Entries,
        Query::RowRange(0, DIM),
        Query::DegreeHistogram,
        Query::Col(col),
        Query::ColDegree(col),
        Query::ColReduce(col),
        Query::InTopK(k),
        Query::InDegreeHistogram,
        Query::ColRange(0, DIM),
    ]
}

/// The first update on a row `victim` owns (`of_victim`) or does not.
fn update_owned(
    updates: &[(u64, u64, u64)],
    shards: usize,
    victim: usize,
    of_victim: bool,
) -> Option<(u64, u64, u64)> {
    let owner = |r| ShardPartitioner::RowHash.shard(r, DIM, shards);
    updates
        .iter()
        .copied()
        .find(|&(r, _, _)| (owner(r) == victim) == of_victim)
}

/// A small engine whose level-0 cut of 4 hands every four updates a shard
/// stages to its worker.
fn chaos_engine(shards: usize) -> ShardedHierMatrix<u64> {
    sharded(shards, &[4, 64])
}

/// Wait (bounded) for a worker loss to become visible producer-side; a
/// panicking worker clears its liveness flag when its thread unwinds, a
/// hair after the failpoint fires.
fn await_loss(engine: &ShardedHierMatrix<u64>, victim: usize, bound: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < bound {
        if engine.lost_shards().contains(&victim) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A worker panic mid-stream: the producer must never panic or hang,
    // every surfaced error must be `ShardsLost` naming exactly the victim,
    // and health must degrade to report it.  Reads touching the loss fail
    // typed, and the infallible `MatrixReader` signatures answer defaults
    // while latching the error.
    #[test]
    fn worker_panic_mid_stream_is_typed_and_bounded(
        updates in update_stream(200, 64, 400),
        shards in 2usize..=8,
        victim_sel in 0usize..8,
        nth in 1u64..4,
    ) {
        let _fp = exclusive();
        let victim = victim_sel % shards;
        failpoint::arm_at("worker-apply", Some(victim), nth, FailAction::Panic);
        let mut engine = chaos_engine(shards);
        for &(r, c, v) in &updates {
            if let Err(e) = engine.update(r, c, v) {
                match e {
                    GrbError::ShardsLost { shards: lost, .. } => {
                        prop_assert_eq!(lost, vec![victim])
                    }
                    other => prop_assert!(false, "unexpected ingest error: {other}"),
                }
            }
        }
        let flushed = engine.flush();
        if failpoint::fired("worker-apply") == 0 {
            // The victim never saw its nth batch — nothing may have failed.
            prop_assert!(flushed.is_ok());
            prop_assert_eq!(engine.health(), EngineHealth::Healthy);
            return;
        }
        // The flush barrier discovers the death: typed error, degraded
        // health, and strict reads refuse while infallible reads latch.
        prop_assert!(
            matches!(&flushed, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![victim]),
            "flush reported {flushed:?}"
        );
        prop_assert_eq!(engine.health(), EngineHealth::Degraded { lost: vec![victim] });
        // Every kind whose route reaches the victim refuses, typed; its
        // infallible dual answers empty and latches the same error, once.
        let is_the_loss = |e: &GrbError| matches!(e, GrbError::ShardsLost { shards, .. } if shards == &vec![victim]);
        let (lost_row, col, _) = update_owned(&updates, shards, victim, true).unwrap();
        let live = update_owned(&updates, shards, victim, false);
        for q in every_kind(lost_row, col, 5) {
            let refused = engine.try_read(q);
            prop_assert!(matches!(&refused, Err(e) if is_the_loss(e)), "{q:?}: {refused:?}");
            prop_assert!(engine.take_read_error().is_none(), "try_read latched on {q:?}");
            prop_assert_eq!(engine.answer(&q), Answer::empty_for(&q));
            let latched = engine.take_read_error();
            prop_assert!(matches!(&latched, Some(e) if is_the_loss(e)), "{q:?}: {latched:?}");
            prop_assert!(engine.take_read_error().is_none());
        }
        // A read routed past the victim is answered in full.
        if let Some((row, col, _)) = live {
            let mut flat = build_flat(&updates);
            for q in [
                Query::Get(row, col),
                Query::Row(row),
                Query::RowDegree(row),
                Query::RowReduce(row),
                Query::TopK(0),
            ] {
                let want = flat.answer(&q);
                prop_assert_eq!(engine.try_read(q), Ok(want), "{:?}", &q);
            }
        }
        let is_lost = |r: GrbResult<()>| matches!(r, Err(GrbError::ShardsLost { .. }));
        prop_assert!(is_lost(engine.materialize().map(drop)));
        prop_assert!(is_lost(engine.snapshot().map(drop)));
        prop_assert!(is_lost(engine.aggregate_stats().map(drop)));
    }

    // A worker that dies after applying its whole share restarts empty: the
    // respawn counts exactly the tuples it held, and every kind combines
    // the empty shard with the others into the flat oracle of the first
    // stream without the victim's rows plus the whole second stream.
    #[test]
    fn restarted_empty_shard_combines_exactly_for_every_kind(
        first in update_stream(200, 64, 300),
        second in update_stream(200, 64, 300),
        victim_sel in 0usize..4,
        k in 1usize..10,
    ) {
        let _fp = exclusive();
        for shards in [2usize, 4] {
            let victim = victim_sel % shards;
            let owned = |r| ShardPartitioner::RowHash.shard(r, DIM, shards) == victim;
            failpoint::disarm_all();
            failpoint::arm_at("worker-barrier", Some(victim), 1, FailAction::Panic);
            let mut engine = chaos_engine(shards);
            for &(r, c, v) in &first {
                engine.update(r, c, v).unwrap();
            }
            // Hold a summed in-degree map built with the victim in it.
            let _ = engine.try_read(Query::InTopK(k)).unwrap();
            // The flush barrier is the victim's first: it has applied and
            // flushed everything it was handed, then dies.
            let flushed = engine.flush();
            prop_assert!(
                matches!(&flushed, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![victim]),
                "flush reported {flushed:?}"
            );
            let recovery = engine.respawn_shard(victim).unwrap();
            let held = first.iter().filter(|u| owned(u.0)).count() as u64;
            prop_assert_eq!(recovery.lost_tuples, held);
            prop_assert_eq!(engine.health(), EngineHealth::Healthy);
            // The respawn dropped the held sum: no ranking still counts
            // the victim's lost columns.
            let mut kept: Vec<(u64, u64, u64)> =
                first.iter().copied().filter(|u| !owned(u.0)).collect();
            let q = Query::InTopK(k);
            prop_assert_eq!(engine.try_read(q), Ok(build_flat(&kept).answer(&q)));
            for &(r, c, v) in &second {
                engine.update(r, c, v).unwrap();
            }
            kept.extend_from_slice(&second);
            let mut flat = build_flat(&kept);
            // Aim the row-targeted kinds at a row the victim lost, then a
            // row extract and a point get at one it owns again after the
            // respawn.
            let (row, col, _) = update_owned(&first, shards, victim, true).unwrap_or(first[0]);
            let (again, again_col, _) = update_owned(&second, shards, victim, true).unwrap_or(second[0]);
            let mut snap = engine.snapshot().unwrap();
            let owned_again = [Query::Row(again), Query::Get(again, again_col)];
            for q in every_kind(row, col, k).into_iter().chain(owned_again) {
                let want = flat.answer(&q);
                prop_assert_eq!(engine.try_read(q), Ok(want.clone()), "{} shards: {:?}", shards, &q);
                prop_assert_eq!(snap.answer(&q), want, "{} shards, snapshot: {:?}", shards, &q);
            }
            prop_assert!(engine.take_read_error().is_none());
        }
    }
}

/// The stream `updates` as one batch's parallel slices.
fn batch_of(updates: &[(u64, u64, u64)]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (rows, (cols, vals)) = updates.iter().map(|&(r, c, v)| (r, (c, v))).unzip();
    (rows, cols, vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Read-your-writes across held captures, at 1..=4 shards: the stream
    // goes in as single updates and as batches, with flushes and one worker
    // kill followed by a respawn between them, and a query of every kind
    // after each step.  Every answer equals the flat oracle of what the
    // engine acknowledged: every update, less the rows the killed shard
    // held (an in-memory respawn restarts it empty).  The kill comes while
    // every shard's capture is held: reads routed to the victim refuse,
    // reads routed past it answer from the captures.
    #[test]
    fn captures_read_your_writes_across_a_kill_and_respawn(
        updates in update_stream(200, 64, 300),
        steps in prop::collection::vec(0u8..4, 4usize..10),
        shards in 1usize..=4,
        victim_sel in 0usize..4,
        k in 1usize..8,
    ) {
        let _fp = exclusive();
        let victim = victim_sel % shards;
        let owned = |r| ShardPartitioner::RowHash.shard(r, DIM, shards) == victim;
        let is_the_loss = |r: &GrbResult<Answer<u64>>| {
            matches!(r, Err(GrbError::ShardsLost { shards, .. }) if shards == &vec![victim])
        };
        let mut engine = chaos_engine(shards);
        let mut kept: Vec<(u64, u64, u64)> = Vec::new();
        let mut killed = false;
        let chunk = updates.len().div_ceil(steps.len());
        for (&step, part) in steps.iter().zip(updates.chunks(chunk)) {
            let (rows, cols, vals) = batch_of(part);
            match step {
                0 => {
                    for &(r, c, v) in part {
                        engine.update(r, c, v).unwrap();
                    }
                }
                1 => engine.update_batch(&rows, &cols, &vals).unwrap(),
                2 => {
                    engine.update_batch(&rows, &cols, &vals).unwrap();
                    engine.flush().unwrap();
                }
                _ if killed => engine.update_batch(&rows, &cols, &vals).unwrap(),
                _ => {
                    killed = true;
                    engine.update_batch(&rows, &cols, &vals).unwrap();
                    engine.flush().unwrap();
                    kept.extend_from_slice(part);
                    // Every shard captured, the row index live; then the
                    // victim dies at its next acknowledgement.
                    let mut flat = build_flat(&kept);
                    prop_assert_eq!(engine.try_read(Query::Nnz), Ok(flat.answer(&Query::Nnz)));
                    failpoint::arm_at("worker-barrier", Some(victim), 1, FailAction::Panic);
                    let stats = engine.shard_stats(victim);
                    prop_assert!(matches!(stats, Err(GrbError::ShardsLost { .. })), "{stats:?}");
                    failpoint::disarm_all();
                    for &(r, c, _) in part.iter().take(4) {
                        for q in [Query::Get(r, c), Query::RowDegree(r), Query::Row(r)] {
                            let got = engine.try_read(q);
                            if owned(r) {
                                prop_assert!(is_the_loss(&got), "{:?}: {:?}", &q, got);
                            } else {
                                prop_assert_eq!(got, Ok(flat.answer(&q)), "{:?}", &q);
                            }
                        }
                    }
                    prop_assert!(is_the_loss(&engine.try_read(Query::TopK(k))));
                    let recovery = engine.respawn_shard(victim).unwrap();
                    let held = kept.iter().filter(|u| owned(u.0)).count() as u64;
                    prop_assert_eq!(recovery.lost_tuples, held);
                    kept.retain(|u| !owned(u.0));
                    continue;
                }
            }
            kept.extend_from_slice(part);
            let mut flat = build_flat(&kept);
            let (row, col, _) = part[0];
            for q in every_kind(row, col, k) {
                let want = flat.answer(&q);
                prop_assert_eq!(engine.try_read(q), Ok(want), "step {}: {:?}", step, &q);
            }
        }
        prop_assert!(engine.take_read_error().is_none());
        prop_assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }
}

/// Satellite regression: a worker-side apply error (injected, but standing
/// in for any failed batch apply) is latched and surfaces in the *next*
/// barrier ack — `flush` reports it — instead of being silently dropped.
/// The worker stays alive and the engine recovers on the next round.
#[test]
fn injected_apply_error_surfaces_at_flush() {
    let _fp = exclusive();
    failpoint::arm("worker-apply-error", 1, FailAction::Error);
    let mut engine = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 2).unwrap();
    engine.update(7, 9, 3).unwrap();
    let flushed = engine.flush();
    assert_eq!(flushed, Err(GrbError::Injected("worker-apply-error")));
    assert_eq!(engine.health(), EngineHealth::Healthy);
    // The latched error was consumed by the report; the engine is clean.
    engine.update(8, 10, 4).unwrap();
    engine.flush().unwrap();
}

/// An injected stall longer than `wait_timeout` surfaces as a typed
/// `Timeout` — and a slow worker is *not* a dead one: health stays
/// `Healthy` and the engine answers exactly once the stall clears.
#[test]
fn stalled_worker_times_out_without_being_marked_lost() {
    let _fp = exclusive();
    failpoint::arm(
        "worker-barrier",
        1,
        FailAction::Sleep(Duration::from_millis(400)),
    );
    let mut engine = ShardedHierMatrix::<u64>::new(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![8, 64]).unwrap(),
        ShardedConfig {
            wait_timeout: Duration::from_millis(50),
            ..ShardedConfig::with_shards(2)
        },
    )
    .unwrap();
    engine.update(3, 4, 5).unwrap();
    engine.update(1 << 20, 4, 6).unwrap();
    let flushed = engine.flush();
    assert!(
        matches!(flushed, Err(GrbError::Timeout { .. })),
        "expected a typed timeout, got {flushed:?}"
    );
    assert_eq!(engine.health(), EngineHealth::Healthy);
    // Let the stall clear, then the same engine answers in full.
    std::thread::sleep(Duration::from_millis(450));
    engine.flush().unwrap();
    assert_eq!(engine.try_read(Query::Nnz), Ok(Answer::Count(2)));
}

/// Drop-under-load: tearing the engine down while a barrier is still
/// outstanding (its ack wait timed out against a stalled worker) must
/// complete in bounded time — the `Drop` join waits for the stall to
/// clear, never forever.
#[test]
fn drop_with_barrier_outstanding_is_bounded() {
    let _fp = exclusive();
    failpoint::arm(
        "worker-barrier",
        1,
        FailAction::Sleep(Duration::from_millis(300)),
    );
    let start = Instant::now();
    {
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![8, 64]).unwrap(),
            ShardedConfig {
                wait_timeout: Duration::from_millis(20),
                ..ShardedConfig::with_shards(3)
            },
        )
        .unwrap();
        for i in 0..32u64 {
            engine.update(i * 1_000_003, i, 1).unwrap();
        }
        let flushed = engine.flush();
        assert!(
            matches!(flushed, Err(GrbError::Timeout { .. })),
            "expected a timed-out barrier, got {flushed:?}"
        );
        // Engine dropped here with the slept barrier still in flight.
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "drop with an outstanding barrier took {:?}",
        start.elapsed()
    );
}

/// Drop-under-load: dropping an engine whose worker has already panicked
/// is clean and bounded — the poison-pill loop must not wait on the dead
/// worker's channel, and the captured panic must not resurface.
#[test]
fn drop_after_worker_panic_is_bounded() {
    let _fp = exclusive();
    failpoint::arm_at("worker-apply", Some(0), 1, FailAction::Panic);
    let start = Instant::now();
    {
        // A level-0 cut of 1: every update reaches its worker on its own.
        let mut engine = sharded(3, &[1, 64]);
        for i in 0..64u64 {
            let _ = engine.update(i * 1_000_003, i, 1);
        }
        assert!(
            await_loss(&engine, 0, Duration::from_secs(10)),
            "victim worker never died"
        );
        // Engine dropped here with shard 0 dead and batches still staged.
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "drop after a worker panic took {:?}",
        start.elapsed()
    );
}

/// Hierarchy-level fault sites compose with the sharded supervisor: an
/// injected `HierMatrix` flush failure inside one worker is latched and
/// reported by the engine-level flush, exactly like a batch-apply error.
#[test]
fn injected_hier_flush_error_propagates_through_engine() {
    let _fp = exclusive();
    failpoint::arm("hier-flush", 1, FailAction::Error);
    let mut engine = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 2).unwrap();
    engine.update(11, 13, 2).unwrap();
    let flushed = engine.flush();
    assert_eq!(flushed, Err(GrbError::Injected("hier-flush")));
    assert_eq!(engine.health(), EngineHealth::Healthy);
    engine.flush().unwrap();
}

/// Failpoints compiled in, nothing armed: a sharded batch ingest and the
/// read battery fire no site and every answer equals the flat matrix — a
/// fault-capable build that injects nothing behaves like a plain one.
#[test]
fn disarmed_build_fires_nothing_and_answers_like_flat() {
    let _fp = exclusive();
    let updates: Vec<(u64, u64, u64)> = (0..4_000u64)
        .map(|i| {
            (
                ((i % 97) * 20_000_019) % DIM,
                ((i * 7 % 211) * 40_000_003) % DIM,
                1 + i % 3,
            )
        })
        .collect();
    let (rows, (cols, vals)): (Vec<u64>, (Vec<u64>, Vec<u64>)) =
        updates.iter().map(|&(r, c, v)| (r, (c, v))).unzip();
    let mut engine = chaos_engine(3);
    engine.insert_batch(&rows, &cols, &vals).unwrap();
    engine.flush().unwrap();
    let mut flat = build_flat(&updates);

    assert_eq!(engine.read_nnz(), flat.nvals());
    assert_eq!(engine.read_top_k(10), reference_top_k(&flat, 10));
    assert_eq!(engine.read_in_top_k(10), flat.read_in_top_k(10));
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &(r, c, _) in updates.iter().step_by(131) {
        assert_eq!(engine.read_get(r, c), flat.read_get(r, c));
        assert_eq!(engine.read_row_degree(r), flat.read_row_degree(r));
        assert_eq!(engine.read_col_degree(c), flat.read_col_degree(c));
        engine.read_row(r, &mut got);
        flat.read_row(r, &mut want);
        assert_eq!(got, want, "row {r}");
        engine.read_col(c, &mut got);
        flat.read_col(c, &mut want);
        assert_eq!(got, want, "col {c}");
    }
    assert!(engine.take_read_error().is_none());
    assert_eq!(engine.health(), EngineHealth::Healthy);
    assert_eq!(failpoint::total_fired(), 0);
}
