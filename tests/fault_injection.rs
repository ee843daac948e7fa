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
//!   `GrbError::Timeout`, `GrbError::Injected`) naming the lost shards;
//! * with `degraded_reads`, answers from the survivors are byte-identical
//!   to a flat oracle restricted to the surviving row bands, for every
//!   `Query` kind, and every one of them names the lost shard;
//! * `respawn_shard` with replay enabled rebuilds a shard *exactly* when
//!   the loss happened before any barrier retired the replay buffer;
//! * dropping the engine mid-fault (barrier outstanding, worker dead)
//!   completes in bounded time.
//!
//! The failpoint registry is process-global, so every test serialises
//! through [`exclusive`], which also disarms all sites on scope exit.
//! That keeps armed sites from leaking into a concurrently running test.

use hyperstream::graphblas::reader;
use hyperstream::hier::failpoint::{self, FailAction};
use hyperstream::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const DIM: u64 = 1 << 32;

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

/// A stream of updates drawn from a small id pool (duplicates included)
/// scattered over the hypersparse index space.
fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..200, 0u64..200, 1u64..5), 64..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

fn build_flat(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(DIM, DIM);
    for &(r, c, v) in updates {
        m.accum_element(r, c, v).unwrap();
    }
    m.wait();
    m
}

/// Reference ranking (degree descending, id ascending) from a flat matrix.
fn reference_top_k(flat: &Matrix<u64>, k: usize) -> Vec<(u64, usize)> {
    let d = flat.dcsr();
    let mut degs: Vec<(u64, usize)> = (0..d.nrows_nonempty())
        .map(|slot| (d.row_ids()[slot], d.row_slot(slot).0.len()))
        .collect();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    degs.truncate(k);
    degs
}

/// One query of every kind: the row-targeted ones aimed at `row`, the
/// batched ones at `row` after `other`, the rest at the whole matrix.
fn every_kind(row: u64, col: u64, other: u64, k: usize) -> Vec<Query> {
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
        Query::Rows(vec![other, row]),
        Query::GetMany(vec![(other, col), (row, col)]),
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

/// A small engine with knobs sized so every few updates reach a worker.
fn chaos_config(shards: usize) -> ShardedConfig {
    ShardedConfig {
        chunk_tuples: 4,
        channel_depth: 2,
        round_tuples: 64,
        wait_timeout: Duration::from_secs(10),
        ..ShardedConfig::with_shards(shards)
    }
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
    // and health must degrade to report it.  Strict mode (no degraded
    // reads): reads touching the loss fail typed, and the infallible
    // `MatrixReader` signatures answer defaults while latching the error.
    #[test]
    fn worker_panic_mid_stream_is_typed_and_bounded(
        updates in update_stream(400),
        shards in 2usize..=8,
        victim_sel in 0usize..8,
        nth in 1u64..4,
    ) {
        let _fp = exclusive();
        let victim = victim_sel % shards;
        failpoint::arm_at("worker-apply", Some(victim), nth, FailAction::Panic);
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![8, 64]).unwrap(),
            chaos_config(shards),
        )
        .unwrap();
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
        let other = live.map_or(lost_row, |u| u.0);
        for q in every_kind(lost_row, col, other, 5) {
            let refused = engine.try_read(q.clone());
            prop_assert!(matches!(&refused, Err(e) if is_the_loss(e)), "{q:?}: {refused:?}");
            prop_assert!(engine.take_read_error().is_none(), "try_read latched on {q:?}");
            prop_assert_eq!(reader::answer(&mut engine, &q), Answer::empty_for(&q));
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
                Query::Rows(vec![row]),
                Query::GetMany(vec![(row, col)]),
                Query::TopK(0),
            ] {
                let want = reader::answer(&mut flat, &q);
                prop_assert_eq!(engine.try_read(q.clone()), Ok(want), "{:?}", &q);
                prop_assert!(engine.last_answer_lost().is_empty());
            }
        }
        prop_assert!(matches!(
            engine.materialize(),
            Err(GrbError::ShardsLost { .. })
        ));
    }

    // Degraded reads after a worker panic answer from the survivors,
    // byte-identical to a flat oracle restricted to the surviving row
    // bands, with the lost band reported on every answer.
    #[test]
    fn degraded_reads_match_surviving_shard_oracle(
        updates in update_stream(400),
        shards in 2usize..=8,
        victim_sel in 0usize..8,
        k in 1usize..10,
    ) {
        let _fp = exclusive();
        let victim = victim_sel % shards;
        failpoint::arm_at("worker-apply", Some(victim), 1, FailAction::Panic);
        let config = ShardedConfig {
            degraded_reads: true,
            ..chaos_config(shards)
        };
        let partitioner = config.partitioner;
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![8, 64]).unwrap(),
            config,
        )
        .unwrap();
        for &(r, c, v) in &updates {
            let _ = engine.update(r, c, v);
        }
        // Flush reports the loss (mutating the stream under a fault is
        // never silent) while draining the survivors.
        let flushed = engine.flush();
        if failpoint::fired("worker-apply") == 0 {
            prop_assert!(flushed.is_ok());
            return;
        }
        prop_assert!(flushed.is_err());
        prop_assert_eq!(engine.health(), EngineHealth::Degraded { lost: vec![victim] });
        // The oracle: the same stream, minus every row the victim owns.
        let surviving: Vec<(u64, u64, u64)> = updates
            .iter()
            .copied()
            .filter(|&(r, _, _)| partitioner.shard(r, DIM, shards) != victim)
            .collect();
        let oracle = build_flat(&surviving);
        prop_assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            oracle.extract_tuples()
        );
        prop_assert_eq!(engine.last_answer_lost(), &[victim]);
        prop_assert_eq!(
            engine.try_read(Query::TopK(k)),
            Ok(Answer::Ranked(reference_top_k(&oracle, k)))
        );
        // Every kind answers what the survivors hold — the lost owner's
        // rows and keys come back empty — and every answer says who is
        // missing from it.
        let mut oracle = oracle;
        let (lost_row, col, _) = update_owned(&updates, shards, victim, true).unwrap();
        let live = update_owned(&updates, shards, victim, false);
        let other = live.map_or(lost_row, |u| u.0);
        for q in every_kind(lost_row, col, other, k) {
            let want = reader::answer(&mut oracle, &q);
            prop_assert_eq!(engine.try_read(q.clone()), Ok(want.clone()), "{:?}", &q);
            prop_assert_eq!(engine.last_answer_lost(), &[victim], "{:?}", &q);
            prop_assert_eq!(reader::answer(&mut engine, &q), want, "infallible {:?}", &q);
            prop_assert_eq!(engine.last_answer_lost(), &[victim], "infallible {:?}", &q);
        }
        prop_assert!(engine.take_read_error().is_none());
        // A row a live shard owns is answered in full, and says so.
        if let Some((row, _, _)) = live {
            let want = reader::answer(&mut oracle, &Query::Row(row));
            prop_assert_eq!(engine.try_read(Query::Row(row)), Ok(want));
            prop_assert!(engine.last_answer_lost().is_empty());
        }
    }

    // Respawn with replay: a worker killed before any barrier retires the
    // replay buffer is rebuilt *exactly* — `lost_tuples == 0` and the
    // recovered engine equals the flat accumulation of the full stream.
    #[test]
    fn respawn_with_replay_recovers_exactly(
        updates in update_stream(400),
        shards in 2usize..=6,
        victim_sel in 0usize..6,
    ) {
        let _fp = exclusive();
        let victim = victim_sel % shards;
        failpoint::arm_at("worker-apply", Some(victim), 1, FailAction::Panic);
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![8, 64]).unwrap(),
            ShardedConfig {
                replay_limit_tuples: 1 << 20,
                ..chaos_config(shards)
            },
        )
        .unwrap();
        // Stream without a single barrier: no flush, no query, so nothing
        // retires the replay buffers before the fault.
        for &(r, c, v) in &updates {
            let _ = engine.update(r, c, v);
        }
        if failpoint::fired("worker-apply") == 0 {
            engine.flush().unwrap();
            prop_assert_eq!(engine.health(), EngineHealth::Healthy);
            return;
        }
        prop_assert!(await_loss(&engine, victim, Duration::from_secs(10)));
        let recovery = engine.respawn_shard(victim).unwrap();
        prop_assert_eq!(recovery.shard, victim);
        prop_assert_eq!(recovery.lost_tuples, 0, "loss preceded every barrier");
        prop_assert_eq!(engine.health(), EngineHealth::Healthy);
        engine.flush().unwrap();
        let flat = build_flat(&updates);
        prop_assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
        prop_assert_eq!(
            engine.total_weight_f64(),
            updates.iter().map(|u| u.2).sum::<u64>() as f64
        );
    }
}

/// A held in-degree sum that was built without a lost shard keeps saying
/// so: a row read answered in full by a live shard in between must not
/// turn the next (cached, still survivors-only) ranking or histogram into
/// one that claims to be complete.
#[test]
fn cached_degraded_in_degrees_still_name_the_lost_shard() {
    let _fp = exclusive();
    let (shards, victim) = (3, 1);
    failpoint::arm_at("worker-apply", Some(victim), 1, FailAction::Panic);
    let mut engine = ShardedHierMatrix::<u64>::new(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![8, 64]).unwrap(),
        ShardedConfig {
            degraded_reads: true,
            ..chaos_config(shards)
        },
    )
    .unwrap();
    let updates: Vec<(u64, u64, u64)> = (0..600u64)
        .map(|i| {
            (
                (i % 97) * 20_000_019 % DIM,
                (i * 7 % 31) * 40_000_003 % DIM,
                1,
            )
        })
        .collect();
    for &(r, c, v) in &updates {
        let _ = engine.update(r, c, v);
    }
    assert!(engine.flush().is_err());
    assert_eq!(engine.lost_shards(), vec![victim]);
    let owner = |r| ShardPartitioner::RowHash.shard(r, DIM, shards);
    let surviving: Vec<_> = updates
        .iter()
        .copied()
        .filter(|u| owner(u.0) != victim)
        .collect();
    let mut oracle = build_flat(&surviving);
    let live_row = surviving[0].0;

    let ranking = Answer::Ranked(oracle.read_in_top_k(5));
    assert_eq!(engine.try_read(Query::InTopK(5)), Ok(ranking.clone()));
    assert_eq!(engine.last_answer_lost(), &[victim]);
    // Answered in full by a live shard.
    let row = reader::answer(&mut oracle, &Query::Row(live_row));
    assert_eq!(engine.try_read(Query::Row(live_row)), Ok(row));
    assert!(engine.last_answer_lost().is_empty());
    // Both served from the held sum: as degraded as when it was built.
    assert_eq!(
        engine.read_in_degree_histogram(),
        oracle.read_in_degree_histogram()
    );
    let after_histogram = engine.last_answer_lost().to_vec();
    let _ = engine.read_row_degree(live_row);
    assert_eq!(engine.try_read(Query::InTopK(5)), Ok(ranking));
    assert_eq!(
        (after_histogram, engine.last_answer_lost()),
        (vec![victim], &[victim][..])
    );
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
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![8, 64]).unwrap(),
            ShardedConfig {
                chunk_tuples: 1,
                ..chaos_config(3)
            },
        )
        .unwrap();
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
    let mut engine = ShardedHierMatrix::<u64>::new(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![8, 64]).unwrap(),
        chaos_config(3),
    )
    .unwrap();
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
