#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests (proptest) of the sharded parallel ingest engine:
//! a `ShardedHierMatrix` with *any* shard count, *any* row partitioner and
//! *any* cut schedule — interrupted mid-stream by a query and a full flush —
//! must represent exactly the matrix a flat single-threaded accumulation
//! produces.  This is the paper's linearity argument one level up: sharding
//! by row is just another way of splitting the sum `A = Σ_i A_i`.

use hyperstream::prelude::*;
use proptest::prelude::*;

const DIM: u64 = 1 << 32;

/// A stream of updates drawn from a small id pool (to force duplicates)
/// scattered over the hypersparse index space.
fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..200, 0u64..200, 1u64..5), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

/// An arbitrary valid cut schedule (strictly increasing, non-zero).
fn cut_schedule() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..64, 1usize..5).prop_map(|deltas| {
        let mut acc = 0u64;
        deltas
            .into_iter()
            .map(|d| {
                acc += d;
                acc
            })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_engine_matches_flat_accumulation(
        updates in update_stream(400),
        shards in 1usize..=8,
        row_range in 0u64..2,
        cuts in cut_schedule(),
        chunk in 1usize..128,
        round in 1usize..300,
        query_at in 0usize..400,
    ) {
        let partitioner = if row_range == 1 {
            ShardPartitioner::RowRange
        } else {
            ShardPartitioner::RowHash
        };
        let config = ShardedConfig {
            partitioner,
            chunk_tuples: chunk,
            channel_depth: 2,
            round_tuples: round,
            ..ShardedConfig::with_shards(shards)
        };
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(cuts).unwrap(),
            config,
        )
        .unwrap();

        let expected_weight: u64 = updates.iter().map(|u| u.2).sum();
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            StreamingSink::insert(&mut engine, r, c, v).unwrap();
            if i == query_at {
                // Mid-stream query and cascade/round completion must not
                // disturb the represented matrix...
                let partial = engine.materialize().unwrap();
                prop_assert!(partial.nvals() <= i + 1);
                StreamingSink::flush(&mut engine).unwrap();
            }
            // ...and the total weight stays exact at any moment (staged,
            // in-flight, or settled).
            if i % 97 == 0 {
                let seen: u64 = updates[..=i].iter().map(|u| u.2).sum();
                prop_assert_eq!(StreamingSink::total_weight(&engine), seen as f64);
            }
        }

        let flat = build_flat(&updates);
        prop_assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
        prop_assert_eq!(StreamingSink::total_weight(&engine), expected_weight as f64);
        StreamingSink::flush(&mut engine).unwrap();
        prop_assert_eq!(StreamingSink::nvals(&engine), flat.nvals());
    }

    #[test]
    fn sharded_batch_ingest_matches_flat(
        updates in update_stream(300),
        shards in 1usize..=8,
        batch_len in 1usize..80,
    ) {
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![16, 64]).unwrap(),
            ShardedConfig {
                chunk_tuples: 32,
                round_tuples: 128,
                ..ShardedConfig::with_shards(shards)
            },
        )
        .unwrap();
        for chunk in updates.chunks(batch_len) {
            let rows: Vec<u64> = chunk.iter().map(|u| u.0).collect();
            let cols: Vec<u64> = chunk.iter().map(|u| u.1).collect();
            let vals: Vec<u64> = chunk.iter().map(|u| u.2).collect();
            StreamingSink::insert_batch(&mut engine, &rows, &cols, &vals).unwrap();
        }
        let flat = build_flat(&updates);
        prop_assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
    }

    // Persistent-pool property: ONE engine (one worker set) serves many
    // ingest rounds with flushes and queries interleaved between them.
    // The worker thread ids must be identical before, throughout, and
    // after — the pool never respawns — and the final contents must match
    // a flat accumulation of everything ever inserted.
    #[test]
    fn one_worker_pool_serves_many_rounds(
        updates in update_stream(600),
        shards in 1usize..=6,
        rounds in 2usize..8,
        chunk in 1usize..96,
    ) {
        let config = ShardedConfig {
            partitioner: ShardPartitioner::RowHash,
            chunk_tuples: chunk,
            channel_depth: 2,
            round_tuples: 64,
            ..ShardedConfig::with_shards(shards)
        };
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            HierConfig::from_cuts(vec![16, 128]).unwrap(),
            config,
        )
        .unwrap();
        let ids = engine.worker_ids().unwrap();
        prop_assert_eq!(ids.len(), shards);

        let per_round = updates.len().div_ceil(rounds);
        for (round, slice) in updates.chunks(per_round.max(1)).enumerate() {
            for &(r, c, v) in slice {
                engine.update(r, c, v).unwrap();
            }
            // Interleave every kind of barrier-taking operation.
            match round % 3 {
                0 => { StreamingSink::flush(&mut engine).unwrap(); }
                1 => { let _ = engine.materialize().unwrap(); }
                _ => { let _ = StreamingSink::nvals(&engine); }
            }
            prop_assert_eq!(&engine.worker_ids().unwrap(), &ids, "worker set changed in round {}", round);
        }

        let flat = build_flat(&updates);
        prop_assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
        prop_assert_eq!(StreamingSink::total_weight(&engine),
            updates.iter().map(|u| u.2).sum::<u64>() as f64);
    }

    // Drop-under-load: tearing the engine down while its channels are full
    // of in-flight batches (no flush, no barrier — workers mid-apply) must
    // complete in bounded time.  The poison-pill join in `Drop` may not
    // deadlock against a producer-side backlog.
    #[test]
    fn dropping_loaded_engine_is_bounded(
        updates in update_stream(600),
        shards in 1usize..=8,
    ) {
        let start = std::time::Instant::now();
        {
            let mut engine = ShardedHierMatrix::<u64>::new(
                DIM,
                DIM,
                HierConfig::from_cuts(vec![4, 16]).unwrap(),
                ShardedConfig {
                    // Tiny chunks + depth-1 channels: the stream below is
                    // guaranteed to leave every worker with queued batches.
                    chunk_tuples: 1,
                    channel_depth: 1,
                    round_tuples: 1,
                    ..ShardedConfig::with_shards(shards)
                },
            )
            .unwrap();
            for &(r, c, v) in &updates {
                engine.update(r, c, v).unwrap();
            }
            // Engine dropped here with channels still draining.
        }
        prop_assert!(
            start.elapsed() < std::time::Duration::from_secs(60),
            "drop under load took {:?}", start.elapsed()
        );
    }
}

/// In-degree rankings come off a sum that is ranked once and cached — by
/// the engine until the next update, by a snapshot for good.  Whatever `k`
/// asks of the ready ranks (inside them, their last, one past them, more
/// than there are columns), engine and snapshot must answer what one
/// instance holding the transposed stream ranks by row, ties broken alike,
/// and a further batch must reach the engine's answer and not the
/// snapshot's.
#[test]
fn sharded_in_top_k_equals_a_transposed_single_instance() {
    let cuts = HierConfig::from_cuts(vec![64, 1024]).unwrap();
    let mut engine =
        ShardedHierMatrix::<u64>::new(DIM, DIM, cuts.clone(), ShardedConfig::with_shards(3))
            .unwrap();
    let mut transposed = HierMatrix::<u64>::new(DIM, DIM, cuts).unwrap();
    // Column `c` gets `1 + c % 7` cells (so every degree is shared by dozens
    // of columns) in rows spread over the shards, `extra` more on request.
    let batch = |cols: std::ops::Range<u64>, extra: u64| {
        let (mut r, mut c) = (Vec::new(), Vec::new());
        for col in cols {
            for j in extra * 7..=extra * 7 + col % 7 {
                r.push((j * 20_000_019 + col * 977) % DIM);
                c.push((col * 40_000_003) % DIM);
            }
        }
        let v = vec![1u64; r.len()];
        (r, c, v)
    };
    const KS: [usize; 6] = [0, 1, 10, 128, 129, 1000];

    let (r, c, v) = batch(0..310, 0);
    engine.update_batch(&r, &c, &v).unwrap();
    transposed.update_batch(&c, &r, &v).unwrap();
    let mut snapshot = engine.snapshot().unwrap();
    let before: Vec<_> = KS.iter().map(|&k| transposed.read_top_k(k)).collect();
    assert_eq!(before[5].len(), 310, "fewer columns than the largest k");
    assert_eq!(before[3][127].1, before[4][128].1, "a tie across rank 128");
    for (&k, want) in KS.iter().zip(&before) {
        assert_eq!(&engine.read_in_top_k(k), want, "engine, k = {k}");
        assert_eq!(&snapshot.read_in_top_k(k), want, "snapshot, k = {k}");
    }

    // New columns, and old ones raised past their neighbours.
    for (r, c, v) in [batch(310..400, 0), batch(0..50, 1)] {
        engine.update_batch(&r, &c, &v).unwrap();
        transposed.update_batch(&c, &r, &v).unwrap();
    }
    let mut later = engine.snapshot().unwrap();
    for (i, &k) in KS.iter().enumerate() {
        let want = transposed.read_top_k(k);
        assert_eq!(
            engine.read_in_top_k(k),
            want,
            "engine after a batch, k = {k}"
        );
        assert_eq!(later.read_in_top_k(k), want, "new snapshot, k = {k}");
        assert_eq!(
            snapshot.read_in_top_k(k),
            before[i],
            "old snapshot, k = {k}"
        );
    }
    assert_ne!(
        before[2],
        transposed.read_top_k(10),
        "the batch changed the ranks"
    );
    assert_eq!(
        engine.read_in_degree_histogram(),
        transposed.read_degree_histogram()
    );
}

// Drop-under-fault cases — drop while a barrier is outstanding (timed-out
// flush) and drop after a worker panic — need fault injection to create
// those states deterministically; they live with the rest of the chaos
// suite in `tests/fault_injection.rs` (compiled under `--features
// failpoints`), where a test-order mutex serialises use of the
// process-global failpoint registry that the proptests above must never
// observe armed.
