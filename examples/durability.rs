//! Durability example: ingest into a durable hierarchy, crash it, and
//! watch recovery reassemble the exact acknowledged state.
//!
//! The walk-through:
//!
//! 1. create a durable matrix (checkpointed level files + write-ahead log
//!    in one directory),
//! 2. stream updates into it and record a flat in-memory oracle alongside,
//! 3. "crash" — the matrix is leaked with `std::mem::forget`, so the
//!    orderly `Drop` WAL sync never runs, exactly like a process kill,
//! 4. reopen the directory, print the [`RecoveryReport`] — a level is the
//!    ⊕ of a short list of files, one added by each cascade out of level
//!    0, and the report counts both — and
//! 5. verify the recovered contents against the oracle, entry for entry.
//!
//! With the `failpoints` feature the crash is harsher: an injected error
//! kills a checkpoint just before its commit first.  Run with
//! `cargo run --release --example durability` (add
//! `--features failpoints` for the torn variant).

use hyperstream::prelude::*;
use std::collections::BTreeMap;

const DIM: u64 = 1 << 32;

fn main() {
    let dir = std::env::temp_dir().join(format!("hyperstream-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("durable store: {}", dir.display());

    // 1. A small cut schedule so cascades (and therefore checkpoints)
    //    happen visibly often even in a short example: every cascade out
    //    of level 0 adds a file to level 1's list, up to 1000 / 100 = 10,
    //    and the crash finds seven there.
    let config = HierConfig::from_cuts(vec![100, 1000]).unwrap();
    let mut m = HierMatrix::<u64>::new_durable(
        DIM,
        DIM,
        config,
        DurableConfig::new(&dir).fsync(FsyncPolicy::EveryBatch),
    )
    .unwrap();

    // 2. Ingest a deterministic edge stream, mirroring it into an oracle.
    let mut oracle: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut acked = 0u64;
    for i in 0..25_000u64 {
        let (r, c, w) = ((i * 2_654_435_761) % DIM, (i * 40_503) % 4096, 1 + i % 7);
        m.update(r, c, w).unwrap();
        *oracle.entry((r, c)).or_insert(0) += w;
        acked += 1;
    }
    println!(
        "acknowledged {acked} updates ({} distinct entries)",
        oracle.len()
    );

    // With failpoints compiled in, make the crash nastier: the flush's
    // checkpoint dies just before its manifest swap, leaving the files it
    // wrote for recovery to sweep.
    #[cfg(feature = "failpoints")]
    {
        let fail = hyperstream::hier::FailAction::Error;
        m.failpoints().arm("persist-manifest-swap", None, 1, fail);
        match m.flush() {
            Err(e) => println!("injected checkpoint failure: {e}"),
            Ok(()) => println!("(failpoint did not fire — nothing was dirty)"),
        }
    }

    // 3. Crash.  `forget` skips Drop, so the WAL tail is whatever the OS
    //    already has — with `EveryBatch` that is every acknowledged update.
    std::mem::forget(m);
    println!("crashed (process-kill simulation: Drop never ran)\n");

    // 4. Reopen and report.
    let r = HierMatrix::<u64>::open(&dir).unwrap();
    let report = r.recovery_report().expect("reopen always reports").clone();
    println!("recovery: {report}");
    assert!(
        report.files_loaded > report.levels_loaded,
        "the store held a level of several files"
    );

    // 5. Verify against the oracle.
    let (rows, cols, vals) = r.materialize_ref().extract_tuples();
    let mut recovered: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for i in 0..rows.len() {
        *recovered.entry((rows[i], cols[i])).or_insert(0) += vals[i];
    }
    assert_eq!(
        recovered, oracle,
        "recovered store must equal the acknowledged oracle exactly"
    );
    println!(
        "verified: {} recovered entries match the flat oracle exactly",
        recovered.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
