#![recursion_limit = "512"] // the proptest macro expansion is token-heavy

//! Crash-consistency suite for the durable hierarchy (`crates/hier/src/persist`).
//!
//! The oracle contract under test: after *any* interruption — a clean
//! drop, a simulated process kill (`std::mem::forget`, which skips the
//! `Drop` WAL sync), a WAL torn at an arbitrary byte, or an injected
//! failure at any persistence failpoint — reopening the directory must
//!
//! * succeed (recovery never needs a repair tool),
//! * reproduce the flat-oracle contents of some *acknowledged prefix* of
//!   the update stream (no silent loss of fsynced data, no invented
//!   entries), and
//! * report what it did ([`RecoveryReport`]) instead of guessing
//!   silently.
//!
//! The failpoint-armed cases live behind `--features failpoints`; each
//! arms the sites of its own matrix or engine, which no other test's
//! evaluates, so every case runs in parallel.  Everything else runs in the
//! default test sweep.

mod common;

use common::{contents, oracle, update_stream, TempDir, DIM};
use hyperstream::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn small_cuts() -> HierConfig {
    HierConfig::from_cuts(vec![8, 64]).unwrap()
}

/// The live WAL of a store no checkpoint failed on: the highest generation
/// on disk.  A kill right after a cascade's checkpoint leaves the log that
/// checkpoint retired beside it — the next call would have unlinked it, the
/// next open sweeps it.
fn the_wal_file(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    wals.sort();
    wals.pop().expect("a store always has a WAL")
}

// ---------------------------------------------------------------------
// Clean-path round trips.
// ---------------------------------------------------------------------

#[test]
fn clean_reopen_after_flush_replays_nothing() {
    let dir = TempDir::new("hs-crash", "clean-flush");
    let updates: Vec<(u64, u64, u64)> = (0..300u64)
        .map(|i| ((i * 7) % 97, (i * 13) % 89, 1 + i % 3))
        .collect();
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    m.flush().unwrap();
    let want = contents(&m);
    drop(m);

    let r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    assert_eq!(want, oracle(&updates));
    let rep = r.recovery_report().unwrap();
    assert_eq!(rep.wal_records_replayed, 0, "flush checkpointed everything");
    assert!(!rep.torn_tail_truncated);
    assert!(rep.corrupt_levels.is_empty());
}

/// Regression test for the `Drop` impl: an orderly drop fsyncs the WAL
/// tail, so a reopen after a clean shutdown — even without a flush — must
/// replay the tail *without* reporting a torn frame.
#[test]
fn clean_drop_without_flush_leaves_no_torn_tail() {
    let dir = TempDir::new("hs-crash", "clean-drop");
    let updates: Vec<(u64, u64, u64)> = (0..50u64).map(|i| (i % 11, i % 7, 1)).collect();
    let mut m = HierMatrix::<u64>::new_durable(
        DIM,
        DIM,
        small_cuts(),
        // `Never` means only `Drop` stands between the tail and loss.
        DurableConfig::new(dir.path()).fsync(FsyncPolicy::Never),
    )
    .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    let want = contents(&m);
    drop(m);

    let r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    let rep = r.recovery_report().unwrap();
    assert!(!rep.torn_tail_truncated, "clean drop must not tear the WAL");
    assert!(rep.wal_records_replayed > 0, "tail was never checkpointed");
}

#[test]
fn simulated_kill_recovers_every_fsynced_batch() {
    let dir = TempDir::new("hs-crash", "kill");
    let updates: Vec<(u64, u64, u64)> = (0..200u64)
        .map(|i| ((i * 3) % 31, (i * 5) % 29, 1 + i % 2))
        .collect();
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    let want = contents(&m);
    // Simulated crash: skip Drop's WAL sync.  Every update was
    // individually fsynced (`EveryBatch`), so nothing may be lost.
    std::mem::forget(m);

    let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    // The store stays writable: keep ingesting, flush, reopen again.
    r.update(7, 7, 100).unwrap();
    r.flush().unwrap();
    let want2 = contents(&r);
    drop(r);
    let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r2), want2);
}

#[test]
fn reopen_is_o_levels_not_o_nnz_reingest() {
    // Structural check on the recovery path: after a flush, reopen must
    // replay zero WAL records whatever the entry count — the levels come
    // back as whole files, not as re-ingested tuples.
    for n in [100u64, 2000] {
        let dir = TempDir::new("hs-crash", "olevels");
        let mut m =
            HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
                .unwrap();
        for i in 0..n {
            m.update((i * 11) % 503, (i * 17) % 499, 1).unwrap();
        }
        m.flush().unwrap();
        let want = contents(&m);
        drop(m);
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(r.recovery_report().unwrap().wal_records_replayed, 0);
        assert_eq!(contents(&r), want);
    }
}

#[test]
fn new_durable_refuses_an_initialised_directory() {
    let dir = TempDir::new("hs-crash", "refuse");
    let m = HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
        .unwrap();
    drop(m);
    let again =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()));
    assert!(matches!(again, Err(GrbError::InvalidValue(_))));
    // open_or_create takes the reopen path instead.
    let reopened =
        HierMatrix::<u64>::open_or_create(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()));
    assert!(reopened.is_ok());
    // ... but refuses mismatched geometry.
    let wrong = HierMatrix::<u64>::open_or_create(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![16, 256]).unwrap(),
        DurableConfig::new(dir.path()),
    );
    assert!(matches!(wrong, Err(GrbError::InvalidValue(_))));
}

#[test]
fn scalar_type_mismatch_is_typed_corruption() {
    let dir = TempDir::new("hs-crash", "tag");
    let m = HierMatrix::<f64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
        .unwrap();
    drop(m);
    match HierMatrix::<u64>::open(dir.path()) {
        Err(GrbError::Corruption { detail }) => {
            assert!(detail.contains("type tag"), "unhelpful detail: {detail}")
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Corrupt level files: strict refusal vs. salvage.
// ---------------------------------------------------------------------

#[test]
fn corrupt_level_strict_open_fails_salvage_reports() {
    let dir = TempDir::new("hs-crash", "corrupt-lvl");
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    // Six batches of twenty new cells: each cascade out of level 0 adds a
    // run to level 1's list, the fourth moves that list to the top, and the
    // flush moves the last two behind it.
    for b in 0..6u64 {
        let ids: Vec<u64> = (b * 20..b * 20 + 20).collect();
        let rows: Vec<u64> = ids.iter().map(|i| (i * 7) % 211).collect();
        let cols: Vec<u64> = ids.iter().map(|i| (i * 3) % 223).collect();
        m.update_batch(&rows, &cols, &[1; 20]).unwrap();
    }
    m.flush().unwrap();
    drop(m);

    // Flip one byte in the middle of the data pages of one file of a
    // level that lists several.
    let lists = level_files(dir.path());
    let (bad_level, files) = lists
        .iter()
        .enumerate()
        .find(|(_, files)| files.len() > 1)
        .expect("the flush left a level of several files");
    let lvl = dir
        .path()
        .join(format!("lvl-{:016x}.dat", files[files.len() / 2]));
    let mut bytes = std::fs::read(&lvl).unwrap();
    let mid = 4096 + (bytes.len() - 4096) / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&lvl, &bytes).unwrap();

    // Strict (default) open: typed corruption, no panic.
    match HierMatrix::<u64>::open(dir.path()) {
        Err(GrbError::Corruption { .. }) => {}
        other => panic!("expected Corruption, got {other:?}"),
    }

    // Salvage open: succeeds, the bad level loads empty and is reported.
    let r = HierMatrix::<u64>::open_with(DurableConfig::new(dir.path()).salvage(true)).unwrap();
    let rep = r.recovery_report().unwrap().clone();
    assert_eq!(
        rep.corrupt_levels,
        vec![bad_level],
        "salvage must report the loss"
    );
    let listed: usize = lists.iter().map(Vec::len).sum();
    assert_eq!(
        rep.files_loaded,
        listed - files.len(),
        "the whole level is dropped"
    );
    assert!(rep
        .to_string()
        .contains(&format!("from {} file(s)", rep.files_loaded)));
    assert_eq!(r.entries_per_level()[bad_level], 0);
    drop(r);
    // The salvage open rewrites nothing until a checkpoint; reopening
    // strictly still fails, proving salvage did not quietly "repair" the
    // store by dropping data.
    assert!(HierMatrix::<u64>::open(dir.path()).is_err());
}

// ---------------------------------------------------------------------
// Torn-WAL property: a cut at ANY byte recovers an exact update prefix.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wal_cut_at_any_byte_recovers_an_update_prefix(
        updates in update_stream(120, 32, 200),
        cut_ppm in 0u64..1_000_000,
    ) {
        let dir = TempDir::new("hs-crash", "wal-cut");
        let mut m = HierMatrix::<u64>::new_durable(
            DIM, DIM, small_cuts(), DurableConfig::new(dir.path()),
        ).unwrap();
        for &(r, c, v) in &updates {
            m.update(r, c, v).unwrap();
        }
        std::mem::forget(m);

        // Cut the live WAL at an arbitrary point past its header (the
        // header is fsynced before the manifest ever references the file,
        // so a referenced WAL always has one).
        let wal = the_wal_file(dir.path());
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = 16 + (len.saturating_sub(16)) * cut_ppm / 1_000_000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Reopen must succeed and equal the oracle of SOME update prefix:
        // the checkpointed levels plus however many whole frames survived
        // the cut.  Anything else — a partial frame applied, an entry
        // invented, a fsynced checkpoint lost — is a bug.
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        let got = contents(&r);
        let matched = (0..=updates.len())
            .map(|k| oracle(&updates[..k]))
            .any(|want| want == got);
        prop_assert!(matched, "recovered state is not any update prefix");
    }
}

// ---------------------------------------------------------------------
// Batches: the frame of a batch holds what level 0 kept of it (its folded
// cells where the in-batch fold engaged), so the batch path gets the
// properties the single-update path has.
// ---------------------------------------------------------------------

/// Cuts that some of the batches below overflow and some do not, so a
/// schedule of them mixes plain appends, settles, cascades and checkpoints.
fn batch_cuts() -> HierConfig {
    HierConfig::from_cuts(vec![2000, 20_000]).unwrap()
}

/// More distinct cells than the fold's index holds (2^16) in one batch.
const SPILL_CELLS: u64 = (1 << 16) + 5000;

/// One batch as parallel slices.
type Batch = (Vec<u64>, Vec<u64>, Vec<u64>);

/// The batch kind that goes in through [`HierMatrix::update_matrix`].
const UPDATE_MATRIX: u8 = 4;

/// Hand a batch of [`batch_of`]`(kind, ..)` to `m` the way its kind says:
/// as an update matrix (tuples still pending in it, repeats and all), or as
/// slices.  One log order serves both, so a refused log must leave either
/// out whole.
fn apply(m: &mut HierMatrix<u64>, kind: u8, (rows, cols, vals): &Batch) -> GrbResult<()> {
    if kind != UPDATE_MATRIX {
        return m.update_batch(rows, cols, vals);
    }
    let mut a = Matrix::<u64>::new(DIM, DIM);
    a.accum_tuples(rows, cols, vals)?;
    m.update_matrix(&a)
}

/// One batch as parallel slices, by kind, varied by `salt`:
///
/// * `0` — at least 4,096 tuples over 300 cells: the fold engages and the
///   frame holds 300 tuples;
/// * `1` — at least 4,096 distinct cells: the fold samples the prefix, finds
///   no repeats and appends raw;
/// * `2` — every one of [`SPILL_CELLS`] cells twice: the fold engages and
///   spills mid-batch, still one frame;
/// * `3` — 100 tuples, below the fold's sample and below every cut: a
///   pending tail for the next batch to land behind;
/// * [`UPDATE_MATRIX`] — 2,000 tuples over the same 300 cells, which
///   [`apply`] hands over as an update *matrix*: its 300 distinct cells are
///   the frame.
///
/// Kinds 0, 3 and 4 share a cell pool, so values accumulate across batches.
/// `weight` scales the values (a weight near `u64::MAX` makes them wrap).
fn batch_of(kind: u8, salt: u64, weight: u64) -> Batch {
    let cell = |id: u64| ((id * 20_000_019) % DIM, (id / 3 * 40_000_003) % DIM);
    let ids: Vec<u64> = match kind {
        0 => (0..4096 + salt % 1000)
            .map(|i| (i * 7 + salt) % 300)
            .collect(),
        1 => (0..4096 + salt % 1000)
            .map(|i| 1000 + salt * 8192 + i)
            .collect(),
        2 => (0..2 * SPILL_CELLS).map(|i| 1_000_000 + i / 2).collect(),
        UPDATE_MATRIX => (0..2000).map(|i| (i * 11 + salt) % 300).collect(),
        _ => (0..100).map(|i| (i * 3 + salt) % 300).collect(),
    };
    let (rows, cols) = ids.iter().map(|&id| cell(id)).unzip();
    let vals = (0..ids.len() as u64)
        .map(|i| weight.wrapping_mul(1 + (i + salt) % 4))
        .collect();
    (rows, cols, vals)
}

/// Flat oracle of a batch prefix, wrapping like `u64`'s `+` does.
fn batch_oracle(batches: &[Batch]) -> BTreeMap<(u64, u64), u64> {
    let mut m = BTreeMap::new();
    for (rows, cols, vals) in batches {
        for i in 0..rows.len() {
            let cell = m.entry((rows[i], cols[i])).or_insert(0u64);
            *cell = cell.wrapping_add(vals[i]);
        }
    }
    m
}

/// Dropped without `flush()`, the store replays frames of folded cells on a
/// settle schedule of its own (replay counts the logged tuples, the live
/// matrix counted the raw ones).  For `u64` that must not show: `+` wraps
/// associatively, `u64::MAX` included.
#[test]
fn batches_dropped_without_flush_replay_exactly_for_u64() {
    for weight in [1, u64::MAX / 3] {
        let dir = TempDir::new("hs-crash", "batch-replay");
        let cfg = DurableConfig::new(dir.path()).fsync(FsyncPolicy::Never);
        let mut m = HierMatrix::<u64>::new_durable(DIM, DIM, batch_cuts(), cfg).unwrap();
        let kinds = [0u8, 3, 1, 0, UPDATE_MATRIX, 2, 3, 0];
        let batches: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(salt, &kind)| batch_of(kind, salt as u64, weight))
            .collect();
        for (batch, &kind) in batches.iter().zip(&kinds) {
            apply(&mut m, kind, batch).unwrap();
        }
        let want = contents(&m);
        assert_eq!(want, batch_oracle(&batches), "weight {weight}");
        drop(m);

        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(contents(&r), want, "weight {weight}");
        let rep = r.recovery_report().unwrap();
        assert!(!rep.torn_tail_truncated);
        assert!(rep.wal_records_replayed > 0, "the tail was never flushed");
    }
}

/// The same for `f64`, where `+` is not associative: a cell's repeats
/// inside one batch are summed before the frame is written on both sides,
/// but replay may settle and cascade — and so combine a cell's per-batch
/// sums — in another order than the live matrix did.  The structure must be
/// equal; a value may differ by reassociation only.  Tolerance: every
/// value here is a sum of at most `terms` positive terms, for which any two
/// summation orders agree within `terms * f64::EPSILON` of the sum.
#[test]
fn batches_dropped_without_flush_replay_up_to_reassociation_for_f64() {
    let dir = TempDir::new("hs-crash", "batch-replay-f64");
    let cfg = DurableConfig::new(dir.path()).fsync(FsyncPolicy::Never);
    let mut m = HierMatrix::<f64>::new_durable(DIM, DIM, batch_cuts(), cfg).unwrap();
    let mut terms = 0usize;
    for (salt, &kind) in [0u8, 3, 1, 0, 3, 0, 0].iter().enumerate() {
        let (r, c, v) = batch_of(kind, salt as u64, 1);
        let v: Vec<f64> = v.iter().map(|&w| 0.1 * w as f64).collect();
        m.update_batch(&r, &c, &v).unwrap();
        terms += r.len();
    }
    let want = m.materialize_ref().extract_tuples();
    drop(m);

    let r = HierMatrix::<f64>::open(dir.path()).unwrap();
    assert!(r.recovery_report().unwrap().wal_records_replayed > 0);
    let got = r.materialize_ref().extract_tuples();
    assert_eq!((&got.0, &got.1), (&want.0, &want.1), "same cells");
    for (g, w) in got.2.iter().zip(&want.2) {
        assert!(
            (g - w).abs() <= terms as f64 * f64::EPSILON * w.abs(),
            "{g} vs {w}: more than reassociation"
        );
    }
}

// ---------------------------------------------------------------------
// The delta store as a state machine: a level is a list of immutable
// files, a cascade out of level 0 adds one, a cascade above it moves a
// list, and a list past its bound is rewritten whole.  A delta lost or
// counted twice shows as a reopened store that differs from the oracle.
// ---------------------------------------------------------------------

/// Level 0 cascades above 64 cells, level 1 above 512: the file bound is
/// 8 on level 1 and on the top level.
fn delta_cuts() -> HierConfig {
    HierConfig::from_cuts(vec![64, 512]).unwrap()
}

/// The most files each level of [`delta_cuts`] may list.
const DELTA_BOUNDS: [usize; 3] = [1, 8, 8];

/// One step of the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// 1..=60 tuples over a pool of 300 cells: stays in level 0.
    Tiny(u64),
    /// 100..=300 tuples over the same pool: one cascade out of level 0,
    /// whose run joins level 1's list (level 1 never outgrows 300 cells).
    Pool(u64),
    /// 200..=800 cells never seen before: level 1 overflows, a chain.
    Fresh(u64),
    Flush,
    Checkpoint,
    Clear,
}

impl Step {
    fn from_pick(pick: u8, salt: u64) -> Step {
        match pick {
            0..=3 => Step::Pool(salt),
            4 => Step::Fresh(salt),
            5 | 6 => Step::Tiny(salt),
            7 => Step::Flush,
            8 => Step::Checkpoint,
            _ if salt % 3 == 0 => Step::Clear,
            _ => Step::Tiny(salt),
        }
    }

    /// The step's tuples (empty for the three store calls).
    fn batch(self) -> Batch {
        let cell = |id: u64| ((id * 20_000_019) % DIM, (id / 3 * 40_000_003) % DIM);
        let ids: Vec<u64> = match self {
            Step::Tiny(salt) => (0..1 + salt % 60).map(|i| (i * 7 + salt) % 300).collect(),
            Step::Pool(salt) => (0..100 + salt % 201)
                .map(|i| (i * 13 + salt) % 300)
                .collect(),
            Step::Fresh(salt) => (0..200 + salt % 601)
                .map(|i| 1000 + salt * 1000 + i)
                .collect(),
            _ => Vec::new(),
        };
        let (rows, cols) = ids.iter().map(|&id| cell(id)).unzip();
        let vals = ids.iter().map(|&id| 1 + id % 4).collect();
        (rows, cols, vals)
    }

    /// Apply the step; `Err` when the store refused it.  `clear()` panics
    /// when its checkpoint fails, which counts as a refusal here.
    fn apply(self, m: &mut HierMatrix<u64>) -> Result<(), String> {
        let (rows, cols, vals) = self.batch();
        let done = match self {
            Step::Flush => m.flush(),
            Step::Checkpoint => m.checkpoint(),
            Step::Clear => {
                let clear = std::panic::AssertUnwindSafe(|| m.clear());
                return std::panic::catch_unwind(clear).map_err(|_| "clear panicked".into());
            }
            _ => m.update_batch(&rows, &cols, &vals),
        };
        done.map_err(|e| e.to_string())
    }

    /// The step applied to the oracle.
    fn model(self, oracle: &mut BTreeMap<(u64, u64), u64>) {
        if self == Step::Clear {
            oracle.clear();
        }
        let (rows, cols, vals) = self.batch();
        for i in 0..rows.len() {
            let cell = oracle.entry((rows[i], cols[i])).or_insert(0);
            *cell = cell.wrapping_add(vals[i]);
        }
    }
}

/// The gens each level lists in the committed manifest, read off its
/// version-2 layout: a 48-byte header, the cuts, then per level a `u32`
/// count and a `{gen u64, nnz u64}` per file.
fn level_files(dir: &Path) -> Vec<Vec<u64>> {
    let bytes = std::fs::read(dir.join("MANIFEST")).unwrap();
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let gen = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_eq!(word(4), 2, "manifest version");
    let levels = word(12);
    let mut at = 48 + 8 * (levels - 1);
    (0..levels)
        .map(|_| {
            let files = word(at);
            at += 4 + 16 * files;
            (0..files).map(|k| gen(at - 16 * (files - k))).collect()
        })
        .collect()
}

fn files_per_level(dir: &Path) -> Vec<usize> {
    level_files(dir).iter().map(Vec::len).collect()
}

/// A 300-step stream through every structural case — merges into
/// non-empty levels, swaps into empty ones, chains, `flush()`, an explicit
/// `checkpoint()` over a non-empty level 0, `clear()`, lists that reach
/// their bound and are rewritten whole — reopened every 25 steps (cleanly
/// or after a kill) and compared with the oracle each time.  It ends with
/// every level's list within its bound.
#[test]
fn delta_store_stream_matches_the_oracle_across_reopens() {
    let dir = TempDir::new("hs-crash", "delta-stream");
    let cfg = || DurableConfig::new(dir.path()).fsync(FsyncPolicy::Never);
    let mut m = HierMatrix::<u64>::new_durable(DIM, DIM, delta_cuts(), cfg()).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = proptest::TestRng::seed_from_u64(0x5eed);
    // merge into level 1, swap into an empty level, chain, checkpoint
    // over level 0, whole rewrite at the bound
    let mut seen = [0u32; 5];
    let mut peak = [0usize; 3];
    for k in 0..300u64 {
        let step = match k % 50 {
            // Pinned: a checkpoint with level 0 holding cells, and a clear.
            10 => Step::Tiny(k),
            11 => Step::Checkpoint,
            49 if k == 149 => Step::Clear,
            _ => Step::from_pick(rng.below(10) as u8, rng.below(1000)),
        };
        let before = m.entries_per_level();
        let cascades = |m: &HierMatrix<u64>| -> Vec<u64> {
            (0..2).map(|i| m.stats().cascades_from_level(i)).collect()
        };
        let was = cascades(&m);
        let files_before = files_per_level(dir.path());
        step.apply(&mut m).unwrap();
        step.model(&mut oracle);
        let grew: Vec<bool> = cascades(&m).iter().zip(&was).map(|(n, w)| n > w).collect();
        if step != Step::Clear && step != Step::Flush {
            seen[0] += u32::from(grew[0] && before[1] > 0);
            seen[1] += u32::from(grew[0] && before[1] == 0 || grew[1] && before[2] == 0);
            seen[2] += u32::from(grew[0] && grew[1]);
        }
        if step == Step::Checkpoint && before[0] > 0 {
            seen[3] += 1;
            assert_eq!(files_per_level(dir.path())[0], 1, "level 0 written whole");
        }
        let files = files_per_level(dir.path());
        for (level, &n) in files.iter().enumerate() {
            assert!(n <= DELTA_BOUNDS[level], "step {k} ({step:?}): {files:?}");
            peak[level] = peak[level].max(n);
            // A list at its bound that takes another run is rewritten whole.
            if files_before[level] == DELTA_BOUNDS[level] && n == 1 && level > 0 {
                seen[4] += 1;
            }
        }
        if k % 25 == 24 {
            assert_eq!(contents(&m), oracle, "step {k}: before reopen");
            if k % 50 == 24 {
                drop(m);
            } else {
                std::mem::forget(m);
            }
            m = HierMatrix::<u64>::open_with(cfg()).unwrap();
            assert_eq!(contents(&m), oracle, "step {k}: after reopen");
            let report = m.recovery_report().unwrap();
            let listed: usize = files_per_level(dir.path()).iter().sum();
            assert_eq!(report.files_loaded, listed, "step {k}");
        }
    }
    m.flush().unwrap();
    assert_eq!(contents(&m), oracle);
    let files = files_per_level(dir.path());
    assert!(
        files.iter().zip(DELTA_BOUNDS).all(|(&n, bound)| n <= bound),
        "{files:?}"
    );
    assert!(seen.iter().all(|&n| n > 0), "unreached cases: {seen:?}");
    assert_eq!(peak[1], DELTA_BOUNDS[1], "level 1 never filled its list");
    drop(m);
    let r = HierMatrix::<u64>::open_with(cfg()).unwrap();
    assert_eq!(contents(&r), oracle);
    assert_eq!(r.recovery_report().unwrap().wal_records_replayed, 0);
}

// ---------------------------------------------------------------------
// Sharded engine: durable shards round-trip through a full engine drop.
// ---------------------------------------------------------------------

#[test]
fn sharded_durable_engine_reopens_every_shard() {
    let dir = TempDir::new("hs-crash", "sharded");
    let updates: Vec<(u64, u64, u64)> = (0..800u64)
        .map(|i| ((i * 2_654_435_761) % DIM, (i * 40_503) % DIM, 1 + i % 4))
        .collect();
    let mk = || {
        ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(3),
            DurableConfig::new(dir.path()),
        )
    };
    let mut e = mk().unwrap();
    assert!(e.is_durable());
    assert!(
        e.shard_recovery_reports().iter().all(Option::is_none),
        "fresh stores have no recovery to report"
    );
    for &(r, c, v) in &updates {
        e.update(r, c, v).unwrap();
    }
    e.flush().unwrap();
    let (wr, wc, wv) = e.materialize().unwrap().extract_tuples();
    drop(e);

    let mut e2 = mk().unwrap();
    let reports = e2.shard_recovery_reports();
    assert_eq!(reports.len(), 3);
    assert!(
        reports.iter().all(Option::is_some),
        "every shard was reopened, not recreated"
    );
    let (gr, gc, gv) = e2.materialize().unwrap().extract_tuples();
    assert_eq!((wr, wc, wv), (gr, gc, gv));
}

/// A reopened engine's total weight is the sum of what its shards' stores
/// hold — after a flushed close and after an unflushed one (whose staged
/// tuples never reached a worker) — and counts on exactly from there.
#[test]
fn sharded_durable_engine_reopens_with_its_total_weight() {
    let dir = TempDir::new("hs-crash", "sharded-weight");
    let mk = || {
        ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(2),
            DurableConfig::new(dir.path()),
        )
        .unwrap()
    };
    let stored = |e: &mut ShardedHierMatrix<u64>| -> u64 {
        e.materialize().unwrap().extract_tuples().2.iter().sum()
    };
    let mut e = mk();
    for i in 0..100u64 {
        e.update((i * 2_654_435_761) % DIM, i % 7, 3).unwrap();
    }
    e.flush().unwrap();
    drop(e);

    let mut e = mk();
    assert_eq!(stored(&mut e), 300);
    assert_eq!(StreamingSink::total_weight(&e), 300.0);
    for i in 0..50u64 {
        e.update((i * 40_503 + 1) % DIM, i % 5, 2).unwrap();
    }
    assert_eq!(e.total_weight_f64(), 400.0);
    drop(e);

    let mut e = mk();
    let held = stored(&mut e);
    assert!(held >= 300, "the flushed prefix survives");
    assert_eq!(e.total_weight_f64(), held as f64);
    e.update(1, 1, 5).unwrap();
    assert_eq!(e.total_weight_f64(), (held + 5) as f64);
}

// ---------------------------------------------------------------------
// Failpoint-armed crash injection.
// ---------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod failpoint_crashes {
    use super::*;
    use crate::common::quiet_failpoint_panics;
    use hyperstream::hier::FailAction;

    /// Every fallible persistence site, in WAL-append → checkpoint order.
    const SITES: [&str; 6] = [
        "persist-wal-append",
        "persist-partial-write",
        "persist-pre-fsync",
        "persist-post-fsync",
        "persist-mid-rename",
        "persist-manifest-swap",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        // The tentpole property: crash (injected error + simulated
        // kill) at EVERY persistence site, on a random schedule, and the
        // reopened store must equal the acknowledged prefix — plus at
        // most the single in-flight update whose durability the crash
        // interrupted mid-acknowledgement.
        #[test]
        fn crash_at_any_persistence_site_recovers_acked_prefix(
            site in 0usize..6,
            nth in 1u64..20,
            updates in update_stream(120, 32, 160),
        ) {
            let dir = TempDir::new("hs-crash", "site-crash");
            let mut m = HierMatrix::<u64>::new_durable(
                DIM, DIM, small_cuts(), DurableConfig::new(dir.path()),
            ).unwrap();
            m.failpoints().arm(SITES[site], None, nth, FailAction::Error);
            let mut acked = 0usize;
            let mut failed = false;
            for &(r, c, v) in &updates {
                match m.update(r, c, v) {
                    Ok(()) => acked += 1,
                    Err(_) => { failed = true; break; }
                }
            }
            std::mem::forget(m);

            // Reopen must ALWAYS succeed, whatever torn state the
            // injected failure left behind.
            let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
            let got = contents(&r);
            // Zero silent loss: every acknowledged update is present.
            // The failed update may or may not have become durable before
            // its error surfaced (e.g. an fsync that happened but whose
            // site then reported failure) — both outcomes are honest.
            let lo = oracle(&updates[..acked]);
            let hi = oracle(&updates[..(acked + usize::from(failed)).min(updates.len())]);
            prop_assert!(
                got == lo || got == hi,
                "site {} nth {}: recovered neither the acked prefix ({}) nor acked+1",
                SITES[site], nth, acked,
            );

            // The reopened store must be fully serviceable.
            r.update(3, 3, 7).unwrap();
            r.flush().unwrap();
            let want2 = contents(&r);
            drop(r);
            let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
            prop_assert_eq!(contents(&r2), want2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        // Error, then CONTINUE: a failed append — refused outright
        // (`persist-wal-append`) or torn between its two writes
        // (`persist-partial-write`) — must not poison the log.  Every
        // update acknowledged after the failure is appended behind it,
        // and recovery must reach all of them: no torn bytes may stay in
        // front of a good frame.
        #[test]
        fn failed_append_then_continued_ingest_loses_no_acked_update(
            site in 0usize..2,
            nth in 1u64..40,
            updates in update_stream(120, 32, 160),
        ) {
            let dir = TempDir::new("hs-crash", "fail-continue");
            let mut m = HierMatrix::<u64>::new_durable(
                DIM, DIM, small_cuts(), DurableConfig::new(dir.path()),
            ).unwrap();
            m.failpoints().arm(SITES[site], None, nth, FailAction::Error);
            let mut acked = Vec::new();
            let mut failed = Vec::new();
            for &u in &updates {
                match m.update(u.0, u.1, u.2) {
                    Ok(()) => acked.push(u),
                    Err(_) => failed.push(u),
                }
            }
            prop_assert!(failed.len() <= 1, "a site fires exactly once");
            let in_memory = contents(&m);
            std::mem::forget(m);

            let r = HierMatrix::<u64>::open(dir.path()).unwrap();
            let got = contents(&r);
            // Disk and memory agree on what happened ...
            prop_assert_eq!(&got, &in_memory, "site {} nth {}", SITES[site], nth);
            // ... and that is every acknowledged update, plus at most the
            // one failed update when its error surfaced from the
            // checkpoint *after* it was logged and applied
            // (`persist-partial-write` also guards the level-file write).
            let lo = oracle(&acked);
            acked.extend(failed);
            prop_assert!(
                got == lo || got == oracle(&acked),
                "site {} nth {}: acknowledged updates lost", SITES[site], nth,
            );
        }
    }

    /// A WAL-append failure must reject the update *atomically*: the
    /// in-memory matrix ends on the pre-update state (the tuple is appended,
    /// then logged, then taken back when the log refuses it), and the store
    /// keeps working once the fault clears.
    #[test]
    fn wal_append_failure_rejects_update_atomically() {
        let dir = TempDir::new("hs-crash", "append-fail");
        let mut m =
            HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
                .unwrap();
        m.update(1, 1, 10).unwrap();
        let before = contents(&m);
        m.failpoints()
            .arm("persist-wal-append", None, 1, FailAction::Error);
        assert!(matches!(m.update(2, 2, 20), Err(GrbError::Injected(_))));
        assert_eq!(contents(&m), before, "rejected update must not apply");
        m.update(3, 3, 30).unwrap();
        m.flush().unwrap();
        let want = contents(&m);
        drop(m);
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(contents(&r), want);
        assert!(!want.contains_key(&(2, 2)));
    }

    /// Everything a rejected batch must leave as it was.
    fn observe(m: &HierMatrix<u64>) -> impl PartialEq + std::fmt::Debug {
        (
            contents(m),
            m.nvals_exact(),
            m.total_weight(),
            m.level_entries_bound(0),
            m.stats().updates,
            m.wal_telemetry(),
        )
    }

    /// A batch is appended to level 0 (folded) *before* its frame is
    /// logged; a failed append — refused outright or torn between its two
    /// writes — must take it back out, whichever way it went in, and the
    /// store must keep working once the fault clears.
    #[test]
    fn wal_append_failure_rejects_a_batch_atomically() {
        for site in ["persist-wal-append", "persist-partial-write"] {
            for kind in [0u8, 1, 2, UPDATE_MATRIX] {
                let dir = TempDir::new("hs-crash", "batch-append-fail");
                let mut m = HierMatrix::<u64>::new_durable(
                    DIM,
                    DIM,
                    batch_cuts(),
                    DurableConfig::new(dir.path()),
                )
                .unwrap();
                // Settled cells under a pending tail: the rejected batch
                // lands behind tuples that must stay.
                for (r, c, v) in [batch_of(0, 1, 1), batch_of(3, 2, 1)] {
                    m.update_batch(&r, &c, &v).unwrap();
                }
                let before = observe(&m);
                let held = contents(&m);
                assert_eq!(m.level_entries_bound(0), 300 + 100, "cells and a tail");

                let batch = batch_of(kind, 3, 1);
                m.failpoints().arm(site, None, 1, FailAction::Error);
                let refused = apply(&mut m, kind, &batch);
                assert!(
                    matches!(refused, Err(GrbError::Injected(_))),
                    "{site}, kind {kind}: {refused:?}"
                );
                assert_eq!(observe(&m), before, "{site}, kind {kind}");

                apply(&mut m, kind, &batch).unwrap();
                let want = contents(&m);
                assert_ne!(want, held, "the next batch lands");
                std::mem::forget(m);
                let reopened = HierMatrix::<u64>::open(dir.path()).unwrap();
                assert_eq!(contents(&reopened), want, "{site}, kind {kind}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        // The crash property of the single-update path, for batches:
        // injected error + simulated kill at every persistence site on a
        // random schedule of folded, raw, spilling and short batches and
        // update matrices.  The
        // reopened store holds an acknowledged *batch* prefix, or that plus
        // the one batch in flight — never part of a batch, although the
        // frame that carries it holds fewer tuples than the caller sent.
        #[test]
        fn crash_at_any_persistence_site_recovers_an_acked_batch_prefix(
            site in 0usize..6,
            nth in 1u64..10,
            kinds in prop::collection::vec(0u8..5, 3usize..8),
        ) {
            let dir = TempDir::new("hs-crash", "batch-site-crash");
            let mut m = HierMatrix::<u64>::new_durable(
                DIM, DIM, batch_cuts(), DurableConfig::new(dir.path()),
            ).unwrap();
            let batches: Vec<_> = kinds
                .iter()
                .enumerate()
                .map(|(salt, &kind)| batch_of(kind, salt as u64, 1))
                .collect();
            m.failpoints().arm(SITES[site], None, nth, FailAction::Error);
            let mut acked = 0usize;
            let mut failed = false;
            for (batch, &kind) in batches.iter().zip(&kinds) {
                match apply(&mut m, kind, batch) {
                    Ok(()) => acked += 1,
                    Err(_) => { failed = true; break; }
                }
            }
            std::mem::forget(m);

            let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
            let got = contents(&r);
            let lo = batch_oracle(&batches[..acked]);
            let hi = batch_oracle(&batches[..(acked + usize::from(failed)).min(batches.len())]);
            prop_assert!(
                got == lo || got == hi,
                "site {} nth {} kinds {:?}: recovered neither the {} acked batches nor one more",
                SITES[site], nth, kinds, acked,
            );

            // The reopened store must be fully serviceable.
            let (br, bc, bv) = batch_of(0, 99, 1);
            r.update_batch(&br, &bc, &bv).unwrap();
            r.flush().unwrap();
            let want2 = contents(&r);
            drop(r);
            let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
            prop_assert_eq!(contents(&r2), want2);
        }
    }

    /// The oracle after `steps`.
    fn step_oracle(steps: &[Step]) -> BTreeMap<(u64, u64), u64> {
        let mut oracle = BTreeMap::new();
        for step in steps {
            step.model(&mut oracle);
        }
        oracle
    }

    fn step_sequence(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..10, 0u64..1000), 4..max_len)
            .prop_map(|v| v.into_iter().map(|(p, s)| Step::from_pick(p, s)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        // The crash property over the state machine's steps: injected
        // error + simulated kill at every persistence site, on sequences
        // of runs added to lists, chains, whole rewrites, `flush()`,
        // `checkpoint()` and `clear()`.  The reopened store holds the
        // acknowledged step prefix, or that plus the step in flight.
        #[test]
        fn crash_at_any_site_in_the_delta_store_recovers_the_acked_steps(
            site in 0usize..6,
            nth in 1u64..16,
            steps in step_sequence(28),
        ) {
            quiet_failpoint_panics();
            let dir = TempDir::new("hs-crash", "delta-crash");
            let mut m = HierMatrix::<u64>::new_durable(
                DIM, DIM, delta_cuts(), DurableConfig::new(dir.path()),
            ).unwrap();
            m.failpoints().arm(SITES[site], None, nth, FailAction::Error);
            let mut acked = 0usize;
            let mut failed = false;
            for step in &steps {
                match step.apply(&mut m) {
                    Ok(()) => acked += 1,
                    Err(_) => { failed = true; break; }
                }
            }
            std::mem::forget(m);

            let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
            let got = contents(&r);
            let lo = step_oracle(&steps[..acked]);
            let hi = step_oracle(&steps[..(acked + usize::from(failed)).min(steps.len())]);
            prop_assert!(
                got == lo || got == hi,
                "site {} nth {} steps {:?}: recovered neither the {} acked steps nor one more",
                SITES[site], nth, steps, acked,
            );
            let files = files_per_level(dir.path());
            prop_assert!(files.iter().zip(DELTA_BOUNDS).all(|(&n, b)| n <= b), "{:?}", files);

            // The reopened store must be fully serviceable.
            Step::Pool(7).apply(&mut r).unwrap();
            r.flush().unwrap();
            let want2 = contents(&r);
            drop(r);
            let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
            prop_assert_eq!(contents(&r2), want2);
        }
    }

    /// Durable sharded engine: a worker killed mid-cascade respawns from
    /// its on-disk store — `ShardRecovery::disk` reports the reopen, the
    /// checkpointed prefix survives, and the engine returns to healthy.
    #[test]
    fn durable_engine_respawns_lost_shard_from_disk() {
        quiet_failpoint_panics();
        let dir = TempDir::new("hs-crash", "respawn");
        let mut e = ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(2),
            DurableConfig::new(dir.path()),
        )
        .unwrap();
        for i in 0..400u64 {
            e.update((i * 2_654_435_761) % DIM, i % 50, 1).unwrap();
        }
        e.flush().unwrap();
        let before = {
            let (r, c, v) = e.materialize().unwrap().extract_tuples();
            let mut m = BTreeMap::new();
            for i in 0..r.len() {
                *m.entry((r[i], c[i])).or_insert(0u64) += v[i];
            }
            m
        };

        // Kill whichever worker cascades next, then drive until the
        // engine notices the loss.
        e.failpoints()
            .arm("hier-cascade", None, 1, FailAction::Panic);
        let mut saw_loss = false;
        for i in 0..2000u64 {
            let r = e.update((i * 2_654_435_761) % DIM, i % 50, 1);
            if r.is_err() || e.flush().is_err() {
                saw_loss = true;
                break;
            }
        }
        assert!(saw_loss, "the armed cascade panic never killed a worker");

        let lost = match e.health() {
            EngineHealth::Degraded { lost } => lost,
            h => panic!("expected a degraded engine, got {h:?}"),
        };
        for i in lost {
            let rec = e.respawn_shard(i).unwrap();
            assert_eq!(rec.shard, i);
            let disk = rec.disk.expect("durable respawn reports the disk reopen");
            assert!(disk.levels_loaded > 0 || disk.wal_records_replayed > 0);
        }
        assert_eq!(e.health(), EngineHealth::Healthy);
        e.flush().unwrap();
        let after = {
            let (r, c, v) = e.materialize().unwrap().extract_tuples();
            let mut m = BTreeMap::new();
            for i in 0..r.len() {
                *m.entry((r[i], c[i])).or_insert(0u64) += v[i];
            }
            m
        };
        // The checkpointed prefix is a pointwise lower bound: `⊕` only
        // accumulates, so recovery may add post-checkpoint updates but can
        // never shrink below what `flush` made durable.
        for (k, v) in &before {
            assert!(
                after.get(k).is_some_and(|got| got >= v),
                "entry {k:?} shrank below the checkpointed value"
            );
        }
    }

    /// A durable respawn counts what the dead worker was handed since its
    /// last clean flush: a worker killed on its first batch never applied
    /// or logged the batches queued behind it, so the count is non-zero and
    /// covers every unit of weight the reopened engine is missing.
    #[test]
    fn durable_respawn_counts_the_batches_the_dead_worker_never_logged() {
        quiet_failpoint_panics();
        let dir = TempDir::new("hs-crash", "respawn-count");
        let victim = 1;
        let mut e = ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(2),
            DurableConfig::new(dir.path()),
        )
        .unwrap();
        e.failpoints()
            .arm("worker-apply", Some(victim), 1, FailAction::Panic);
        for i in 0..400u64 {
            // Once the victim is gone its tuples stay staged (and counted
            // in the total weight) behind a `ShardsLost` error.
            let _ = e.update((i * 2_654_435_761) % DIM, i % 50, 1);
        }
        let start = std::time::Instant::now();
        while !e.lost_shards().contains(&victim) {
            assert!(start.elapsed().as_secs() < 10, "the victim never died");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let rec = e.respawn_shard(victim).unwrap();
        assert!(
            rec.lost_tuples > 0,
            "the dead worker's batches were never logged"
        );
        let kept: u64 = e.materialize().unwrap().extract_tuples().2.iter().sum();
        // The respawn replaced the victim's share of the total with what
        // its reopened store holds: the total counts no lost tuple.
        assert_eq!(e.total_weight_f64(), kept as f64);
        // The victim died before applying or logging anything, so every
        // tuple it was handed is gone — exactly the ones counted lost.
        assert_eq!(400 - kept, rec.lost_tuples);
    }
}
