#![recursion_limit = "512"] // the proptest macro expansion is token-heavy

//! Byte-mutation fuzz for the on-disk parsers (`crates/hier/src/persist`).
//!
//! Build a valid durable store, then mutate it — flip a byte, truncate a
//! file, or append garbage, at an arbitrary position in an arbitrary
//! store file — and reopen.  The strict-parsing contract says exactly two
//! outcomes are legal:
//!
//! * a **typed refusal**: [`GrbError::Corruption`] (never a panic, never
//!   an out-of-bounds read, never an unbounded allocation), or
//! * a **clean recovery**: `Ok`, with contents equal to the flat oracle
//!   of some acknowledged prefix of the update stream (a mutation in the
//!   WAL tail is indistinguishable from a crash-torn tail; a mutation in
//!   a level file's inter-section padding is outside every checksummed
//!   byte and must be ignored).
//!
//! Anything else — a panic, a hang, or recovered contents that match no
//! prefix — is a parser bug.  Runs in the default sweep (no failpoints
//! needed: the corruption is literal bytes on disk).

use hyperstream::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const DIM: u64 = 1 << 32;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("hs-fuzz-{}-{}-{}", std::process::id(), name, n));
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn oracle(updates: &[(u64, u64, u64)]) -> BTreeMap<(u64, u64), u64> {
    let mut m = BTreeMap::new();
    for &(r, c, v) in updates {
        *m.entry((r, c)).or_insert(0) += v;
    }
    m
}

fn contents(m: &HierMatrix<u64>) -> BTreeMap<(u64, u64), u64> {
    let (r, c, v) = m.materialize_ref().extract_tuples();
    let mut out = BTreeMap::new();
    for i in 0..r.len() {
        *out.entry((r[i], c[i])).or_insert(0) += v[i];
    }
    out
}

/// Build a store holding `updates` (flushed half-way so both level files
/// and a non-empty WAL tail exist), leaving it crash-shaped via `forget`.
fn build_store(dir: &Path, updates: &[(u64, u64, u64)]) {
    let mut m = HierMatrix::<u64>::new_durable(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![8, 64]).unwrap(),
        DurableConfig::new(dir),
    )
    .unwrap();
    let half = updates.len() / 2;
    for &(r, c, v) in &updates[..half] {
        m.update(r, c, v).unwrap();
    }
    m.flush().unwrap();
    for &(r, c, v) in &updates[half..] {
        m.update(r, c, v).unwrap();
    }
    std::mem::forget(m);
}

fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

/// The store's one live WAL file.
fn wal_file(dir: &Path) -> PathBuf {
    store_files(dir)
        .into_iter()
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("store has a live WAL")
}

fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..120, 0u64..120, 1u64..5), 64..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

/// The three shapes of disk rot under test.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    FlipByte,
    Truncate,
    Extend,
}

fn apply_mutation(path: &Path, kind: Mutation, pos_ppm: u64, garbage: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    let len = bytes.len() as u64;
    let pos = (len * pos_ppm / 1_000_000).min(len.saturating_sub(1)) as usize;
    match kind {
        Mutation::FlipByte => {
            if !bytes.is_empty() {
                bytes[pos] ^= garbage.max(1); // never a zero-flip no-op
            }
        }
        Mutation::Truncate => bytes.truncate(pos),
        Mutation::Extend => bytes.extend(std::iter::repeat(garbage).take(1 + garbage as usize)),
    }
    std::fs::write(path, &bytes).unwrap();
}

/// `got` equals the oracle of some update prefix.
fn is_some_prefix(got: &BTreeMap<(u64, u64), u64>, updates: &[(u64, u64, u64)]) -> bool {
    (0..=updates.len()).any(|k| &oracle(&updates[..k]) == got)
}

/// The frame checksum runs a 16-byte-chunk kernel with a bytewise
/// remainder: a flip in any of a chunk's 16 byte lanes, or anywhere in the
/// sub-16-byte remainder, must still fail the frame — the batch drops out
/// as a torn tail and the checkpointed state below it is untouched.
#[test]
fn flip_in_every_crc_lane_and_in_the_remainder_drops_the_frame() {
    let dir = TempDir::new("crc-lanes");
    let mut m = HierMatrix::<u64>::new_durable(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![8, 64]).unwrap(),
        DurableConfig::new(dir.path()),
    )
    .unwrap();
    let base = [(1u64, 2u64, 3u64), (4, 5, 6)];
    for &(r, c, v) in &base {
        m.update(r, c, v).unwrap();
    }
    m.flush().unwrap();
    // One three-tuple frame behind the checkpoint: a 72-byte payload is
    // four 16-byte chunks and an 8-byte remainder.
    let tail = [(7u64, 8u64, 9u64), (10, 11, 12), (1, 2, 30)];
    m.update_batch(&tail.map(|t| t.0), &tail.map(|t| t.1), &tail.map(|t| t.2))
        .unwrap();
    std::mem::forget(m);

    let wal = wal_file(dir.path());
    let orig = std::fs::read(&wal).unwrap();
    let payload = 16 + 12; // file header + frame header
    assert_eq!(orig.len(), payload + 72);

    let checkpointed = oracle(&base);
    let second_chunk = (16..32).map(|lane| payload + lane);
    let remainder = (64..72).map(|k| payload + k);
    for pos in second_chunk.chain(remainder) {
        let mut bytes = orig.clone();
        bytes[pos] ^= 0x04;
        std::fs::write(&wal, &bytes).unwrap();
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(
            contents(&r),
            checkpointed,
            "flip at byte {pos} went undetected"
        );
        let rep = r.recovery_report().unwrap();
        assert!(rep.torn_tail_truncated && rep.wal_records_replayed == 0);
    }

    // The unflipped frame does replay: the flips are what dropped it.
    std::fs::write(&wal, &orig).unwrap();
    let r = HierMatrix::<u64>::open(dir.path()).unwrap();
    let all: Vec<_> = base.iter().chain(&tail).copied().collect();
    assert_eq!(contents(&r), oracle(&all));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_store_is_refused_typed_or_recovered_to_a_prefix(
        updates in update_stream(200),
        file_ppm in 0u64..1_000_000,
        pos_ppm in 0u64..1_000_000,
        kind_sel in 0u8..3,
        garbage in 0u8..255,
    ) {
        let dir = TempDir::new("mutate");
        build_store(dir.path(), &updates);
        let files = store_files(dir.path());
        prop_assert!(!files.is_empty());
        let target = &files[(files.len() as u64 * file_ppm / 1_000_000) as usize % files.len()];
        let kind = [Mutation::FlipByte, Mutation::Truncate, Mutation::Extend]
            [kind_sel as usize];
        apply_mutation(target, kind, pos_ppm, garbage);

        // Strict open: typed error or a prefix — never a panic, never an
        // invented or silently wrong answer.
        match HierMatrix::<u64>::open(dir.path()) {
            Ok(m) => {
                let got = contents(&m);
                prop_assert!(
                    is_some_prefix(&got, &updates),
                    "{:?} of {:?} recovered contents matching no update prefix",
                    kind, target.file_name(),
                );
            }
            Err(GrbError::Corruption { detail }) => {
                prop_assert!(!detail.is_empty(), "corruption without a detail string");
            }
            Err(other) => {
                prop_assert!(false, "non-corruption error {other:?} from mutated store");
            }
        }

        // Salvage open may additionally survive level-file rot (loading
        // the bad level empty), but must never panic and must report any
        // level it dropped.
        if let Ok(m) =
            HierMatrix::<u64>::open_with(DurableConfig::new(dir.path()).salvage(true))
        {
            let rep = m.recovery_report().unwrap();
            if rep.corrupt_levels.is_empty() {
                prop_assert!(is_some_prefix(&contents(&m), &updates));
            }
        }
    }

    // The WAL-specific half of the contract, biased to hit the tail: a
    // mutation strictly inside the WAL can cost at most the frames at and
    // after the mutated byte — everything before it must survive.
    #[test]
    fn wal_mutation_never_loses_preceding_frames(
        updates in update_stream(160),
        pos_ppm in 0u64..1_000_000,
        garbage in 1u8..255,
    ) {
        let dir = TempDir::new("wal-rot");
        build_store(dir.path(), &updates);
        let wal = wal_file(dir.path());
        let len = std::fs::metadata(&wal).unwrap().len();
        if len <= 16 {
            // The last update triggered a cascade-checkpoint and rotated
            // the WAL empty: just a header, no tail to mutate.
            return;
        }
        // Keep the 16-byte header intact: it is fsynced before the
        // manifest references the file, so header rot models a worn
        // manifest, not a crash (the generic fuzz above covers it).
        let pos = (16 + (len - 16) * pos_ppm / 1_000_000).min(len - 1).max(16) as usize;
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[pos] ^= garbage;
        std::fs::write(&wal, &bytes).unwrap();

        let m = HierMatrix::<u64>::open(dir.path()).unwrap();
        let got = contents(&m);
        prop_assert!(is_some_prefix(&got, &updates));
        // Lower bound: the checkpointed half can never be lost to WAL rot.
        let half = oracle(&updates[..updates.len() / 2]);
        for (k, v) in &half {
            prop_assert!(
                got.get(k).is_some_and(|g| g >= v),
                "checkpointed entry {k:?} lost to a WAL mutation"
            );
        }
    }
}
