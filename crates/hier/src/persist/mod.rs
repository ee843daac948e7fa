//! Durable backing for a hierarchical matrix: checksummed on-disk level
//! files, a CRC-framed write-ahead log, and an atomically swapped manifest.
//!
//! ## Directory layout
//!
//! A durable matrix owns one directory:
//!
//! ```text
//! <dir>/MANIFEST            # root of trust: which files are current
//! <dir>/lvl-<gen>.dat       # one immutable DCSR per non-empty level
//! <dir>/wal-<gen>.log       # pending-tail write-ahead log
//! ```
//!
//! Every file carries a magic number, a format version, the scalar
//! [type tag](hyperstream_graphblas::ScalarType::TYPE_TAG) and CRC32
//! checksums; parsers validate strictly and return
//! [`GrbError::Corruption`] — never a panic — on any malformed input.
//!
//! ## Crash-consistency argument
//!
//! The manifest is the *only* mutable name.  Level files and WAL files are
//! written once under fresh generation numbers, fsynced, and only then
//! referenced by a new manifest that is itself committed by
//! write-temp → fsync → rename → fsync-directory.  A crash at any
//! intermediate point leaves the old manifest naming the old (complete,
//! checksummed) file set; new-generation files that were mid-write are
//! simply unreferenced garbage, swept on the next open or checkpoint.
//! Within the WAL, a torn final frame fails its length or CRC check and
//! recovery truncates the log there — the acknowledged-fsynced prefix is
//! exactly what survives.
//!
//! Checkpoints ride the cascade: when a cascade chain completes, level 0
//! is empty and the settled levels are the complete state, so the
//! checkpoint rewrites the dirty levels, rotates the WAL, and commits.
//! Because ⊕ is associative and commutative, replaying WAL records on top
//! of checkpointed levels reproduces the represented matrix regardless of
//! where the cascade schedule was interrupted.
//!
//! ## What a frame holds, and when it is written
//!
//! The hierarchy absorbs repeated cells in fast memory, and the log rides
//! on that: a batch is first appended to level 0's pending buffer — through
//! the in-batch fold, which keeps 34k distinct cells of a 100k-tuple batch
//! of the paper's stream — and its frame carries exactly the tuples that
//! append added, not the slices the caller sent.  The order is append →
//! log → acknowledge.  If the log refuses the frame (too large, an I/O
//! error, a failed fsync) the appended tuples are cut off the pending
//! buffer before the error returns, so neither side holds the batch:
//! statistics, cascade and checkpoint run after the log, `&mut self` keeps
//! readers out, and a crash in the interval loses memory that was never
//! acknowledged.  An `Ok` means what it meant: the frame is in the log,
//! fsynced where the [`FsyncPolicy`] says so.  Replay settles on a schedule
//! of its own (it counts logged tuples, the live matrix counted raw ones):
//! nothing for integer weights, at most the order of an `f64` sum.
//!
//! A commit leaves the previous generation's files unreferenced.  Unlinking
//! them costs 2–3 ms on what is already the slowest batch around, so the
//! checkpoint a cascade triggers only *queues* them: the next update call
//! unlinks them before it logs, `flush()`, `clear()` and `checkpoint()`
//! before they return, and so does drop.  A crash in between leaves what
//! every open already sweeps.

pub mod format;
pub mod manifest;
pub mod recover;
pub mod wal;

use hyperstream_graphblas::GrbError;
use std::path::PathBuf;

/// When the write-ahead log is flushed to stable storage.
///
/// | Policy | Durability on crash | Measured ingest window vs. in-memory |
/// |---|---|---|
/// | `EveryBatch` | every acknowledged batch | 1.1–1.3x the `Never` window (`persist.every_batch_tax`) |
/// | `EveryN(n)`  | all but the last `< n` batches | between the two |
/// | `Never`      | only checkpointed levels | 1.8–2.1x (`persist.ingest_tax`; 2.1–2.5x while frames held raw tuples, 3.88x before the sliced CRC) |
///
/// Measured by `benchmark/run.sh --trace --workload durable_ingest` (2M
/// power-law updates in 100k batches, 20 WAL frames and 4 checkpoints, on
/// one host against the previous commit).  The format never changed on the
/// way down: slicing-by-16 [`Crc32`] (1.84 GB/s here, bytewise 0.35) and
/// single-pass encoding took the tax from 3.88 to 2.14; frames that hold
/// what level 0 kept of a batch (see the [module text](self)) write 19.56
/// bytes per raw update, was 35.42 (`persist.wchar_per_update`, exact), a
/// plain batch's append costs 0.85 ms, was 2.6, and every policy fsyncs a
/// third of the bytes it did.  What is left is the checkpoint: each
/// completed cascade chain rewrites its dirty levels whole (encode + CRC,
/// write, fsync) and commits through fsync → rename → manifest, 9–19 ms
/// on top of a 5–9 ms cascade batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync the WAL after every appended batch: an `Ok` from an update
    /// means the batch survives any crash.
    EveryBatch,
    /// Fsync after every `n` appended batches (clamped to at least 1).
    EveryN(u64),
    /// Never fsync on append; only checkpoints force data to disk.
    Never,
}

impl FsyncPolicy {
    /// Stable label used by benchmark artifacts.
    pub fn label(self) -> String {
        match self {
            FsyncPolicy::EveryBatch => "every-batch".to_string(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// Configuration of a durable matrix directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// Directory holding the manifest, level files and WAL.
    pub dir: PathBuf,
    /// WAL fsync policy (default [`FsyncPolicy::EveryBatch`]).
    pub fsync: FsyncPolicy,
    /// When true, a level file that fails validation is loaded as an
    /// empty level and recorded in
    /// [`RecoveryReport::corrupt_levels`] instead of failing the open.
    /// Default false: corruption fails the open with
    /// [`GrbError::Corruption`].
    pub salvage_corrupt_levels: bool,
}

impl DurableConfig {
    /// Durable storage under `dir` with the default policy: fsync every
    /// batch, strict corruption handling.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryBatch,
            salvage_corrupt_levels: false,
        }
    }

    /// Replace the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Enable or disable salvage of corrupt level files.
    pub fn salvage(mut self, on: bool) -> Self {
        self.salvage_corrupt_levels = on;
        self
    }

    /// The per-shard sub-configuration used by the sharded engine: same
    /// policy, `shard-<i>` subdirectory.
    pub fn shard(&self, i: usize) -> Self {
        Self {
            dir: self.dir.join(format!("shard-{i}")),
            ..self.clone()
        }
    }
}

/// What recovery found when a durable matrix was opened.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Non-empty levels loaded from checkpointed level files.
    pub levels_loaded: usize,
    /// WAL records (batches) replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// True when the WAL ended in a torn or corrupt frame that recovery
    /// truncated away (the expected signature of a crash mid-append; a
    /// clean shutdown never sets this).
    pub torn_tail_truncated: bool,
    /// Levels whose files failed validation and were salvaged as empty
    /// (only populated under
    /// [`DurableConfig::salvage_corrupt_levels`]).
    pub corrupt_levels: Vec<usize>,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} level file(s), replayed {} WAL record(s), torn tail: {}, corrupt levels: {:?}",
            self.levels_loaded,
            self.wal_records_replayed,
            self.torn_tail_truncated,
            self.corrupt_levels
        )
    }
}

/// Construct the typed corruption error.
pub(crate) fn corruption(detail: impl Into<String>) -> GrbError {
    GrbError::Corruption {
        detail: detail.into(),
    }
}

/// Map an I/O failure on the durable store to the typed error.
pub(crate) fn io_err(context: &str, e: std::io::Error) -> GrbError {
    corruption(format!("{context}: {e}"))
}

/// Slicing-by-16 lookup tables for CRC32 (IEEE 802.3, reflected polynomial
/// `0xEDB8_8320`).  `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen independent lookups advance the state by a whole 16-byte chunk.
/// 16 KiB: resident in L1 beside the data stream.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) —
/// implemented in-crate because the workspace is offline and
/// `forbid(unsafe_code)`.  `update` may be fed any split of the input: the
/// result depends only on the concatenated bytes.
///
/// Every byte the store writes or reads passes through here, so the kernel
/// is slicing-by-16: the bytewise loop is one dependent table load per
/// byte; this form does sixteen independent loads per 16-byte chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) -> &mut Self {
        const T: &[[u32; 256]; 16] = &CRC_TABLES;
        let word = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let a = word(&c[0..4]) ^ crc;
            let b = word(&c[4..8]);
            let d = word(&c[8..12]);
            let e = word(&c[12..16]);
            crc = T[15][(a & 0xFF) as usize]
                ^ T[14][((a >> 8) & 0xFF) as usize]
                ^ T[13][((a >> 16) & 0xFF) as usize]
                ^ T[12][(a >> 24) as usize]
                ^ T[11][(b & 0xFF) as usize]
                ^ T[10][((b >> 8) & 0xFF) as usize]
                ^ T[9][((b >> 16) & 0xFF) as usize]
                ^ T[8][(b >> 24) as usize]
                ^ T[7][(d & 0xFF) as usize]
                ^ T[6][((d >> 8) & 0xFF) as usize]
                ^ T[5][((d >> 16) & 0xFF) as usize]
                ^ T[4][(d >> 24) as usize]
                ^ T[3][(e & 0xFF) as usize]
                ^ T[2][((e >> 8) & 0xFF) as usize]
                ^ T[1][((e >> 16) & 0xFF) as usize]
                ^ T[0][(e >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = T[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
        self
    }

    pub(crate) fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot [`Crc32`] of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Append a little-endian `u32` to a byte buffer.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64` to a byte buffer.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32` at `off`, or fail with [`corruption`].
pub(crate) fn get_u32(buf: &[u8], off: usize, what: &str) -> Result<u32, GrbError> {
    let end = off.checked_add(4).ok_or_else(|| corruption(what))?;
    let bytes = buf
        .get(off..end)
        .ok_or_else(|| corruption(format!("{what}: short read at offset {off}")))?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
}

/// Read a little-endian `u64` at `off`, or fail with [`corruption`].
pub(crate) fn get_u64(buf: &[u8], off: usize, what: &str) -> Result<u64, GrbError> {
    let end = off.checked_add(8).ok_or_else(|| corruption(what))?;
    let bytes = buf
        .get(off..end)
        .ok_or_else(|| corruption(format!("{what}: short read at offset {off}")))?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Fill `dst` — exactly 8 bytes per word — with little-endian `words` and
/// fold the encoded bytes into `crc`.  Writing through pre-sized 8-byte
/// chunks (instead of growing a `Vec` word by word) lets the compiler turn
/// the loop into a block copy; checksumming block by block reads each byte
/// back while it is still in L1.
pub(crate) fn encode_u64s(dst: &mut [u8], words: impl Iterator<Item = u64>, crc: &mut Crc32) {
    /// A multiple of 16 so every block but the last stays on the CRC
    /// kernel's 16-byte path.
    const BLOCK: usize = 16 * 1024;
    let mut words = words;
    for block in dst.chunks_mut(BLOCK) {
        for (chunk, w) in block.chunks_exact_mut(8).zip(&mut words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        crc.update(block);
    }
    debug_assert!(words.next().is_none(), "dst holds every word");
}

/// The little-endian `u64` words of `bytes` (a trailing partial word is
/// ignored), for callers to collect straight into their final vector.
pub(crate) fn le_u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// Mutable durable bookkeeping carried by a durable
/// [`HierMatrix`](crate::HierMatrix).  Value-independent: the WAL stores
/// [`ScalarType::encode_bits`](hyperstream_graphblas::ScalarType::encode_bits)
/// words, so nothing here is generic.
#[derive(Debug)]
pub(crate) struct DurableState {
    /// The directory + policy this matrix persists to.
    pub(crate) cfg: DurableConfig,
    /// Open WAL for the current generation.
    pub(crate) wal: wal::WalWriter,
    /// Generation number of the current WAL file.
    pub(crate) wal_gen: u64,
    /// Next unused generation number.
    pub(crate) next_gen: u64,
    /// The level files the committed manifest references.
    pub(crate) levels: Vec<manifest::LevelEntry>,
    /// Levels whose in-memory settled content has diverged from their
    /// committed level file since the last checkpoint.
    pub(crate) dirty: Vec<bool>,
    /// Report of the recovery that produced this state (None for a
    /// freshly created store).
    pub(crate) report: Option<RecoveryReport>,
    /// Reusable file image for [`format::write_level`]: grows to the
    /// largest level checkpointed so far and is then reused, so
    /// steady-state checkpoints allocate nothing.  I/O scratch, not matrix
    /// content: it is not part of `memory_bytes()`.
    pub(crate) level_buf: Vec<u8>,
    /// Files the committed manifest stopped referencing that are still on
    /// disk, queued by a checkpoint for [`DurableState::remove_retired`].
    pub(crate) retired: Vec<PathBuf>,
    /// WAL frames appended by writers already retired by checkpoint
    /// rotation (the live writer's own count is added on read).
    pub(crate) retired_appends: u64,
    /// Fsyncs issued by retired WAL writers.
    pub(crate) retired_syncs: u64,
}

impl DurableState {
    /// Unlink the queued [`DurableState::retired`] files.  Best-effort:
    /// they are unreferenced, and whatever survives the next open sweeps.
    pub(crate) fn remove_retired(&mut self) {
        for path in self.retired.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop every store before the sliced kernel
    /// was written with: the oracle the kernel must equal, value for value.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // Longer than one 16-byte chunk, with a remainder.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Every start offset 0..16 shifts both the address alignment and
        // the split between 16-byte chunks and the bytewise remainder.
        #[test]
        fn sliced_crc_equals_bytewise_at_every_offset(
            data in prop::collection::vec(0u8..=255, 0usize..4096 + 16),
        ) {
            for start in 0..16.min(data.len() + 1) {
                let tail = &data[start..];
                prop_assert_eq!(crc32(tail), crc32_bytewise(tail), "offset {}", start);
            }
        }

        #[test]
        fn update_over_any_split_equals_one_shot(
            data in prop::collection::vec(0u8..=255, 0usize..4096),
            cuts in prop::collection::vec(0usize..4096, 0usize..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for to in cuts {
                crc.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(crc.finish(), crc32_bytewise(&data));
        }
    }

    /// "The format did not change" as a test: a fixed WAL, level file and
    /// manifest must come out byte-identical to what the commit before the
    /// sliced CRC and single-pass encoders wrote.  The constants are the
    /// length and bytewise CRC of the files that commit produced for
    /// exactly these inputs.
    #[test]
    fn golden_files_match_the_previous_writer() {
        use hyperstream_graphblas::formats::dcsr::Dcsr;
        use hyperstream_graphblas::prelude::Plus;
        use hyperstream_graphblas::ScalarType;

        let dir = std::env::temp_dir().join(format!("hyperstream-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut w = wal::WalWriter::create(&dir.join("w.log"), f64::TYPE_TAG).unwrap();
        w.append(
            &[1, 1 << 31, 7],
            &[2, 9, (1 << 32) - 1],
            &[1.5f64, -2.25, 1e300],
            FsyncPolicy::Never,
        )
        .unwrap();
        w.append(&[42], &[43], &[0.5f64], FsyncPolicy::EveryBatch)
            .unwrap();
        drop(w);

        let rows: Vec<u64> = (0..40u64)
            .map(|i| (i % 13) * 300_000_007 % (1 << 32))
            .collect();
        let cols: Vec<u64> = (0..40u64).map(|i| i * 40_000_003 % (1 << 32)).collect();
        let vals: Vec<u64> = (0..40u64).map(|i| i + 1).collect();
        let d = Dcsr::from_tuples(1 << 32, 1 << 32, &rows, &cols, &vals, Plus).unwrap();
        // A dirty, oversized buffer: reuse must not leak stale bytes.
        let mut buf = vec![0xA5u8; 64 * 1024];
        format::write_level(&dir, "l.dat", &d, &mut buf).unwrap();

        manifest::write(
            &dir,
            &manifest::Manifest {
                type_tag: 9,
                nrows: 1 << 32,
                ncols: 1 << 32,
                next_gen: 7,
                wal_gen: 6,
                cuts: vec![1 << 12, 1 << 15],
                levels: vec![
                    manifest::LevelEntry { gen: 0, nnz: 0 },
                    manifest::LevelEntry { gen: 3, nnz: 1000 },
                    manifest::LevelEntry {
                        gen: 5,
                        nnz: 50_000,
                    },
                ],
            },
        )
        .unwrap();

        for (file, len, crc) in [
            ("w.log", 136, 0x1F61_F5C7u32),
            ("l.dat", 20480, 0x2750_1E9A),
            ("MANIFEST", 116, 0x2144_DF1C),
        ] {
            let bytes = std::fs::read(dir.join(file)).unwrap();
            assert_eq!(bytes.len(), len, "{file}: length changed");
            assert_eq!(crc32_bytewise(&bytes), crc, "{file}: bytes changed");
        }
        assert_eq!(
            (
                wal::WAL_VERSION,
                format::LEVEL_VERSION,
                manifest::MANIFEST_VERSION
            ),
            (1, 1, 1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_labels() {
        assert_eq!(FsyncPolicy::EveryBatch.label(), "every-batch");
        assert_eq!(FsyncPolicy::EveryN(64).label(), "every-64");
        assert_eq!(FsyncPolicy::Never.label(), "never");
    }

    #[test]
    fn durable_config_builder_and_shard_dirs() {
        let cfg = DurableConfig::new("/tmp/x")
            .fsync(FsyncPolicy::EveryN(8))
            .salvage(true);
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(8));
        assert!(cfg.salvage_corrupt_levels);
        let s2 = cfg.shard(2);
        assert!(s2.dir.ends_with("shard-2"));
        assert_eq!(s2.fsync, cfg.fsync);
    }

    #[test]
    fn recovery_report_display_mentions_fields() {
        let r = RecoveryReport {
            levels_loaded: 3,
            wal_records_replayed: 17,
            torn_tail_truncated: true,
            corrupt_levels: vec![1],
        };
        let s = r.to_string();
        assert!(s.contains('3') && s.contains("17") && s.contains("true") && s.contains("[1]"));
    }
}
