//! Durable backing for a hierarchical matrix: checksummed on-disk level
//! files, a CRC-framed write-ahead log, and an atomically swapped manifest.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/MANIFEST            # root of trust: each level's list of files
//! <dir>/lvl-<gen>.dat       # one immutable DCSR; a level is the ⊕ of its list
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
//! written once under fresh generation numbers and fsynced, and only then
//! listed by a new manifest, itself committed by write-temp → fsync →
//! rename → fsync-directory.  A crash at any point leaves the old manifest
//! naming the old (complete, checksummed) file set; newer files are
//! unreferenced garbage, swept on the next open.  A torn final WAL frame
//! fails its length or CRC check and recovery truncates the log there.
//!
//! Checkpoints ride the cascade, and write only what moved.  A cascade out
//! of level 0 writes the cells it moves once, as a file that joins level
//! 1's list; a cascade further up moves a list and writes nothing.  When a
//! chain completes, level 0 is empty and the lists are the whole state, so
//! the checkpoint rotates the WAL and commits.  A level is rewritten whole,
//! as one file, only after replay, salvage or `clear()`, on an explicit
//! `checkpoint()` while level 0 holds cells, after a failed write, or when
//! its list would outgrow `max_files`.  ⊕ is associative and
//! commutative, so merging a level's files and replaying the WAL on top
//! reproduces the matrix wherever the schedule was interrupted.
//!
//! ## What a frame holds, and when it is written
//!
//! A batch is first appended to level 0's pending buffer — through the
//! in-batch fold, which keeps 34k distinct cells of a 100k-tuple batch of
//! the paper's stream — and its frame carries exactly the tuples that
//! append added.  The order is append → log → acknowledge.  If the log
//! refuses the frame (too large, an I/O error, a failed fsync) the
//! appended tuples are cut off the pending buffer before the error
//! returns, so neither side holds the batch; `&mut self` keeps readers out
//! in between.  An `Ok` means the frame is in the log, fsynced where the
//! [`FsyncPolicy`] says so.  Replay settles on a schedule of its own (it
//! counts logged tuples, the live matrix counted raw ones): nothing for
//! integer weights, at most the order of an `f64` sum.
//!
//! A commit leaves the files it no longer lists on disk.  Unlinking them
//! costs 2–3 ms on what is already the slowest batch, so a cascade's
//! checkpoint only *queues* them: the next update call unlinks them before
//! it logs, `flush()`, `clear()`, `checkpoint()` and drop before they
//! return.  A crash in between leaves what every open sweeps.

pub mod format;
pub mod manifest;
pub mod recover;
pub mod wal;

use crate::failpoint::Failpoints;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::{GrbError, GrbResult, ScalarType};
use manifest::LevelFile;
use std::path::PathBuf;

/// When the write-ahead log is flushed to stable storage.
///
/// | Policy | Durability on crash | Measured ingest window vs. in-memory |
/// |---|---|---|
/// | `EveryBatch` | every acknowledged batch | 1.1–1.3x the `Never` window (`persist.every_batch_tax`) |
/// | `Never`      | only checkpointed levels | 1.35–1.5x (`persist.ingest_tax`; 1.8–2.1x while checkpoints rewrote whole levels, 2.1–2.5x while frames held raw tuples, 3.88x before the sliced CRC) |
///
/// Measured by `benchmark/run.sh --trace --workload durable_ingest` (2M
/// power-law updates in 100k batches, 20 WAL frames and 4 checkpoints, on
/// one host against the previous commit).  Slicing-by-16 `Crc32` (1.84
/// GB/s here, bytewise 0.35) and single-pass encoding took the tax from
/// 3.88 to 2.14; frames that hold what level 0 kept of a batch write 19.56
/// bytes per raw update, was 35.42 (`persist.wchar_per_update`, exact);
/// checkpoints that write only the cells a cascade moved write 13.16, and
/// took the tax from 2.05–2.08 to 1.35–1.51.  What is left of a checkpoint
/// is that one file (~5 ms for 150k cells: encode and CRC, write, fsync)
/// and the commit, ~1 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync the WAL after every appended batch: an `Ok` from an update
    /// means the batch survives any crash.
    EveryBatch,
    /// Never fsync on append; only checkpoints force data to disk.
    Never,
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
    /// Level files those levels were merged from (a level is the ⊕ of
    /// its files).
    pub files_loaded: usize,
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
            "recovered {} level(s) from {} file(s), replayed {} WAL record(s), torn tail: {}, corrupt levels: {:?}",
            self.levels_loaded,
            self.files_loaded,
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

/// The most files level `level`'s list may hold: the ratio of its cut to
/// the cut below it, the top level taking the last ratio (8 for
/// `paper_default`; 1 for level 0 and for a schedule of one cut).  It caps
/// the merge at open, and the copies of a cell the store holds.
pub(crate) fn max_files(cuts: &[u64], level: usize) -> usize {
    match level.min(cuts.len() - 1) {
        0 => 1,
        i => usize::try_from(cuts[i] / cuts[i - 1]).unwrap_or(usize::MAX),
    }
}

/// Mutable durable bookkeeping carried by a durable
/// [`HierMatrix`](crate::HierMatrix).  Value-independent: the WAL stores
/// [`ScalarType::encode_bits`](hyperstream_graphblas::ScalarType::encode_bits)
/// words, so nothing here is generic but the two writers.
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
    /// Per level, the files whose ⊕ is its settled content — what the
    /// next manifest lists for it — or `None` when the level holds cells
    /// no listed file has and is rewritten whole at the next checkpoint.
    pub(crate) levels: Vec<Option<Vec<LevelFile>>>,
    /// Gens of the level files on disk that no queued removal covers: the
    /// committed manifest's and those written since.  A commit retires
    /// the ones its manifest does not list.
    pub(crate) on_disk: Vec<u64>,
    /// Report of the recovery that produced this state (None for a
    /// freshly created store).
    pub(crate) report: Option<RecoveryReport>,
    /// Reusable file image for [`format::write_level`]: grows to the
    /// largest level file written since the last `flush()`, which gives it
    /// back, and is reused until then, so steady-state checkpoints allocate
    /// nothing.  I/O scratch, not matrix content: it is not part of
    /// `memory_bytes()`.
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
    /// The state the committed `man` describes, logging to `wal`: every
    /// listed level file on disk and current, nothing retired, no recovery
    /// report and no WAL telemetry carried over.
    pub(crate) fn new(cfg: DurableConfig, wal: wal::WalWriter, man: manifest::Manifest) -> Self {
        Self {
            cfg,
            wal,
            wal_gen: man.wal_gen,
            next_gen: man.next_gen,
            on_disk: man.levels.iter().flatten().map(|f| f.gen).collect(),
            levels: man.levels.into_iter().map(Some).collect(),
            report: None,
            level_buf: Vec::new(),
            retired: Vec::new(),
            retired_appends: 0,
            retired_syncs: 0,
        }
    }

    /// Unlink the queued [`DurableState::retired`] files.  Best-effort:
    /// they are unreferenced, and whatever survives the next open sweeps.
    pub(crate) fn remove_retired(&mut self) {
        for path in self.retired.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Write `level` as one new file under a fresh gen, fsynced (the
    /// directory is fsynced by the commit that first lists it).
    pub(crate) fn write_file<T: ScalarType>(
        &mut self,
        d: &Dcsr<T>,
        fp: &Failpoints,
    ) -> GrbResult<LevelFile> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let name = manifest::level_file_name(gen);
        format::write_level(&self.cfg.dir, &name, d, &mut self.level_buf, fp)?;
        self.on_disk.push(gen);
        let nnz = d.nvals() as u64;
        Ok(LevelFile { gen, nnz })
    }

    /// Level `i`, holding `src`, is about to cascade into level `i + 1`:
    /// its backing moves with its cells.  A file list moves as it is, and
    /// no byte is written; level 0's cells, which no file holds, are
    /// written once as a new file.  A level to be rewritten whole makes
    /// its destination one too, and so do a list that would exceed
    /// [`max_files`] and a write that fails (the commit's whole rewrite
    /// then surfaces the error).
    pub(crate) fn cascade<T: ScalarType>(
        &mut self,
        i: usize,
        src: &Dcsr<T>,
        cuts: &[u64],
        fp: &Failpoints,
    ) {
        let bound = max_files(cuts, i + 1);
        let room = |dst: &Option<Vec<_>>| dst.as_ref().is_some_and(|d| d.len() < bound);
        let moved = match self.levels[i].replace(Vec::new()) {
            None if i == 0 && room(&self.levels[1]) => {
                self.write_file(src, fp).ok().map(|f| vec![f])
            }
            files => files,
        };
        self.levels[i + 1] = match (self.levels[i + 1].take(), moved) {
            (Some(mut dst), Some(files)) if dst.len() + files.len() <= bound => {
                dst.extend(files);
                Some(dst)
            }
            _ => None,
        };
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

    /// "The format did not change" as a test: a fixed WAL and level file
    /// must come out byte-identical to what the commit before the sliced
    /// CRC and single-pass encoders wrote, and the version-1 manifest that
    /// commit wrote is refused as corruption.  The constants are
    /// the length and bytewise CRC of the files produced for exactly these
    /// inputs; the version-2 manifest's pin is the first of its writer.
    #[test]
    fn golden_files_match_the_previous_writer() {
        let fp = Failpoints::default();
        use hyperstream_graphblas::formats::dcsr::Dcsr;
        use hyperstream_graphblas::prelude::Plus;
        use manifest::LevelFile;

        let dir = std::env::temp_dir().join(format!("hyperstream-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut w = wal::WalWriter::create(&dir.join("w.log"), f64::TYPE_TAG).unwrap();
        w.append(
            &[1, 1 << 31, 7],
            &[2, 9, (1 << 32) - 1],
            &[1.5f64, -2.25, 1e300],
            FsyncPolicy::Never,
            &fp,
        )
        .unwrap();
        w.append(&[42], &[43], &[0.5f64], FsyncPolicy::EveryBatch, &fp)
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
        format::write_level(&dir, "l.dat", &d, &mut buf, &fp).unwrap();

        let file = |gen, nnz| LevelFile { gen, nnz };
        let mut m = manifest::Manifest {
            type_tag: 9,
            nrows: 1 << 32,
            ncols: 1 << 32,
            next_gen: 7,
            wal_gen: 6,
            cuts: vec![1 << 12, 1 << 15],
            levels: vec![vec![], vec![file(3, 1000)], vec![file(5, 50_000)]],
        };
        // The version-1 image, field by field: `{gen, nnz}` per level.  No
        // store writes it any more, and it is refused whole.
        let mut v1 = Vec::new();
        for word in [manifest::MANIFEST_MAGIC, 1, 9, 3] {
            put_u32(&mut v1, word);
        }
        for word in [
            1 << 32,
            1 << 32,
            7,
            6,
            1 << 12,
            1 << 15,
            0,
            0,
            3,
            1000,
            5,
            50_000,
        ] {
            put_u64(&mut v1, word);
        }
        let crc = crc32(&v1);
        put_u32(&mut v1, crc);
        std::fs::write(dir.join("v1"), &v1).unwrap();
        std::fs::write(manifest::path(&dir), &v1).unwrap();
        assert_eq!(
            manifest::read(&dir),
            Err(corruption("manifest: unsupported version")),
            "v1 is refused"
        );

        m.next_gen = 9;
        m.wal_gen = 8;
        m.levels[2].push(file(7, 4096));
        manifest::write(&dir, &m, &fp).unwrap();
        assert_eq!(manifest::read(&dir).unwrap(), m);

        // A manifest ends in the CRC of everything before it, so the CRC of
        // the whole file is CRC-32's residue 0x2144_DF1C for every valid
        // manifest: its pin covers the bytes before that CRC.
        for (file, sealed, len, crc) in [
            ("w.log", 0, 136, 0x1F61_F5C7u32),
            ("l.dat", 0, 20480, 0x2750_1E9A),
            ("v1", 4, 116, 0xFAB7_9E47),
            ("MANIFEST", 4, 128, 0xA889_5C7A),
        ] {
            let bytes = std::fs::read(dir.join(file)).unwrap();
            assert_eq!(bytes.len(), len, "{file}: length changed");
            let body = &bytes[..len - sealed];
            assert_eq!(crc32_bytewise(body), crc, "{file}: bytes changed");
        }
        assert_eq!(
            (
                wal::WAL_VERSION,
                format::LEVEL_VERSION,
                manifest::MANIFEST_VERSION
            ),
            (1, 1, 2)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_config_builder_and_shard_dirs() {
        let cfg = DurableConfig::new("/tmp/x")
            .fsync(FsyncPolicy::Never)
            .salvage(true);
        assert_eq!(cfg.fsync, FsyncPolicy::Never);
        assert!(cfg.salvage_corrupt_levels);
        let s2 = cfg.shard(2);
        assert!(s2.dir.ends_with("shard-2"));
        assert_eq!(s2.fsync, cfg.fsync);
    }

    #[test]
    fn recovery_report_display_mentions_fields() {
        let r = RecoveryReport {
            levels_loaded: 3,
            files_loaded: 8,
            wal_records_replayed: 17,
            torn_tail_truncated: true,
            corrupt_levels: vec![1],
        };
        let s = r.to_string();
        assert!(s.contains("3 level(s) from 8 file(s)"), "{s}");
        assert!(s.contains("17") && s.contains("true") && s.contains("[1]"));
    }
}
