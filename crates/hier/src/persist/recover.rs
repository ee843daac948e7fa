//! Crash-consistent recovery: turn a durable directory back into the
//! in-memory level stack plus the WAL records to replay.
//!
//! Recovery order:
//!
//! 1. Parse the manifest strictly (the commit point of the last
//!    successful checkpoint).
//! 2. Load every referenced level file, cross-checking dimensions and
//!    entry counts against the manifest, and merge each level's files
//!    into the level.  A corrupt file either fails the open
//!    ([`GrbError::Corruption`](hyperstream_graphblas::GrbError)) or,
//!    under [`DurableConfig::salvage_corrupt_levels`], loads its whole
//!    level empty and is reported.
//! 3. Scan the WAL of the manifest's generation, truncating the torn
//!    tail at the first bad frame; the surviving records are exactly the
//!    acknowledged-fsynced prefix (plus any unsynced frames the OS
//!    happened to flush).
//! 4. Sweep unreferenced files — the garbage a crash mid-checkpoint can
//!    leave behind.

use super::manifest::{self, LevelFile, Manifest};
use super::{corruption, format, wal, DurableConfig, RecoveryReport};
use hyperstream_graphblas::cursor::merge_levels;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::{GrbResult, Matrix, ScalarType};
use std::path::Path;

/// Everything [`HierMatrix::open_with`](crate::HierMatrix::open_with)
/// needs to reconstitute a durable matrix.
pub(crate) struct Recovered<T> {
    /// The committed manifest.
    pub(crate) manifest: Manifest,
    /// One matrix per level, loaded from the checkpointed files.
    pub(crate) levels: Vec<Matrix<T>>,
    /// WAL records to replay on top of the levels.
    pub(crate) records: Vec<wal::WalRecord<T>>,
    /// The WAL reopened for append after the truncated tail.
    pub(crate) wal_writer: wal::WalWriter,
    /// What recovery observed.
    pub(crate) report: RecoveryReport,
}

/// Load a durable directory.  `O(files)` structural work: each file is
/// one sequential read straight into the arrays `Matrix` backs itself
/// with, and only a level of several files is merged — no per-entry
/// re-sort or re-ingest.
pub(crate) fn open_dir<T: ScalarType>(cfg: &DurableConfig) -> GrbResult<Recovered<T>> {
    let dir: &Path = &cfg.dir;
    let m = manifest::read(dir)?;
    if m.type_tag != T::TYPE_TAG {
        return Err(corruption(format!(
            "manifest type tag {} does not match requested scalar type {}",
            m.type_tag,
            T::TYPE_TAG
        )));
    }

    let mut report = RecoveryReport::default();
    let mut levels = Vec::with_capacity(m.levels.len());
    for (i, files) in m.levels.iter().enumerate() {
        match load_level::<T>(dir, &m, files) {
            Ok(level) => {
                report.levels_loaded += usize::from(!files.is_empty());
                report.files_loaded += files.len();
                levels.push(level);
            }
            // The entries the manifest promised are gone: the level loads
            // empty, and the report says which.
            Err(_) if cfg.salvage_corrupt_levels => {
                report.corrupt_levels.push(i);
                levels.push(load_level::<T>(dir, &m, &[])?);
            }
            Err(e) => return Err(e),
        }
    }

    let wal_name = manifest::wal_file_name(m.wal_gen);
    let wal_path = dir.join(wal_name);
    let scan = wal::scan::<T>(&wal_path)?;
    if scan.torn {
        wal::truncate_to(&wal_path, scan.good_len)?;
        report.torn_tail_truncated = true;
    }
    report.wal_records_replayed = scan.records.len() as u64;
    let wal_writer = wal::WalWriter::resume(&wal_path, scan.good_len, scan.next_seq)?;

    manifest::sweep_unreferenced(dir, &m);

    Ok(Recovered {
        manifest: m,
        levels,
        records: scan.records,
        wal_writer,
        report,
    })
}

/// One level: the ⊕ of its files (one file is the level as read).
fn load_level<T: ScalarType>(dir: &Path, m: &Manifest, fs: &[LevelFile]) -> GrbResult<Matrix<T>> {
    let read = |f: &LevelFile| {
        let name = manifest::level_file_name(f.gen);
        format::read_level::<T>(dir, &name, m.nrows, m.ncols, f.nnz)
    };
    let mut parts: Vec<Dcsr<T>> = fs.iter().map(read).collect::<GrbResult<_>>()?;
    if parts.len() > 1 {
        let refs: Vec<&Dcsr<T>> = parts.iter().collect();
        parts = vec![merge_levels(m.nrows, m.ncols, &refs, Plus)?];
    }
    let level = match parts.pop() {
        Some(d) => Matrix::from_dcsr(d),
        None => Matrix::try_new(m.nrows, m.ncols)?,
    };
    Ok(level.with_pending_limit(usize::MAX))
}
