//! CRC-framed write-ahead log for the pending tail.
//!
//! File layout:
//!
//! ```text
//! header (16 bytes): magic u32 | version u32 | type_tag u32 | crc32(header[..12]) u32
//! frame:             len u32 | seq u32 | crc32(payload) u32 | payload (len bytes)
//! payload:           rows[n] u64 LE | cols[n] u64 LE | valbits[n] u64 LE   (n = len / 24)
//! ```
//!
//! One frame is one acknowledged update call, and `n` counts the tuples
//! that call added to level 0's pending buffer: a batch's distinct cells
//! where the in-batch fold engaged (each carrying the `+` of its repeats),
//! its raw tuples where it did not, one tuple for a single update.
//!
//! Frames carry a monotonically increasing sequence number starting at 0
//! for each WAL generation.  Replay stops at the first frame that fails
//! any check — short header, bad length, CRC mismatch, out-of-order
//! sequence — and reports the byte offset of the last good frame so the
//! caller can truncate the torn tail.

use super::{
    corruption, crc32, encode_u64s, get_u32, io_err, le_u64s, put_u32, Crc32, FsyncPolicy,
};
use hyperstream_graphblas::{GrbError, GrbResult, ScalarType};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

pub(crate) const WAL_MAGIC: u32 = 0x4853_5741; // "HSWA"
pub(crate) const WAL_VERSION: u32 = 1;
pub(crate) const WAL_HEADER_BYTES: u64 = 16;
const FRAME_HEADER_BYTES: usize = 12;
/// Upper bound on one frame's payload: a batch this large would be tens
/// of millions of tuples, far beyond any producer; anything larger in a
/// length field is corruption, and bounding it keeps a malicious length
/// from driving a huge allocation.
const MAX_FRAME_BYTES: u32 = 1 << 30;
/// Bytes per tuple in a frame payload (row + col + value bits).
const TUPLE_BYTES: usize = 24;

/// Payload length of an `n`-tuple frame, or a typed refusal when [`scan`]
/// could not read such a frame back: past [`MAX_FRAME_BYTES`] the length
/// check rejects it (and past 2^32 bytes the `u32` length field wraps), so
/// the batch — and every frame behind it — would replay as a torn tail.
/// Splitting it over several frames would break batch atomicity on crash,
/// so the batch is refused whole, before a byte is written.
fn frame_payload_len(n: usize) -> GrbResult<u32> {
    n.checked_mul(TUPLE_BYTES)
        .and_then(|len| u32::try_from(len).ok())
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            GrbError::InvalidValue(format!(
                "batch of {n} updates exceeds the {} one WAL frame can hold; split the batch",
                MAX_FRAME_BYTES as usize / TUPLE_BYTES
            ))
        })
}

/// Append half of the WAL writer: owns the open file and the framing
/// state.  Reading happens separately through [`scan`].
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    /// Sequence number of the next frame to append.
    seq: u32,
    /// Batches appended since the last fsync.
    unsynced: u64,
    /// Reusable frame buffer: header and the three payload planes are
    /// encoded in place, straight from the caller's slices, and the CRC is
    /// patched into the header afterwards.  It is resized, never cleared,
    /// so appends of a steady batch size neither allocate nor zero-fill.
    buf: Vec<u8>,
    /// Byte offset just past the last complete frame: where the file is
    /// rolled back to when an append fails part-way.
    good_len: u64,
    /// Set when a failed append could not be rolled back.  Torn bytes may
    /// then sit at `good_len`, and a frame appended behind them would be
    /// acknowledged yet cut off by recovery, so the writer refuses every
    /// further append (a checkpoint rotates in a fresh writer).
    latched: bool,
    /// Frames appended through this writer (telemetry).
    appends: u64,
    /// Fsyncs issued by this writer (telemetry).
    syncs: u64,
}

impl WalWriter {
    /// Create a fresh WAL file at `path` (failing if one exists would
    /// mask a generation-number bug, so truncate is refused), write and
    /// fsync the header.
    pub(crate) fn create(path: &Path, type_tag: u8) -> GrbResult<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("create wal", e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        put_u32(&mut header, WAL_MAGIC);
        put_u32(&mut header, WAL_VERSION);
        put_u32(&mut header, type_tag as u32);
        let crc = crc32(&header);
        put_u32(&mut header, crc);
        file.write_all(&header)
            .map_err(|e| io_err("write wal header", e))?;
        file.sync_all().map_err(|e| io_err("fsync new wal", e))?;
        Ok(Self::at(file, WAL_HEADER_BYTES, 0))
    }

    /// Reopen an existing (already scanned and truncated) WAL for append.
    pub(crate) fn resume(path: &Path, good_len: u64, next_seq: u32) -> GrbResult<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("reopen wal", e))?;
        file.seek(SeekFrom::Start(good_len))
            .map_err(|e| io_err("seek wal tail", e))?;
        Ok(Self::at(file, good_len, next_seq))
    }

    /// A writer positioned at `good_len`, about to append frame `seq`.
    fn at(file: File, good_len: u64, seq: u32) -> Self {
        Self {
            file,
            seq,
            unsynced: 0,
            buf: Vec::new(),
            good_len,
            latched: false,
            appends: 0,
            syncs: 0,
        }
    }

    /// Take over the frame buffer of `retired`, the writer this one
    /// replaces at a checkpoint rotation, so the first append to a fresh
    /// log does not grow a buffer from nothing again.
    pub(crate) fn inherit_buffer(&mut self, retired: WalWriter) {
        self.buf = retired.buf;
    }

    /// Frames appended through this writer since it was opened.
    pub(crate) fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued by this writer since it was opened.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Append one batch as a single frame and apply the fsync policy.
    /// `rows`/`cols`/`vals` must have equal lengths (the caller validates
    /// before logging).  Empty batches are not logged; a batch too large
    /// for one frame is refused before anything is written.
    ///
    /// On `Err` the frame is not in the log: a partial write is rolled
    /// back to the last complete frame, so frames appended later stay
    /// reachable by [`scan`] — and the caller, which has the tuples in
    /// level 0 already, takes them out again.
    pub(crate) fn append<T: ScalarType>(
        &mut self,
        rows: &[u64],
        cols: &[u64],
        vals: &[T],
        policy: FsyncPolicy,
    ) -> GrbResult<()> {
        let len = frame_payload_len(rows.len())?;
        if self.latched {
            return Err(corruption(
                "wal: an earlier failed append could not be rolled back; \
                 the log takes no more frames until a checkpoint rotates it",
            ));
        }
        if len == 0 {
            return Ok(());
        }
        let result = self.write_frame(len, rows, cols, vals, policy);
        if result.is_err() {
            self.rollback();
        }
        result
    }

    /// Encode, write and (per `policy`) fsync one frame.  The writer's
    /// position state advances only when all of it succeeded.
    fn write_frame<T: ScalarType>(
        &mut self,
        len: u32,
        rows: &[u64],
        cols: &[u64],
        vals: &[T],
        policy: FsyncPolicy,
    ) -> GrbResult<()> {
        crate::failpoint!("persist-wal-append");
        let plane = 8 * rows.len();
        self.buf.resize(FRAME_HEADER_BYTES + len as usize, 0);
        let (header, payload) = self.buf.split_at_mut(FRAME_HEADER_BYTES);
        let (row_plane, rest) = payload.split_at_mut(plane);
        let (col_plane, val_plane) = rest.split_at_mut(plane);
        let mut crc = Crc32::new();
        encode_u64s(row_plane, rows.iter().copied(), &mut crc);
        encode_u64s(col_plane, cols.iter().copied(), &mut crc);
        encode_u64s(val_plane, vals.iter().map(|v| v.encode_bits()), &mut crc);
        header[0..4].copy_from_slice(&len.to_le_bytes());
        header[4..8].copy_from_slice(&self.seq.to_le_bytes());
        header[8..12].copy_from_slice(&crc.finish().to_le_bytes());
        // Two physical writes with a failpoint between them: an armed
        // `persist-partial-write` leaves a torn frame on disk, exactly
        // what a crash mid-append produces.
        let mid = self.buf.len() / 2;
        self.file
            .write_all(&self.buf[..mid])
            .map_err(|e| io_err("append wal frame", e))?;
        crate::failpoint!("persist-partial-write");
        self.file
            .write_all(&self.buf[mid..])
            .map_err(|e| io_err("append wal frame", e))?;
        let sync_due = match policy {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(n) => self.unsynced + 1 >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if sync_due {
            self.sync()?;
        } else {
            self.unsynced += 1;
        }
        self.seq = self.seq.wrapping_add(1);
        self.appends += 1;
        self.good_len += self.buf.len() as u64;
        Ok(())
    }

    /// Cut the file back to the last complete frame after a failed
    /// append, or latch the writer if even that fails.
    fn rollback(&mut self) {
        let restored = self.file.set_len(self.good_len).is_ok()
            && self.file.seek(SeekFrom::Start(self.good_len)).is_ok();
        self.latched = !restored;
    }

    /// Force appended frames to stable storage.
    pub(crate) fn sync(&mut self) -> GrbResult<()> {
        crate::failpoint!("persist-pre-fsync");
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        crate::failpoint!("persist-post-fsync");
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }
}

/// One decoded WAL record: a batch of updates.
#[derive(Debug)]
pub(crate) struct WalRecord<T> {
    /// Row indices.
    pub(crate) rows: Vec<u64>,
    /// Column indices.
    pub(crate) cols: Vec<u64>,
    /// Values, decoded from their
    /// [`ScalarType::encode_bits`](hyperstream_graphblas::ScalarType::encode_bits) words.
    pub(crate) vals: Vec<T>,
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub(crate) struct WalScan<T> {
    /// Every frame up to (excluding) the first bad one.
    pub(crate) records: Vec<WalRecord<T>>,
    /// Byte offset just past the last good frame.
    pub(crate) good_len: u64,
    /// True when bytes past `good_len` existed (a torn or corrupt tail).
    pub(crate) torn: bool,
    /// Sequence number the next appended frame must carry.
    pub(crate) next_seq: u32,
}

/// Read and validate `path`.  The 16-byte header must be intact — it was
/// written and fsynced before the manifest ever referenced this
/// generation, so a bad header is corruption, not a crash artifact.
/// Frames after it are validated one by one; the first failure ends the
/// scan (torn tail).
pub(crate) fn scan<T: ScalarType>(path: &Path) -> GrbResult<WalScan<T>> {
    let mut file = File::open(path).map_err(|e| io_err("open wal", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read wal", e))?;
    if bytes.len() < WAL_HEADER_BYTES as usize {
        return Err(corruption(format!(
            "wal header: {} bytes, need {}",
            bytes.len(),
            WAL_HEADER_BYTES
        )));
    }
    if get_u32(&bytes, 0, "wal magic")? != WAL_MAGIC {
        return Err(corruption("wal: bad magic"));
    }
    if get_u32(&bytes, 4, "wal version")? != WAL_VERSION {
        return Err(corruption("wal: unsupported version"));
    }
    let tag = get_u32(&bytes, 8, "wal type tag")?;
    if tag != T::TYPE_TAG as u32 {
        return Err(corruption(format!(
            "wal: type tag {tag} does not match expected {}",
            T::TYPE_TAG
        )));
    }
    if get_u32(&bytes, 12, "wal header crc")? != crc32(&bytes[..12]) {
        return Err(corruption("wal: header crc mismatch"));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_BYTES as usize;
    let mut next_seq = 0u32;
    while let Some(frame_end) = frame_at(&bytes, pos, next_seq) {
        // `frame_at` checked the payload is a whole number of tuples.
        let payload = &bytes[pos + FRAME_HEADER_BYTES..frame_end];
        let (row_plane, rest) = payload.split_at(payload.len() / 3);
        let (col_plane, val_plane) = rest.split_at(row_plane.len());
        records.push(WalRecord {
            rows: le_u64s(row_plane).collect(),
            cols: le_u64s(col_plane).collect(),
            vals: le_u64s(val_plane).map(T::decode_bits).collect(),
        });
        next_seq = next_seq.wrapping_add(1);
        pos = frame_end;
    }
    Ok(WalScan {
        records,
        good_len: pos as u64,
        torn: pos < bytes.len(),
        next_seq,
    })
}

/// Validate the frame starting at `pos`; return its end offset, or
/// `None` when the frame is torn, corrupt, or out of sequence.
fn frame_at(bytes: &[u8], pos: usize, expect_seq: u32) -> Option<usize> {
    let header = bytes.get(pos..pos + FRAME_HEADER_BYTES)?;
    let len = u32::from_le_bytes(header[0..4].try_into().ok()?);
    let seq = u32::from_le_bytes(header[4..8].try_into().ok()?);
    let crc = u32::from_le_bytes(header[8..12].try_into().ok()?);
    if len == 0 || len > MAX_FRAME_BYTES || len as usize % TUPLE_BYTES != 0 {
        return None;
    }
    if seq != expect_seq {
        return None;
    }
    let start = pos + FRAME_HEADER_BYTES;
    let end = start.checked_add(len as usize)?;
    let payload = bytes.get(start..end)?;
    if crc32(payload) != crc {
        return None;
    }
    Some(end)
}

/// Truncate `path` to `good_len` (discarding a torn tail) and fsync.
pub(crate) fn truncate_to(path: &Path, good_len: u64) -> GrbResult<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open wal for truncation", e))?;
    file.set_len(good_len)
        .map_err(|e| io_err("truncate torn wal tail", e))?;
    file.sync_data()
        .map_err(|e| io_err("fsync truncated wal", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "hyperstream-waltest-{}-{name}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_scan_round_trips() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::create(&path, 9).unwrap();
        w.append(&[1, 2], &[3, 4], &[10u64, 20], FsyncPolicy::EveryBatch)
            .unwrap();
        w.append(&[5], &[6], &[30u64], FsyncPolicy::Never).unwrap();
        drop(w);
        let scan = scan::<u64>(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn);
        assert_eq!(scan.next_seq, 2);
        assert_eq!(scan.records[0].rows, vec![1, 2]);
        assert_eq!(scan.records[0].cols, vec![3, 4]);
        assert_eq!(scan.records[0].vals, vec![10, 20]);
        assert_eq!(scan.records[1].rows, vec![5]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let path = tmp("torn");
        let mut w = WalWriter::create(&path, 9).unwrap();
        w.append(&[1], &[2], &[3u64], FsyncPolicy::EveryBatch)
            .unwrap();
        w.append(&[4], &[5], &[6u64], FsyncPolicy::EveryBatch)
            .unwrap();
        drop(w);
        // Chop the last frame in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let cut = full - 10;
        truncate_to(&path, cut).unwrap();
        let s = scan::<u64>(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.torn);
        assert!(s.good_len < cut);
        truncate_to(&path, s.good_len).unwrap();
        let clean = scan::<u64>(&path).unwrap();
        assert_eq!(clean.records.len(), 1);
        assert!(!clean.torn);
        // Resume appending after the truncation.
        let mut w = WalWriter::resume(&path, clean.good_len, clean.next_seq).unwrap();
        w.append(&[7], &[8], &[9u64], FsyncPolicy::EveryBatch)
            .unwrap();
        drop(w);
        let s = scan::<u64>(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(!s.torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_type_tag_and_bad_magic_are_corruption() {
        let path = tmp("tagmagic");
        let w = WalWriter::create(&path, 9).unwrap();
        drop(w);
        assert!(matches!(
            scan::<f64>(&path),
            Err(hyperstream_graphblas::GrbError::Corruption { .. })
        ));
        // Flip a magic byte.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            scan::<u64>(&path),
            Err(hyperstream_graphblas::GrbError::Corruption { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_payload_ends_scan_at_previous_frame() {
        let path = tmp("badframe");
        let mut w = WalWriter::create(&path, 9).unwrap();
        w.append(&[1], &[2], &[3u64], FsyncPolicy::EveryBatch)
            .unwrap();
        w.append(&[4], &[5], &[6u64], FsyncPolicy::EveryBatch)
            .unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the second frame's payload.
        let second_payload = WAL_HEADER_BYTES as usize + 12 + 24 + 12 + 4;
        bytes[second_payload] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let s = scan::<u64>(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_too_large_for_one_frame_is_refused_by_length() {
        let max = MAX_FRAME_BYTES as usize / TUPLE_BYTES;
        assert_eq!(frame_payload_len(0).unwrap(), 0);
        assert_eq!(frame_payload_len(max).unwrap() as usize, max * TUPLE_BYTES);
        // One tuple past the bound; a length that would wrap the u32 field
        // back into range; a length that overflows usize.
        for n in [max + 1, u32::MAX as usize / TUPLE_BYTES + 1, usize::MAX] {
            assert!(matches!(
                frame_payload_len(n),
                Err(GrbError::InvalidValue(_))
            ));
        }
    }

    #[test]
    fn steady_state_appends_reuse_the_frame_buffer() {
        let path = tmp("reuse");
        let mut w = WalWriter::create(&path, 9).unwrap();
        let idx: Vec<u64> = (0..1000).collect();
        w.append(&idx, &idx, &idx, FsyncPolicy::Never).unwrap();
        let (ptr, cap) = (w.buf.as_ptr(), w.buf.capacity());
        // Same size, smaller (the single-update path), same size again.
        w.append(&idx, &idx, &idx, FsyncPolicy::Never).unwrap();
        w.append(&[1], &[2], &[3u64], FsyncPolicy::Never).unwrap();
        w.append(&idx, &idx, &idx, FsyncPolicy::Never).unwrap();
        assert_eq!((w.buf.as_ptr(), w.buf.capacity()), (ptr, cap));
        drop(w);
        let s = scan::<u64>(&path).unwrap();
        assert_eq!(s.records.len(), 4);
        assert_eq!(s.records[2].vals, vec![3]);
        assert_eq!(s.records[3].cols, idx);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rollback_cuts_a_torn_frame_so_later_frames_stay_reachable() {
        let path = tmp("rollback");
        let mut w = WalWriter::create(&path, 9).unwrap();
        w.append(&[1], &[2], &[3u64], FsyncPolicy::Never).unwrap();
        // What a failed second write leaves behind: half a frame.
        w.file.write_all(&[0xEE; 20]).unwrap();
        w.rollback();
        assert!(!w.latched);
        w.append(&[4], &[5], &[6u64], FsyncPolicy::Never).unwrap();
        drop(w);
        let s = scan::<u64>(&path).unwrap();
        assert!(!s.torn);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].rows, vec![4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_rollback_latches_the_writer() {
        let path = tmp("latch");
        drop(WalWriter::create(&path, 9).unwrap());
        // A read-only handle: the frame write fails and so does the
        // truncation that would undo it.
        let mut w = WalWriter::at(File::open(&path).unwrap(), WAL_HEADER_BYTES, 0);
        assert!(w.append(&[1], &[2], &[3u64], FsyncPolicy::Never).is_err());
        assert!(w.latched);
        match w.append(&[4], &[5], &[6u64], FsyncPolicy::Never) {
            Err(GrbError::Corruption { detail }) => assert!(detail.contains("rolled back")),
            other => panic!("latched writer must refuse appends, got {other:?}"),
        }
        assert_eq!(w.appends(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
