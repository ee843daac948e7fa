//! Page-aligned, versioned, per-section-checksummed on-disk DCSR level
//! format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! page 0 (4096 bytes): header
//!   0   magic u32 ("HSLV")
//!   4   version u32
//!   8   type_tag u32
//!   12  reserved u32 (0)
//!   16  nrows u64
//!   24  ncols u64
//!   32  nnz u64              (entries; length of col_idx / vals)
//!   40  nrows_nonempty u64   (length of row_ids; row_ptr has one more)
//!   48  4 × section descriptor { offset u64, byte_len u64, crc32 u32, pad u32 }
//!   144 header crc32 (over bytes 0..144)
//!   ..4096 zero padding
//! sections, each starting on a 4096-byte boundary, in order:
//!   row_ids  u64 × nrows_nonempty
//!   row_ptr  u64 × (nrows_nonempty + 1), each at most u32::MAX
//!   col_idx  u64 × nnz
//!   vals     encode_bits u64 × nnz
//! ```
//!
//! The parser is strict: expected section offsets and lengths are
//! *recomputed* from the counts and compared against the descriptors, the
//! file length must match exactly (truncations and extensions both fail),
//! every section CRC must verify, and the decoded arrays must pass the
//! full [`Dcsr`] invariant check.  Any violation returns
//! [`GrbError::Corruption`](hyperstream_graphblas::GrbError); no input
//! can cause a panic or an out-of-bounds read.

use super::{corruption, crc32, encode_u64s, get_u32, get_u64, io_err, le_u64s, Crc32};
use crate::failpoint::Failpoints;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::{GrbResult, ScalarType};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

pub(crate) const LEVEL_MAGIC: u32 = 0x4853_4C56; // "HSLV"
pub(crate) const LEVEL_VERSION: u32 = 1;
/// Section and header alignment: one page, so a future `mmap` backend
/// (feature-gated, not yet implemented) can map sections directly.
pub(crate) const PAGE: u64 = 4096;
const HEADER_CRC_OFFSET: usize = 144;
const SECTIONS: usize = 4;

/// Round up to the next page boundary (checked: corrupt headers can
/// carry counts whose byte sizes overflow).
fn align_up(x: u64) -> Option<u64> {
    x.checked_add(PAGE - 1).map(|v| v & !(PAGE - 1))
}

/// The four section layouts implied by `(nrows_nonempty, nnz)`:
/// `(offset, byte_len)` per section plus the exact total file length.
fn layout(ne: u64, nnz: u64) -> Option<([(u64, u64); SECTIONS], u64)> {
    let lens = [
        ne.checked_mul(8)?,
        ne.checked_add(1)?.checked_mul(8)?,
        nnz.checked_mul(8)?,
        nnz.checked_mul(8)?,
    ];
    let mut sections = [(0u64, 0u64); SECTIONS];
    let mut off = PAGE;
    for (i, &len) in lens.iter().enumerate() {
        sections[i] = (off, len);
        off = align_up(off.checked_add(len)?)?;
    }
    Some((sections, off))
}

/// Encode one section at its `(offset, byte_len)` in the file image
/// `file`, zero the padding behind it up to `end` (the next section, or
/// the end of the file), and return the section's CRC.  Offsets were
/// checked against `file.len()` by the caller.
fn encode_section(
    file: &mut [u8],
    (off, len): (u64, u64),
    end: usize,
    words: impl Iterator<Item = u64>,
) -> u32 {
    let data_end = (off + len) as usize;
    let mut crc = Crc32::new();
    encode_u64s(&mut file[off as usize..data_end], words, &mut crc);
    file[data_end..end].fill(0);
    crc.finish()
}

/// Serialize `dcsr` into `<dir>/<name>` via write-temp → fsync → rename.
/// The caller is responsible for fsyncing the directory before a
/// manifest references the new name.
///
/// The whole file image — header page, four sections, zero padding — is
/// encoded into `buf`, which the caller keeps across checkpoints: once it
/// has grown to the largest level, writing a level allocates nothing.
pub(crate) fn write_level<T: ScalarType>(
    dir: &Path,
    name: &str,
    dcsr: &Dcsr<T>,
    buf: &mut Vec<u8>,
    fp: &Failpoints,
) -> GrbResult<()> {
    let (row_ids, row_ptr, col_idx, vals) = dcsr.raw_parts();
    let ne = row_ids.len() as u64;
    let nnz = col_idx.len() as u64;
    let (sections, total) = layout(ne, nnz)
        .and_then(|(sections, total)| Some((sections, usize::try_from(total).ok()?)))
        .ok_or_else(|| corruption("level layout overflows the address space"))?;

    // Resizing (never clearing) zero-fills only what the buffer grows by,
    // so every byte that must read as zero — the rest of the header page
    // and the padding behind each section — is zeroed explicitly below.
    buf.resize(total, 0);
    let next = |i: usize| sections.get(i + 1).map_or(total, |s| s.0 as usize);
    let crcs = [
        encode_section(buf, sections[0], next(0), row_ids.iter().copied()),
        encode_section(buf, sections[1], next(1), row_ptr.iter().map(|&p| p.into())),
        encode_section(buf, sections[2], next(2), col_idx.iter().copied()),
        encode_section(
            buf,
            sections[3],
            next(3),
            vals.iter().map(|v| v.encode_bits()),
        ),
    ];

    // Header page, patched in now that the section checksums are known.
    let (header, body) = buf.split_at_mut(PAGE as usize);
    header.fill(0);
    let mut at = 0;
    let mut put = |field: &[u8]| {
        header[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    };
    put(&LEVEL_MAGIC.to_le_bytes());
    put(&LEVEL_VERSION.to_le_bytes());
    put(&(T::TYPE_TAG as u32).to_le_bytes());
    put(&0u32.to_le_bytes());
    put(&dcsr.nrows().to_le_bytes());
    put(&dcsr.ncols().to_le_bytes());
    put(&nnz.to_le_bytes());
    put(&ne.to_le_bytes());
    for (&(off, len), crc) in sections.iter().zip(crcs) {
        put(&off.to_le_bytes());
        put(&len.to_le_bytes());
        put(&crc.to_le_bytes());
        put(&0u32.to_le_bytes());
    }
    debug_assert_eq!(at, HEADER_CRC_OFFSET);
    let hcrc = crc32(&header[..HEADER_CRC_OFFSET]);
    header[HEADER_CRC_OFFSET..HEADER_CRC_OFFSET + 4].copy_from_slice(&hcrc.to_le_bytes());

    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = File::create(&tmp).map_err(|e| io_err("create level tmp", e))?;
    file.write_all(header)
        .map_err(|e| io_err("write level header", e))?;
    // An armed `persist-partial-write` leaves a header-only temp file —
    // the state a crash between the header and body writes produces.
    fp.check("persist-partial-write", usize::MAX)?;
    file.write_all(body)
        .map_err(|e| io_err("write level sections", e))?;
    fp.check("persist-pre-fsync", usize::MAX)?;
    file.sync_all().map_err(|e| io_err("fsync level file", e))?;
    fp.check("persist-post-fsync", usize::MAX)?;
    drop(file);
    fp.check("persist-mid-rename", usize::MAX)?;
    std::fs::rename(&tmp, dir.join(name)).map_err(|e| io_err("rename level file", e))?;
    Ok(())
}

/// Parse `<dir>/<name>` strictly into a validated [`Dcsr`].
pub(crate) fn read_level<T: ScalarType>(
    dir: &Path,
    name: &str,
    expect_nrows: u64,
    expect_ncols: u64,
    expect_nnz: u64,
) -> GrbResult<Dcsr<T>> {
    let path = dir.join(name);
    let mut file = File::open(&path).map_err(|e| io_err("open level file", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read level file", e))?;

    if bytes.len() < PAGE as usize {
        return Err(corruption(format!(
            "level {name}: {} bytes, header needs {PAGE}",
            bytes.len()
        )));
    }
    if get_u32(&bytes, 0, "level magic")? != LEVEL_MAGIC {
        return Err(corruption(format!("level {name}: bad magic")));
    }
    if get_u32(&bytes, 4, "level version")? != LEVEL_VERSION {
        return Err(corruption(format!("level {name}: unsupported version")));
    }
    let tag = get_u32(&bytes, 8, "level type tag")?;
    if tag != T::TYPE_TAG as u32 {
        return Err(corruption(format!(
            "level {name}: type tag {tag}, expected {}",
            T::TYPE_TAG
        )));
    }
    if get_u32(&bytes, HEADER_CRC_OFFSET, "level header crc")? != crc32(&bytes[..HEADER_CRC_OFFSET])
    {
        return Err(corruption(format!("level {name}: header crc mismatch")));
    }
    let nrows = get_u64(&bytes, 16, "level nrows")?;
    let ncols = get_u64(&bytes, 24, "level ncols")?;
    if nrows != expect_nrows || ncols != expect_ncols {
        return Err(corruption(format!(
            "level {name}: dimensions {nrows}x{ncols} do not match manifest {expect_nrows}x{expect_ncols}"
        )));
    }
    let nnz = get_u64(&bytes, 32, "level nnz")?;
    let ne = get_u64(&bytes, 40, "level nonempty rows")?;
    if nnz != expect_nnz {
        return Err(corruption(format!(
            "level {name}: nnz {nnz} does not match manifest {expect_nnz}"
        )));
    }
    if ne > nnz {
        return Err(corruption(format!(
            "level {name}: {ne} non-empty rows exceed {nnz} entries"
        )));
    }
    let (expect_sections, expect_total) =
        layout(ne, nnz).ok_or_else(|| corruption("level counts overflow layout"))?;
    if bytes.len() as u64 != expect_total {
        return Err(corruption(format!(
            "level {name}: file length {} does not match expected {expect_total}",
            bytes.len()
        )));
    }
    let mut sections: [&[u8]; SECTIONS] = [&[]; SECTIONS];
    for (i, section) in sections.iter_mut().enumerate() {
        let base = 48 + i * 24;
        let off = get_u64(&bytes, base, "section offset")?;
        let len = get_u64(&bytes, base + 8, "section length")?;
        let crc = get_u32(&bytes, base + 16, "section crc")?;
        if (off, len) != expect_sections[i] {
            return Err(corruption(format!(
                "level {name}: section {i} descriptor ({off}, {len}) does not match layout {:?}",
                expect_sections[i]
            )));
        }
        let end = off
            .checked_add(len)
            .filter(|&e| e <= bytes.len() as u64)
            .ok_or_else(|| corruption(format!("level {name}: section {i} out of bounds")))?;
        let body = &bytes[off as usize..end as usize];
        if crc32(body) != crc {
            return Err(corruption(format!(
                "level {name}: section {i} crc mismatch"
            )));
        }
        *section = body;
    }

    let row_ids = le_u64s(sections[0]).collect();
    let mut row_ptr = Vec::with_capacity(sections[1].len() / 8);
    for w in le_u64s(sections[1]) {
        let p = u32::try_from(w)
            .map_err(|_| corruption(format!("level {name}: row_ptr value {w} exceeds u32::MAX")))?;
        row_ptr.push(p);
    }
    let col_idx = le_u64s(sections[2]).collect();
    let vals = le_u64s(sections[3]).map(T::decode_bits).collect();
    Dcsr::try_from_raw_parts(nrows, ncols, row_ids, row_ptr, col_idx, vals)
        .map_err(|e| corruption(format!("level {name}: invariant check failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperstream_graphblas::prelude::Plus;
    use hyperstream_graphblas::GrbError;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hyperstream-lvltest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Dcsr<u64> {
        Dcsr::from_tuples(
            1 << 20,
            1 << 20,
            &[1, 1, 5, 900_000],
            &[2, 9, 5, 7],
            &[10u64, 20, 30, 40],
            Plus,
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let fp = Failpoints::default();
        let dir = tmpdir("roundtrip");
        let d = sample();
        write_level(&dir, "lvl-test.dat", &d, &mut Vec::new(), &fp).unwrap();
        let back: Dcsr<u64> =
            read_level(&dir, "lvl-test.dat", d.nrows(), d.ncols(), d.nvals() as u64).unwrap();
        assert_eq!(back, d);
        back.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_level_round_trips() {
        let fp = Failpoints::default();
        let dir = tmpdir("empty");
        let d = Dcsr::<u64>::new(100, 100);
        write_level(&dir, "lvl-e.dat", &d, &mut Vec::new(), &fp).unwrap();
        let back: Dcsr<u64> = read_level(&dir, "lvl-e.dat", 100, 100, 0).unwrap();
        assert!(back.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_expectations_are_corruption() {
        let fp = Failpoints::default();
        let dir = tmpdir("mismatch");
        let d = sample();
        write_level(&dir, "lvl-m.dat", &d, &mut Vec::new(), &fp).unwrap();
        // Wrong nnz.
        assert!(read_level::<u64>(&dir, "lvl-m.dat", d.nrows(), d.ncols(), 99).is_err());
        // Wrong dims.
        assert!(read_level::<u64>(&dir, "lvl-m.dat", 7, 7, d.nvals() as u64).is_err());
        // Wrong type.
        assert!(
            read_level::<f64>(&dir, "lvl-m.dat", d.nrows(), d.ncols(), d.nvals() as u64).is_err()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_extension_and_flips_are_corruption() {
        let fp = Failpoints::default();
        let dir = tmpdir("mutate");
        let d = sample();
        write_level(&dir, "lvl-x.dat", &d, &mut Vec::new(), &fp).unwrap();
        let path = dir.join("lvl-x.dat");
        let orig = std::fs::read(&path).unwrap();

        // Truncation.
        std::fs::write(&path, &orig[..orig.len() - 1]).unwrap();
        assert!(read_level::<u64>(&dir, "lvl-x.dat", d.nrows(), d.ncols(), 4).is_err());
        // Extension.
        let mut ext = orig.clone();
        ext.push(0xAB);
        std::fs::write(&path, &ext).unwrap();
        assert!(read_level::<u64>(&dir, "lvl-x.dat", d.nrows(), d.ncols(), 4).is_err());
        // Flip a payload byte (inside the row_ids section).
        let mut flip = orig.clone();
        flip[PAGE as usize] ^= 0x40;
        std::fs::write(&path, &flip).unwrap();
        assert!(read_level::<u64>(&dir, "lvl-x.dat", d.nrows(), d.ncols(), 4).is_err());
        // Flip a header count (nnz) — header crc catches it.
        let mut flip = orig.clone();
        flip[32] ^= 0x01;
        std::fs::write(&path, &flip).unwrap();
        assert!(read_level::<u64>(&dir, "lvl-x.dat", d.nrows(), d.ncols(), 4).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A row pointer past `u32::MAX` is corruption even with every
    /// checksum valid: each word decodes into the `u32` a `Dcsr` stores.
    #[test]
    fn a_row_pointer_past_u32_max_is_corruption() {
        let fp = Failpoints::default();
        let dir = tmpdir("wide-ptr");
        let d = sample();
        write_level(&dir, "lvl-w.dat", &d, &mut Vec::new(), &fp).unwrap();
        let path = dir.join("lvl-w.dat");
        let mut bytes = std::fs::read(&path).unwrap();
        // The last word of the row_ptr section (section 1), then that
        // section's CRC in its descriptor, then the header's CRC.
        let desc = 48 + 24;
        let off = get_u64(&bytes, desc, "offset").unwrap() as usize;
        let end = off + get_u64(&bytes, desc + 8, "length").unwrap() as usize;
        bytes[end - 8..end].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let crc = crc32(&bytes[off..end]);
        bytes[desc + 16..desc + 20].copy_from_slice(&crc.to_le_bytes());
        let crc = crc32(&bytes[..HEADER_CRC_OFFSET]);
        bytes[HEADER_CRC_OFFSET..HEADER_CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_level::<u64>(&dir, "lvl-w.dat", d.nrows(), d.ncols(), 4) {
            Err(GrbError::Corruption { detail }) => {
                assert!(detail.contains("row_ptr value 4294967296 exceeds u32::MAX"))
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewriting_a_level_reuses_the_buffer_and_leaks_no_stale_bytes() {
        let fp = Failpoints::default();
        let dir = tmpdir("reuse");
        let idx: Vec<u64> = (0..5000).collect();
        let big = Dcsr::from_tuples(1 << 20, 1 << 20, &idx, &idx, &idx, Plus).unwrap();
        let mut buf = Vec::new();
        write_level(&dir, "big-1.dat", &big, &mut buf, &fp).unwrap();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        write_level(&dir, "big-2.dat", &big, &mut buf, &fp).unwrap();
        // A smaller level through the same, now dirty, buffer.
        write_level(&dir, "small.dat", &sample(), &mut buf, &fp).unwrap();
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        write_level(&dir, "small-fresh.dat", &sample(), &mut Vec::new(), &fp).unwrap();
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        assert_eq!(read("big-1.dat"), read("big-2.dat"));
        assert_eq!(read("small.dat"), read("small-fresh.dat"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
