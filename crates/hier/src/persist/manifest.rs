//! The manifest: the single mutable name in a durable directory.
//!
//! Layout, version 2 (little-endian):
//!
//! ```text
//! 0   magic u32 ("HSMF")
//! 4   version u32
//! 8   type_tag u32
//! 12  n_levels u32
//! 16  nrows u64
//! 24  ncols u64
//! 32  next_gen u64
//! 40  wal_gen u64
//! 48  cuts[n_levels - 1] u64
//! ..  levels[n_levels] { n_files u32, files[n_files] { gen u64, nnz u64 } }
//! ..  crc32 u32 (over everything before it)
//! ```
//!
//! A level is the ⊕ of its files, an empty level lists none, and no gen
//! is listed twice.  Version 1 held one `{ gen u64 (0 = empty), nnz u64 }`
//! per level in place of each list; it is still read, as one-file lists.
//!
//! Committed via write-temp → fsync → rename → fsync-directory: the
//! rename is atomic, so the directory always holds either the old or the
//! new manifest, each internally consistent and CRC-protected.

use super::{corruption, crc32, get_u32, get_u64, io_err, put_u32, put_u64};
use crate::failpoint::Failpoints;
use hyperstream_graphblas::GrbResult;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

pub(crate) const MANIFEST_MAGIC: u32 = 0x4853_4D46; // "HSMF"
pub(crate) const MANIFEST_VERSION: u32 = 2;
/// Sanity cap on the level count: a hierarchy needs a strictly
/// increasing u64 cut per level, so 64 is already unreachable; anything
/// larger in a manifest is corruption, not configuration.
const MAX_LEVELS: u32 = 64;
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// One immutable level file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LevelFile {
    /// Generation number of the file (`lvl-<gen>.dat`), never 0.
    pub(crate) gen: u64,
    /// Entry count the file must carry (cross-checked on load).
    pub(crate) nnz: u64,
}

/// Decoded manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Scalar type tag of the stored matrix.
    pub(crate) type_tag: u8,
    /// Matrix dimensions.
    pub(crate) nrows: u64,
    /// Matrix dimensions.
    pub(crate) ncols: u64,
    /// Next unused generation number.
    pub(crate) next_gen: u64,
    /// Generation of the current WAL file.
    pub(crate) wal_gen: u64,
    /// Hierarchy cut schedule (`levels.len() - 1` entries).
    pub(crate) cuts: Vec<u64>,
    /// Per level, the files whose ⊕ is the level.
    pub(crate) levels: Vec<Vec<LevelFile>>,
}

/// `<dir>/MANIFEST`.
pub(crate) fn path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

/// True when `dir` holds an initialised durable store.
pub(crate) fn exists(dir: &Path) -> bool {
    path(dir).is_file()
}

/// Name of a level file for generation `gen`.
pub(crate) fn level_file_name(gen: u64) -> String {
    format!("lvl-{gen:016x}.dat")
}

/// Name of a WAL file for generation `gen`.
pub(crate) fn wal_file_name(gen: u64) -> String {
    format!("wal-{gen:016x}.log")
}

fn encode(m: &Manifest) -> Vec<u8> {
    let files: usize = m.levels.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(64 + 8 * m.cuts.len() + 4 * m.levels.len() + 16 * files);
    put_u32(&mut buf, MANIFEST_MAGIC);
    put_u32(&mut buf, MANIFEST_VERSION);
    put_u32(&mut buf, m.type_tag as u32);
    put_u32(&mut buf, m.levels.len() as u32);
    put_u64(&mut buf, m.nrows);
    put_u64(&mut buf, m.ncols);
    put_u64(&mut buf, m.next_gen);
    put_u64(&mut buf, m.wal_gen);
    for &c in &m.cuts {
        put_u64(&mut buf, c);
    }
    for level in &m.levels {
        put_u32(&mut buf, level.len() as u32);
        for f in level {
            put_u64(&mut buf, f.gen);
            put_u64(&mut buf, f.nnz);
        }
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Commit `m` atomically: write `MANIFEST.tmp`, fsync it, rename over
/// `MANIFEST`, fsync the directory.
pub(crate) fn write(dir: &Path, m: &Manifest, fp: &Failpoints) -> GrbResult<()> {
    let bytes = encode(m);
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let mut file = File::create(&tmp).map_err(|e| io_err("create manifest tmp", e))?;
    file.write_all(&bytes)
        .map_err(|e| io_err("write manifest", e))?;
    fp.check("persist-pre-fsync", usize::MAX)?;
    file.sync_all().map_err(|e| io_err("fsync manifest", e))?;
    fp.check("persist-post-fsync", usize::MAX)?;
    drop(file);
    // The commit point: everything before the rename is invisible to
    // recovery; everything after it is fully committed.
    fp.check("persist-manifest-swap", usize::MAX)?;
    std::fs::rename(&tmp, path(dir)).map_err(|e| io_err("swap manifest", e))?;
    fsync_dir(dir)?;
    Ok(())
}

/// Fsync the directory so renames within it are durable.
pub(crate) fn fsync_dir(dir: &Path) -> GrbResult<()> {
    let d = File::open(dir).map_err(|e| io_err("open dir for fsync", e))?;
    d.sync_all().map_err(|e| io_err("fsync dir", e))?;
    Ok(())
}

/// Read and strictly validate `<dir>/MANIFEST`.
pub(crate) fn read(dir: &Path) -> GrbResult<Manifest> {
    let mut file = File::open(path(dir)).map_err(|e| io_err("open manifest", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read manifest", e))?;
    decode(&bytes)
}

/// Strictly validate a manifest image of either version.
fn decode(bytes: &[u8]) -> GrbResult<Manifest> {
    if bytes.len() < 52 {
        return Err(corruption(format!(
            "manifest: {} bytes is shorter than any valid manifest",
            bytes.len()
        )));
    }
    let body = &bytes[..bytes.len() - 4];
    if get_u32(bytes, body.len(), "manifest crc")? != crc32(body) {
        return Err(corruption("manifest: crc mismatch"));
    }
    if get_u32(body, 0, "manifest magic")? != MANIFEST_MAGIC {
        return Err(corruption("manifest: bad magic"));
    }
    let version = get_u32(body, 4, "manifest version")?;
    if !(1..=MANIFEST_VERSION).contains(&version) {
        return Err(corruption("manifest: unsupported version"));
    }
    let tag = get_u32(body, 8, "manifest type tag")?;
    if tag > u8::MAX as u32 {
        return Err(corruption("manifest: type tag out of range"));
    }
    let n_levels = get_u32(body, 12, "manifest level count")?;
    if !(2..=MAX_LEVELS).contains(&n_levels) {
        return Err(corruption(format!(
            "manifest: level count {n_levels} outside [2, {MAX_LEVELS}]"
        )));
    }
    let nrows = get_u64(body, 16, "manifest nrows")?;
    let ncols = get_u64(body, 24, "manifest ncols")?;
    let next_gen = get_u64(body, 32, "manifest next_gen")?;
    let wal_gen = get_u64(body, 40, "manifest wal_gen")?;
    let n = n_levels as usize;
    let mut off = 48;
    let mut cuts = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        cuts.push(get_u64(body, off, "manifest cut")?);
        off += 8;
    }
    let mut levels = Vec::with_capacity(n);
    for _ in 0..n {
        // Version 1 holds one `{gen, nnz}` a level, gen 0 for an empty one.
        let count = match version {
            1 => 1,
            _ => get_u32(body, off, "manifest file count")? as usize,
        };
        off += 4 * usize::from(version > 1);
        // Checked before anything is allocated for it.
        if count > (body.len() - off) / 16 {
            return Err(corruption(format!("manifest: {count} files overrun it")));
        }
        let mut files = Vec::with_capacity(count);
        for at in (off..off + 16 * count).step_by(16) {
            let gen = get_u64(body, at, "manifest file gen")?;
            let nnz = get_u64(body, at + 8, "manifest file nnz")?;
            files.push(LevelFile { gen, nnz });
        }
        off += 16 * count;
        if version == 1 && files[0].gen == 0 && files.pop().is_some_and(|f| f.nnz != 0) {
            return Err(corruption("manifest: empty level with non-zero nnz"));
        }
        if let Some(f) = files.iter().find(|f| f.gen == 0 || f.gen >= next_gen) {
            return Err(corruption(format!(
                "manifest: level gen {} not in (0, next_gen {next_gen})",
                f.gen
            )));
        }
        files
            .iter()
            .try_fold(0u64, |sum, f| sum.checked_add(f.nnz))
            .ok_or_else(|| corruption("manifest: a level's nnz overflows u64"))?;
        levels.push(files);
    }
    if off != body.len() {
        return Err(corruption(format!(
            "manifest: length {} does not match the {} bytes its {n} levels need",
            bytes.len(),
            off + 4
        )));
    }
    let mut gens: Vec<u64> = levels.iter().flatten().map(|f| f.gen).collect();
    gens.sort_unstable();
    if let Some(w) = gens.windows(2).find(|w| w[0] == w[1]) {
        return Err(corruption(format!("manifest: gen {} listed twice", w[0])));
    }
    if wal_gen == 0 || wal_gen >= next_gen {
        return Err(corruption(format!(
            "manifest: wal gen {wal_gen} not in (0, next_gen {next_gen})"
        )));
    }
    Ok(Manifest {
        type_tag: tag as u8,
        nrows,
        ncols,
        next_gen,
        wal_gen,
        cuts,
        levels,
    })
}

/// Best-effort removal of files the committed manifest does not
/// reference: stale `.tmp` files and unreferenced level/WAL generations
/// left behind by a crash mid-checkpoint.  Never fails the caller —
/// garbage is harmless, deleting it is a bonus.
pub(crate) fn sweep_unreferenced(dir: &Path, m: &Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut referenced: Vec<String> = m
        .levels
        .iter()
        .flatten()
        .map(|f| level_file_name(f.gen))
        .collect();
    referenced.push(wal_file_name(m.wal_gen));
    referenced.push(MANIFEST_NAME.to_string());
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_ours = name.ends_with(".tmp")
            || (name.starts_with("lvl-") && name.ends_with(".dat"))
            || (name.starts_with("wal-") && name.ends_with(".log"));
        if is_ours && !referenced.iter().any(|r| r == name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hyperstream-mantest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn file(gen: u64, nnz: u64) -> LevelFile {
        LevelFile { gen, nnz }
    }

    /// Multi-file levels, an empty one, and a file that holds nothing.
    fn sample() -> Manifest {
        Manifest {
            type_tag: 9,
            nrows: 1 << 32,
            ncols: 1 << 32,
            next_gen: 12,
            wal_gen: 11,
            cuts: vec![1 << 12, 1 << 15, 1 << 18],
            levels: vec![
                vec![],
                vec![file(3, 1000), file(7, 4096), file(9, 1)],
                vec![file(4, 50_000)],
                vec![file(5, 0), file(10, 1 << 40)],
            ],
        }
    }

    fn corruption_detail(r: GrbResult<Manifest>) -> String {
        match r {
            Err(hyperstream_graphblas::GrbError::Corruption { detail }) => detail,
            other => panic!("expected Corruption, got {other:?}"),
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let fp = Failpoints::default();
        let dir = tmpdir("roundtrip");
        let m = sample();
        write(&dir, &m, &fp).unwrap();
        assert!(exists(&dir));
        assert_eq!(read(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let fp = Failpoints::default();
        let dir = tmpdir("flips");
        write(&dir, &sample(), &fp).unwrap();
        let p = path(&dir);
        let orig = std::fs::read(&p).unwrap();
        for i in 0..orig.len() {
            let mut mutated = orig.clone();
            mutated[i] ^= 0x10;
            std::fs::write(&p, &mutated).unwrap();
            corruption_detail(read(&dir));
        }
        // Truncation and extension too.
        std::fs::write(&p, &orig[..orig.len() - 3]).unwrap();
        corruption_detail(read(&dir));
        let mut ext = orig.clone();
        ext.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&p, &ext).unwrap();
        corruption_detail(read(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Images whose checksum is right and whose lists lie: each is a typed
    /// refusal, never a panic or an allocation the file cannot back.
    #[test]
    fn hostile_lists_with_valid_checksums_are_corruption() {
        let reseal = |mut image: Vec<u8>| {
            let body = image.len() - 4;
            let crc = crc32(&image[..body]);
            image[body..].copy_from_slice(&crc.to_le_bytes());
            image
        };
        // Level 0's file count, right behind the three cuts.
        let count_at = 48 + 8 * 3;
        for count in [1u32, 4, 1 << 28, u32::MAX] {
            let mut image = encode(&sample());
            image[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            let detail = corruption_detail(decode(&reseal(image)));
            assert!(count < 1 << 28 || detail.contains("overrun"), "{detail}");
        }
        let mut twice = sample();
        twice.levels[2].push(file(7, 5));
        assert!(corruption_detail(decode(&encode(&twice))).contains("twice"));
        let mut ahead = sample();
        ahead.levels[1][1].gen = ahead.next_gen;
        assert!(corruption_detail(decode(&encode(&ahead))).contains("next_gen"));
        let mut zero = sample();
        zero.levels[0].push(file(0, 0));
        assert!(corruption_detail(decode(&encode(&zero))).contains("next_gen"));
        let mut overflow = sample();
        overflow.levels[3] = vec![file(5, u64::MAX / 2 + 1), file(10, u64::MAX / 2 + 1)];
        assert!(corruption_detail(decode(&encode(&overflow))).contains("overflows"));
        // The untouched sample still decodes.
        assert_eq!(decode(&encode(&sample())).unwrap(), sample());
    }

    #[test]
    fn sweep_removes_only_unreferenced_store_files() {
        let fp = Failpoints::default();
        let dir = tmpdir("sweep");
        let m = sample();
        write(&dir, &m, &fp).unwrap();
        let keep_lvl = dir.join(level_file_name(3));
        let keep_run = dir.join(level_file_name(9));
        let keep_wal = dir.join(wal_file_name(11));
        let drop_lvl = dir.join(level_file_name(99));
        let drop_tmp = dir.join("lvl-x.dat.tmp");
        let unrelated = dir.join("notes.txt");
        for f in [
            &keep_lvl, &keep_run, &keep_wal, &drop_lvl, &drop_tmp, &unrelated,
        ] {
            std::fs::write(f, b"x").unwrap();
        }
        sweep_unreferenced(&dir, &m);
        assert!(keep_lvl.exists() && keep_run.exists() && keep_wal.exists() && unrelated.exists());
        assert!(!drop_lvl.exists() && !drop_tmp.exists());
        assert!(exists(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
