//! Helpers shared by the integration suites: the proptest update stream and
//! cut schedule, the flat reference matrix and its top-k, the sharded
//! engine's constructor, and the durable suites' temporary directory and
//! cell maps.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use hyperstream::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub const DIM: u64 = 1 << 32;

/// A stream of `min_len..max_len` updates whose row and column ids are drawn
/// from `0..cells` (so duplicates accumulate and rows collide across
/// hierarchy levels) and scattered over the hypersparse index space.
pub fn update_stream(
    cells: u64,
    min_len: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..cells, 0u64..cells, 1u64..5), min_len..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

/// An arbitrary valid cut schedule (strictly increasing, non-zero) of 2 to
/// `max_levels` levels, with small cuts so short streams cascade.
pub fn cut_schedule(max_levels: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..64, 1..max_levels).prop_map(|deltas| {
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

/// The flat reference: every update accumulated into one settled matrix.
pub fn build_flat(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    build_flat_in((DIM, DIM), updates)
}

pub fn build_flat_in(dims: (u64, u64), updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(dims.0, dims.1);
    for &(r, c, v) in updates {
        m.accum_element(r, c, v).unwrap();
    }
    m.wait();
    m
}

/// The sharded engine every suite builds: `shards` workers over `DIM x DIM`
/// hierarchies with the cut schedule `cuts` (whose level-0 cut also sizes
/// the engine's hand-offs, so small cuts hand small batches to workers).
pub fn sharded(shards: usize, cuts: &[u64]) -> ShardedHierMatrix<u64> {
    sharded_in((DIM, DIM), shards, cuts)
}

pub fn sharded_in(dims: (u64, u64), shards: usize, cuts: &[u64]) -> ShardedHierMatrix<u64> {
    let cfg = HierConfig::from_cuts(cuts.to_vec()).unwrap();
    ShardedHierMatrix::new(dims.0, dims.1, cfg, ShardedConfig::with_shards(shards)).unwrap()
}

/// Reference ranking (degree descending, id ascending) from a flat matrix;
/// on a transposed matrix this is the in-degree top-k.
pub fn reference_top_k(flat: &Matrix<u64>, k: usize) -> Vec<(u64, usize)> {
    let d = flat.dcsr();
    let mut degs: Vec<(u64, usize)> = (0..d.nrows_nonempty())
        .map(|slot| (d.row_ids()[slot], d.row_slot(slot).0.len()))
        .collect();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    degs.truncate(k);
    degs
}

/// Unique-per-test directory under the system temp dir, named
/// `{prefix}-{pid}-{name}-{seq}`, removed on drop (kept on panic so a
/// failing case leaves its evidence behind).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(prefix: &str, name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = format!("{prefix}-{}-{name}-{n}", std::process::id());
        let p = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }

    pub fn path(&self) -> &Path {
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

/// Flat oracle: the represented matrix of an update prefix as a sum map.
pub fn oracle(updates: &[(u64, u64, u64)]) -> BTreeMap<(u64, u64), u64> {
    let mut m = BTreeMap::new();
    for &(r, c, v) in updates {
        *m.entry((r, c)).or_insert(0) += v;
    }
    m
}

/// A hierarchy's represented matrix as a sum map, comparable with
/// [`oracle`].
pub fn contents(m: &HierMatrix<u64>) -> BTreeMap<(u64, u64), u64> {
    let (r, c, v) = m.materialize_ref().extract_tuples();
    let mut out = BTreeMap::new();
    for i in 0..r.len() {
        *out.entry((r[i], c[i])).or_insert(0) += v[i];
    }
    out
}

/// Injected panics are the point of the fault suites: silence the default
/// report of a failpoint's panic (and of the durable `clear` one it
/// provokes), leaving every other panic loud.
#[cfg(feature = "failpoints")]
pub fn quiet_failpoint_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") && !msg.contains("durable clear") {
                previous(info);
            }
        }));
    });
}
