//! PageRank's front end: the distinct adjacency pattern of `Σ levels`
//! relabelled onto dense `u32` vertex positions.
//!
//! Vertex ids live in a `2^32`–`2^64` index space, so an algorithm that
//! iterates needs every edge endpoint renamed to its position in the sorted
//! set of vertices that occur at all.  That renaming is the transpose's
//! problem — order the edges by destination, remember where each one came
//! from — and is solved by the transpose's kernel
//! ([`RadixPlanes::sort_positions`]): no comparison sort and no per-edge
//! search, one scatter on the top varying id bits with every bucket
//! finished in cache, at any id width.  Everything here lives for one
//! algorithm call; nothing is cached on the reader.

use crate::cursor::LevelCursors;
use crate::formats::dcsr::Dcsr;
use crate::formats::radix::{assert_u32_positions, RadixPlanes};
use crate::index::Index;
use crate::ops::binary::First;
use crate::reader::CursorReader;
use crate::types::ScalarType;

/// CSR over vertex positions: source `k` (ascending by id) sits at
/// position `src_pos[k]` of `active` and points at
/// `targets[offsets[k]..offsets[k + 1]]`, its distinct destinations in
/// ascending id order — so its out-degree is the width of that range.
#[derive(Debug)]
pub(super) struct CompactGraph {
    /// Every vertex with an in- or out-edge, sorted and distinct.
    pub(super) active: Vec<Index>,
    /// Position in `active` of each source row.
    pub(super) src_pos: Vec<u32>,
    /// Per source, where its destinations start in `targets`; one longer
    /// than `src_pos`.
    pub(super) offsets: Vec<usize>,
    /// Per edge, the destination's position in `active`.
    pub(super) targets: Vec<u32>,
}

impl CompactGraph {
    /// Build from whatever `a` represents right now; the reader is free
    /// again when this returns.
    pub(super) fn from_reader<V, R>(a: &mut R) -> Self
    where
        V: ScalarType,
        R: CursorReader<V> + ?Sized,
    {
        let mut g = None;
        a.with_level_dcsrs(&mut |lv| g = Some(Self::from_levels(lv)));
        g.unwrap_or_else(|| Self::from_levels::<V>(&[]))
    }

    /// Build from settled level slices (the same cell may sit in several
    /// levels; it is one edge).
    ///
    /// # Panics
    /// Panics when sources plus edges exceed `u32::MAX`
    /// ([`assert_u32_positions`]).
    pub(super) fn from_levels<V: ScalarType>(lv: &[&Dcsr<V>]) -> Self {
        // One merged sweep: the source rows and their distinct destination
        // lists folded across levels, flattened CSR-style into `adj`.
        let mut srcs: Vec<Index> = Vec::new();
        let mut offsets: Vec<usize> = vec![0];
        let mut adj: Vec<Index> = Vec::with_capacity(lv.iter().map(|d| d.nvals()).sum());
        let mut cur = LevelCursors::new(lv);
        while let Some(r) = cur.next_row() {
            srcs.push(r);
            match cur.single_part() {
                Some((cols, _)) => adj.extend_from_slice(cols),
                None => cur.fold_row(First, &mut |c, _| adj.push(c)),
            }
            offsets.push(adj.len());
        }
        // Positions are u32; there are at most this many vertices.
        assert_u32_positions(srcs.len() + adj.len());

        // Edges in destination order, each remembering its slot in `adj`.
        let mut planes = RadixPlanes::default();
        let (dsts, edge) = planes.sort_positions(&adj);

        // One merge of the two ascending id streams names the vertices:
        // each distinct id takes the next position, a source records it,
        // and every edge into it has it scattered to its slot.
        let mut active: Vec<Index> = Vec::with_capacity(srcs.len());
        let mut src_pos: Vec<u32> = Vec::with_capacity(srcs.len());
        let mut targets = vec![0u32; dsts.len()];
        let (mut i, mut k) = (0, 0);
        loop {
            let v = match (dsts.get(i), srcs.get(k)) {
                (Some(&d), Some(&s)) => d.min(s),
                (Some(&d), None) => d,
                (None, Some(&s)) => s,
                (None, None) => break,
            };
            let p = active.len() as u32;
            active.push(v);
            if srcs.get(k) == Some(&v) {
                src_pos.push(p);
                k += 1;
            }
            while dsts.get(i) == Some(&v) {
                targets[edge[i] as usize] = p;
                i += 1;
            }
        }
        Self {
            active,
            src_pos,
            offsets,
            targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::merge_levels;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;
    use crate::reader::MatrixReader;

    /// splitmix64: a seeded stream good enough to vary shapes.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random update stream dealt over `nlevels` level structures: ids
    /// from a small pool (so cells repeat across levels and rows split
    /// across them) spread over `dim`, some levels left empty.
    fn random_levels(rng: &mut Rng, dim: u64, nlevels: usize) -> Vec<Dcsr<u64>> {
        let pool: Vec<u64> = (0..1 + rng.below(24)).map(|_| rng.below(dim)).collect();
        let updates = rng.below(120);
        let mut tuples: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nlevels];
        let skip = rng.below(nlevels as u64 + 1) as usize;
        for _ in 0..updates {
            let level = rng.below(nlevels as u64) as usize;
            if level == skip {
                continue;
            }
            let r = pool[rng.below(pool.len() as u64) as usize];
            let c = pool[rng.below(pool.len() as u64) as usize];
            tuples[level].push((r, c));
        }
        tuples
            .iter()
            .map(|t| {
                let rows: Vec<u64> = t.iter().map(|e| e.0).collect();
                let cols: Vec<u64> = t.iter().map(|e| e.1).collect();
                Dcsr::from_tuples(dim, dim, &rows, &cols, &vec![1u64; t.len()], Plus).unwrap()
            })
            .collect()
    }

    #[test]
    fn front_end_is_exact_over_random_level_splits() {
        let mut rng = Rng(2020);
        for case in 0..400 {
            let dim = [64, 1 << 20, 1 << 32, 1 << 40][case % 4];
            let nlevels = 1 + (case / 4) % 4;
            let levels = random_levels(&mut rng, dim, nlevels);
            let refs: Vec<&Dcsr<u64>> = levels.iter().collect();
            let g = CompactGraph::from_levels(&refs);

            // The materialised matrix is the oracle.
            let flat = merge_levels(dim, dim, &refs, Plus).unwrap();
            let (rows, cols, _) = flat.extract_tuples();
            let mut want_active: Vec<u64> = rows.iter().chain(&cols).copied().collect();
            want_active.sort_unstable();
            want_active.dedup();
            assert_eq!(g.active, want_active, "case {case}: active set");
            assert!(g.active.windows(2).all(|w| w[0] < w[1]));

            assert_eq!(g.src_pos.len(), flat.nrows_nonempty(), "case {case}");
            assert_eq!(g.offsets.len(), g.src_pos.len() + 1);
            assert_eq!(
                g.targets.len(),
                flat.nvals(),
                "case {case}: one edge per cell"
            );
            let mut m =
                Matrix::from_tuples(dim, dim, &rows, &cols, &vec![1u64; rows.len()], Plus).unwrap();
            for (k, &r) in flat.row_ids().iter().enumerate() {
                assert_eq!(
                    g.active[g.src_pos[k] as usize], r,
                    "case {case}: source {k}"
                );
                let got: Vec<u64> = g.targets[g.offsets[k]..g.offsets[k + 1]]
                    .iter()
                    .map(|&t| g.active[t as usize])
                    .collect();
                assert_eq!(got, flat.row_slot(k).0, "case {case}: row {r} adjacency");
                assert_eq!(
                    g.offsets[k + 1] - g.offsets[k],
                    m.read_row_degree(r),
                    "case {case}: row {r} degree"
                );
            }
        }
    }

    #[test]
    fn no_levels_and_empty_levels_give_the_empty_graph() {
        let empty = Dcsr::<u64>::new(1 << 40, 1 << 40);
        for lv in [&[][..], &[&empty][..], &[&empty, &empty][..]] {
            let g = CompactGraph::from_levels(lv);
            assert!(g.active.is_empty() && g.src_pos.is_empty() && g.targets.is_empty());
            assert_eq!(g.offsets, vec![0]);
        }
    }
}
