//! PageRank, the one centrality measure computed on streaming traffic
//! matrices here (paper §III's "various network statistics").
//!
//! [`pagerank`] runs over any [`CursorReader`]: a merged cursor sweep of
//! the reader's level slices collects the distinct adjacency pattern, one
//! position-carrying radix over the destination ids plus one linear merge
//! relabels it onto dense `u32` vertex positions (CSR over positions and
//! the sorted id table), the iteration runs on dense arrays, and the
//! result is handed over as a [`SparseVector`] by move.  Set-up is a few
//! linear passes over the edges — one radix scatter on the top varying id
//! bits, every bucket finished in cache, at any id width — with no
//! comparison sort and no per-edge search; its buffers (about 20 bytes per
//! edge and 12 per vertex) live for the call only, and nothing is cached
//! on the reader.  The equivalence tests compare it against its
//! `pagerank_tuples` reference in the `oracle` module.

use super::compact::CompactGraph;
use crate::reader::CursorReader;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// PageRank over the directed graph whose adjacency pattern is `a`
/// (edge `i -> j` for every stored entry; weights ignored).
///
/// Runs over any [`CursorReader`] on the module's front end: the
/// out-degree of a source is the width of its destination list, and every
/// iteration is a dense-array push of `rank(i)/outdeg(i)` under `plus`
/// along `u32` destination positions — no per-iteration level lookups, no
/// scatter sorts, and the weighted transition matrix is never built.  Cost
/// is the linear set-up plus `O(edges + vertices)` per iteration.
///
/// Returns the rank of every vertex that has at least one in- or out-edge.
/// `damping` is the usual 0.85; iteration stops after `max_iters` or when
/// the L1 change drops below `tol`.  `max_iters = 0` returns the uniform
/// start vector.
pub fn pagerank<V, R>(a: &mut R, damping: f64, max_iters: usize, tol: f64) -> SparseVector<f64>
where
    V: ScalarType,
    R: CursorReader<V> + ?Sized,
{
    let (nrows, ncols) = a.read_dims();
    let size = nrows.max(ncols);
    let g = CompactGraph::from_reader(a);
    let n = g.active.len();
    if n == 0 {
        return SparseVector::new(size);
    }
    let teleport = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut spread = vec![0.0f64; n];
    for _ in 0..max_iters {
        spread.fill(0.0);
        for (&src, w) in g.src_pos.iter().zip(g.offsets.windows(2)) {
            let contrib = rank[src as usize] / (w[1] - w[0]) as f64;
            for &t in &g.targets[w[0]..w[1]] {
                spread[t as usize] += contrib;
            }
        }
        let mut delta = 0.0;
        for (r, &s) in rank.iter_mut().zip(&spread) {
            let val = teleport + damping * s;
            delta += (val - *r).abs();
            *r = val;
        }
        if delta < tol {
            break;
        }
    }
    let out = SparseVector::from_sorted_parts(size, g.active, rank);
    // Sorted and distinct by construction, and inside the dims of the
    // reader whose levels they came from; a reader that broke that contract
    // gets the empty answer in release builds, not a panic.
    debug_assert!(out.is_ok(), "vertex table rejected: {out:?}");
    out.unwrap_or_else(|_| SparseVector::new(size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;
    use crate::oracle::pagerank_tuples;

    fn graph(nrows: u64, edges: &[(u64, u64)]) -> Matrix<u64> {
        let rows: Vec<u64> = edges.iter().map(|e| e.0).collect();
        let cols: Vec<u64> = edges.iter().map(|e| e.1).collect();
        let vals = vec![1u64; edges.len()];
        Matrix::from_tuples(nrows, nrows, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn pagerank_ranks_hub_highest() {
        // Star pointing at vertex 0: everyone links to 0.
        let mut g = graph(10, &[(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let pr = pagerank(&mut g, 0.85, 50, 1e-9);
        let r0 = pr.get(0).unwrap();
        for v in 1..=4u64 {
            assert!(r0 > pr.get(v).unwrap(), "hub must out-rank leaf {v}");
        }
    }

    #[test]
    fn pagerank_sums_to_about_one() {
        let mut g = graph(8, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let pr = pagerank(&mut g, 0.85, 100, 1e-10);
        let total: f64 = pr.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 0.05, "total rank {total}");
    }

    #[test]
    fn pagerank_empty_graph() {
        let mut g = Matrix::<u64>::new(8, 8);
        assert!(pagerank(&mut g, 0.85, 10, 1e-6).is_empty());
    }

    #[test]
    fn pagerank_symmetric_cycle_is_uniform() {
        let mut g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&mut g, 0.85, 100, 1e-12);
        let vals: Vec<f64> = (0..4).map(|v| pr.get(v).unwrap()).collect();
        for w in vals.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }

    #[test]
    fn pagerank_agrees_with_tuples_fallback() {
        let mut g = graph(
            32,
            &[(0, 1), (1, 2), (2, 0), (3, 0), (3, 4), (4, 3), (9, 2)],
        );
        let fast = pagerank(&mut g, 0.85, 60, 1e-12);
        let slow = pagerank_tuples(&mut g, 0.85, 60, 1e-12).unwrap();
        assert_eq!(fast.nvals(), slow.nvals());
        for (v, r) in fast.iter() {
            let s = slow.get(v).expect("same active set");
            assert!((r - s).abs() < 1e-9, "v={v}: {r} vs {s}");
        }
    }

    /// Shapes the front end could trip on: nothing at all, one self-loop,
    /// destinations that are never sources, and ids above `2^32` in a
    /// `2^40` space (the radix partitions above bit 32 there).
    fn hostile_graphs() -> Vec<Matrix<u64>> {
        let hi = 1u64 << 33;
        vec![
            Matrix::<u64>::new(1 << 40, 1 << 40),
            graph(8, &[(3, 3)]),
            graph(1 << 32, &[(1, 9), (1, 7), (2, 9), (5, 1 << 31)]),
            graph(
                1 << 40,
                &[
                    (hi + 5, 2),
                    (2, hi + 5),
                    (hi + 5, (1 << 39) + 1),
                    (7, hi),
                    ((1 << 39) + 1, 7),
                    (hi + (1 << 22), hi + (1 << 11)),
                ],
            ),
        ]
    }

    #[test]
    fn pagerank_survives_hostile_inputs_and_matches_the_oracle() {
        for mut g in hostile_graphs() {
            for (damping, iters) in [(0.85, 0), (0.85, 1), (0.85, 40), (0.0, 5), (1.0, 5)] {
                let fast = pagerank(&mut g, damping, iters, 0.0);
                let slow = pagerank_tuples(&mut g, damping, iters, 0.0).unwrap();
                assert_eq!(
                    fast.nvals(),
                    slow.nvals(),
                    "damping {damping}, {iters} iters"
                );
                for ((v, r), (w, s)) in fast.iter().zip(slow.iter()) {
                    assert_eq!(v, w);
                    assert!(
                        (r - s).abs() < 1e-9,
                        "v={v} damping {damping}, {iters} iters: {r} vs {s}"
                    );
                }
            }
        }
    }
}
