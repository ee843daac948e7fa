//! Breadth-first search expressed as a masked frontier push over the
//! adjacency pattern.

use crate::index::Index;
use crate::mask::VectorMask;
use crate::ops::binary::Min;
use crate::ops::reader_mx::vxm_pattern_levels;
use crate::ops::spa::SpaScratch;
use crate::reader::CursorReader;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// Level-synchronous BFS from `source` on the directed graph whose adjacency
/// pattern is `a` (edge `i -> j` when `a(i, j)` is stored).
///
/// Runs over any [`CursorReader`]: each wave is one masked pattern push
/// ([`vxm_pattern_levels`]) driven directly off the reader's DCSR level
/// slices — the complement of the visited set masks columns *before* any
/// accumulation, so already-discovered vertices cost one membership check
/// instead of a product, and the adjacency is never rebuilt as a flat
/// matrix.
///
/// Returns a sparse vector whose entry `v(j)` is the BFS level of vertex `j`
/// (source has level 1), containing only the reachable vertices.
pub fn bfs_levels<V, R>(a: &mut R, source: Index) -> SparseVector<u64>
where
    V: ScalarType,
    R: CursorReader<V> + ?Sized,
{
    let (nrows, ncols) = a.read_dims();
    let mut levels = SparseVector::<u64>::new(nrows.max(ncols));
    if source >= nrows {
        return levels;
    }
    levels.set(source, 1).expect("source in range");
    a.with_level_dcsrs(&mut |lv| {
        let mut spa = SpaScratch::<u64>::new();
        let mut frontier: Vec<(Index, u64)> = vec![(source, 1)];
        let mut reached: Vec<(Index, u64)> = Vec::new();
        let mut level = 1u64;
        while !frontier.is_empty() {
            level += 1;
            {
                // Mask = complement of the visited set (the level vector's
                // pattern *is* the visited set), applied before the push.
                let unvisited = VectorMask::complement(&levels);
                vxm_pattern_levels(&frontier, lv, Min, Some(&unvisited), &mut spa, &mut reached);
            }
            frontier.clear();
            for &(j, _) in &reached {
                levels.set(j, level).expect("in range");
                frontier.push((j, 1));
            }
        }
    });
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;
    use crate::oracle::bfs_levels_tuples;

    fn path_graph(n: u64) -> Matrix<u64> {
        // 0 -> 1 -> 2 -> ... -> n-1
        let rows: Vec<u64> = (0..n - 1).collect();
        let cols: Vec<u64> = (1..n).collect();
        let vals = vec![1u64; (n - 1) as usize];
        Matrix::from_tuples(n, n, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let mut g = path_graph(5);
        let levels = bfs_levels(&mut g, 0);
        assert_eq!(levels.get(0), Some(1));
        assert_eq!(levels.get(1), Some(2));
        assert_eq!(levels.get(4), Some(5));
        assert_eq!(levels.nvals(), 5);
    }

    #[test]
    fn bfs_unreachable_vertices_absent() {
        let mut g = path_graph(5);
        let levels = bfs_levels(&mut g, 3);
        assert_eq!(levels.get(3), Some(1));
        assert_eq!(levels.get(4), Some(2));
        assert_eq!(levels.get(0), None);
        assert_eq!(levels.nvals(), 2);
    }

    #[test]
    fn bfs_on_branching_graph() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (diamond)
        let mut g = Matrix::from_tuples(4, 4, &[0, 0, 1, 2], &[1, 2, 3, 3], &[1u64, 1, 1, 1], Plus)
            .unwrap();
        let levels = bfs_levels(&mut g, 0);
        assert_eq!(levels.get(0), Some(1));
        assert_eq!(levels.get(1), Some(2));
        assert_eq!(levels.get(2), Some(2));
        assert_eq!(levels.get(3), Some(3));
    }

    #[test]
    fn bfs_source_out_of_range() {
        let mut g = path_graph(3);
        let levels = bfs_levels(&mut g, 99);
        assert!(levels.is_empty());
    }

    #[test]
    fn bfs_isolated_source() {
        let mut g = Matrix::<u64>::new(8, 8);
        let levels = bfs_levels(&mut g, 2);
        assert_eq!(levels.nvals(), 1);
        assert_eq!(levels.get(2), Some(1));
    }

    #[test]
    fn cursor_and_tuples_paths_agree() {
        // Diamond plus a back edge and a detached 2-cycle.
        let mut g = Matrix::from_tuples(
            16,
            16,
            &[0, 0, 1, 2, 3, 5, 9],
            &[1, 2, 3, 3, 0, 9, 5],
            &[1u64; 7],
            Plus,
        )
        .unwrap();
        for src in [0u64, 3, 5, 7] {
            let fast = bfs_levels(&mut g, src);
            let slow = bfs_levels_tuples(&mut g, src).unwrap();
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow.iter().collect::<Vec<_>>(),
                "src={src}"
            );
        }
    }
}
