//! Degree statistics — out-degree, in-degree, degree distribution.
//!
//! All three run over any [`MatrixReader`], so they answer directly from a
//! hierarchical matrix's merged level cursors (or a sharded engine's worker
//! pool) — no materialised snapshot required.

use crate::index::Index;
use crate::reader::MatrixReader;
use crate::types::ScalarType;
use crate::vector::SparseVector;
use std::collections::BTreeMap;

/// Out-degree of every non-empty row: the number of stored entries per row
/// (pattern degree, ignoring weights).
pub fn row_degree<V, R>(a: &mut R) -> SparseVector<u64>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    // Entries arrive row-major sorted: each run of one row id is a row,
    // its length the degree.
    let (mut rows, mut degs): (Vec<Index>, Vec<u64>) = (Vec::new(), Vec::new());
    a.read_entries(&mut |r, _, _| match degs.last_mut() {
        Some(n) if rows.last() == Some(&r) => *n += 1,
        _ => {
            rows.push(r);
            degs.push(1);
        }
    });
    SparseVector::from_sorted_parts(a.read_dims().0, rows, degs)
        .expect("reader contract: rows ascending, inside the reader's dims")
}

/// In-degree of every non-empty column.
///
/// Served through [`MatrixReader::read_in_top_k`] with `k = nnz` (an upper
/// bound on the number of distinct columns), so twin/index-backed readers
/// answer in O(columns log columns) off their column structures instead of
/// sweeping every stored entry.
pub fn col_degree<V, R>(a: &mut R) -> SparseVector<u64>
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    let bound = a.read_nnz();
    let mut degs = a.read_in_top_k(bound);
    // Ranked by degree; the vector wants them by column id.
    degs.sort_unstable_by_key(|&(c, _)| c);
    let (cols, counts) = degs.into_iter().map(|(c, n)| (c, n as u64)).unzip();
    SparseVector::from_sorted_parts(a.read_dims().1, cols, counts)
        .expect("reader contract: distinct columns, inside the reader's dims")
}

/// Histogram of a degree vector: `count[d]` = number of vertices with degree `d`.
///
/// For the power-law workloads of the paper the histogram should follow
/// `count[d] ∝ d^-α`; the workload-generator tests assert exactly that
/// shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeDistribution {
    /// Map from degree to the number of vertices having that degree.
    pub counts: BTreeMap<u64, u64>,
}

impl DegreeDistribution {
    /// Total number of vertices counted.
    pub fn total_vertices(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Maximum degree observed.
    pub fn max_degree(&self) -> u64 {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Estimate the power-law exponent `alpha` by a least-squares fit of
    /// `log(count)` against `log(degree)` (degrees with non-zero counts only).
    ///
    /// Returns `None` when fewer than two distinct degrees are present.
    pub fn powerlaw_exponent(&self) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .counts
            .iter()
            .filter(|(&d, &c)| d > 0 && c > 0)
            .map(|(&d, &c)| ((d as f64).ln(), (c as f64).ln()))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(-slope)
    }
}

/// Compute the **out**-degree (row-pattern) distribution of a matrix.
///
/// Served through [`MatrixReader::read_degree_histogram`], so index-backed
/// readers (the hierarchical systems) answer in O(distinct degrees) rather
/// than sweeping every entry.  This counts *rows*; the column mirror —
/// the background model for destination-centric telemetry — is the same
/// wrapper around [`MatrixReader::read_in_degree_histogram`].
pub fn degree_distribution<V, R>(a: &mut R) -> DegreeDistribution
where
    V: ScalarType,
    R: MatrixReader<V> + ?Sized,
{
    DegreeDistribution {
        counts: a.read_degree_histogram(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::binary::Plus;

    fn star_graph(center: u64, leaves: u64) -> Matrix<u64> {
        // center -> each leaf
        let rows: Vec<u64> = vec![center; leaves as usize];
        let cols: Vec<u64> = (0..leaves).map(|i| i + 1 + center).collect();
        let vals = vec![1u64; leaves as usize];
        Matrix::from_tuples(1 << 32, 1 << 32, &rows, &cols, &vals, Plus).unwrap()
    }

    #[test]
    fn row_and_col_degrees() {
        let mut g = star_graph(5, 4);
        let out = row_degree(&mut g);
        assert_eq!(out.get(5), Some(4));
        assert_eq!(out.nvals(), 1);
        let inn = col_degree(&mut g);
        assert_eq!(inn.nvals(), 4);
        assert_eq!(inn.get(6), Some(1));
    }

    #[test]
    fn degree_ignores_weights() {
        let mut g = Matrix::from_tuples(10, 10, &[1, 1], &[2, 3], &[100u64, 200], Plus).unwrap();
        assert_eq!(row_degree(&mut g).get(1), Some(2));
    }

    #[test]
    fn degrees_include_pending_tuples() {
        let mut g = Matrix::<u64>::new(100, 100);
        g.accum_tuples(&[3, 3, 3], &[1, 2, 1], &[1, 1, 1]).unwrap();
        // Pending only; duplicates on (3, 1) must collapse in the pattern.
        assert_eq!(row_degree(&mut g).get(3), Some(2));
    }

    #[test]
    fn distribution_counts() {
        let mut g = star_graph(0, 5);
        let dist = degree_distribution(&mut g);
        assert_eq!(dist.counts.get(&5), Some(&1));
        assert_eq!(dist.total_vertices(), 1);
        assert_eq!(dist.max_degree(), 5);
    }

    #[test]
    fn powerlaw_exponent_of_exact_powerlaw() {
        // Construct counts[d] = round(1000 * d^-2): slope should recover ~2.
        let mut counts = BTreeMap::new();
        for d in 1u64..=32 {
            let c = (1000.0 * (d as f64).powf(-2.0)).round() as u64;
            if c > 0 {
                counts.insert(d, c);
            }
        }
        let dist = DegreeDistribution { counts };
        let alpha = dist.powerlaw_exponent().unwrap();
        assert!((alpha - 2.0).abs() < 0.15, "alpha = {alpha}");
    }

    #[test]
    fn exponent_none_for_degenerate_distributions() {
        assert!(DegreeDistribution::default().powerlaw_exponent().is_none());
        let mut counts = BTreeMap::new();
        counts.insert(3u64, 10u64);
        assert!(DegreeDistribution { counts }.powerlaw_exponent().is_none());
    }

    #[test]
    fn empty_matrix_distribution() {
        let mut g = Matrix::<u64>::new(16, 16);
        let dist = degree_distribution(&mut g);
        assert_eq!(dist.total_vertices(), 0);
        assert_eq!(dist.max_degree(), 0);
    }
}
