//! Write masks.
//!
//! GraphBLAS operations optionally take a mask controlling which output
//! positions may be written.  The mask here is *structural*: a position is
//! allowed if the mask matrix stores an entry there (or does not, when
//! complemented), regardless of the stored value — this matches how masks
//! are used in the traffic-analysis pipelines (e.g. "only update counts for
//! flows we are already tracking").

use crate::error::{GrbError, GrbResult};
use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::matrix::Matrix;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// A structural write mask borrowed from a mask matrix.
#[derive(Debug, Clone, Copy)]
pub struct Mask<'a, M> {
    pattern: &'a Dcsr<M>,
    complement: bool,
}

impl<'a, M: ScalarType> Mask<'a, M> {
    /// Mask allowing positions where `pattern` has a stored entry.
    ///
    /// The mask matrix must be settled (no pending tuples); use
    /// [`Matrix::to_settled`] or [`Matrix::wait`] first if needed.
    pub fn structural(pattern: &'a Matrix<M>) -> Self {
        Self {
            pattern: pattern.dcsr(),
            complement: false,
        }
    }

    /// Mask allowing positions where `pattern` has **no** stored entry.
    pub fn complement(pattern: &'a Matrix<M>) -> Self {
        Self {
            pattern: pattern.dcsr(),
            complement: true,
        }
    }

    /// A mask covers exactly the output it guards: `Err` unless the mask
    /// matrix is `dims.0 x dims.1`.
    pub(crate) fn check_dims(&self, dims: (Index, Index)) -> GrbResult<()> {
        if (self.pattern.nrows(), self.pattern.ncols()) == dims {
            return Ok(());
        }
        Err(GrbError::DimensionMismatch {
            detail: format!(
                "mask is {}x{}, output is {}x{}",
                self.pattern.nrows(),
                self.pattern.ncols(),
                dims.0,
                dims.1
            ),
        })
    }

    /// True when output position `(row, col)` may be written.
    pub fn allows(&self, row: Index, col: Index) -> bool {
        let present = self.pattern.get(row, col).is_some();
        present != self.complement
    }

    /// Filter a settled matrix, keeping only the allowed positions.
    pub fn filter<T: ScalarType>(&self, m: &Matrix<T>) -> Matrix<T> {
        let src = m.to_settled();
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for (r, c, v) in src.iter_settled() {
            if self.allows(r, c) {
                rows.push(r);
                cols.push(c);
                vals.push(v);
            }
        }
        Matrix::from_tuples(
            m.nrows(),
            m.ncols(),
            &rows,
            &cols,
            &vals,
            crate::ops::binary::Second,
        )
        .expect("filtered entries are in bounds")
    }
}

/// The vector-side dual of [`Mask`]: a structural mask over a
/// [`SparseVector`] pattern, used by the masked `mxv`/`vxm` duals — a BFS
/// wave pushes its frontier under the *complement* of the visited vector so
/// already-levelled vertices are never rewritten.
#[derive(Debug, Clone, Copy)]
pub struct VectorMask<'a, M> {
    pattern: &'a SparseVector<M>,
    complement: bool,
}

impl<'a, M: ScalarType> VectorMask<'a, M> {
    /// Mask allowing positions where `pattern` has a stored entry.
    pub fn structural(pattern: &'a SparseVector<M>) -> Self {
        Self {
            pattern,
            complement: false,
        }
    }

    /// Mask allowing positions where `pattern` has **no** stored entry.
    pub fn complement(pattern: &'a SparseVector<M>) -> Self {
        Self {
            pattern,
            complement: true,
        }
    }

    /// A mask covers exactly the output it guards: `Err` unless the mask
    /// vector has `size` positions.
    pub(crate) fn check_size(&self, size: Index) -> GrbResult<()> {
        if self.pattern.size() == size {
            return Ok(());
        }
        Err(GrbError::DimensionMismatch {
            detail: format!("mask has size {}, output {size}", self.pattern.size()),
        })
    }

    /// True when output position `i` may be written.
    pub fn allows(&self, i: Index) -> bool {
        let present = self.pattern.get(i).is_some();
        present != self.complement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;

    fn mask_matrix() -> Matrix<bool> {
        Matrix::from_tuples(10, 10, &[1, 2], &[1, 2], &[true, true], Plus).unwrap()
    }

    #[test]
    fn structural_mask_allows_stored_positions() {
        let mm = mask_matrix();
        let mask = Mask::structural(&mm);
        assert!(mask.allows(1, 1));
        assert!(mask.allows(2, 2));
        assert!(!mask.allows(3, 3));
    }

    #[test]
    fn complement_mask_inverts() {
        let mm = mask_matrix();
        let mask = Mask::complement(&mm);
        assert!(!mask.allows(1, 1));
        assert!(mask.allows(3, 3));
    }

    #[test]
    fn filter_keeps_only_allowed() {
        let mm = mask_matrix();
        let mask = Mask::structural(&mm);
        let data =
            Matrix::from_tuples(10, 10, &[1, 2, 3], &[1, 2, 3], &[10u64, 20, 30], Plus).unwrap();
        let filtered = mask.filter(&data);
        assert_eq!(filtered.nvals(), 2);
        assert_eq!(filtered.get(1, 1), Some(10));
        assert_eq!(filtered.get(3, 3), None);

        let complement_filtered = Mask::complement(&mm).filter(&data);
        assert_eq!(complement_filtered.nvals(), 1);
        assert_eq!(complement_filtered.get(3, 3), Some(30));
    }

    #[test]
    fn vector_mask_mirrors_matrix_mask() {
        let visited = SparseVector::from_tuples(10, &[1, 4], &[1u64, 2], Plus).unwrap();
        let m = VectorMask::structural(&visited);
        assert!(m.allows(1));
        assert!(!m.allows(2));
        let c = VectorMask::complement(&visited);
        assert!(!c.allows(1));
        assert!(c.allows(2));
    }
}
