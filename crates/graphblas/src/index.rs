//! Index types and dimension validation helpers.
//!
//! GraphBLAS matrices used for IP traffic analysis are indexed by the full
//! IPv4 (`2^32`) or IPv6 (`2^64`) address space, so indices are `u64`
//! throughout.  Storage cost is proportional to the number of *stored*
//! entries, never to the dimensions.

use crate::error::{GrbError, GrbResult};

/// Row/column index type.  Matches `GrB_Index` in the C API.
pub type Index = u64;

/// The largest representable dimension (`2^64 - 1` would overflow internal
/// arithmetic in a few places, so like SuiteSparse we cap at `2^60`).
pub const MAX_DIM: Index = 1 << 60;

/// Validate that a matrix dimension pair is acceptable.
///
/// Dimensions must be non-zero and no larger than [`MAX_DIM`].
pub fn validate_dims(nrows: Index, ncols: Index) -> GrbResult<()> {
    if nrows == 0 || ncols == 0 {
        return Err(GrbError::InvalidValue(format!(
            "matrix dimensions must be non-zero, got {nrows} x {ncols}"
        )));
    }
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(GrbError::InvalidValue(format!(
            "matrix dimensions must be <= 2^60, got {nrows} x {ncols}"
        )));
    }
    Ok(())
}

/// Validate that `index < dim`.
pub fn validate_index(index: Index, dim: Index) -> GrbResult<()> {
    if index >= dim {
        Err(GrbError::IndexOutOfBounds { index, dim })
    } else {
        Ok(())
    }
}

/// A half-open index range `[start, end)` used by extract operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// Inclusive start.
    pub start: Index,
    /// Exclusive end.
    pub end: Index,
}

impl IndexRange {
    /// Construct a new range, validating that `start <= end`.
    pub fn new(start: Index, end: Index) -> GrbResult<Self> {
        if start > end {
            return Err(GrbError::InvalidValue(format!(
                "range start {start} exceeds end {end}"
            )));
        }
        Ok(Self { start, end })
    }

    /// The whole axis `[0, dim)`.
    pub fn all(dim: Index) -> Self {
        Self { start: 0, end: dim }
    }

    /// Number of indices covered by the range.
    pub fn len(&self) -> Index {
        self.end - self.start
    }

    /// True when the range covers no indices.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when `i` falls inside the range.
    pub fn contains(&self, i: Index) -> bool {
        i >= self.start && i < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_zero_rejected() {
        assert!(validate_dims(0, 10).is_err());
        assert!(validate_dims(10, 0).is_err());
        assert!(validate_dims(0, 0).is_err());
    }

    #[test]
    fn dims_huge_accepted_up_to_cap() {
        assert!(validate_dims(1 << 32, 1 << 32).is_ok());
        assert!(validate_dims(MAX_DIM, MAX_DIM).is_ok());
        assert!(validate_dims(MAX_DIM + 1, 2).is_err());
    }

    #[test]
    fn index_validation() {
        assert!(validate_index(0, 1).is_ok());
        assert!(validate_index(41, 42).is_ok());
        assert!(validate_index(42, 42).is_err());
        match validate_index(99, 10).unwrap_err() {
            GrbError::IndexOutOfBounds { index, dim } => {
                assert_eq!(index, 99);
                assert_eq!(dim, 10);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ranges() {
        let r = IndexRange::new(3, 7).unwrap();
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(3));
        assert!(r.contains(6));
        assert!(!r.contains(7));
        assert!(!r.contains(2));

        let all = IndexRange::all(100);
        assert_eq!(all.len(), 100);
        assert!(IndexRange::new(5, 4).is_err());
        assert!(IndexRange::new(4, 4).unwrap().is_empty());
    }
}
