//! Sparse storage formats.
//!
//! | Format | Memory | Best at | Used for |
//! |--------|--------|---------|----------|
//! | [`coo::Coo`]   | `O(nnz)`             | appending unsorted tuples        | construction, pending updates |
//! | [`dcsr::Dcsr`] | `O(nnz + #non-empty rows)` | row-wise traversal, merging | the compressed "settled" form of every matrix (hypersparse-safe) |
//!
//! The paper's argument is about which of these an *update stream* should
//! touch and when: appending to a small COO/DCSR in cache is cheap; merging
//! into a large DCSR in DRAM is expensive; hence the hierarchy.

pub mod coo;
pub mod dcsr;
pub mod merge;

use crate::index::Index;

/// A single stored entry `(row, col, value)`.
pub type Entry<T> = (Index, Index, T);

/// Summary of the memory consumed by a sparse structure, in bytes.
///
/// These figures are what `memory()` / `memory_bytes()` report for a flat
/// matrix and for each level of the hierarchical matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Bytes used by index arrays (row ids, row pointers, column ids).
    pub index_bytes: usize,
    /// Bytes used by the stored values.
    pub value_bytes: usize,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.index_bytes + self.value_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_total() {
        let f = MemoryFootprint {
            index_bytes: 100,
            value_bytes: 28,
        };
        assert_eq!(f.total(), 128);
        assert_eq!(MemoryFootprint::default().total(), 0);
    }
}
