//! The write mask of the frontier push.
//!
//! A BFS wave pushes its frontier under the *complement* of the visited
//! vector ([`crate::ops::reader_mx::vxm_pattern_levels`]), so
//! already-levelled vertices are never rewritten.

use crate::index::Index;
use crate::types::ScalarType;
use crate::vector::SparseVector;

/// A structural mask over a [`SparseVector`] pattern: a position is allowed
/// if the pattern stores an entry there (or does not, when complemented),
/// whatever the stored value.
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

    #[test]
    fn vector_mask_allows_stored_positions_or_their_complement() {
        let visited = SparseVector::from_tuples(10, &[1, 4], &[1u64, 2], Plus).unwrap();
        let m = VectorMask::structural(&visited);
        assert!(m.allows(1));
        assert!(!m.allows(2));
        let c = VectorMask::complement(&visited);
        assert!(!c.allows(1));
        assert!(c.allows(2));
    }
}
