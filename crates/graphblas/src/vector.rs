//! Sparse vectors (`GrB_Vector` equivalent).
//!
//! A sparse vector is stored as parallel sorted `(index, value)` arrays.
//! Vectors appear in the traffic-analysis examples as row/column reductions
//! of a traffic matrix — packets per source, packets per destination — and
//! as the operands of `mxv`/`vxm`.

use crate::error::{GrbError, GrbResult};
use crate::index::{validate_index, Index};
use crate::ops::{BinaryOp, Monoid};
use crate::types::ScalarType;

/// A sparse vector of logical length `size`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector<T> {
    size: Index,
    idx: Vec<Index>,
    vals: Vec<T>,
}

impl<T: ScalarType> SparseVector<T> {
    /// An empty vector of logical length `size`.
    pub fn new(size: Index) -> Self {
        Self::try_new(size).expect("invalid vector size")
    }

    /// Fallible constructor.
    pub fn try_new(size: Index) -> GrbResult<Self> {
        if size == 0 {
            return Err(GrbError::InvalidValue(
                "vector size must be non-zero".into(),
            ));
        }
        Ok(Self {
            size,
            idx: Vec::new(),
            vals: Vec::new(),
        })
    }

    /// Build from `(index, value)` tuples, combining duplicates with `dup`.
    pub fn from_tuples<Op: BinaryOp<T>>(
        size: Index,
        indices: &[Index],
        values: &[T],
        dup: Op,
    ) -> GrbResult<Self> {
        if indices.len() != values.len() {
            return Err(GrbError::DimensionMismatch {
                detail: "index/value slice lengths differ".into(),
            });
        }
        let mut v = Self::try_new(size)?;
        let mut pairs: Vec<(Index, T)> = Vec::with_capacity(indices.len());
        for (&i, &val) in indices.iter().zip(values) {
            validate_index(i, size)?;
            pairs.push((i, val));
        }
        pairs.sort_by_key(|&(i, _)| i);
        for (i, val) in pairs {
            if v.idx.last() == Some(&i) {
                let last = v.vals.last_mut().expect("vals non-empty");
                *last = dup.apply(*last, val);
            } else {
                v.idx.push(i);
                v.vals.push(val);
            }
        }
        Ok(v)
    }

    /// Build from parallel arrays that are already in stored form:
    /// `idx` strictly increasing and below `size`, `vals` parallel to it.
    /// O(n) — one validation pass, then the arrays are moved in (ascending
    /// [`set`](Self::set) calls cost a binary search each instead).
    pub fn from_sorted_parts(size: Index, idx: Vec<Index>, vals: Vec<T>) -> GrbResult<Self> {
        if idx.len() != vals.len() {
            return Err(GrbError::DimensionMismatch {
                detail: "index/value vector lengths differ".into(),
            });
        }
        Self::try_new(size)?;
        if let Some(w) = idx.windows(2).find(|w| w[0] >= w[1]) {
            return Err(GrbError::InvalidValue(format!(
                "indices must be strictly increasing: {} then {}",
                w[0], w[1]
            )));
        }
        // Ascending, so the last index bounds them all.
        if let Some(&last) = idx.last() {
            validate_index(last, size)?;
        }
        Ok(Self { size, idx, vals })
    }

    /// Logical length.
    pub fn size(&self) -> Index {
        self.size
    }

    /// Number of stored entries.
    pub fn nvals(&self) -> usize {
        self.idx.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Stored value at `i`, or `None`.
    pub fn get(&self, i: Index) -> Option<T> {
        let k = self.idx.binary_search(&i).ok()?;
        Some(self.vals[k])
    }

    /// Set (overwrite) the value at `i`.
    pub fn set(&mut self, i: Index, val: T) -> GrbResult<()> {
        validate_index(i, self.size)?;
        match self.idx.binary_search(&i) {
            Ok(k) => self.vals[k] = val,
            Err(k) => {
                self.idx.insert(k, i);
                self.vals.insert(k, val);
            }
        }
        Ok(())
    }

    /// Accumulate `val` into position `i` under `op`.
    pub fn accum<Op: BinaryOp<T>>(&mut self, i: Index, val: T, op: Op) -> GrbResult<()> {
        validate_index(i, self.size)?;
        match self.idx.binary_search(&i) {
            Ok(k) => self.vals[k] = op.apply(self.vals[k], val),
            Err(k) => {
                self.idx.insert(k, i);
                self.vals.insert(k, val);
            }
        }
        Ok(())
    }

    /// Iterate over stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        self.idx.iter().zip(&self.vals).map(|(&i, &v)| (i, v))
    }

    /// Element-wise union with another vector under `op`.
    pub fn ewise_add<Op: BinaryOp<T>>(&self, other: &Self, op: Op) -> GrbResult<Self> {
        if self.size != other.size {
            return Err(GrbError::DimensionMismatch {
                detail: format!("vector sizes {} vs {}", self.size, other.size),
            });
        }
        let mut out = Self::new(self.size);
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.idx.len() || b < other.idx.len() {
            match (self.idx.get(a), other.idx.get(b)) {
                (Some(&ia), Some(&ib)) if ia == ib => {
                    out.idx.push(ia);
                    out.vals.push(op.apply(self.vals[a], other.vals[b]));
                    a += 1;
                    b += 1;
                }
                (Some(&ia), Some(&ib)) if ia < ib => {
                    out.idx.push(ia);
                    out.vals.push(self.vals[a]);
                    a += 1;
                }
                (Some(_), Some(&ib)) => {
                    out.idx.push(ib);
                    out.vals.push(other.vals[b]);
                    b += 1;
                }
                (Some(&ia), None) => {
                    out.idx.push(ia);
                    out.vals.push(self.vals[a]);
                    a += 1;
                }
                (None, Some(&ib)) => {
                    out.idx.push(ib);
                    out.vals.push(other.vals[b]);
                    b += 1;
                }
                (None, None) => break,
            }
        }
        Ok(out)
    }

    /// Reduce all stored values to a scalar under a monoid.
    pub fn reduce<M: Monoid<T>>(&self, monoid: M) -> T {
        self.vals
            .iter()
            .fold(monoid.identity(), |acc, &v| monoid.apply(acc, v))
    }

    /// The `k` stored entries with the largest values, sorted descending by
    /// value (ties broken by index).  Convenience for "top talkers" analysis.
    pub fn top_k(&self, k: usize) -> Vec<(Index, T)> {
        let mut pairs: Vec<(Index, T)> = self.iter().collect();
        pairs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        pairs.truncate(k);
        pairs
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.idx.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Max, Plus};
    use crate::ops::monoid::{MaxMonoid, PlusMonoid};

    #[test]
    fn build_and_get() {
        let v = SparseVector::from_tuples(1 << 32, &[7, 3, 7], &[1u64, 2, 3], Plus).unwrap();
        assert_eq!(v.nvals(), 2);
        assert_eq!(v.get(3), Some(2));
        assert_eq!(v.get(7), Some(4));
        assert_eq!(v.get(8), None);
        assert_eq!(v.size(), 1 << 32);
    }

    #[test]
    fn from_sorted_parts_moves_valid_input_and_rejects_the_rest() {
        let v = SparseVector::from_sorted_parts(1 << 40, vec![3, 7, 1 << 33], vec![1u64, 2, 3])
            .unwrap();
        assert_eq!(
            v,
            SparseVector::from_tuples(1 << 40, &[3, 7, 1 << 33], &[1u64, 2, 3], Plus).unwrap()
        );
        assert!(SparseVector::<u64>::from_sorted_parts(8, vec![], vec![])
            .unwrap()
            .is_empty());
        assert!(matches!(
            SparseVector::from_sorted_parts(8, vec![1, 2], vec![1u64]),
            Err(GrbError::DimensionMismatch { .. })
        ));
        for unsorted in [vec![2, 1], vec![1, 1]] {
            assert!(matches!(
                SparseVector::from_sorted_parts(8, unsorted, vec![1u64, 2]),
                Err(GrbError::InvalidValue(_))
            ));
        }
        assert_eq!(
            SparseVector::from_sorted_parts(8, vec![1, 8], vec![1u64, 2]),
            Err(GrbError::IndexOutOfBounds { index: 8, dim: 8 })
        );
        assert!(SparseVector::from_sorted_parts(0, vec![], Vec::<u64>::new()).is_err());
    }

    #[test]
    fn zero_size_rejected() {
        assert!(SparseVector::<u8>::try_new(0).is_err());
    }

    #[test]
    fn set_and_accum() {
        let mut v = SparseVector::<u64>::new(100);
        v.set(10, 5).unwrap();
        v.set(10, 7).unwrap();
        assert_eq!(v.get(10), Some(7));
        v.accum(10, 3, Plus).unwrap();
        assert_eq!(v.get(10), Some(10));
        v.accum(20, 1, Plus).unwrap();
        assert_eq!(v.nvals(), 2);
        assert!(v.set(100, 1).is_err());
        assert!(v.accum(200, 1, Plus).is_err());
    }

    #[test]
    fn ewise_add_union() {
        let a = SparseVector::from_tuples(10, &[1, 3], &[1u32, 3], Plus).unwrap();
        let b = SparseVector::from_tuples(10, &[3, 5], &[30u32, 50], Plus).unwrap();
        let c = a.ewise_add(&b, Plus).unwrap();
        assert_eq!(c.get(1), Some(1));
        assert_eq!(c.get(3), Some(33));
        assert_eq!(c.get(5), Some(50));
        assert_eq!(c.nvals(), 3);
        let d = a.ewise_add(&b, Max).unwrap();
        assert_eq!(d.get(3), Some(30));
    }

    #[test]
    fn ewise_add_size_mismatch() {
        let a = SparseVector::<u32>::new(10);
        let b = SparseVector::<u32>::new(11);
        assert!(a.ewise_add(&b, Plus).is_err());
    }

    #[test]
    fn reduce_monoids() {
        let v = SparseVector::from_tuples(100, &[1, 2, 3], &[5i64, -2, 10], Plus).unwrap();
        assert_eq!(v.reduce(PlusMonoid), 13);
        assert_eq!(v.reduce(MaxMonoid), 10);
        let empty = SparseVector::<i64>::new(10);
        assert_eq!(empty.reduce(PlusMonoid), 0);
    }

    #[test]
    fn top_k_orders_by_value() {
        let v = SparseVector::from_tuples(100, &[1, 2, 3, 4], &[5u64, 50, 10, 50], Plus).unwrap();
        let top = v.top_k(3);
        assert_eq!(top, vec![(2, 50), (4, 50), (3, 10)]);
        assert_eq!(v.top_k(0), vec![]);
        assert_eq!(v.top_k(100).len(), 4);
    }

    #[test]
    fn iter_sorted_and_clear() {
        let mut v = SparseVector::from_tuples(10, &[9, 0, 5], &[1u8, 2, 3], Plus).unwrap();
        let items: Vec<_> = v.iter().collect();
        assert_eq!(items, vec![(0, 2), (5, 3), (9, 1)]);
        v.clear();
        assert!(v.is_empty());
    }
}
