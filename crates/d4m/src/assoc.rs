//! The D4M associative array.

use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::ewise_add::ewise_add;
use hyperstream_graphblas::ops::monoid::PlusMonoid;
use hyperstream_graphblas::ops::reduce::{reduce_cols, reduce_rows};
use hyperstream_graphblas::Matrix;
use std::collections::BTreeMap;

/// Internal dimension of the backing sparse matrix.  Key indices are
/// allocated densely, so this only needs to exceed the number of *distinct*
/// keys ever seen by one array.
const BACKING_DIM: u64 = 1 << 40;

/// An associative array: a sparse matrix of `f64` values whose rows and
/// columns are identified by strings.
///
/// The representation mirrors D4M: two sorted key maps (row keys and column
/// keys, each mapping a string to a dense integer index) and an underlying
/// sparse matrix holding the values.  The cost of maintaining the sorted
/// string maps on every update is precisely the overhead the paper removes
/// by constraining traffic-matrix labels to integers.
#[derive(Debug, Clone)]
pub struct Assoc {
    row_keys: BTreeMap<String, u64>,
    col_keys: BTreeMap<String, u64>,
    row_names: Vec<String>,
    col_names: Vec<String>,
    values: Matrix<f64>,
}

impl Default for Assoc {
    fn default() -> Self {
        Self::new()
    }
}

impl Assoc {
    /// An empty associative array.
    pub fn new() -> Self {
        Self {
            row_keys: BTreeMap::new(),
            col_keys: BTreeMap::new(),
            row_names: Vec::new(),
            col_names: Vec::new(),
            values: Matrix::new(BACKING_DIM, BACKING_DIM),
        }
    }

    /// Build from `(row_key, col_key, value)` triples, accumulating
    /// duplicates with `+` (the D4M constructor semantics).
    pub fn from_triples<R, C>(triples: &[(R, C, f64)]) -> Self
    where
        R: AsRef<str>,
        C: AsRef<str>,
    {
        let mut a = Self::new();
        for (r, c, v) in triples {
            a.accum(r.as_ref(), c.as_ref(), *v);
        }
        a
    }

    fn row_index(&mut self, key: &str) -> u64 {
        if let Some(&i) = self.row_keys.get(key) {
            return i;
        }
        let i = self.row_names.len() as u64;
        self.row_keys.insert(key.to_string(), i);
        self.row_names.push(key.to_string());
        i
    }

    fn col_index(&mut self, key: &str) -> u64 {
        if let Some(&i) = self.col_keys.get(key) {
            return i;
        }
        let i = self.col_names.len() as u64;
        self.col_keys.insert(key.to_string(), i);
        self.col_names.push(key.to_string());
        i
    }

    /// Number of stored entries.
    ///
    /// When pending (unsettled) updates exist this settles a clone, which is
    /// expensive — on hot paths prefer [`Assoc::nnz_bound`] and settle
    /// explicitly with [`Assoc::settle`] before reading the exact count.
    pub fn nnz(&self) -> usize {
        self.values.nvals()
    }

    /// Upper bound on [`Assoc::nnz`] computable in `O(1)`: counts pending
    /// updates before duplicate collapse.
    pub fn nnz_bound(&self) -> usize {
        self.values.nvals_settled() + self.values.npending()
    }

    /// Fold all pending updates into the compressed structure, making
    /// [`Assoc::nnz`] exact and cheap.
    pub fn settle(&mut self) {
        self.values.wait();
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// Number of distinct row keys seen.
    pub fn nrows(&self) -> usize {
        self.row_names.len()
    }

    /// Number of distinct column keys seen.
    pub fn ncols(&self) -> usize {
        self.col_names.len()
    }

    /// The sorted row keys.
    pub fn row_keys(&self) -> Vec<&str> {
        self.row_keys.keys().map(|s| s.as_str()).collect()
    }

    /// The row key behind dense index `idx` (insertion order).
    pub fn row_name(&self, idx: u64) -> Option<&str> {
        self.row_names.get(idx as usize).map(|s| s.as_str())
    }

    /// The column key behind dense index `idx` (insertion order).
    pub fn col_name(&self, idx: u64) -> Option<&str> {
        self.col_names.get(idx as usize).map(|s| s.as_str())
    }

    /// The sorted column keys.
    pub fn col_keys(&self) -> Vec<&str> {
        self.col_keys.keys().map(|s| s.as_str()).collect()
    }

    /// Accumulate `value` into entry `(row_key, col_key)` under `+`
    /// (the D4M streaming-update operation).
    pub fn accum(&mut self, row_key: &str, col_key: &str, value: f64) {
        let r = self.row_index(row_key);
        let c = self.col_index(col_key);
        self.values
            .accum_element(r, c, value)
            .expect("indices are allocated densely within the backing dimension");
    }

    /// Overwrite entry `(row_key, col_key)`.
    pub fn set(&mut self, row_key: &str, col_key: &str, value: f64) {
        let r = self.row_index(row_key);
        let c = self.col_index(col_key);
        self.values
            .set_element(r, c, value)
            .expect("indices are allocated densely within the backing dimension");
        self.values
            .wait_with(hyperstream_graphblas::ops::binary::Second);
    }

    /// Value stored at `(row_key, col_key)`, if any.
    pub fn get(&self, row_key: &str, col_key: &str) -> Option<f64> {
        let r = *self.row_keys.get(row_key)?;
        let c = *self.col_keys.get(col_key)?;
        self.values.get(r, c)
    }

    /// All stored triples, sorted by row key then column key.
    pub fn triples(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        let settled = self.values.to_settled();
        for (r, c, v) in settled.iter_settled() {
            out.push((
                self.row_names[r as usize].clone(),
                self.col_names[c as usize].clone(),
                v,
            ));
        }
        out.sort_by(|a, b| (a.0.as_str(), a.1.as_str()).cmp(&(b.0.as_str(), b.1.as_str())));
        out
    }

    /// Element-wise addition (the D4M `A + B`): union of keys, values added.
    pub fn add(&self, other: &Assoc) -> Assoc {
        let mut out = self.clone();
        for (r, c, v) in other.triples() {
            out.accum(&r, &c, v);
        }
        out
    }

    /// Extract the sub-array whose row keys start with `row_prefix`
    /// (the D4M `A('prefix*', :)` idiom used to pull out a subnet).
    pub fn rows_with_prefix(&self, row_prefix: &str) -> Assoc {
        let mut out = Assoc::new();
        for (r, c, v) in self.triples() {
            if r.starts_with(row_prefix) {
                out.accum(&r, &c, v);
            }
        }
        out
    }

    /// Transpose: swap row and column keys.
    pub fn transpose(&self) -> Assoc {
        let mut out = Assoc::new();
        for (r, c, v) in self.triples() {
            out.accum(&c, &r, v);
        }
        out
    }

    /// Sum of values per row key.
    pub fn sum_rows(&self) -> Vec<(String, f64)> {
        let sums = reduce_rows(&self.values, PlusMonoid);
        sums.iter()
            .map(|(i, v)| (self.row_names[i as usize].clone(), v))
            .collect()
    }

    /// Sum of values per column key.
    pub fn sum_cols(&self) -> Vec<(String, f64)> {
        let sums = reduce_cols(&self.values, PlusMonoid);
        sums.iter()
            .map(|(j, v)| (self.col_names[j as usize].clone(), v))
            .collect()
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        hyperstream_graphblas::ops::reduce::reduce_scalar(&self.values, PlusMonoid)
    }

    /// The underlying integer-indexed sparse matrix (row/column indices are
    /// the dense key indices in insertion order).
    pub fn matrix(&self) -> &Matrix<f64> {
        &self.values
    }

    /// Merge another array into this one *reusing this array's key maps*
    /// (the in-place `A += B` used by the hierarchical cascade).
    pub fn merge_in(&mut self, other: &Assoc) {
        for (r, c, v) in other.triples() {
            self.accum(&r, &c, v);
        }
    }

    /// Remove all entries and keys.
    pub fn clear(&mut self) {
        self.row_keys.clear();
        self.col_keys.clear();
        self.row_names.clear();
        self.col_names.clear();
        self.values = Matrix::new(BACKING_DIM, BACKING_DIM);
    }

    /// Internal helper for ewise union via the GraphBLAS kernel when both
    /// arrays share identical key maps (fast path used by tests).
    #[doc(hidden)]
    pub fn add_same_keyspace(&self, other: &Assoc) -> Option<Matrix<f64>> {
        if self.row_keys == other.row_keys && self.col_keys == other.col_keys {
            ewise_add(&self.values, &other.values, Plus).ok()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_and_get() {
        let mut a = Assoc::new();
        a.accum("10.0.0.1", "192.168.1.5", 1.0);
        a.accum("10.0.0.1", "192.168.1.5", 2.0);
        a.accum("10.0.0.2", "192.168.1.9", 5.0);
        assert_eq!(a.get("10.0.0.1", "192.168.1.5"), Some(3.0));
        assert_eq!(a.get("10.0.0.2", "192.168.1.9"), Some(5.0));
        assert_eq!(a.get("10.0.0.3", "192.168.1.9"), None);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 2);
    }

    #[test]
    fn set_overwrites() {
        let mut a = Assoc::new();
        a.set("r", "c", 1.0);
        a.set("r", "c", 9.0);
        assert_eq!(a.get("r", "c"), Some(9.0));
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn from_triples_and_triples_round_trip() {
        let a = Assoc::from_triples(&[("b", "x", 1.0), ("a", "y", 2.0), ("b", "x", 3.0)]);
        let t = a.triples();
        assert_eq!(
            t,
            vec![
                ("a".to_string(), "y".to_string(), 2.0),
                ("b".to_string(), "x".to_string(), 4.0)
            ]
        );
    }

    #[test]
    fn keys_are_sorted() {
        let a = Assoc::from_triples(&[("zebra", "2", 1.0), ("ant", "1", 1.0), ("mole", "3", 1.0)]);
        assert_eq!(a.row_keys(), vec!["ant", "mole", "zebra"]);
        assert_eq!(a.col_keys(), vec!["1", "2", "3"]);
    }

    #[test]
    fn add_is_union_with_sum() {
        let a = Assoc::from_triples(&[("r1", "c1", 1.0), ("r2", "c2", 2.0)]);
        let b = Assoc::from_triples(&[("r2", "c2", 10.0), ("r3", "c3", 3.0)]);
        let c = a.add(&b);
        assert_eq!(c.get("r1", "c1"), Some(1.0));
        assert_eq!(c.get("r2", "c2"), Some(12.0));
        assert_eq!(c.get("r3", "c3"), Some(3.0));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn prefix_extraction() {
        let a = Assoc::from_triples(&[
            ("10.0.0.1", "x", 1.0),
            ("10.0.0.2", "y", 2.0),
            ("192.168.0.1", "z", 3.0),
        ]);
        let sub = a.rows_with_prefix("10.0.");
        assert_eq!(sub.nnz(), 2);
        assert!(sub.get("192.168.0.1", "z").is_none());
    }

    #[test]
    fn transpose_swaps_keys() {
        let a = Assoc::from_triples(&[("r", "c", 7.0)]);
        let t = a.transpose();
        assert_eq!(t.get("c", "r"), Some(7.0));
        assert_eq!(t.get("r", "c"), None);
    }

    #[test]
    fn reductions() {
        let a = Assoc::from_triples(&[
            ("src1", "dst1", 2.0),
            ("src1", "dst2", 3.0),
            ("src2", "dst1", 4.0),
        ]);
        let rows: BTreeMap<String, f64> = a.sum_rows().into_iter().collect();
        assert_eq!(rows["src1"], 5.0);
        assert_eq!(rows["src2"], 4.0);
        let cols: BTreeMap<String, f64> = a.sum_cols().into_iter().collect();
        assert_eq!(cols["dst1"], 6.0);
        assert_eq!(a.total(), 9.0);
    }

    #[test]
    fn merge_in_accumulates() {
        let mut a = Assoc::from_triples(&[("r", "c", 1.0)]);
        let b = Assoc::from_triples(&[("r", "c", 2.0), ("s", "d", 3.0)]);
        a.merge_in(&b);
        assert_eq!(a.get("r", "c"), Some(3.0));
        assert_eq!(a.get("s", "d"), Some(3.0));
    }

    #[test]
    fn clear_and_empty() {
        let mut a = Assoc::from_triples(&[("r", "c", 1.0)]);
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.nrows(), 0);
    }

    #[test]
    fn same_keyspace_fast_path() {
        let a = Assoc::from_triples(&[("r", "c", 1.0)]);
        let b = Assoc::from_triples(&[("r", "c", 2.0)]);
        let m = a.add_same_keyspace(&b).unwrap();
        assert_eq!(m.nvals(), 1);
        let c = Assoc::from_triples(&[("other", "c", 2.0)]);
        assert!(a.add_same_keyspace(&c).is_none());
    }
}
