//! The D4M associative array.

use hyperstream_graphblas::ops::monoid::PlusMonoid;
use hyperstream_graphblas::ops::reduce::reduce_scalar;
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

    /// Number of distinct row keys seen.
    pub fn nrows(&self) -> usize {
        self.row_names.len()
    }

    /// Number of distinct column keys seen.
    pub fn ncols(&self) -> usize {
        self.col_names.len()
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

    /// Value stored at `(row_key, col_key)`, if any.
    pub fn get(&self, row_key: &str, col_key: &str) -> Option<f64> {
        let r = *self.row_keys.get(row_key)?;
        let c = *self.col_keys.get(col_key)?;
        self.values.get(r, c)
    }

    /// All stored triples, sorted by row key then column key: the order the
    /// D4M `A + B` walks its sorted key maps in.
    pub(crate) fn triples(&self) -> Vec<(String, String, f64)> {
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

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        reduce_scalar(&self.values, PlusMonoid)
    }

    /// Merge another array into this one *reusing this array's key maps*
    /// (the in-place `A += B` used by the hierarchical cascade).
    pub fn merge_in(&mut self, other: &Assoc) {
        for (r, c, v) in other.triples() {
            self.accum(&r, &c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assoc(triples: &[(&str, &str, f64)]) -> Assoc {
        let mut a = Assoc::new();
        for &(r, c, v) in triples {
            a.accum(r, c, v);
        }
        a
    }

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
        assert_eq!(a.total(), 8.0);
    }

    #[test]
    fn triples_are_summed_and_key_sorted() {
        let a = assoc(&[("b", "x", 1.0), ("a", "y", 2.0), ("b", "x", 3.0)]);
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
    fn merge_in_accumulates() {
        let mut a = assoc(&[("r", "c", 1.0)]);
        let b = assoc(&[("r", "c", 2.0), ("s", "d", 3.0)]);
        a.merge_in(&b);
        assert_eq!(a.get("r", "c"), Some(3.0));
        assert_eq!(a.get("s", "d"), Some(3.0));
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn nnz_bound_counts_pending_until_settled() {
        let mut a = assoc(&[("r", "c", 1.0), ("r", "c", 2.0)]);
        assert_eq!(a.nnz_bound(), 2);
        a.settle();
        assert_eq!(a.nnz_bound(), 1);
    }
}
