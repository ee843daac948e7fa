//! The [`StreamingSink`] trait: one streaming-insert interface for every
//! system under test.
//!
//! The paper's Fig. 2 compares hierarchical hypersparse GraphBLAS matrices
//! against flat GraphBLAS matrices and hierarchical D4M associative arrays
//! — all ingesting the *same* stream of `(row, col, value)` updates.
//! `StreamingSink` is that common contract: anything that can absorb
//! accumulate-updates and report what it stored can be driven by one
//! generic loop (the `benchmark/` package's workloads, the equivalence
//! suites) instead of a hand-rolled call site per system.
//!
//! Implementations in this workspace:
//!
//! * [`Matrix`] — the flat pending-tuple path (this crate);
//! * `HierMatrix`, `WindowedHierMatrix` — the hierarchical cascade
//!   (`hyperstream-hier`);
//! * `HierAssoc` — hierarchical D4M associative arrays (`hyperstream-d4m`).

use crate::error::{GrbError, GrbResult};
use crate::index::Index;
use crate::matrix::Matrix;
use crate::ops::monoid::PlusMonoid;
use crate::ops::reduce::reduce_scalar;
use crate::types::ScalarType;

/// Validate that three parallel tuple slices have equal lengths.
pub fn check_tuple_lengths<A, B, C>(rows: &[A], cols: &[B], vals: &[C]) -> GrbResult<()> {
    if rows.len() != cols.len() || rows.len() != vals.len() {
        return Err(GrbError::DimensionMismatch {
            detail: "tuple slice lengths differ".into(),
        });
    }
    Ok(())
}

/// A system that ingests a stream of `(row, col, value)` accumulate-updates.
///
/// The contract mirrors the paper's update model: [`insert`] performs
/// `A(row, col) ⊕= val` under the `+` monoid of `V`; duplicates accumulate,
/// never overwrite.  Implementations may defer work (pending tuples,
/// memtables, cascades) — [`flush`] completes all of it, and callers should
/// flush before reading [`nvals`].  [`total_weight`] must be exact at any
/// time, because `+` is linear across any deferral structure — the property
/// the harness uses to verify that no system silently drops updates.
///
/// The trait is object-safe: the measurement harness drives every system
/// through `Box<dyn StreamingSink<u64>>`.
///
/// [`insert`]: StreamingSink::insert
/// [`flush`]: StreamingSink::flush
/// [`nvals`]: StreamingSink::nvals
/// [`total_weight`]: StreamingSink::total_weight
pub trait StreamingSink<V> {
    /// Short system name used in reports ("hier-graphblas", "tablet-store", …).
    fn sink_name(&self) -> &str;

    /// Apply one streaming update `A(row, col) += val`.
    fn insert(&mut self, row: Index, col: Index, val: V) -> GrbResult<()>;

    /// Apply a batch of updates given as parallel slices.
    ///
    /// The default loops over [`insert`](StreamingSink::insert);
    /// implementations with a cheaper bulk path (e.g. one cascade check per
    /// batch) should override it.
    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[V]) -> GrbResult<()>
    where
        V: Copy,
    {
        check_tuple_lengths(rows, cols, vals)?;
        for i in 0..rows.len() {
            self.insert(rows[i], cols[i], vals[i])?;
        }
        Ok(())
    }

    /// Complete all deferred work (merge pending tuples, run outstanding
    /// cascades, flush memtables, refresh indexes).
    fn flush(&mut self) -> GrbResult<()>;

    /// Number of distinct `(row, col)` cells stored.
    ///
    /// Exact after a [`flush`](StreamingSink::flush); before one,
    /// implementations may have to do the settling work internally to
    /// answer, so the harness always flushes first.
    fn nvals(&self) -> usize;

    /// Sum of all weight the sink currently represents, as `f64`.
    ///
    /// Exact at any time (no flush required): accumulation under `+` is
    /// linear across pending buffers and hierarchy levels alike.  For
    /// non-evicting sinks this equals everything ever inserted, which is
    /// how the measurement harness verifies that no system silently drops
    /// updates.  Sinks that evict by design (e.g. a time-windowed hierarchy
    /// past its retention horizon) report only what they retain and must
    /// say so in their impl docs; they are not driven through the
    /// no-drop check.
    fn total_weight(&self) -> f64;
}

/// The flat pending-tuple path: `insert` appends to the pending buffer,
/// `flush` is [`Matrix::wait`] — the single-level ancestor of the paper's
/// hierarchy.
impl<T: ScalarType> StreamingSink<T> for Matrix<T> {
    fn sink_name(&self) -> &str {
        "flat-graphblas"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.accum_element(row, col, val)
    }

    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        self.accum_tuples(rows, cols, vals)
    }

    fn flush(&mut self) -> GrbResult<()> {
        self.wait();
        Ok(())
    }

    fn nvals(&self) -> usize {
        Matrix::nvals(self)
    }

    fn total_weight(&self) -> f64 {
        reduce_scalar(self, PlusMonoid).to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<S: StreamingSink<u64> + ?Sized>(sink: &mut S) {
        sink.insert(1, 2, 10).unwrap();
        sink.insert(1, 2, 5).unwrap();
        sink.insert_batch(&[3, 4], &[3, 4], &[7, 8]).unwrap();
        sink.flush().unwrap();
    }

    #[test]
    fn matrix_implements_sink() {
        let mut m = Matrix::<u64>::new(100, 100);
        drive(&mut m);
        assert_eq!(m.sink_name(), "flat-graphblas");
        assert_eq!(StreamingSink::nvals(&m), 3);
        assert_eq!(m.total_weight(), 30.0);
        assert_eq!(m.get(1, 2), Some(15));
    }

    #[test]
    fn sink_is_object_safe() {
        let mut sink: Box<dyn StreamingSink<u64>> = Box::new(Matrix::<u64>::new(10, 10));
        drive(&mut *sink);
        assert_eq!(sink.nvals(), 3);
        assert_eq!(sink.total_weight(), 30.0);
    }

    #[test]
    fn insert_validates_bounds() {
        let mut m = Matrix::<u64>::new(10, 10);
        assert!(StreamingSink::insert(&mut m, 10, 0, 1).is_err());
        assert!(StreamingSink::insert_batch(&mut m, &[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn total_weight_sees_pending_tuples() {
        let mut m = Matrix::<u64>::new(10, 10);
        StreamingSink::insert(&mut m, 1, 1, 4).unwrap();
        // No flush yet: the weight must still be visible (linearity).
        assert_eq!(m.total_weight(), 4.0);
    }

    #[test]
    fn check_tuple_lengths_helper() {
        assert!(check_tuple_lengths(&[1u64], &[1u64], &[1u64]).is_ok());
        assert!(check_tuple_lengths(&[1u64], &[1u64, 2], &[1u64]).is_err());
    }
}
