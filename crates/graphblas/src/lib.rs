//! # hyperstream-graphblas
//!
//! A pure-Rust, hypersparse-first implementation of the subset of the
//! [GraphBLAS](https://graphblas.org) standard needed by hierarchical
//! hypersparse streaming matrices (Kepner et al., 2020).
//!
//! The design goals mirror SuiteSparse:GraphBLAS, which the paper builds on:
//!
//! * **Hypersparse storage** — a matrix whose index space is `2^64 × 2^64`
//!   but that holds only a handful of entries must cost `O(nnz)` memory, not
//!   `O(n)`.  The primary storage format is DCSR (doubly compressed sparse
//!   row): only non-empty rows are represented.
//! * **Algebraic generality** — operations are parameterised by
//!   [`BinaryOp`](ops::BinaryOp) and [`Monoid`](ops::Monoid), so the same
//!   kernels merge under `+`, fold a BFS wave under `min` or keep the first
//!   or last write.  The hierarchical cascade of the `hyperstream-hier`
//!   crate relies on monoid addition being associative and commutative.
//! * **Lazy updates** — like SuiteSparse, [`Matrix::accum_element`] appends
//!   to a *pending tuple* buffer that is folded into the compressed
//!   structure on [`Matrix::wait`] (or implicitly by any whole-matrix
//!   operation).  This is the single-level ancestor of the paper's
//!   multi-level hierarchy.
//!
//! ## Quick example
//!
//! ```
//! use hyperstream_graphblas::prelude::*;
//!
//! // A hypersparse 2^32 x 2^32 traffic matrix.
//! let dim = 1u64 << 32;
//! let mut a = Matrix::<u64>::new(dim, dim);
//! a.accum_element(123_456_789, 42, 1);
//! a.accum_element(123_456_789, 42, 1);          // accumulates (+)
//! a.accum_element(7, 9_999_999_999 % dim, 5);
//! assert_eq!(a.nvals(), 2);
//! assert_eq!(a.get(123_456_789, 42), Some(2));
//!
//! // GraphBLAS element-wise add (set union under +).
//! let mut b = Matrix::<u64>::new(dim, dim);
//! b.accum_element(7, 9_999_999_999 % dim, 10);
//! let c = ewise_add(&a, &b, Plus).unwrap();
//! assert_eq!(c.get(7, 9_999_999_999 % dim), Some(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod index;
pub mod types;

pub mod ops;

pub mod formats;

pub mod cursor;
pub mod degree_index;
pub mod level_read;
pub mod matrix;
pub mod reader;
pub mod sink;
pub mod snapshot;
pub mod vector;

pub mod mask;

pub mod algo;

#[doc(hidden)]
pub mod oracle;

pub use degree_index::{DegreeIndex, DegreeIndexView};
pub use error::{GrbError, GrbResult};
pub use formats::dcsr::MergeScratch;
pub use formats::merge::{merge_kernel_stats, MergeKernelStats};
pub use index::{validate_dims, validate_index, Index};
pub use level_read::{LevelStore, Side};
pub use matrix::Matrix;
pub use ops::spa::{spa_kernel_stats, SpaKernelStats, SpaScratch};
pub use reader::{Answer, CursorReader, MatrixReader, Query, StreamingSystem};
pub use sink::StreamingSink;
pub use snapshot::MatrixSnapshot;
pub use types::ScalarType;
pub use vector::SparseVector;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::degree_index::{DegreeIndex, DegreeIndexView};
    pub use crate::error::{GrbError, GrbResult};
    pub use crate::formats::coo::Coo;
    pub use crate::formats::dcsr::Dcsr;
    pub use crate::index::Index;
    pub use crate::level_read::{LevelStore, Side};
    pub use crate::mask::VectorMask;
    pub use crate::matrix::Matrix;
    pub use crate::ops::binary::{First, Max, Min, Plus, Second, Times};
    pub use crate::ops::ewise_add::{ewise_add, ewise_add_into};
    pub use crate::ops::monoid::PlusMonoid;
    pub use crate::ops::reader_mx::vxm_pattern_levels;
    pub use crate::ops::reduce::{reduce_cols, reduce_rows, reduce_scalar};
    pub use crate::ops::spa::{spa_kernel_stats, SpaKernelStats, SpaScratch};
    pub use crate::ops::{BinaryOp, Monoid};
    pub use crate::reader::{Answer, CursorReader, MatrixReader, Query, StreamingSystem};
    pub use crate::sink::StreamingSink;
    pub use crate::snapshot::MatrixSnapshot;
    pub use crate::types::ScalarType;
    pub use crate::vector::SparseVector;
}
