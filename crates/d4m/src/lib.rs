//! # hyperstream-d4m
//!
//! D4M-style associative arrays: sparse matrices whose rows and columns are
//! identified by arbitrary *strings* rather than integers.
//!
//! The paper positions associative arrays as the flexible precursor to
//! integer-keyed hypersparse GraphBLAS matrices: "D4M associative arrays
//! provide maximum flexibility … for IP traffic matrices, the row and column
//! labels can be constrained to integers allowing additional performance to
//! be achieved" (§I).  This crate provides
//!
//! * [`Assoc`] — an associative array over `f64` values with string keys,
//!   supporting accumulation (the D4M streaming `+=`), point reads and the
//!   in-place `A += B` merge; and
//! * [`HierAssoc`] — the *hierarchical* associative array of the earlier
//!   Kepner et al. HPEC 2019 paper ("Streaming 1.9 billion hypersparse
//!   network updates per second with D4M"), which is the "Hierarchical D4M"
//!   baseline curve of Fig. 2.  It ingests through `StreamingSink`, the
//!   interface every GraphBLAS system shares, so one loop can time both.
//!
//! Both are deliberately faithful to the D4M data model (string keys, sorted
//! key maps) so an ingest comparison against integer-keyed GraphBLAS
//! matrices reflects the same representation overheads the paper describes.
//! This crate is an insert-path comparator only: it has no `MatrixReader`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod hier_assoc;

pub use assoc::Assoc;
pub use hier_assoc::{HierAssoc, HierAssocConfig};
