//! Graph algorithms expressed in the language of sparse linear algebra.
//!
//! These are the "various network statistics" a real streaming-analysis
//! process would compute on each traffic matrix as it is updated (paper,
//! §III), and they double as end-to-end exercises of the GraphBLAS kernels.
//!
//! The primary entry points run over any
//! [`CursorReader`](crate::reader::CursorReader) — a flat
//! [`Matrix`](crate::matrix::Matrix), a hierarchical matrix or a snapshot —
//! driving the kernels directly off the reader's DCSR level slices, so no
//! materialised `Σ levels` or tuple round-trip is ever formed.  Their
//! references — the same four over any
//! [`MatrixReader`](crate::reader::MatrixReader), on a flat pattern rebuilt
//! from the entry cursor — live in the test-only `oracle` module.

pub mod centrality;
mod compact;
pub mod degree;
pub mod traversal;
pub mod triangles;

pub use centrality::{connected_components, pagerank};
pub use degree::{col_degree, degree_distribution, row_degree, DegreeDistribution};
pub use traversal::bfs_levels;
pub use triangles::triangle_count;
