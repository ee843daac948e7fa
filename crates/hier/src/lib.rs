//! # hyperstream-hier
//!
//! Hierarchical hypersparse GraphBLAS matrices — the primary contribution of
//! *"75,000,000,000 Streaming Inserts/Second Using Hierarchical Hypersparse
//! GraphBLAS Matrices"* (Kepner et al., 2020).
//!
//! ## The idea
//!
//! Streaming accumulation into one large hypersparse matrix is limited by
//! the memory hierarchy: once the matrix outgrows the caches, every update
//! (or every merge of a pending-tuple buffer) touches slow memory.  A
//! [`HierMatrix`] instead keeps `N` hypersparse matrices `A_1 … A_N` with
//! nonzero-count cuts `c_1 < c_2 < … < c_{N-1}`:
//!
//! * updates are added into `A_1` (tiny, cache resident);
//! * whenever `nnz(A_i) > c_i`, `A_{i+1} = A_{i+1} ⊕ A_i` and `A_i` is
//!   cleared (the *cascade*);
//! * a query materialises `A = Σ_i A_i`.
//!
//! Because ⊕ is an associative, commutative monoid, the cascade schedule
//! never changes the represented matrix — only the cost of maintaining it.
//!
//! ## Quick example
//!
//! ```
//! use hyperstream_hier::{HierConfig, HierMatrix};
//!
//! // 2^32 x 2^32 IPv4 traffic matrix, 4-level hierarchy.
//! let cfg = HierConfig::geometric(4, 1 << 12, 8).unwrap();
//! let mut m = HierMatrix::<u64>::new(1 << 32, 1 << 32, cfg).unwrap();
//!
//! for i in 0..100_000u64 {
//!     m.update(i % 1000, (i * 7) % 5000, 1).unwrap();
//! }
//! assert_eq!(m.total_weight(), 100_000);
//!
//! let snapshot = m.materialize();          // A = Σ A_i
//! assert!(snapshot.nvals() <= 100_000);
//! let stats = m.stats();
//! assert!(stats.cascades_from_level(0) > 0); // the hierarchy actually cascaded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
#[cfg(feature = "failpoints")]
pub mod failpoint;
mod fold;
pub mod matrix;
pub mod persist;
pub mod pool;
pub mod sharded;
pub mod stats;
pub mod tuning;
pub mod windowed;

pub use config::HierConfig;
#[cfg(feature = "failpoints")]
pub use failpoint::FailAction;
pub use matrix::HierMatrix;
pub use persist::{DurableConfig, FsyncPolicy, RecoveryReport};
pub use pool::PartitionBuffers;
pub use sharded::{EngineHealth, ShardRecovery};
pub use sharded::{ShardPartitioner, ShardedConfig, ShardedHierMatrix, ShardedSnapshot};
pub use stats::HierStats;
pub use tuning::{recommend_cuts, sweep_cut_schedules, CutRecommendation};
pub use windowed::WindowedHierMatrix;

/// Evaluate a fallible fault-injection site: under the `failpoints`
/// feature an armed site may return [`GrbError::Injected`]
/// (`GrbError` = `hyperstream_graphblas::GrbError`), panic, or sleep;
/// without the feature the macro compiles to nothing.  The optional second
/// argument is the shard index the site reports for per-index arming.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        #[cfg(feature = "failpoints")]
        $crate::failpoint::check($name, usize::MAX)?;
    };
    ($name:expr, $idx:expr) => {
        #[cfg(feature = "failpoints")]
        $crate::failpoint::check($name, $idx)?;
    };
}

/// Panic-only form of [`failpoint!`] for infallible contexts (an armed
/// `error` action escalates to a panic).  Compiles to nothing without the
/// `failpoints` feature.
#[macro_export]
macro_rules! failpoint_panic {
    ($name:expr) => {
        #[cfg(feature = "failpoints")]
        $crate::failpoint::check_panic_only($name, usize::MAX);
    };
    ($name:expr, $idx:expr) => {
        #[cfg(feature = "failpoints")]
        $crate::failpoint::check_panic_only($name, $idx);
    };
}
