//! # hyperstream-memsim
//!
//! A memory-hierarchy cost model.
//!
//! The paper's central causal claim is that a hierarchical hypersparse
//! matrix "ensures that the majority of updates are performed in fast
//! memory" (Fig. 1).  On the authors' cluster this is observed indirectly
//! through update rates; this crate predicts it analytically:
//!
//! * [`hierarchy::MemoryHierarchy`] — capacities, latencies and bandwidths
//!   of L1/L2/L3/DRAM, mapping a working-set size to the level it resides
//!   in and pricing an access accordingly; and
//! * [`cost::CostModel`] — the per-update cost of a flat matrix and of a
//!   hierarchy with a given cut schedule over that hierarchy.
//!
//! The model prices the cut schedules that `hyperstream_hier::tuning`
//! recommends and sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hierarchy;

pub use cost::{CostModel, UpdateCost};
pub use hierarchy::{MemoryHierarchy, MemoryLevel};
