//! # hyperstream-memsim
//!
//! A memory-hierarchy cost model and a set-associative cache simulator.
//!
//! The paper's central causal claim is that a hierarchical hypersparse
//! matrix "ensures that the majority of updates are performed in fast
//! memory" (Fig. 1).  On the authors' cluster this is observed indirectly
//! through update rates; in this reproduction we additionally *measure* it
//! with two instruments:
//!
//! * [`hierarchy::MemoryHierarchy`] — an analytic model (capacities,
//!   latencies, bandwidths of L1/L2/L3/DRAM) that maps a working-set size to
//!   the level it resides in and prices an access accordingly; and
//! * [`cache::CacheSim`] — a set-associative LRU cache simulator that counts
//!   hits and misses for the actual address traces produced by flat vs.
//!   hierarchical update strategies (driven by
//!   [`tracker::AccessTracker`]).
//!
//! The analytic model prices the cut schedules that
//! `hyperstream_hier::tuning` recommends and sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod hierarchy;
pub mod tracker;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use cost::{CostModel, UpdateCost};
pub use hierarchy::{MemoryHierarchy, MemoryLevel};
pub use tracker::{AccessKind, AccessTracker, TrackerReport};
