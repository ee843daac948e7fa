//! # hyperstream
//!
//! Hierarchical hypersparse GraphBLAS matrices for streaming graph and
//! network-traffic analysis — a from-scratch Rust reproduction of
//! *"75,000,000,000 Streaming Inserts/Second Using Hierarchical Hypersparse
//! GraphBLAS Matrices"* (Kepner et al., 2020).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`graphblas`] — hypersparse GraphBLAS substrate (formats, monoids,
//!   semirings, kernels, graph algorithms);
//! * [`hier`] — the hierarchical hypersparse matrix (the paper's
//!   contribution) plus cut tuning;
//! * [`d4m`] — D4M-style associative arrays and hierarchical associative
//!   arrays (the string-keyed comparison system);
//! * [`workload`] — power-law / Kronecker / IP-traffic stream generators;
//! * [`memsim`] — memory-hierarchy cost model and cache simulator.
//!
//! Rates are measured in one place, the `benchmark/` package
//! (`benchmark/run.sh`), which is its own workspace on top of `graphblas`,
//! `hier` and `workload`.
//!
//! ## Quickstart
//!
//! ```
//! use hyperstream::prelude::*;
//!
//! // A 2^32 x 2^32 hierarchical traffic matrix with the default cuts.
//! let mut traffic = HierMatrix::<u64>::with_default_config(1 << 32, 1 << 32).unwrap();
//!
//! // Stream some synthetic flows into it.
//! let mut gen = IpTrafficGenerator::new(IpTrafficConfig::default());
//! for flow in gen.by_ref().take(10_000) {
//!     traffic.update(flow.src, flow.dst, flow.weight).unwrap();
//! }
//! assert_eq!(traffic.stats().updates, 10_000);
//!
//! // Query: materialise and compute per-source packet counts.
//! let snapshot = traffic.materialize();
//! let per_source = reduce_rows(&snapshot, PlusMonoid);
//! assert!(per_source.nvals() > 0);
//! ```

#![forbid(unsafe_code)]

pub use hyperstream_d4m as d4m;
pub use hyperstream_graphblas as graphblas;
pub use hyperstream_hier as hier;
pub use hyperstream_memsim as memsim;
pub use hyperstream_workload as workload;

/// One-stop import of the most commonly used items across the workspace.
pub mod prelude {
    pub use hyperstream_graphblas::prelude::*;

    pub use hyperstream_hier::{
        DurableConfig, EngineHealth, FsyncPolicy, HierConfig, HierMatrix, HierStats,
        PartitionBuffers, RecoveryReport, ShardPartitioner, ShardRecovery, ShardedConfig,
        ShardedHierMatrix, ShardedSnapshot, WindowedHierMatrix,
    };

    pub use hyperstream_d4m::{Assoc, HierAssoc, HierAssocConfig};

    pub use hyperstream_workload::{
        edges_to_tuples, partition_batch, shard_streams, Edge, IpTrafficConfig, IpTrafficGenerator,
        IpVersion, KroneckerConfig, KroneckerGenerator, PowerLawConfig, PowerLawGenerator,
        StreamConfig, StreamPartitioner, Zipf,
    };

    pub use hyperstream_memsim::{
        AccessTracker, CacheConfig, CacheSim, CostModel, MemoryHierarchy,
    };
}
