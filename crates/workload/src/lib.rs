//! # hyperstream-workload
//!
//! Synthetic streaming workloads for the hierarchical hypersparse matrix
//! benchmarks.
//!
//! The paper's scalability experiment streams "a power-law graph of
//! 100,000,000 entries divided up into 1,000 sets of 100,000 entries" into
//! each matrix instance.  This crate regenerates that workload exactly
//! (§III), plus the IPv4/IPv6 origin–destination traffic streams the
//! introduction motivates.  Both draw ranks from one [`Zipf`] sampler.
//!
//! All generators are deterministic given a seed, so experiments are
//! reproducible across machines and runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge;
pub mod ip_traffic;
pub mod powerlaw;
pub mod zipf;

pub use edge::{edges_to_tuples, edges_to_tuples_into, Edge};
pub use ip_traffic::{IpTrafficConfig, IpTrafficGenerator, IpVersion};
pub use powerlaw::{PowerLawConfig, PowerLawGenerator};
pub use zipf::Zipf;
