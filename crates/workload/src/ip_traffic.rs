//! Synthetic IPv4/IPv6 origin–destination traffic streams.
//!
//! The paper's motivating application is building network traffic matrices
//! whose rows/columns are the full IP address space.  Real traffic captures
//! are not redistributable, so this generator produces a synthetic
//! equivalent with the properties the analysis pipelines care about:
//!
//! * source and destination popularity are Zipfian (a few busy hosts);
//! * a configurable fraction of flows goes to a small set of "supernode"
//!   servers (the network supernodes whose temporal fluctuation the paper's
//!   references analyse);
//! * packet counts per flow update are small integers;
//! * addresses occupy the full 2^32 (IPv4) or 2^64 (IPv6) index space, so
//!   the resulting matrices are genuinely hypersparse.

use crate::edge::Edge;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Address family of the synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpVersion {
    /// 32-bit address space (matrix dimension `2^32`).
    V4,
    /// 64-bit address space (matrix dimension `2^64`, capped to `2^60` by
    /// the library's dimension limit — the top nibble of real IPv6 space is
    /// unused in practice anyway).
    V6,
}

impl IpVersion {
    /// Matrix dimension implied by the address family.
    pub fn dim(&self) -> u64 {
        match self {
            IpVersion::V4 => 1u64 << 32,
            IpVersion::V6 => 1u64 << 60,
        }
    }
}

/// Configuration of the traffic generator.
#[derive(Debug, Clone, Copy)]
pub struct IpTrafficConfig {
    /// Address family.
    pub version: IpVersion,
    /// Number of active hosts (distinct addresses that can appear).
    pub active_hosts: u64,
    /// Zipf exponent of host popularity.
    pub popularity_exponent: f64,
    /// Number of supernode servers attracting a disproportionate share.
    pub supernodes: u64,
    /// Fraction of flows whose destination is a supernode (0.0–1.0).
    pub supernode_fraction: f64,
    /// Maximum packets per flow update (weights drawn uniformly in 1..=max).
    pub max_packets_per_update: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IpTrafficConfig {
    fn default() -> Self {
        Self {
            version: IpVersion::V4,
            active_hosts: 1 << 20,
            popularity_exponent: 1.2,
            supernodes: 64,
            supernode_fraction: 0.3,
            max_packets_per_update: 8,
            seed: 0xBEEF,
        }
    }
}

/// Deterministic synthetic traffic stream (an infinite iterator of flow
/// updates).
#[derive(Debug, Clone)]
pub struct IpTrafficGenerator {
    cfg: IpTrafficConfig,
    host_zipf: Zipf,
    rng: StdRng,
    supernode_addrs: Vec<u64>,
}

impl IpTrafficGenerator {
    /// Create a generator from a configuration.
    ///
    /// # Panics
    /// Panics when `supernode_fraction` is outside `[0, 1]` or there are no
    /// active hosts.
    pub fn new(cfg: IpTrafficConfig) -> Self {
        assert!(cfg.active_hosts > 0, "need at least one active host");
        assert!(
            (0.0..=1.0).contains(&cfg.supernode_fraction),
            "supernode fraction must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dim = cfg.version.dim();
        let supernode_addrs = (0..cfg.supernodes).map(|_| rng.gen_range(0..dim)).collect();
        Self {
            host_zipf: Zipf::new(cfg.active_hosts, cfg.popularity_exponent),
            cfg,
            rng,
            supernode_addrs,
        }
    }

    /// The addresses designated as supernode servers.
    pub fn supernode_addresses(&self) -> &[u64] {
        &self.supernode_addrs
    }

    /// Scatter a host rank over the address space (deterministic hash).
    fn host_address(&self, rank: u64) -> u64 {
        let mut x = rank.wrapping_add(0x0123_4567_89AB_CDEF);
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 33;
        x % self.cfg.version.dim()
    }

    /// Generate the next flow update.
    pub fn next_flow(&mut self) -> Edge {
        let src_rank = self.host_zipf.sample(&mut self.rng);
        let src = self.host_address(src_rank);
        let dst = if !self.supernode_addrs.is_empty()
            && self.rng.gen::<f64>() < self.cfg.supernode_fraction
        {
            let i = self.rng.gen_range(0..self.supernode_addrs.len());
            self.supernode_addrs[i]
        } else {
            let dst_rank = self.host_zipf.sample(&mut self.rng);
            self.host_address(dst_rank)
        };
        let weight = self
            .rng
            .gen_range(1..=self.cfg.max_packets_per_update.max(1));
        Edge { src, dst, weight }
    }

    /// Generate a batch of `count` flow updates.
    pub fn batch(&mut self, count: usize) -> Vec<Edge> {
        (0..count).map(|_| self.next_flow()).collect()
    }
}

impl Iterator for IpTrafficGenerator {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        Some(self.next_flow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn addresses_within_family_dim() {
        let v4 = IpTrafficGenerator::new(IpTrafficConfig::default()).batch(5000);
        assert!(v4.iter().all(|e| e.src < (1 << 32) && e.dst < (1 << 32)));

        let cfg6 = IpTrafficConfig {
            version: IpVersion::V6,
            ..Default::default()
        };
        let v6 = IpTrafficGenerator::new(cfg6).batch(5000);
        assert!(v6.iter().all(|e| e.src < (1 << 60) && e.dst < (1 << 60)));
    }

    #[test]
    fn weights_in_range() {
        let cfg = IpTrafficConfig {
            max_packets_per_update: 5,
            ..Default::default()
        };
        let flows = IpTrafficGenerator::new(cfg).batch(2000);
        assert!(flows.iter().all(|e| (1..=5).contains(&e.weight)));
    }

    #[test]
    fn supernodes_attract_traffic() {
        let cfg = IpTrafficConfig {
            supernodes: 4,
            supernode_fraction: 0.5,
            ..Default::default()
        };
        let gen = IpTrafficGenerator::new(cfg);
        let supers: HashSet<u64> = gen.supernode_addresses().iter().copied().collect();
        let mut gen = gen;
        let flows = gen.batch(10_000);
        let to_super = flows.iter().filter(|e| supers.contains(&e.dst)).count();
        let frac = to_super as f64 / flows.len() as f64;
        assert!(frac > 0.4, "supernode fraction observed {frac}");
    }

    #[test]
    fn no_supernodes_when_fraction_zero() {
        let cfg = IpTrafficConfig {
            supernodes: 0,
            supernode_fraction: 0.0,
            ..Default::default()
        };
        let flows = IpTrafficGenerator::new(cfg).batch(100);
        assert_eq!(flows.len(), 100);
    }

    #[test]
    fn deterministic() {
        let cfg = IpTrafficConfig::default();
        assert_eq!(
            IpTrafficGenerator::new(cfg).batch(500),
            IpTrafficGenerator::new(cfg).batch(500)
        );
    }

    #[test]
    fn hypersparse_spread() {
        // Distinct hosts should be spread over the address space, not packed
        // into low addresses.
        let flows = IpTrafficGenerator::new(IpTrafficConfig::default()).batch(2000);
        let high = flows.iter().filter(|e| e.src > (1u64 << 31)).count();
        assert!(high > 500);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_panics() {
        IpTrafficGenerator::new(IpTrafficConfig {
            supernode_fraction: 1.5,
            ..Default::default()
        });
    }

    #[test]
    fn default_stream_is_pinned() {
        // Word-wise FNV-1a over the first 400k flows: any change to the
        // sampler, the address hash or the RNG fails here.
        let hash = IpTrafficGenerator::new(IpTrafficConfig::default())
            .take(400_000)
            .flat_map(|e| [e.src, e.dst, e.weight])
            .fold(0xCBF2_9CE4_8422_2325, |h, w| {
                (h ^ w).wrapping_mul(0x100_0000_01B3)
            });
        assert_eq!(hash, 0x957B_8595_6A1F_424E);
    }

    #[test]
    fn iterator_interface() {
        let flows: Vec<Edge> = IpTrafficGenerator::new(IpTrafficConfig::default())
            .take(5)
            .collect();
        assert_eq!(flows.len(), 5);
    }
}
