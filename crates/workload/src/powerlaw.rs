//! Power-law graph edge stream generator.
//!
//! The paper's workload is "a power-law graph of 100,000,000 entries divided
//! up into 1,000 sets of 100,000 entries" (§III).  Kepner-style perfect
//! power-law graphs draw both endpoints of each edge from a Zipf
//! distribution over the vertex id space and then scatter the ids over the
//! full hypersparse index space (the 2^32/2^64 address space) with a
//! deterministic hash, so that the *matrix* is hypersparse even though the
//! *degree structure* is scale-free.

use crate::edge::Edge;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the power-law edge generator.
#[derive(Debug, Clone, Copy)]
pub struct PowerLawConfig {
    /// Number of distinct "logical" vertices the Zipf ranks map onto.
    pub vertices: u64,
    /// Power-law exponent (`alpha`); Kepner's traffic studies use 1.2–1.8.
    pub alpha: f64,
    /// Dimension of the target hypersparse matrix (e.g. `2^32` for IPv4).
    pub dim: u64,
    /// When true, vertex ranks are scattered over `[0, dim)` with a
    /// multiplicative hash (hypersparse); when false, ids stay dense in
    /// `[0, vertices)`.
    pub scatter: bool,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        Self {
            vertices: 1 << 20,
            alpha: 1.3,
            dim: 1 << 32,
            scatter: true,
            seed: 0x5eed,
        }
    }
}

impl PowerLawConfig {
    /// The exact workload of the paper's §III experiment: 10^8 edges over a
    /// scale-free vertex set, streamed into a 2^32-dimension matrix, as
    /// 1,000 batches of 100,000.  (Callers usually take a prefix of it.)
    pub fn paper() -> Self {
        Self {
            vertices: 1 << 22,
            alpha: 1.3,
            dim: 1 << 32,
            scatter: true,
            seed: 2020,
        }
    }
}

/// Deterministic power-law edge generator (an infinite iterator).
#[derive(Debug, Clone)]
pub struct PowerLawGenerator {
    cfg: PowerLawConfig,
    zipf: Zipf,
    rng: StdRng,
}

impl PowerLawGenerator {
    /// Create a generator from a configuration.
    ///
    /// # Panics
    /// Panics when `dim` is 0, or when [`Zipf::new`] refuses `vertices` or
    /// `alpha` (no vertices, or an exponent not positive and finite).
    pub fn new(cfg: PowerLawConfig) -> Self {
        assert!(cfg.dim > 0, "the matrix dimension must be at least 1");
        let zipf = Zipf::new(cfg.vertices, cfg.alpha);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self { cfg, zipf, rng }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &PowerLawConfig {
        &self.cfg
    }

    /// Map a Zipf rank (1-based) onto the hypersparse index space.
    ///
    /// A fixed odd multiplier (SplitMix64-style finalizer) spreads ranks over
    /// `[0, dim)` while remaining a bijection on the low 64 bits, so two
    /// distinct ranks never collide for `dim = 2^64` and collide only by
    /// truncation for smaller dims.
    fn scatter_id(&self, rank: u64) -> u64 {
        if !self.cfg.scatter {
            return (rank - 1) % self.cfg.dim;
        }
        let mut x = rank;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x % self.cfg.dim
    }

    /// Generate the next edge.
    pub fn next_edge(&mut self) -> Edge {
        let src_rank = self.zipf.sample(&mut self.rng);
        let dst_rank = self.zipf.sample(&mut self.rng);
        Edge {
            src: self.scatter_id(src_rank),
            dst: self.scatter_id(dst_rank),
            weight: 1,
        }
    }

    /// Generate a batch of `count` edges.
    pub fn batch(&mut self, count: usize) -> Vec<Edge> {
        (0..count).map(|_| self.next_edge()).collect()
    }
}

impl Iterator for PowerLawGenerator {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        Some(self.next_edge())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_given_seed() {
        let cfg = PowerLawConfig {
            seed: 99,
            ..Default::default()
        };
        let a: Vec<Edge> = PowerLawGenerator::new(cfg).batch(1000);
        let b: Vec<Edge> = PowerLawGenerator::new(cfg).batch(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c1 = PowerLawConfig {
            seed: 1,
            ..Default::default()
        };
        let c2 = PowerLawConfig {
            seed: 2,
            ..Default::default()
        };
        assert_ne!(
            PowerLawGenerator::new(c1).batch(100),
            PowerLawGenerator::new(c2).batch(100)
        );
    }

    #[test]
    fn indices_within_dimension() {
        let cfg = PowerLawConfig {
            dim: 1 << 32,
            ..Default::default()
        };
        let edges = PowerLawGenerator::new(cfg).batch(10_000);
        assert!(edges.iter().all(|e| e.src < (1 << 32) && e.dst < (1 << 32)));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // A power-law stream must concentrate traffic on a few heavy vertices.
        let cfg = PowerLawConfig {
            vertices: 10_000,
            alpha: 1.5,
            dim: 1 << 32,
            scatter: true,
            seed: 5,
        };
        let edges = PowerLawGenerator::new(cfg).batch(50_000);
        let mut out_deg: HashMap<u64, u64> = HashMap::new();
        for e in &edges {
            *out_deg.entry(e.src).or_default() += 1;
        }
        let mut counts: Vec<u64> = out_deg.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top_1pct: u64 = counts.iter().take(counts.len() / 100 + 1).sum();
        // The top 1% of sources should carry far more than 1% of edges.
        assert!(
            top_1pct as f64 > 0.10 * total as f64,
            "top 1% carries only {top_1pct}/{total}"
        );
    }

    #[test]
    fn hypersparsity_when_scattered() {
        // Scattered ids should be spread widely over the 2^32 space, not
        // clustered at small indices.
        let cfg = PowerLawConfig {
            scatter: true,
            ..Default::default()
        };
        let edges = PowerLawGenerator::new(cfg).batch(1000);
        let above_half = edges.iter().filter(|e| e.src > (1 << 31)).count();
        assert!(
            above_half > 200,
            "ids not spread: {above_half}/1000 above 2^31"
        );
    }

    #[test]
    fn dense_ids_when_not_scattered() {
        let cfg = PowerLawConfig {
            vertices: 1000,
            scatter: false,
            dim: 1 << 32,
            ..Default::default()
        };
        let edges = PowerLawGenerator::new(cfg).batch(1000);
        assert!(edges.iter().all(|e| e.src < 1000 && e.dst < 1000));
    }

    #[test]
    fn iterator_interface() {
        let gen = PowerLawGenerator::new(PowerLawConfig::default());
        let edges: Vec<Edge> = gen.take(10).collect();
        assert_eq!(edges.len(), 10);
        assert!(edges.iter().all(|e| e.weight == 1));
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn zero_dimension_panics_at_construction() {
        PowerLawGenerator::new(PowerLawConfig {
            dim: 0,
            ..Default::default()
        });
    }

    #[test]
    fn paper_config_values() {
        let cfg = PowerLawConfig::paper();
        assert_eq!(cfg.dim, 1 << 32);
        assert!(cfg.scatter);
    }
}
