//! Analytic model of a node's memory hierarchy.

/// One level of the memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryLevel {
    /// Human-readable name ("L1", "L2", "L3", "DRAM").
    pub name: String,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Load-to-use latency in nanoseconds.
    pub latency_ns: f64,
    /// Sustainable bandwidth in GiB/s.
    pub bandwidth_gib_s: f64,
}

impl MemoryLevel {
    /// Construct a level.
    pub fn new(name: &str, capacity_bytes: u64, latency_ns: f64, bandwidth_gib_s: f64) -> Self {
        Self {
            name: name.to_string(),
            capacity_bytes,
            latency_ns,
            bandwidth_gib_s,
        }
    }

    /// Time in nanoseconds to stream `bytes` through this level
    /// (latency + bytes / bandwidth).  The volume is a float so that a
    /// stream larger than `u64::MAX` bytes is priced, not wrapped.
    pub fn stream_time_ns(&self, bytes: f64) -> f64 {
        let gib = self.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0;
        self.latency_ns + bytes / gib * 1e9
    }
}

/// An ordered memory hierarchy, fastest level first.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryHierarchy {
    levels: Vec<MemoryLevel>,
}

impl MemoryHierarchy {
    /// Build from an ordered list of levels (fastest first).
    ///
    /// # Panics
    /// Panics if levels are empty or capacities are not strictly increasing.
    pub fn new(levels: Vec<MemoryLevel>) -> Self {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        for w in levels.windows(2) {
            assert!(
                w[0].capacity_bytes < w[1].capacity_bytes,
                "levels must have strictly increasing capacity"
            );
        }
        Self { levels }
    }

    /// A model of the Xeon-class nodes used by the MIT SuperCloud
    /// (Intel Xeon Platinum 8260-era figures: 32 KiB L1d, 1 MiB L2,
    /// ~36 MiB shared L3, 192 GiB DRAM per node).
    pub fn xeon_node() -> Self {
        Self::new(vec![
            MemoryLevel::new("L1", 32 * 1024, 1.2, 200.0),
            MemoryLevel::new("L2", 1024 * 1024, 4.0, 100.0),
            MemoryLevel::new("L3", 36 * 1024 * 1024, 14.0, 60.0),
            MemoryLevel::new("DRAM", 192 * 1024 * 1024 * 1024, 90.0, 12.0),
        ])
    }

    /// The ordered levels (fastest first).
    pub fn levels(&self) -> &[MemoryLevel] {
        &self.levels
    }

    /// Index of the smallest level whose capacity holds `bytes`
    /// (the last level if nothing else fits).
    pub fn residence_level(&self, bytes: u64) -> usize {
        for (i, l) in self.levels.iter().enumerate() {
            if bytes <= l.capacity_bytes {
                return i;
            }
        }
        self.levels.len() - 1
    }

    /// The level a working set of `bytes` resides in.
    pub fn residence(&self, bytes: u64) -> &MemoryLevel {
        &self.levels[self.residence_level(bytes)]
    }

    /// True when a working set of `bytes` fits in any cache level
    /// (i.e. anything but the last level).
    pub fn fits_in_cache(&self, bytes: u64) -> bool {
        self.residence_level(bytes) + 1 < self.levels.len()
    }

    /// Latency (ns) of a random access to a structure of `bytes` total size.
    pub fn access_latency_ns(&self, bytes: u64) -> f64 {
        self.residence(bytes).latency_ns
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::xeon_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_model_levels() {
        let h = MemoryHierarchy::xeon_node();
        assert_eq!(h.levels().len(), 4);
        assert_eq!(h.levels()[0].name, "L1");
        assert_eq!(h.levels()[3].name, "DRAM");
    }

    #[test]
    fn residence_moves_outward_with_size() {
        let h = MemoryHierarchy::xeon_node();
        assert_eq!(h.residence(1024).name, "L1");
        assert_eq!(h.residence(512 * 1024).name, "L2");
        assert_eq!(h.residence(20 * 1024 * 1024).name, "L3");
        assert_eq!(h.residence(1 << 32).name, "DRAM");
    }

    #[test]
    fn latency_monotone_in_size() {
        let h = MemoryHierarchy::xeon_node();
        let sizes = [1_000u64, 100_000, 10_000_000, 1 << 33];
        let lats: Vec<f64> = sizes.iter().map(|&s| h.access_latency_ns(s)).collect();
        for w in lats.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn fits_in_cache_boundary() {
        let h = MemoryHierarchy::xeon_node();
        assert!(h.fits_in_cache(1024));
        assert!(h.fits_in_cache(30 * 1024 * 1024));
        assert!(!h.fits_in_cache(64 * 1024 * 1024 * 1024));
    }

    #[test]
    fn oversized_working_set_maps_to_last_level() {
        let h = MemoryHierarchy::xeon_node();
        assert_eq!(h.residence_level(u64::MAX), 3);
    }

    #[test]
    fn stream_time_increases_with_bytes() {
        let l = MemoryLevel::new("DRAM", 1 << 40, 90.0, 12.0);
        assert!(l.stream_time_ns(1e6) < l.stream_time_ns(1e9));
        assert!(l.stream_time_ns(0.0) >= 90.0);
    }

    #[test]
    #[should_panic]
    fn non_increasing_capacities_panic() {
        MemoryHierarchy::new(vec![
            MemoryLevel::new("A", 100, 1.0, 1.0),
            MemoryLevel::new("B", 100, 2.0, 1.0),
        ]);
    }

    #[test]
    #[should_panic]
    fn empty_hierarchy_panics() {
        MemoryHierarchy::new(vec![]);
    }
}
