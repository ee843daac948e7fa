//! The host clock: how fast this machine is *right now*.
//!
//! On the shared host this benchmark was built on, the same binary on the
//! same input runs up to 1.4x slower for seconds to minutes at a time, and
//! whole ten-second runs fall into one state or the other: compute-bound
//! and memory-bound code slow down together (a busy sibling thread or a
//! lowered clock; `/proc/stat` shows no steal).  No statistic over the
//! repetitions of one run removes that, so every run also times a fixed
//! piece of work of the benchmark's own — never the engine's — beside its
//! repetitions, and states its times at the host's nominal speed.
//!
//! The work is half compute-bound (a chain of dependent multiply-adds) and
//! half cache-bound (sorting 2 MiB of pseudo-random keys); the clock is the
//! geometric mean of the two times.  Over ten runs on ten seeds, dividing
//! by it took the spread of the ingest rate from 24% to 8% and of the p95
//! read from 20% to 8% in the noisiest series measured.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`clock`] reading takes at the host's nominal speed: the
/// median of 470 readings under sustained load on the 2-core, 2.1 GHz Xeon
/// microVM the benchmark was built on (its quiet state reads 0.0059, its
/// slow state 0.0080).  Only ratios between runs on one host matter: on
/// another machine every normalised metric shifts by one constant factor.
pub const NOMINAL_S: f64 = 0.0066;

const CHAIN_STEPS: u64 = 10_000_000;
const SORT_KEYS: usize = 1 << 18;

/// One reading of the host clock, in seconds (about 12 ms of work).
pub fn clock() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(1u64);
    for _ in 0..CHAIN_STEPS {
        // `black_box` keeps every step dependent on the one before.
        x = black_box(x.wrapping_mul(3).wrapping_add(1));
    }
    let chain = t0.elapsed().as_secs_f64();

    let mut state = black_box(x | 1);
    let mut keys: Vec<u64> = (0..SORT_KEYS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        })
        .collect();
    let t0 = Instant::now();
    keys.sort_unstable();
    black_box(&keys);
    let sort = t0.elapsed().as_secs_f64();
    (chain * sort).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_reads_a_positive_time_of_the_right_order() {
        let s = clock();
        // Debug builds run the chain an order of magnitude slower.
        assert!(s > NOMINAL_S / 10.0 && s < NOMINAL_S * 200.0, "{s}");
    }
}
