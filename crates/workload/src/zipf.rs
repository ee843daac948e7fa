//! Zipf-distributed integer sampler.
//!
//! Network endpoints are famously Zipfian: a handful of servers appear in a
//! large fraction of all flows.  The sampler uses the rejection–inversion
//! method of Hörmann & Derflinger, which needs `O(1)` memory and works for
//! element counts up to `2^64` — required when sampling IPv6-sized index
//! spaces where a CDF table is impossible.

use rand::Rng;

/// Zipf distribution over `{1, 2, …, n}` with exponent `s > 0`
/// (probability of `k` proportional to `k^-s`).
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants of the rejection-inversion sampler.
    h_x1: f64,
    h_n: f64,
    dominant_s: f64,
}

impl Zipf {
    /// Create a sampler over `{1..=n}` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s <= 0` or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let h_x1 = Self::h_static(1.5, s) - 1.0;
        let h_n = Self::h_static(n as f64 + 0.5, s);
        Self {
            n,
            s,
            h_x1,
            h_n,
            dominant_s: s,
        }
    }

    /// Number of distinct values.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    // H(x) = integral of x^-s: ((x)^(1-s) - 1)/(1-s), with the s≈1 limit ln(x).
    fn h_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    }

    fn h(&self, x: f64) -> f64 {
        Self::h_static(x, self.dominant_s)
    }

    fn h_inv(&self, x: f64) -> f64 {
        let s = self.dominant_s;
        if (s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s))
        }
    }

    /// Draw one sample in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Rejection-inversion (Hörmann & Derflinger 1996).
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let k_u64 = k as u64;
            if (self.h(k + 0.5) - u) <= (k).powf(-self.s) || k_u64 == 1 {
                // Acceptance test; k=1 is always accepted because the hat is
                // exact there by construction of h_x1.
                if k_u64 >= 1 && k_u64 <= self.n {
                    return k_u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn rank_one_is_most_frequent() {
        let z = Zipf::new(100, 1.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 101];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max_idx = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(max_idx, 1);
        // And the frequency should drop noticeably by rank 10.
        assert!(counts[1] > counts[10] * 3);
    }

    #[test]
    fn works_for_huge_supports() {
        // IPv6-scale support: no table allocation may happen.
        let z = Zipf::new(u64::MAX / 2, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!(k >= 1);
        }
    }

    #[test]
    fn exponent_one_special_case() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<u64> = (0..5000).map(|_| z.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&k| (1..=50).contains(&k)));
        let ones = samples.iter().filter(|&&k| k == 1).count();
        assert!(ones > 500, "rank 1 should dominate, got {ones}");
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(1000, 1.3);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<u64>>()
        };
        let (a, b) = (draw(42), draw(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_support_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_exponent_panics() {
        Zipf::new(10, 0.0);
    }

    #[test]
    fn accessors() {
        let z = Zipf::new(10, 2.0);
        assert_eq!(z.n(), 10);
        assert_eq!(z.s(), 2.0);
    }
}
