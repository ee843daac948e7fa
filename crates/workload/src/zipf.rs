//! Zipf-distributed integer sampler.
//!
//! Network endpoints are famously Zipfian: a handful of servers appear in a
//! large fraction of all flows.  The sampler uses the rejection–inversion
//! method of Hörmann & Derflinger, which works for element counts up to
//! `2^64` — required when sampling IPv6-sized index spaces where a CDF table
//! is impossible.  Its memory is bounded all the same: the ranks where most
//! draws land read the method's quantities from tables of constant size.

use rand::Rng;

/// Ranks `1..=TABLE_RANKS` are served from tables: 93.8% of the draws of
/// the paper's stream (`n = 2^22`, `s = 1.3`).
const TABLE_RANKS: usize = 4096;

/// Zipf distribution over `{1, 2, …, n}` with exponent `s > 0`
/// (probability of `k` proportional to `k^-s`).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants of the rejection-inversion sampler.
    h_x1: f64,
    h_n: f64,
    /// `(h(k + 0.5), k^-s)` at index `k - 1` for ranks `1..=min(n, TABLE_RANKS)`,
    /// computed as `sample` would.
    ranks: Vec<(f64, f64)>,
}

impl Zipf {
    /// Create a sampler over `{1..=n}` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s <= 0` or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let ranks = (1..=n.min(TABLE_RANKS as u64))
            .map(|k| {
                let k = k as f64;
                (Self::h_static(k + 0.5, s), k.powf(-s))
            })
            .collect();
        Self {
            n,
            s,
            h_x1: Self::h_static(1.5, s) - 1.0,
            h_n: Self::h_static(n as f64 + 0.5, s),
            ranks,
        }
    }

    // H(x) = integral of x^-s: ((x)^(1-s) - 1)/(1-s), with the s≈1 limit ln(x).
    fn h_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        let s = self.s;
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
            if let Some(k) = self.attempt(u) {
                return k;
            }
        }
    }

    /// One rejection-inversion trial at `u`: its rank, if accepted.
    fn attempt(&self, u: f64) -> Option<u64> {
        let k = (self.h_inv(u) + 0.5).floor().clamp(1.0, self.n as f64);
        let k_u64 = k as u64;
        let (h_k, p_k) = match self.ranks.get((k_u64 as usize).wrapping_sub(1)) {
            Some(&pair) => pair,
            None => (Self::h_static(k + 0.5, self.s), k.powf(-self.s)),
        };
        // k=1 is always accepted: the hat is exact there by construction of
        // h_x1.  `n as f64` rounds up for some `n > 2^53`, and a NaN from
        // `h_inv` casts to 0: both are refused.
        ((1..=self.n).contains(&k_u64) && (h_k - u <= p_k || k_u64 == 1)).then_some(k_u64)
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
        // IPv6-scale support: the tables stop at `TABLE_RANKS`, whatever `n`.
        let z = Zipf::new(u64::MAX / 2, 1.1);
        assert_eq!(z.ranks.len(), TABLE_RANKS);
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

    /// The sampler before its tables, kept as the reference the tabled
    /// one must equal bit for bit: three `powf` per trial.
    struct Reference {
        n: u64,
        s: f64,
        h_x1: f64,
        h_n: f64,
    }

    impl Reference {
        fn new(n: u64, s: f64) -> Self {
            let mut r = Self {
                n,
                s,
                h_x1: 0.0,
                h_n: 0.0,
            };
            r.h_x1 = r.h(1.5) - 1.0;
            r.h_n = r.h(n as f64 + 0.5);
            r
        }

        fn h(&self, x: f64) -> f64 {
            if (self.s - 1.0).abs() < 1e-9 {
                x.ln()
            } else {
                (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
            }
        }

        fn h_inv(&self, x: f64) -> f64 {
            let s = self.s;
            if (s - 1.0).abs() < 1e-9 {
                x.exp()
            } else {
                (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        }

        fn attempt(&self, u: f64) -> Option<u64> {
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let k_u64 = k as u64;
            if (self.h(k + 0.5) - u) <= (k).powf(-self.s) || k_u64 == 1 {
                // Acceptance test; k=1 is always accepted because the hat is
                // exact there by construction of h_x1.
                if k_u64 >= 1 && k_u64 <= self.n {
                    return Some(k_u64);
                }
            }
            None
        }

        fn sample(&self, rng: &mut StdRng) -> u64 {
            loop {
                let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
                if let Some(k) = self.attempt(u) {
                    return k;
                }
            }
        }
    }

    const SUPPORTS: [u64; 7] = [1, 7, 100, 4095, 4097, 1 << 22, u64::MAX / 2];
    const EXPONENTS: [f64; 6] = [0.5, 0.8, 1.0, 1.3, 2.0, 5.0];

    #[test]
    fn tables_draw_the_reference_stream_bit_for_bit() {
        for n in SUPPORTS {
            for s in EXPONENTS {
                let (z, reference) = (Zipf::new(n, s), Reference::new(n, s));
                assert_eq!((z.h_x1, z.h_n), (reference.h_x1, reference.h_n));
                for seed in [1, 2, 2020, 0xBEEF] {
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = a.clone();
                    for i in 0..500_000 {
                        let (got, want) = (z.sample(&mut a), reference.sample(&mut b));
                        assert_eq!(got, want, "n {n}, s {s}, seed {seed}, draw {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn trials_at_the_boundaries_match_the_reference() {
        // A few ULPs either side of each of the first 64 boundaries
        // `h(k + 0.5)`, where `h_inv` rounds to one rank or the next.
        for n in SUPPORTS {
            for s in EXPONENTS {
                let (z, reference) = (Zipf::new(n, s), Reference::new(n, s));
                for k in 1..=n.min(64) {
                    let bits = reference.h(k as f64 + 0.5).to_bits();
                    for step in 0..=8 {
                        for u in [f64::from_bits(bits + step), f64::from_bits(bits - step)] {
                            assert_eq!(z.attempt(u), reference.attempt(u), "n {n}, s {s}, u {u:e}");
                        }
                    }
                }
            }
        }
    }
}
