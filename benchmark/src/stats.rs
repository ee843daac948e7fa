//! Order statistics the benchmark reports: medians with quartiles over
//! repetitions, and tail percentiles that are only quoted when the sample
//! supports them.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is not a sample statistic (an exact count, a ratio of
    /// two medians): quartiles collapse onto it.
    pub fn exact(v: f64) -> Self {
        Self {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// The same statistics of the samples multiplied by `k > 0`.
    pub fn scaled(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle samples for an even count; 0 for
/// an empty slice, which only a workload that never enters a layer has).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median and quartiles.  The quartiles follow Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method), because that is
/// what the acceptance rule is computed with; fewer than two samples
/// collapse onto the median.
pub fn summarize(v: &[f64]) -> Summary {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let m = s.first().copied().unwrap_or(0.0);
        return Summary {
            median: m,
            q1: m,
            q3: m,
            n,
        };
    }
    let cut = |i: usize| {
        // Exclusive method: position i*(n+1)/4 with the interval index
        // clamped into the sample (so two samples extrapolate, as Python's
        // do).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Summary {
        median: median(&s),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// The percentiles a tail metric may fall back through.
pub const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Rank (1-based, nearest-rank definition) of percentile `p` among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent: `0.99 * 1000.0` must not
    // round up to rank 991.
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] not above `wanted` that still has
/// at least ten samples beyond it among `n`; the median when none has.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| n >= rank(n, p) + 10)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p) - 1]
}

/// Tail latency as the benchmark quotes it: percentile `wanted` when the
/// sample supports it, else the next lower supported one.  Returns
/// `(percentile used, value)`.
pub fn tail(v: &[f64], wanted: f64) -> (f64, f64) {
    let p = supported_percentile(v.len(), wanted);
    (p, percentile(v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, ten beyond -> p99 is supported.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        // 999 samples: rank(p99) = 990, nine beyond -> next lower.
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        // 200 samples: p95 has exactly ten beyond.
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(199, 95.0), 90.0);
        // never above what was asked for
        assert_eq!(supported_percentile(100_000, 95.0), 95.0);
        // 40 samples: p75 has ten beyond, p90 has four.
        assert_eq!(supported_percentile(40, 99.0), 75.0);
        // too few for any tail: the median.
        assert_eq!(supported_percentile(12, 99.0), 50.0);
        assert_eq!(supported_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn tail_uses_the_supported_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (95.0, 190.0));
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
