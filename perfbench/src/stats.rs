//! The benchmark's own statistics: medians, quartiles, tail selection
//! and the failed-call share. Every figure the benchmark prints goes
//! through these functions, and the unit tests at the bottom pin them.

/// The percentiles a tail is chosen from, highest last.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail needs at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank `ceil(p/100 * n)` of percentile `p` among
/// `n` samples, clamped to `1..=n`. Integer arithmetic in hundredths of
/// a percent, so p99.9 of 10000 samples is rank 9990, not 9991.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Value at the nearest rank of percentile `p` in sorted samples: always
/// an observed sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest rank of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A latency distribution summary: median and the highest ladder
/// percentile that still has [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// The chosen tail percentile (50 when there are too few samples).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Summarises `xs` (any order). `None` for no samples.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = tail_percentile(n);
    Some(Summary {
        n,
        p50: nearest_rank(&sorted, 50.0),
        tail_pct,
        tail: nearest_rank(&sorted, tail_pct),
    })
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it among `n`; p50 when none qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .fold(50.0, f64::max)
}

/// Median of `xs` by linear interpolation (the mean of the middle two
/// for an even count), as Python's `statistics.median` gives it.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let q = |k: f64| {
        // Position k/4 * (n + 1), 1-based, interpolated.
        let m = k * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, s.len() - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1.0), q(3.0))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Outcome counts of the calls a workload attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error other than a refusal.
    pub errored: u64,
    /// Calls the server refused as `Overloaded`.
    pub refused: u64,
    /// Calls that answered, but not with the expected answer.
    pub wrong: u64,
}

impl Calls {
    /// Calls that count as failed: errored, refused or wrong.
    pub fn failed(&self) -> u64 {
        self.errored + self.refused + self.wrong
    }

    /// `failed_ops`: the failed share of attempted calls.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: &Calls) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // One fewer and p99 leaves 9, so p95 is the tail.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_percentile(15), 50.0);
        assert_eq!(tail_percentile(1), 50.0);
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.0, 99.0, 990.0));
        // Order of the input does not matter.
        let mut rev = ramp(1000);
        rev.reverse();
        assert_eq!(summarize(&rev), Some(s));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert!((iqr_share(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
    }

    #[test]
    fn failed_share_counts_errors_refusals_and_wrong_answers() {
        let mut calls = Calls {
            attempted: 200,
            ..Calls::default()
        };
        assert_eq!(calls.failed_share(), 0.0);
        calls.errored = 1;
        calls.refused = 2;
        calls.wrong = 7;
        assert_eq!(calls.failed(), 10);
        assert_eq!(calls.failed_share(), 0.05);
        let mut total = Calls::default();
        total.absorb(&calls);
        total.absorb(&calls);
        assert_eq!(total.attempted, 400);
        assert_eq!(total.failed_share(), 0.05);
        assert_eq!(Calls::default().failed_share(), 0.0);
    }
}
