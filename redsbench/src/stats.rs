//! The percentile rule every timing of the benchmark is reported by.
//!
//! A timing is a median plus the highest percentile of a fixed ladder
//! that still has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count. Percentiles use the nearest-rank definition:
//! the `p`-th percentile of `n` sorted samples is the sample at 1-based
//! rank `ceil(p/100 · n)`, so exactly `n − rank` samples lie beyond it.

use reds_json::Json;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    // The tolerance keeps decimal percentiles exact: 0.999 · 10 000 is
    // 9 990.000000000002 in binary floating point.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && n - rank(p, n) >= MIN_BEYOND
}

/// The highest ladder percentile `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supported(p, n))
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// A timing summary under the percentile rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported ladder percentile and its value.
    pub tail: Option<(f64, f64)>,
    /// Value at the 99th percentile, when the sample count supports it.
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        Some(Self {
            n,
            p50: percentile(&s, 50.0),
            tail: tail_percentile(n).map(|p| (p, percentile(&s, p))),
            p99: supported(99.0, n).then(|| percentile(&s, 99.0)),
        })
    }

    /// JSON form: `{"n", "p50", "tail_pct", "tail", "p99"}` (absent
    /// percentiles are `null`).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
        Json::obj([
            ("n", Json::num(self.n as f64)),
            ("p50", Json::num(self.p50)),
            ("tail_pct", opt(self.tail.map(|t| t.0))),
            ("tail", opt(self.tail.map(|t| t.1))),
            ("p99", opt(self.p99)),
        ])
    }
}

/// JSON of an optional summary (`null` for no samples).
pub fn summary_json(samples: &[f64]) -> Json {
    Summary::of(samples).map_or(Json::Null, |s| s.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_the_nearest_rank_definition() {
        assert_eq!(rank(50.0, 10), 5);
        assert_eq!(rank(50.0, 11), 6);
        assert_eq!(rank(99.0, 1000), 990);
        assert_eq!(rank(99.0, 1001), 991);
        assert_eq!(rank(100.0, 7), 7);
        assert_eq!(rank(0.0, 7), 1);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(99.0, 999));
        assert!(supported(99.0, 1000));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn small_samples_support_no_tail() {
        // The median itself needs ten samples beyond it: n = 20.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond_it() {
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= MIN_BEYOND, "n = {n}, p = {p}");
                // No higher ladder step would also qualify.
                for &q in LADDER.iter().filter(|&&q| q > p) {
                    assert!(n - rank(q, n) < MIN_BEYOND, "n = {n}, q = {q}");
                }
            }
        }
    }

    #[test]
    fn summary_reports_samples_not_interpolations() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(
            samples.iter().filter(|&&v| v > 990.0).count(),
            MIN_BEYOND,
            "exactly ten samples beyond the reported p99"
        );
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
