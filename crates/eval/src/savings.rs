//! Simulation-savings analysis: the paper's headline claim is that REDS
//! needs "50–75 % fewer simulations" for the same scenario quality
//! (§1, §9.1.1). Given the learning curves of two methods — quality as
//! a function of the number of simulations `N` — this module computes
//! how many simulations the better method saves.
//!
//! Where the faster curve already reaches the target quality at its
//! first `N₀`, the crossing lies somewhere at or below `N₀`, so
//! `1 − N₀ / n_ref` is only a lower bound on the savings: the point is
//! *censored*. Such a bound is 0 at the grid's first `N` and at most
//! 50 % at a doubling grid's second, so [`mean_savings`] leaves censored
//! points out rather than averaging bounds with measurements.

/// One point of a learning curve: `(n, quality)`.
pub type CurvePoint = (f64, f64);

/// Linearly interpolates the number of simulations a method described
/// by `curve` needs to reach `quality`. The curve must be sorted by
/// `n`; non-monotone quality dips are handled by taking the *first*
/// crossing. Returns `None` when the quality is never reached.
pub fn n_required(curve: &[CurvePoint], quality: f64) -> Option<f64> {
    if curve.is_empty() {
        return None;
    }
    if curve[0].1 >= quality {
        return Some(curve[0].0);
    }
    for w in curve.windows(2) {
        let (n0, q0) = w[0];
        let (n1, q1) = w[1];
        if q0 < quality && q1 >= quality {
            let t = (quality - q0) / (q1 - q0);
            return Some(n0 + t * (n1 - n0));
        }
    }
    None
}

/// The savings of `fast` over `slow` at one reference budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Savings {
    /// The reference budget `n_ref` of `slow`.
    pub n_reference: f64,
    /// `1 − N_fast(q) / n_ref`, `q` the quality `slow` reaches at
    /// `n_ref`.
    pub fraction: f64,
    /// `fast` already reaches `q` at its first `N`, so `fraction` is
    /// only a lower bound (see the module docs).
    pub censored: bool,
}

/// Fraction of simulations saved by `fast` relative to `slow` at the
/// quality level `slow` reaches with `n_reference` simulations:
/// `1 − N_fast(q) / n_reference`, a lower bound when censored
/// ([`savings_profile`] says which). Returns `None` when either curve
/// cannot answer (reference point missing or quality unreachable).
pub fn savings_at(slow: &[CurvePoint], fast: &[CurvePoint], n_reference: f64) -> Option<f64> {
    savings(slow, fast, n_reference).map(|s| s.fraction)
}

fn savings(slow: &[CurvePoint], fast: &[CurvePoint], n_reference: f64) -> Option<Savings> {
    // Quality the slow method attains at the reference budget.
    let quality = interpolate(slow, n_reference)?;
    let n_fast = n_required(fast, quality)?;
    Some(Savings {
        n_reference,
        fraction: 1.0 - n_fast / n_reference,
        censored: fast[0].1 >= quality,
    })
}

/// The savings at every curve point of `slow` that `fast` can match,
/// censored ones included.
pub fn savings_profile(slow: &[CurvePoint], fast: &[CurvePoint]) -> Vec<Savings> {
    slow.iter()
        .filter_map(|&(n, _)| savings(slow, fast, n))
        .collect()
}

/// Mean savings over every uncensored curve point of `slow` that `fast`
/// can match — the aggregate "REDS needs X % fewer simulations on
/// average" number. `None` when no such point exists.
pub fn mean_savings(slow: &[CurvePoint], fast: &[CurvePoint]) -> Option<f64> {
    let vals: Vec<f64> = savings_profile(slow, fast)
        .iter()
        .filter(|s| !s.censored)
        .map(|s| s.fraction)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Quality of a curve at budget `n` (linear interpolation; `None`
/// outside the observed range).
fn interpolate(curve: &[CurvePoint], n: f64) -> Option<f64> {
    if curve.is_empty() || n < curve[0].0 || n > curve[curve.len() - 1].0 {
        return None;
    }
    for w in curve.windows(2) {
        let (n0, q0) = w[0];
        let (n1, q1) = w[1];
        if n >= n0 && n <= n1 {
            if n1 == n0 {
                return Some(q0);
            }
            let t = (n - n0) / (n1 - n0);
            return Some(q0 + t * (q1 - q0));
        }
    }
    curve.last().map(|&(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slow learner: quality q(n) = n / 100.
    fn slow() -> Vec<CurvePoint> {
        vec![(100.0, 1.0), (200.0, 2.0), (400.0, 4.0), (800.0, 8.0)]
    }

    /// Twice as fast: reaches the same quality with half the budget.
    fn fast() -> Vec<CurvePoint> {
        vec![(50.0, 1.0), (100.0, 2.0), (200.0, 4.0), (400.0, 8.0)]
    }

    #[test]
    fn n_required_interpolates() {
        assert_eq!(n_required(&slow(), 2.0), Some(200.0));
        assert_eq!(n_required(&slow(), 3.0), Some(300.0));
        assert_eq!(n_required(&slow(), 1.0), Some(100.0));
        assert_eq!(n_required(&slow(), 9.0), None);
        assert_eq!(n_required(&[], 1.0), None);
    }

    #[test]
    fn savings_of_a_double_speed_learner_is_half() {
        let s = savings_at(&slow(), &fast(), 400.0).expect("within range");
        assert!((s - 0.5).abs() < 1e-9, "savings {s}");
        let mean = mean_savings(&slow(), &fast()).expect("computable");
        assert!((mean - 0.5).abs() < 1e-9, "mean savings {mean}");
    }

    #[test]
    fn identical_curves_save_nothing() {
        let s = savings_at(&slow(), &slow(), 400.0).expect("within range");
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn unreachable_quality_yields_none() {
        let weak = vec![(100.0, 0.5), (800.0, 1.5)];
        assert_eq!(savings_at(&slow(), &weak, 800.0), None);
    }

    /// A fast learner that beats the slow one's first two reference
    /// qualities at its first `N`: those points are censored lower
    /// bounds, reported as such and left out of the mean.
    #[test]
    fn censored_points_are_reported_and_left_out_of_the_mean() {
        let fast = vec![(100.0, 2.5), (200.0, 4.0), (400.0, 8.0), (800.0, 12.0)];
        let profile = savings_profile(&slow(), &fast);
        let censored: Vec<(f64, bool)> = profile
            .iter()
            .map(|s| (s.n_reference, s.censored))
            .collect();
        assert_eq!(
            censored,
            [(100.0, true), (200.0, true), (400.0, false), (800.0, false)]
        );
        // The bounds `1 − N₀/n_ref`: 0 at the first N, 50 % at the second.
        assert_eq!(profile[0].fraction, 0.0);
        assert_eq!(profile[1].fraction, 0.5);
        assert_eq!(savings_at(&slow(), &fast, 200.0), Some(0.5));
        // Uncensored: q = 4 at 200 (saving 50 %), q = 8 at 400 (50 %).
        let mean = mean_savings(&slow(), &fast).expect("two uncensored points");
        assert!((mean - 0.5).abs() < 1e-9, "mean savings {mean}");
        // Every point censored: no mean.
        let instant = vec![(50.0, 9.0), (100.0, 10.0)];
        assert_eq!(savings_profile(&slow(), &instant).len(), 4);
        assert_eq!(mean_savings(&slow(), &instant), None);
    }

    #[test]
    fn out_of_range_reference_yields_none() {
        assert_eq!(savings_at(&slow(), &fast(), 50.0), None);
        assert_eq!(savings_at(&slow(), &fast(), 10_000.0), None);
    }
}
