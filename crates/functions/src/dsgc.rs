//! Decentral Smart Grid Control (DSGC) simulator — Schäfer, Matthiae,
//! Timme & Witthaut, *New Journal of Physics* 17 (2015).
//!
//! The model couples rotating machines (one producer, three consumers in
//! a star topology) through the swing equation and adds a price-based
//! demand response: each node adapts its power proportionally to its own
//! frequency deviation measured `τ_j` seconds ago. The resulting
//! delay-differential system is
//!
//! ```text
//! θ̇_j = ω_j
//! ω̇_j = P_j − α ω_j − γ_j ω_j(t − τ_j) + Σ_k K_jk sin(θ_k − θ_j)
//! ```
//!
//! The grid is *stable* for a parameter combination when the frequency
//! deviations decay; large reaction delays `τ_j` or weak/strong price
//! elasticities `γ_j` destabilise it. The REDS paper uses this model with
//! 12 inputs and asks for the stability region (§8.3, "dsgc").
//!
//! Our 12 inputs are the four delays `τ_j ∈ [0.5, 6]`, the four
//! elasticities `γ_j ∈ [0.05, 1]`, the three consumer powers
//! `P_{1..3} ∈ [−2, −0.5]` (the producer supplies `P_0 = −ΣP_j`), and the
//! coupling strength `K ∈ [5, 15]` — parameter ranges following the UCI
//! "Electrical Grid Stability" data generated from this model, with the
//! delay range and damping calibrated so the stable share matches
//! Table 1 (≈ 50 % stable).
//!
//! The delayed term is handled by storing the full `ω` history on the
//! integration grid and interpolating linearly (history is zero before
//! `t = 0`), with classic RK4 for the non-delayed part.
//!
//! Two pieces of work are shared, and both are exact, so the integrator
//! returns the same bits as one that evaluates every term separately:
//!
//! - **Line flows.** Each RK4 stage computes the flow `K sin(θ_k − θ_0)`
//!   of line `k` once; the producer adds it and consumer `k` subtracts
//!   it (three sines per stage instead of six). When the two angles
//!   differ, the consumer's own term `K sin(θ_0 − θ_k)` is the exact
//!   negation of the flow: round-to-nearest subtraction is
//!   sign-symmetric, so `θ_0 − θ_k` is exactly `−(θ_k − θ_0)`; `sin` is
//!   odd bit for bit (a test sweeps every angle difference a guarded run
//!   reaches); `K·(−s)` is exactly `−(K·s)`; and `acc − y` is the same
//!   IEEE operation as `acc + (−y)`. When the angles are equal, both
//!   differences are `+0`, and `acc − (+0)` differs from `acc + (+0)`
//!   only when `acc` is `−0`: a zero derivative may take the other sign.
//!   That cannot reach the result. A zero's sign drops out of any sum
//!   with a nonzero term and stays on a zero through products and `sin`,
//!   so the two integrations differ at most in the signs of zeros, and
//!   the residual is a maximum of `|ω|`.
//! - **Midpoint history.** Stages k2 and k3 both read the delayed
//!   frequencies at `t + DT/2`, and the trace is appended only after a
//!   whole step, so one interpolation serves both (12 per step instead
//!   of 16).

/// Number of simulation inputs.
pub const DSGC_M: usize = 12;

/// Number of grid nodes (1 producer + 3 consumers).
const NODES: usize = 4;

/// Damping coefficient `α` (fixed, as in the UCI configuration).
const ALPHA: f64 = 0.4;

/// Integration step (s).
const DT: f64 = 0.02;

/// Simulation horizon (s).
const HORIZON: f64 = 40.0;

/// A grid frequency trajectory is "stable" when the maximal |ω| over the
/// final quarter of the horizon stays below this bound (rad/s).
const STABLE_BOUND: f64 = 0.1;

/// Physical parameters of one DSGC simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DsgcParams {
    /// Reaction delays `τ_j` per node (s).
    pub tau: [f64; NODES],
    /// Price elasticities `γ_j` per node.
    pub gamma: [f64; NODES],
    /// Mechanical powers `P_j`; index 0 is the producer.
    pub power: [f64; NODES],
    /// Line coupling strength `K` between the producer and each consumer.
    pub coupling: f64,
}

impl DsgcParams {
    /// Decodes a point of the unit cube `[0,1]^12` into physical
    /// parameters (the sampling representation used by the experiments).
    ///
    /// Layout: `x[0..4]` = delays, `x[4..8]` = elasticities,
    /// `x[8..11]` = consumer powers, `x[11]` = coupling.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != DSGC_M`.
    pub fn from_unit(x: &[f64]) -> Self {
        assert_eq!(x.len(), DSGC_M, "dsgc expects {DSGC_M} inputs");
        let mut tau = [0.0; NODES];
        let mut gamma = [0.0; NODES];
        for j in 0..NODES {
            tau[j] = 0.5 + 5.5 * x[j];
            gamma[j] = 0.05 + 0.95 * x[4 + j];
        }
        let mut power = [0.0; NODES];
        for j in 1..NODES {
            power[j] = -2.0 + 1.5 * x[8 + j - 1];
        }
        power[0] = -(power[1] + power[2] + power[3]);
        let coupling = 5.0 + 10.0 * x[11];
        Self {
            tau,
            gamma,
            power,
            coupling,
        }
    }
}

/// State history of the integration: angles, frequencies, and the
/// frequency trace needed for the delayed feedback.
struct History {
    omega_trace: Vec<[f64; NODES]>,
}

impl History {
    /// Linear interpolation of `ω_j` at time `t` (zero before the start).
    fn omega_at(&self, t: f64, j: usize) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let pos = t / DT;
        let i0 = pos.floor() as usize;
        let frac = pos - i0 as f64;
        let last = self.omega_trace.len() - 1;
        let a = self.omega_trace[i0.min(last)][j];
        let b = self.omega_trace[(i0 + 1).min(last)][j];
        a + frac * (b - a)
    }

    /// The delayed frequencies `ω_j(t − τ_j)` every node reads at stage
    /// time `t`.
    fn delayed(&self, p: &DsgcParams, t: f64) -> [f64; NODES] {
        std::array::from_fn(|j| self.omega_at(t - p.tau[j], j))
    }
}

/// Right-hand side of the swing equations for state `(θ, ω)`, given the
/// delayed frequencies `ω_j(t − τ_j)` of the stage time.
///
/// Each line's flow `K sin(θ_k − θ_0)` is computed once: the producer
/// gains it and consumer `k` loses it. That matches adding the
/// consumer's own `K sin(θ_0 − θ_k)` bit for bit, except that a zero
/// derivative may take the other sign (see the module doc).
fn derivatives(
    p: &DsgcParams,
    theta: &[f64; NODES],
    omega: &[f64; NODES],
    delayed: &[f64; NODES],
) -> ([f64; NODES], [f64; NODES]) {
    let mut flow = [0.0; NODES];
    for k in 1..NODES {
        flow[k] = p.coupling * (theta[k] - theta[0]).sin();
    }
    let mut domega = [0.0; NODES];
    for j in 0..NODES {
        let mut acc = p.power[j] - ALPHA * omega[j] - p.gamma[j] * delayed[j];
        // Star topology: node 0 couples to every consumer.
        if j == 0 {
            for f in &flow[1..] {
                acc += f;
            }
        } else {
            acc -= flow[j];
        }
        domega[j] = acc;
    }
    (*omega, domega)
}

/// Fixed perturbation applied to the synchronous state: the stability
/// question is whether the grid returns to synchrony after a frequency
/// disturbance (Schäfer et al. study exactly this local stability).
const PERTURBATION: [f64; NODES] = [0.2, -0.15, 0.1, -0.2];

/// Integrates the DSGC delay-differential system from a perturbed
/// synchronous state and returns the maximal |ω| over the final quarter
/// of the horizon — the residual frequency deviation.
pub fn simulate_dsgc(p: &DsgcParams) -> f64 {
    let steps = (HORIZON / DT) as usize;
    // Synchronous fixed point of the star: ω = 0 and, per consumer j,
    // P_j + K sin(θ_0 − θ_j) = 0 ⇒ θ_j = −asin(−P_j / K) with θ_0 = 0.
    // |P_j| ≤ 2 < 5 ≤ K keeps the argument inside the principal branch.
    let mut theta = [0.0; NODES];
    #[allow(clippy::needless_range_loop)] // theta and power are parallel arrays
    for j in 1..NODES {
        theta[j] = (p.power[j] / p.coupling).asin();
    }
    let mut omega = PERTURBATION;
    let mut hist = History {
        omega_trace: Vec::with_capacity(steps + 1),
    };
    hist.omega_trace.push(omega);
    let tail_start = steps - steps / 4;
    let mut residual: f64 = 0.0;
    for step in 0..steps {
        let t = step as f64 * DT;
        // RK4 with the delayed term interpolated from the stored history,
        // once per distinct stage time: k2 and k3 share the midpoint.
        let start = hist.delayed(p, t);
        let mid = hist.delayed(p, t + DT / 2.0);
        let end = hist.delayed(p, t + DT);
        let (k1t, k1w) = derivatives(p, &theta, &omega, &start);
        let (t2, w2) = advance(&theta, &omega, &k1t, &k1w, DT / 2.0);
        let (k2t, k2w) = derivatives(p, &t2, &w2, &mid);
        let (t3, w3) = advance(&theta, &omega, &k2t, &k2w, DT / 2.0);
        let (k3t, k3w) = derivatives(p, &t3, &w3, &mid);
        let (t4, w4) = advance(&theta, &omega, &k3t, &k3w, DT);
        let (k4t, k4w) = derivatives(p, &t4, &w4, &end);
        for j in 0..NODES {
            theta[j] += DT / 6.0 * (k1t[j] + 2.0 * k2t[j] + 2.0 * k3t[j] + k4t[j]);
            omega[j] += DT / 6.0 * (k1w[j] + 2.0 * k2w[j] + 2.0 * k3w[j] + k4w[j]);
        }
        // Divergence guard: declare instability early when frequencies blow up.
        if omega.iter().any(|w| !w.is_finite() || w.abs() > 50.0) {
            return f64::INFINITY;
        }
        hist.omega_trace.push(omega);
        if step >= tail_start {
            for w in &omega {
                residual = residual.max(w.abs());
            }
        }
    }
    residual
}

fn advance(
    theta: &[f64; NODES],
    omega: &[f64; NODES],
    dtheta: &[f64; NODES],
    domega: &[f64; NODES],
    h: f64,
) -> ([f64; NODES], [f64; NODES]) {
    let mut t = *theta;
    let mut w = *omega;
    for j in 0..NODES {
        t[j] += h * dtheta[j];
        w[j] += h * domega[j];
    }
    (t, w)
}

/// Raw output used by the benchmark registry: residual frequency
/// deviation minus the stability bound, so that `y = 1 ⇔ raw < 0`
/// (stable grid) with `thr = 0`.
pub fn dsgc_raw(x: &[f64]) -> f64 {
    let p = DsgcParams::from_unit(x);
    let residual = simulate_dsgc(&p);
    if residual.is_finite() {
        residual - STABLE_BOUND
    } else {
        f64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The direct right-hand side: every node evaluates its own coupling
    /// sines and reads the history at the stage time.
    fn reference_derivatives(
        p: &DsgcParams,
        theta: &[f64; NODES],
        omega: &[f64; NODES],
        t: f64,
        hist: &History,
    ) -> ([f64; NODES], [f64; NODES]) {
        let mut dtheta = [0.0; NODES];
        let mut domega = [0.0; NODES];
        for j in 0..NODES {
            dtheta[j] = omega[j];
            let delayed = hist.omega_at(t - p.tau[j], j);
            let mut acc = p.power[j] - ALPHA * omega[j] - p.gamma[j] * delayed;
            if j == 0 {
                for k in 1..NODES {
                    acc += p.coupling * (theta[k] - theta[0]).sin();
                }
            } else {
                acc += p.coupling * (theta[0] - theta[j]).sin();
            }
            domega[j] = acc;
        }
        (dtheta, domega)
    }

    /// [`simulate_dsgc`] in the direct form: two sines per line and one
    /// history interpolation per RK4 stage.
    fn reference_simulate(p: &DsgcParams) -> f64 {
        let steps = (HORIZON / DT) as usize;
        let mut theta = [0.0; NODES];
        #[allow(clippy::needless_range_loop)] // theta and power are parallel arrays
        for j in 1..NODES {
            theta[j] = (p.power[j] / p.coupling).asin();
        }
        let mut omega = PERTURBATION;
        let mut hist = History {
            omega_trace: Vec::with_capacity(steps + 1),
        };
        hist.omega_trace.push(omega);
        let tail_start = steps - steps / 4;
        let mut residual: f64 = 0.0;
        for step in 0..steps {
            let t = step as f64 * DT;
            let (k1t, k1w) = reference_derivatives(p, &theta, &omega, t, &hist);
            let (t2, w2) = advance(&theta, &omega, &k1t, &k1w, DT / 2.0);
            let (k2t, k2w) = reference_derivatives(p, &t2, &w2, t + DT / 2.0, &hist);
            let (t3, w3) = advance(&theta, &omega, &k2t, &k2w, DT / 2.0);
            let (k3t, k3w) = reference_derivatives(p, &t3, &w3, t + DT / 2.0, &hist);
            let (t4, w4) = advance(&theta, &omega, &k3t, &k3w, DT);
            let (k4t, k4w) = reference_derivatives(p, &t4, &w4, t + DT, &hist);
            for j in 0..NODES {
                theta[j] += DT / 6.0 * (k1t[j] + 2.0 * k2t[j] + 2.0 * k3t[j] + k4t[j]);
                omega[j] += DT / 6.0 * (k1w[j] + 2.0 * k2w[j] + 2.0 * k3w[j] + k4w[j]);
            }
            if omega.iter().any(|w| !w.is_finite() || w.abs() > 50.0) {
                return f64::INFINITY;
            }
            hist.omega_trace.push(omega);
            if step >= tail_start {
                for w in &omega {
                    residual = residual.max(w.abs());
                }
            }
        }
        residual
    }

    fn assert_matches_reference(p: &DsgcParams) {
        let fast = simulate_dsgc(p);
        let reference = reference_simulate(p);
        assert_eq!(
            fast.to_bits(),
            reference.to_bits(),
            "{p:?}: {fast} vs reference {reference}"
        );
    }

    #[test]
    fn integrator_matches_reference_bitwise_on_the_unit_cube() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut points = vec![[0.0; DSGC_M], [1.0; DSGC_M]];
        for _ in 0..200 {
            points.push(std::array::from_fn(|_| rng.gen()));
        }
        for x in &points {
            assert_matches_reference(&DsgcParams::from_unit(x));
        }
    }

    #[test]
    fn integrator_matches_reference_through_the_divergence_guard() {
        // Outside the unit cube's ranges: slow, strong price response on
        // a weak, heavily loaded grid blows the frequencies up.
        let p = DsgcParams {
            tau: [6.0; NODES],
            gamma: [5.0; NODES],
            power: [3.0, -1.0, -1.0, -1.0],
            coupling: 5.0,
        };
        assert_eq!(reference_simulate(&p), f64::INFINITY);
        assert_matches_reference(&p);
    }

    #[test]
    fn integrator_matches_reference_from_equal_angles() {
        // Zero consumer powers start every angle at 0, so the first
        // stage's line flows are all `sin(+0)`.
        let p = DsgcParams {
            power: [0.0; NODES],
            ..DsgcParams::from_unit(&[0.5; DSGC_M])
        };
        assert_matches_reference(&p);
    }

    #[test]
    fn sine_is_odd_bitwise_over_reachable_angle_differences() {
        // The divergence guard ends a run once any |ω| exceeds 50 rad/s,
        // so over the 40 s horizon each angle moves at most about
        // 50 · 40 = 2 000 rad from its start in [−π/2, π/2], and
        // |θ_k − θ_0| stays below about 4 003 rad, plus the little one
        // step's stages add before the guard sees them (unit-cube runs
        // reach about 46). Sweep [−4 100, 4 100] evenly and at random
        // bit patterns of every magnitude.
        const REACH: f64 = 4_100.0;
        let mut rng = StdRng::seed_from_u64(29);
        let even = (0..=1 << 18).map(|i| i as f64 * (REACH / (1 << 18) as f64));
        let any_magnitude = std::iter::repeat_with(|| f64::from_bits(rng.gen::<u64>() >> 1))
            .filter(|x| *x <= REACH)
            .take(1 << 18)
            .collect::<Vec<_>>();
        for x in even.chain(any_magnitude) {
            for x in [x, -x] {
                assert_eq!(
                    (-x).sin().to_bits(),
                    (-(x.sin())).to_bits(),
                    "sin is not odd at {x:e}"
                );
            }
        }
    }

    #[test]
    fn fast_reaction_is_stable() {
        // Short delays, moderate elasticity, light loads: stable grid.
        let x = [
            0.0, 0.0, 0.0, 0.0, // τ = 0.5 s
            0.3, 0.3, 0.3, 0.3, // γ ≈ 0.34
            0.8, 0.8, 0.8, // light consumption ≈ −0.8
            0.5, // K = 10
        ];
        assert!(dsgc_raw(&x) < 0.0, "expected stable: {}", dsgc_raw(&x));
    }

    #[test]
    fn slow_reaction_with_strong_response_is_unstable() {
        // Long delays and strong price response destabilise the grid
        // (the classic delayed-feedback resonance of Schäfer et al.).
        let x = [
            1.0, 1.0, 1.0, 1.0, // τ = 10 s
            1.0, 1.0, 1.0, 1.0, // γ = 1
            0.0, 0.0, 0.0, // heavy consumption = −2
            0.5,
        ];
        assert!(dsgc_raw(&x) > 0.0, "expected unstable: {}", dsgc_raw(&x));
    }

    #[test]
    fn power_balance_holds() {
        let p = DsgcParams::from_unit(&[0.5; 12]);
        let total: f64 = p.power.iter().sum();
        assert!(total.abs() < 1e-12);
        assert!(p.power[0] > 0.0, "producer generates");
    }

    #[test]
    fn parameter_decoding_covers_ranges() {
        let lo = DsgcParams::from_unit(&[0.0; 12]);
        let hi = DsgcParams::from_unit(&[1.0; 12]);
        assert!((lo.tau[0] - 0.5).abs() < 1e-12);
        assert!((hi.tau[0] - 6.0).abs() < 1e-12);
        assert!((lo.gamma[0] - 0.05).abs() < 1e-12);
        assert!((hi.gamma[0] - 1.0).abs() < 1e-12);
        assert!((lo.coupling - 5.0).abs() < 1e-12);
        assert!((hi.coupling - 15.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_deterministic() {
        let p = DsgcParams::from_unit(&[0.37; 12]);
        assert_eq!(simulate_dsgc(&p), simulate_dsgc(&p));
    }
}
