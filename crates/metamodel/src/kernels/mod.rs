//! Runtime-dispatched SIMD prediction kernels.
//!
//! The dominant term of the REDS cost model at paper scale is
//! pseudo-labeling: `L = 10⁵…10⁷` metamodel evaluations, and every
//! downstream layer (the `reds-par` fan-out, the serve micro-batcher,
//! `reds-stream` chunk labeling) bottoms out in the per-point kernels of
//! this crate. This module provides those kernels in two
//! **bit-identical** implementations selected at runtime:
//!
//! * a portable **scalar** path (the 64-lane interleaved tree walk and a
//!   canonical 4-lane squared-distance reduction), and
//! * an **AVX2** path using stable `std::arch` intrinsics (gather-based
//!   4-wide tree traversal; for GBDTs of depth at most 6, splits
//!   evaluated in bulk over transposed row blocks and a walk by mask
//!   bits; 4-wide RBF distance blocks), compiled on `x86_64` and entered
//!   only after a cached `cpuid` check.
//!
//! ## Bit-identity contract
//!
//! Equivalence suites (`perf_equivalence`, `backing_equivalence`,
//! `serve_end_to_end`) compare results to the exact bit, so the two
//! paths must agree exactly — not merely to a tolerance:
//!
//! * **Tree traversal** is exact by construction: both paths evaluate
//!   the same `x[feature] <= threshold` predicate (`_mm256_cmp_pd` with
//!   `_CMP_LE_OQ` matches scalar `<=` including its NaN-goes-right
//!   behaviour), reach the same leaf, and add the same leaf value. The
//!   bit walk over a [`PerfectTrees`] form sets a split's bit where
//!   `!(x <= threshold)` (`_CMP_NLE_UQ`, true for NaN, so NaN goes
//!   right there too) and reaches the same leaf value, because a leaf
//!   above the form's depth fills every leaf slot below it.
//! * **RBF squared distances** use one canonical reduction order — four
//!   lane accumulators striding the dimensions, combined as
//!   `(l0 + l2) + (l1 + l3)` — implemented identically by the scalar
//!   loop and the AVX2 vector loop (see [`squared_distance`]).
//! * **`exp`** (the RBF expansion, the GBDT sigmoid) evaluates one
//!   canonical range-reduced polynomial whose scalar and 4-wide AVX2
//!   implementations share every operation and blend rule (see
//!   [`vexp`]), so vectorizing it changes no bits between backends.
//!   The polynomial (and the RBF multiply-accumulates around it) comes
//!   in a fused (FMA) and a plain arithmetic flavor, resolved once per
//!   process from the CPU ([`vexp::fma_supported`]) and always shared
//!   by both backends. `REDS_EXP=libm` routes both backends through
//!   scalar libm instead, as an A/B escape hatch.
//!
//! Because the paths are bit-identical, dispatch may differ between
//! machines, threads, or runs without ever changing a result.
//!
//! ## Selecting a kernel
//!
//! [`active`] resolves the kernel once per `predict_batch` call from,
//! in priority order: a programmatic [`set_kernel`] override (used by
//! benches and tests), the `REDS_KERNEL` environment variable
//! (`scalar` or `avx2`), and a cached CPU-feature probe. Requesting
//! `avx2` on hardware without it falls back to scalar, so
//! `REDS_KERNEL=avx2` is always safe to set.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

mod flat;
mod perfect;
mod scalar;
pub mod vexp;

#[cfg(target_arch = "x86_64")]
mod avx2;

pub use flat::FlatTree;
pub(crate) use perfect::PerfectTrees;
pub use vexp::{exp, ExpBackend};

/// A prediction-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar path; bit-identical reference for every other
    /// backend and the only one available off `x86_64`.
    Scalar,
    /// 4-wide AVX2 lanes (gathered tree traversal, the bit walk of
    /// shallow GBDTs, vector RBF blocks); requires a runtime `avx2`
    /// feature probe.
    Avx2,
}

impl Kernel {
    /// Stable lowercase name (`"scalar"` / `"avx2"`), as accepted by
    /// the `REDS_KERNEL` environment variable and reported by the
    /// serving `info` command.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// `0` = no override, `1` = scalar, `2` = avx2.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Environment + cpuid resolution, performed once per process.
static RESOLVED: OnceLock<Kernel> = OnceLock::new();

/// Whether this process can execute the AVX2 kernels (compile target
/// is `x86_64` **and** the CPU reports the feature). The probe result
/// is cached by the standard library, so calling this is cheap.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Forces the kernel for subsequent [`active`] calls (`None` clears the
/// override). Intended for benchmarks and the equivalence tests that
/// compare backends side by side; requesting [`Kernel::Avx2`] on
/// hardware without it still resolves to scalar.
pub fn set_kernel(kernel: Option<Kernel>) {
    let code = match kernel {
        None => 0,
        Some(Kernel::Scalar) => 1,
        Some(Kernel::Avx2) => 2,
    };
    KERNEL_OVERRIDE.store(code, Ordering::SeqCst);
}

/// The kernel `predict_batch` implementations should use, resolved
/// from (in priority order) the [`set_kernel`] override, the
/// `REDS_KERNEL` environment variable, and a cached CPU-feature probe.
/// Callers resolve this **once per batch** and thread the choice
/// through their workers rather than re-probing per chunk.
pub fn active() -> Kernel {
    match KERNEL_OVERRIDE.load(Ordering::SeqCst) {
        1 => return Kernel::Scalar,
        2 if avx2_supported() => return Kernel::Avx2,
        2 => return Kernel::Scalar,
        _ => {}
    }
    *RESOLVED.get_or_init(|| match std::env::var("REDS_KERNEL").as_deref() {
        Ok("scalar") => Kernel::Scalar,
        Ok("avx2") if avx2_supported() => Kernel::Avx2,
        // An explicit avx2 request on unsupported hardware degrades to
        // scalar (documented), keeping REDS_KERNEL=avx2 safe anywhere.
        Ok("avx2") => Kernel::Scalar,
        _ if avx2_supported() => Kernel::Avx2,
        _ => Kernel::Scalar,
    })
}

/// Adds `tree`'s prediction for every row of `rows` (row-major, `m`
/// columns) into `acc`, using the selected kernel. Bit-identical across
/// kernels: traversal is exact, so every backend reaches the same leaf
/// and adds the same value.
///
/// # Panics
///
/// Panics when the buffers disagree on shape, or when `tree` splits on
/// a feature `>= m`.
pub fn accumulate_tree(kernel: Kernel, tree: &FlatTree, rows: &[f64], m: usize, acc: &mut [f64]) {
    assert_eq!(rows.len(), acc.len() * m, "row buffer shape mismatch");
    assert!(tree.width <= m, "tree splits on a feature >= m = {m}");
    if acc.is_empty() {
        return;
    }
    match kernel {
        Kernel::Scalar => scalar::accumulate_tree(tree, rows, m, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cached feature probe just succeeded (`Kernel` is
        // a public enum, so an explicit `Avx2` cannot be trusted to
        // imply support). The width check above keeps every gathered
        // feature inside its row, and `FlatTree` construction (fitting,
        // or the checks of `FlatTree::from_parts`) keeps every node
        // index inside the arena.
        Kernel::Avx2 if m > 0 && avx2_supported() => unsafe {
            avx2::accumulate_tree(tree, rows, m, acc)
        },
        // m == 0 has no feature to gather (the scalar walk handles the
        // degenerate single-leaf tree without touching `rows`);
        // unsupported Avx2 degrades to scalar, like dispatch does.
        _ => scalar::accumulate_tree(tree, rows, m, acc),
    }
}

/// Adds the predictions of every tree of an ensemble, in ensemble
/// order, for every row of `rows` (row-major, `m` columns) into `acc`.
/// `perfect` is the ensemble's [`PerfectTrees`] form when it has one
/// (built from these very `trees`). The AVX2 kernel walks that form's
/// mask bits, transposing the rows into `scratch` (a per-worker buffer
/// it sizes itself); every other case walks the arenas tree after tree
/// through [`accumulate_tree`]. Both add the same leaf values in the
/// same order, so the sums are bit-identical.
///
/// # Panics
///
/// Panics when the buffers disagree on shape, when a tree splits on a
/// feature `>= m`, or when `perfect` holds another number of trees.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn accumulate_trees(
    kernel: Kernel,
    trees: &[FlatTree],
    perfect: Option<&PerfectTrees>,
    rows: &[f64],
    m: usize,
    acc: &mut [f64],
    scratch: &mut Vec<f64>,
) {
    assert_eq!(rows.len(), acc.len() * m, "row buffer shape mismatch");
    match perfect {
        #[cfg(target_arch = "x86_64")]
        Some(form) if kernel == Kernel::Avx2 && m > 0 && avx2_supported() => {
            assert_eq!(
                form.n_trees(),
                trees.len(),
                "perfect form of another ensemble"
            );
            assert!(form.width <= m, "tree splits on a feature >= m = {m}");
            // SAFETY: the cached feature probe just succeeded. The width
            // check keeps every column the walk loads inside the
            // transposed block (which the kernel sizes from `m`), and
            // every tree of a `PerfectTrees` has `2^D` leaves, inside
            // which `D` steps of the walk end whatever the masks hold.
            unsafe { avx2::accumulate_perfect(form, rows, m, acc, scratch) }
        }
        // Scalar, m == 0 (no column to load), deeper ensembles, and
        // Avx2 without hardware support.
        _ => {
            for tree in trees {
                accumulate_tree(kernel, tree, rows, m, acc);
            }
        }
    }
}

/// Canonical squared Euclidean distance `‖a − b‖²`.
///
/// The reduction order is part of the kernel contract: four lane
/// accumulators `l[lane] += (a[4k+lane] − b[4k+lane])²` stride the
/// dimensions (the tail block populates lanes `0..len % 4` only), and
/// the total is `(l0 + l2) + (l1 + l3)` — exactly the horizontal-add
/// order of a 256-bit register. Padding both operands with trailing
/// zeros is a bitwise no-op (squares are `+0.0`, and `x + 0.0 == x`
/// for every non-negative accumulator value), which is what lets the
/// AVX2 path run on zero-padded buffers with no remainder handling.
///
/// **NaN caveat**: when the result is NaN (a NaN input, or `∞ − ∞`
/// from matching infinite coordinates), every backend returns NaN but
/// the payload/sign bits may differ — LLVM is free to commute scalar
/// FP adds precisely because NaN payloads are unspecified, so
/// payload-exact NaN equality cannot be promised by *any* pair of
/// compiled implementations. All finite and infinite results are
/// bit-exact, and downstream hard decisions (`NaN > 0.0` is `false`
/// everywhere) are unaffected.
pub fn squared_distance(kernel: Kernel, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "operand length mismatch");
    match kernel {
        Kernel::Scalar => scalar::squared_distance(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cached feature probe just succeeded.
        Kernel::Avx2 if avx2_supported() => unsafe { avx2::squared_distance(a, b) },
        // Explicit Avx2 without hardware support degrades to scalar.
        _ => scalar::squared_distance(a, b),
    }
}

/// RBF kernel expansion for a batch of rows:
/// `out[r] = bias + Σ_i coef[i] · exp(−gamma · ‖rows[r] − sv_i‖²)`,
/// accumulated in the canonical panel order below.
///
/// `svs` is the **panel-interleaved** support-vector buffer built at
/// `Svm::assemble`: support vectors grouped 4 to a panel (count padded
/// with zero vectors and zero coefficients), each panel laid out
/// dimension-major (`panel[4·j + lane]` = dimension `j` of panel
/// member `lane`, `j < m_pad`, `m_pad` a multiple of 4 with trailing
/// zero dimensions). `coef` is padded to `4 · n_panels` to match.
///
/// The canonical accumulation order is part of the kernel contract:
/// per panel, lane `l` accumulates `d²` for panel member `l` over the
/// `m` real dimensions sequentially, the four `coef·exp(−γ·d²)`
/// products add into four running lane sums across panels, and the
/// result is `bias + ((s0 + s2) + (s1 + s3))`. Both backends implement
/// exactly this order (the AVX2 path holds each panel in one register
/// end-to-end — distances, `exp`, and coefficient multiply-accumulate
/// never leave registers), in the arithmetic flavor
/// [`vexp::fma_supported`] resolves, so scalar and SIMD are
/// bit-identical. The padded dimensions `m..m_pad` are **skipped**:
/// both the query padding and the stored padding are exactly zero, so
/// each skipped step would compute `d2 + (0 − 0)² = d2` — a bitwise
/// no-op (`x + 0.0 == x` for the non-negative accumulator) that no
/// backend needs to execute. Under `REDS_EXP=libm` both kernels route
/// through the scalar loop with libm `exp` instead.
#[allow(clippy::too_many_arguments)]
pub fn rbf_expand(
    kernel: Kernel,
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
) {
    assert!(m_pad.is_multiple_of(4) && m <= m_pad, "bad padded width");
    assert!(
        m > 0 || out.is_empty(),
        "zero-width rows cannot be expanded"
    );
    assert!(
        coef.len().is_multiple_of(4),
        "coefficients must fill panels"
    );
    assert_eq!(svs.len(), coef.len() * m_pad, "support buffer shape");
    assert_eq!(rows.len(), out.len() * m, "row buffer shape");
    match (kernel, vexp::backend()) {
        // The libm escape hatch: both kernel backends take the scalar
        // panel loop (plain flavor) so the A/B toggles exactly one
        // thing — which exp.
        (_, ExpBackend::Libm) => {
            scalar::rbf_expand(svs, coef, bias, gamma, m_pad, rows, m, out, f64::exp)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cached feature probes just succeeded; all buffers
        // were shape-checked above.
        (Kernel::Avx2, ExpBackend::Poly) if avx2_supported() => unsafe {
            if vexp::fma_supported() {
                avx2::rbf_expand_fused(svs, coef, bias, gamma, m_pad, rows, m, out)
            } else {
                avx2::rbf_expand(svs, coef, bias, gamma, m_pad, rows, m, out)
            }
        },
        // Scalar request, or explicit Avx2 without hardware support —
        // in the same arithmetic flavor the AVX2 path would use, so the
        // two backends stay bit-identical on every machine.
        _ => {
            #[cfg(target_arch = "x86_64")]
            if vexp::fma_supported() {
                // SAFETY: the cached feature probe just succeeded.
                unsafe { scalar::rbf_expand_fused(svs, coef, bias, gamma, m_pad, rows, m, out) }
                return;
            }
            scalar::rbf_expand(
                svs,
                coef,
                bias,
                gamma,
                m_pad,
                rows,
                m,
                out,
                vexp::exp_poly_core::<false>,
            )
        }
    }
}

/// Squashes accumulated GBDT margins into probabilities in place:
/// `acc[i] ← 1 / (1 + exp(−(base + eta·acc[i])))` — the batched,
/// `vexp`-vectorized form of the per-point sigmoid. Element-wise with
/// one canonical op order (`mul`, `add`, negate, `exp`, `add`, `div`),
/// so scalar and AVX2 agree bitwise on every element, and per-point
/// `Gbdt::predict` (which squashes through [`vexp::exp`]) matches the
/// batch by construction. Under `REDS_EXP=libm` both backends take the
/// scalar loop with libm `exp`.
pub fn sigmoid_margins(kernel: Kernel, base: f64, eta: f64, acc: &mut [f64]) {
    match (kernel, vexp::backend()) {
        (_, ExpBackend::Libm) => scalar::sigmoid_margins(base, eta, acc, f64::exp),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cached feature probes just succeeded.
        (Kernel::Avx2, ExpBackend::Poly) if avx2_supported() => unsafe {
            if vexp::fma_supported() {
                avx2::sigmoid_margins_fused(base, eta, acc)
            } else {
                avx2::sigmoid_margins(base, eta, acc)
            }
        },
        _ => {
            #[cfg(target_arch = "x86_64")]
            if vexp::fma_supported() {
                // SAFETY: the cached feature probe just succeeded.
                unsafe { scalar::sigmoid_margins_fused(base, eta, acc) }
                return;
            }
            scalar::sigmoid_margins(base, eta, acc, vexp::exp_poly_core::<false>)
        }
    }
}

/// Element-wise `exp` over a slice under explicit kernel and backend —
/// the raw `vexp` entry point, primarily for the equivalence suites
/// and benches (production paths go through [`rbf_expand`] /
/// [`sigmoid_margins`], which resolve the backend themselves).
pub fn exp_in_place(kernel: Kernel, backend: ExpBackend, xs: &mut [f64]) {
    match (kernel, backend) {
        (_, ExpBackend::Libm) => {
            for v in xs.iter_mut() {
                *v = v.exp();
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cached feature probes just succeeded.
        (Kernel::Avx2, ExpBackend::Poly) if avx2_supported() => unsafe {
            use std::arch::x86_64::*;
            let blocks = xs.len() / 4;
            let fused = vexp::fma_supported();
            for k in 0..blocks {
                let ptr = xs.as_mut_ptr().add(4 * k);
                let x = _mm256_loadu_pd(ptr);
                let e = if fused {
                    vexp::avx2::exp4_fused(x)
                } else {
                    vexp::avx2::exp4(x)
                };
                _mm256_storeu_pd(ptr, e);
            }
            // The tail's `exp_poly` resolves the same flavor.
            for v in &mut xs[4 * blocks..] {
                *v = vexp::exp_poly(*v);
            }
        },
        _ => {
            #[cfg(target_arch = "x86_64")]
            if vexp::fma_supported() {
                // SAFETY: the cached feature probe just succeeded.
                unsafe { vexp::exp_slice_fused(xs) }
                return;
            }
            for v in xs.iter_mut() {
                *v = vexp::exp_poly_core::<false>(*v);
            }
        }
    }
}

/// Rounds `m` up to the next multiple of 4 — the padded width the AVX2
/// RBF kernel operates on (at least one block, so `m = 0` pads to 4).
pub fn padded_width(m: usize) -> usize {
    m.max(1).div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernels available on this machine (scalar always; AVX2 when the
    /// CPU supports it). Unit tests sweep this so the suite still
    /// passes — scalar-only — on hardware without AVX2.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if avx2_supported() {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    #[test]
    fn squared_distance_matches_across_kernels_and_tails() {
        for len in 0..13usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos()).collect();
            let want = squared_distance(Kernel::Scalar, &a, &b);
            for k in kernels() {
                let got = squared_distance(k, &a, &b);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} kernel {k:?}");
            }
        }
    }

    #[test]
    fn squared_distance_propagates_non_finite_values() {
        let a = [f64::INFINITY, 0.0, 1.0, 2.0, 3.0];
        let b = [0.0, f64::NAN, 1.0, 2.0, 3.0];
        for k in kernels() {
            assert!(squared_distance(k, &a, &b).is_nan(), "kernel {k:?}");
        }
        let a = [f64::INFINITY, 0.0];
        let b = [0.0, 0.0];
        for k in kernels() {
            assert_eq!(squared_distance(k, &a, &b), f64::INFINITY);
        }
    }

    #[test]
    fn arenas_wider_than_the_rows_are_rejected() {
        let leaf = FlatTree::LEAF;
        let parts = || (vec![3, leaf, leaf], vec![0.5, 0.0, 1.0], vec![2, 1, 2]);
        let (f, v, r) = parts();
        assert!(FlatTree::from_parts(f, v, r, 3).is_err());
        let (f, v, r) = parts();
        let tree = FlatTree::from_parts(f, v, r, 4).expect("valid for m = 4");
        assert!(crate::RandomForest::from_arenas(vec![tree.clone()], 4).is_ok());
        assert!(crate::RandomForest::from_arenas(vec![tree.clone()], 2).is_err());
        assert!(crate::Gbdt::from_arenas(0.0, 0.1, vec![tree.clone()], 2).is_err());
        for k in kernels() {
            let walk = std::panic::catch_unwind(|| {
                let mut acc = vec![0.0f64; 8];
                accumulate_tree(k, &tree, &[0.0; 16], 2, &mut acc);
            });
            assert!(walk.is_err(), "{k:?} walked a 4-wide tree over 2-wide rows");
        }
    }

    #[test]
    fn padded_width_rounds_up_to_blocks() {
        assert_eq!(padded_width(0), 4);
        assert_eq!(padded_width(1), 4);
        assert_eq!(padded_width(4), 4);
        assert_eq!(padded_width(5), 8);
        assert_eq!(padded_width(12), 12);
    }

    #[test]
    fn override_forces_the_scalar_kernel() {
        set_kernel(Some(Kernel::Scalar));
        assert_eq!(active(), Kernel::Scalar);
        set_kernel(None);
        if avx2_supported() {
            set_kernel(Some(Kernel::Avx2));
            assert_eq!(active(), Kernel::Avx2);
            set_kernel(None);
        }
    }
}
