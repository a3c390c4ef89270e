//! Portable scalar kernels — the bit-identity reference.
//!
//! The tree walk keeps the 64-lane software-interleaved scheme of the
//! presorted-engine PR (independent rows advance round-robin so their
//! node loads overlap), now over the structure-of-arrays [`FlatTree`];
//! the RBF reduction implements the canonical 4-lane order documented
//! on [`super::squared_distance`]. These are real production kernels —
//! the only ones off `x86_64` — not a slow oracle.

use super::FlatTree;

/// Adds `tree`'s prediction for every row into `acc` (shapes already
/// checked by the dispatcher).
pub(super) fn accumulate_tree(tree: &FlatTree, rows: &[f64], m: usize, acc: &mut [f64]) {
    const LANES: usize = 64;
    let (feature, value, right) = (&tree.feature[..], &tree.value[..], &tree.right[..]);
    let mut base = 0usize;
    while base < acc.len() {
        let k = LANES.min(acc.len() - base);
        let mut idx = [0u32; LANES];
        let mut off = [0usize; LANES];
        for (lane, o) in off.iter_mut().enumerate().take(k) {
            *o = (base + lane) * m;
        }
        // One bit per lane still walking; cleared on leaf arrival.
        let mut live: u64 = if k == LANES {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };
        while live != 0 {
            let mut scan = live;
            while scan != 0 {
                let lane = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                let i = idx[lane] as usize;
                let f = feature[i];
                if f == FlatTree::LEAF {
                    acc[base + lane] += value[i];
                    live &= !(1u64 << lane);
                } else {
                    let xv = rows[off[lane] + f as usize];
                    idx[lane] = if xv <= value[i] {
                        idx[lane] + 1
                    } else {
                        right[i]
                    };
                }
            }
        }
        base += k;
    }
}

/// Canonical 4-lane squared distance (see [`super::squared_distance`]
/// for the reduction-order contract).
pub(super) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut l = [0.0f64; 4];
    let mut j = 0usize;
    while j + 4 <= a.len() {
        for (lane, acc) in l.iter_mut().enumerate() {
            let d = a[j + lane] - b[j + lane];
            *acc += d * d;
        }
        j += 4;
    }
    for lane in 0..a.len() - j {
        let d = a[j + lane] - b[j + lane];
        l[lane] += d * d;
    }
    (l[0] + l[2]) + (l[1] + l[3])
}

/// RBF expansion over the lane-interleaved support-vector panels (see
/// [`super::rbf_expand`] for the layout and reduction contract),
/// generic over the arithmetic flavor. One panel = 4 support vectors;
/// lane `l` of the distance/accumulator arrays tracks panel member
/// `l`, exactly like one 256-bit register in the AVX2 path — every
/// multiply-accumulate (fused or plain, per the flavor) lands in the
/// same order. Only the `m` real dimensions are visited: the padded
/// tail is a bitwise no-op by the contract, so the query row is read
/// in place with no padded scratch copy. `E` selects the exp
/// implementation (canonical polynomial, or libm for the
/// `REDS_EXP=libm` escape hatch).
///
/// `FMA = true` instantiations must only run inside an
/// `#[target_feature(enable = "fma")]` context (see
/// [`rbf_expand_fused`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rbf_expand_body<const FMA: bool, E: Fn(f64) -> f64>(
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
    exp: E,
) {
    let neg_gamma = -gamma;
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(m.max(1))) {
        let mut acc = [0.0f64; 4];
        for (cp, panel) in coef.chunks_exact(4).zip(svs.chunks_exact(4 * m_pad)) {
            let mut d2 = [0.0f64; 4];
            for (j, &xj) in row.iter().enumerate() {
                for (lane, l) in d2.iter_mut().enumerate() {
                    let d = xj - panel[4 * j + lane];
                    *l = if FMA { d.mul_add(d, *l) } else { *l + d * d };
                }
            }
            for (lane, l) in acc.iter_mut().enumerate() {
                let e = exp(neg_gamma * d2[lane]);
                *l = if FMA {
                    cp[lane].mul_add(e, *l)
                } else {
                    *l + cp[lane] * e
                };
            }
        }
        *slot = bias + ((acc[0] + acc[2]) + (acc[1] + acc[3]));
    }
}

/// Plain-flavor RBF panel loop — the libm escape hatch and hardware
/// without FMA.
#[allow(clippy::too_many_arguments)]
pub(super) fn rbf_expand<E: Fn(f64) -> f64>(
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
    exp: E,
) {
    rbf_expand_body::<false, E>(svs, coef, bias, gamma, m_pad, rows, m, out, exp)
}

/// Fused-flavor RBF panel loop with the fused polynomial `exp`,
/// compiled with hardware FMA.
///
/// # Safety
///
/// The `fma` feature must be available (dispatcher-probed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn rbf_expand_fused(
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
) {
    rbf_expand_body::<true, _>(
        svs,
        coef,
        bias,
        gamma,
        m_pad,
        rows,
        m,
        out,
        super::vexp::exp_poly_core::<true>,
    )
}

/// Squashes accumulated GBDT margins into probabilities in place:
/// `v ← 1 / (1 + exp(−(base + eta·v)))`. The margin step is a plain
/// mul + add in **every** flavor — per-point `Gbdt::margin` computes
/// `base + eta·Σ` with plain ops, and per-point ≡ batch bit-identity
/// is part of the contract; only the `exp` internals are flavored.
/// Element-wise — the AVX2 path performs the identical op sequence 4
/// lanes at a time, so remainder handling there can reuse this loop
/// bit-identically.
pub(super) fn sigmoid_margins<E: Fn(f64) -> f64>(base: f64, eta: f64, acc: &mut [f64], exp: E) {
    for v in acc.iter_mut() {
        let z = base + eta * *v;
        *v = 1.0 / (1.0 + exp(-z));
    }
}

/// [`sigmoid_margins`] with the fused polynomial `exp`, compiled with
/// hardware FMA (the margin step stays unfused — see above).
///
/// # Safety
///
/// The `fma` feature must be available (dispatcher-probed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
pub(super) unsafe fn sigmoid_margins_fused(base: f64, eta: f64, acc: &mut [f64]) {
    sigmoid_margins(base, eta, acc, super::vexp::exp_poly_core::<true>)
}
