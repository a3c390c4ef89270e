//! AVX2 kernels (stable `std::arch`, runtime-dispatched).
//!
//! # Safety
//!
//! Every function here is `#[target_feature(enable = "avx2")]` and must
//! only be entered after [`super::avx2_supported`] returned `true` —
//! the dispatcher in [`super`] guarantees that. The tree kernels read
//! memory through gathered indices; [`FlatTree`]'s construction-time
//! validation (children strictly forward and in-bounds, features
//! `< m`, leaves self-looping) bounds every such index, so the gathers
//! stay inside the arena and the per-row buffers. The bit walk over
//! [`PerfectTrees`] reads columns at features `< m` (the form's width
//! is checked against `m`) and gathers one leaf at an index the walk
//! keeps inside the tree's `2^D` leaves.

use std::arch::x86_64::*;

use super::perfect::Split;
use super::{FlatTree, PerfectTrees};

/// Rows traversed per vector group.
const GROUP: usize = 4;

/// One traversal step for a 4-row group: gathers the per-lane node
/// fields, evaluates `x[feature] <= threshold` (`_CMP_LE_OQ`, matching
/// scalar `<=` including NaN-goes-right), and advances non-leaf lanes.
/// Leaf lanes are parked (index preserved). Returns the new index
/// vector and whether every lane has reached a leaf.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `idx` holds in-arena node
/// indices, and `offs + feature` stays inside `rows` for every lane —
/// guaranteed by [`FlatTree`] validation and the caller's row layout.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn step4(
    feature: *const i32,
    value: *const f64,
    right: *const i32,
    rows: *const f64,
    offs: __m256i,
    idx: __m256i,
) -> (__m256i, bool) {
    let leaf_marker = _mm_set1_epi32(FlatTree::LEAF as i32);
    // Per-lane node fields.
    let feat = _mm256_i64gather_epi32::<4>(feature, idx);
    let leaf32 = _mm_cmpeq_epi32(feat, leaf_marker);
    if _mm_movemask_epi8(leaf32) == 0xFFFF {
        return (idx, true);
    }
    let thr = _mm256_i64gather_pd::<8>(value, idx);
    // Leaf lanes read feature 0 (always in range) — their advance is
    // discarded by the final blend, the gather just has to be safe.
    let feat_safe = _mm_andnot_si128(leaf32, feat);
    let x_index = _mm256_add_epi64(_mm256_cvtepi32_epi64(feat_safe), offs);
    let xv = _mm256_i64gather_pd::<8>(rows, x_index);
    let le = _mm256_cmp_pd::<_CMP_LE_OQ>(xv, thr);
    // Child selection: left child is implicitly `idx + 1`.
    let left = _mm256_add_epi64(idx, _mm256_set1_epi64x(1));
    let right_child = _mm256_cvtepu32_epi64(_mm256_i64gather_epi32::<4>(right, idx));
    let advanced = _mm256_blendv_epi8(right_child, left, _mm256_castpd_si256(le));
    let leaf64 = _mm256_cvtepi32_epi64(leaf32);
    (_mm256_blendv_epi8(advanced, idx, leaf64), false)
}

/// Adds the leaf values at `idx` into `acc[base..base + 4]`.
///
/// # Safety
///
/// AVX2 must be available; `idx` lanes must hold leaf indices inside
/// the arena and `acc` must hold at least `base + 4` elements.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn deposit4(value: *const f64, idx: __m256i, acc: &mut [f64], base: usize) {
    let leaves = _mm256_i64gather_pd::<8>(value, idx);
    let slot = acc.as_mut_ptr().add(base);
    _mm256_storeu_pd(slot, _mm256_add_pd(_mm256_loadu_pd(slot), leaves));
}

/// Row offsets (`row · m`) for the group starting at `base`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn offsets4(base: usize, m: usize) -> __m256i {
    _mm256_set_epi64x(
        ((base + 3) * m) as i64,
        ((base + 2) * m) as i64,
        ((base + 1) * m) as i64,
        (base * m) as i64,
    )
}

/// Groups advanced in lockstep by the main loop of [`accumulate_tree`].
/// Four independent traversal chains keep enough gathers in flight to
/// hide their latency; six and eight measured no faster.
const IN_FLIGHT: usize = 4;

/// Walks the `G` consecutive 4-row groups starting at row `base` to
/// their leaves in lockstep — one [`step4`] per unfinished group per
/// round, so the groups' gathers overlap — then adds each group's leaf
/// values into `acc`.
///
/// # Safety
///
/// As [`accumulate_tree`], plus `base + G · 4 <= acc.len()`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn walk_groups<const G: usize>(
    tree: &FlatTree,
    rows: *const f64,
    m: usize,
    acc: &mut [f64],
    base: usize,
) {
    let feature = tree.feature.as_ptr() as *const i32;
    let value = tree.value.as_ptr();
    let right = tree.right.as_ptr() as *const i32;
    let mut offs = [_mm256_setzero_si256(); G];
    for (g, o) in offs.iter_mut().enumerate() {
        *o = offsets4(base + g * GROUP, m);
    }
    let mut idx = [_mm256_setzero_si256(); G];
    let mut done = [false; G];
    while done.contains(&false) {
        for g in 0..G {
            if !done[g] {
                (idx[g], done[g]) = step4(feature, value, right, rows, offs[g], idx[g]);
            }
        }
    }
    for (g, &i) in idx.iter().enumerate() {
        deposit4(value, i, acc, base + g * GROUP);
    }
}

/// Gather-based 4-wide tree traversal, [`IN_FLIGHT`] groups (16 rows)
/// in lockstep; the last < 16 rows run as a pair of groups, then one
/// group, then the scalar walk. Bit-identical to the scalar walk: the
/// same predicate picks the same leaf for every row, and each row's
/// leaf value is added to its own accumulator exactly once.
///
/// # Safety
///
/// AVX2 must be available (dispatcher-probed); `rows.len() == acc.len() * m`
/// with `m > 0`, and `tree` must satisfy the [`FlatTree`] invariants.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn accumulate_tree(tree: &FlatTree, rows: &[f64], m: usize, acc: &mut [f64]) {
    let rows_ptr = rows.as_ptr();
    let n = acc.len();
    let mut base = 0usize;
    while base + IN_FLIGHT * GROUP <= n {
        walk_groups::<IN_FLIGHT>(tree, rows_ptr, m, acc, base);
        base += IN_FLIGHT * GROUP;
    }
    if base + 2 * GROUP <= n {
        walk_groups::<2>(tree, rows_ptr, m, acc, base);
        base += 2 * GROUP;
    }
    if base + GROUP <= n {
        walk_groups::<1>(tree, rows_ptr, m, acc, base);
        base += GROUP;
    }
    // Remainder rows (n % 4): the scalar walk is exact, so mixing it in
    // changes no bits.
    for (lane, slot) in acc[base..].iter_mut().enumerate() {
        let row = &rows[(base + lane) * m..(base + lane + 1) * m];
        *slot += tree.predict(row);
    }
}

/// Rows per transposed block of [`accumulate_perfect`]: with `m = 12`
/// the block's columns take 12 KiB, which stay in L1 across the trees.
const BLOCK: usize = 128;

/// 4-row groups evaluated together by [`walk_perfect`]: each split's
/// threshold and bit are broadcast once for 32 rows. On a 2-core AVX2
/// Xeon, one thread predicting 65 536 rows with a 150-tree depth-4
/// GBDT took 36–42 ms with 2 groups, 24–28 ms with 4, 20–22 ms with 8
/// and 23–26 ms with 16, whose masks no longer fit the registers.
const PERFECT_GROUPS: usize = 8;

// Whole runs tile a block, so a padded block stays inside its columns.
const _: () = assert!(BLOCK.is_multiple_of(PERFECT_GROUPS * GROUP));

/// Adds the leaves that `G` consecutive 4-row groups reach in one tree
/// of the perfect-tree form into `sums[..4G]`. Every real split is
/// evaluated for all rows from contiguous column loads
/// (`!(x <= threshold)` as `_CMP_NLE_UQ`, so NaN goes right) and ORed
/// into each row's mask at the split's slot; then `depth` steps of
/// `i = 2i + bit(i)` and one leaf gather per group.
///
/// # Safety
///
/// AVX2 must be available; `cols` must hold `feature · BLOCK + 4G`
/// readable values for every split's feature, `sums` `4G` writable
/// ones, and `leaves` `2^depth` values. Whatever the masks hold, `depth`
/// steps of `i = 2i + bit` from `i = 1` end in `[2^depth, 2^(depth+1))`,
/// so the gather at `i − 2^depth` stays in `leaves`.
#[target_feature(enable = "avx2")]
#[inline]
// Index loops over the constant `G` unroll into registers; zipped
// iterators over the same arrays were left as calls, which spilled the
// masks to the stack.
#[allow(clippy::needless_range_loop)]
unsafe fn walk_perfect<const G: usize>(
    splits: &[Split],
    leaves: *const f64,
    depth: u32,
    cols: *const f64,
    sums: *mut f64,
) {
    let mut mask = [_mm256_setzero_si256(); G];
    for s in splits {
        let threshold = _mm256_set1_pd(s.threshold);
        let bit = _mm256_set1_epi64x(s.bit as i64);
        let col = cols.add(s.feature as usize * BLOCK);
        for g in 0..G {
            let x = _mm256_loadu_pd(col.add(GROUP * g));
            let right = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_NLE_UQ>(x, threshold));
            mask[g] = _mm256_or_si256(mask[g], _mm256_and_si256(right, bit));
        }
    }
    let one = _mm256_set1_epi64x(1);
    // `i & 63` is `i` (below `2^depth <= 64` until the walk ends); it
    // tells the compiler that no shift count reaches 64, which spares a
    // compare and a blend per step.
    let low = _mm256_set1_epi64x(63);
    let mut i = [one; G];
    for _ in 0..depth {
        for g in 0..G {
            let count = _mm256_and_si256(i[g], low);
            let bit = _mm256_and_si256(_mm256_srlv_epi64(mask[g], count), one);
            i[g] = _mm256_or_si256(_mm256_add_epi64(i[g], i[g]), bit);
        }
    }
    let first = _mm256_set1_epi64x(1i64 << depth);
    for g in 0..G {
        let leaf = _mm256_i64gather_pd::<8>(leaves, _mm256_sub_epi64(i[g], first));
        let slot = sums.add(GROUP * g);
        _mm256_storeu_pd(slot, _mm256_add_pd(_mm256_loadu_pd(slot), leaf));
    }
}

/// Adds every tree's prediction into `acc`, in tree order, by the bit
/// walk of [`PerfectTrees`]. Each block of [`BLOCK`] rows is transposed
/// into `scratch` (its columns, then its running sums, padded with
/// zeros to whole runs of [`PERFECT_GROUPS`] groups, whose padded sums
/// are never read back), and every tree walks the block before the
/// next block starts. Each row adds the leaf [`FlatTree::predict`]
/// reaches, tree after tree, onto its own accumulator, so the sums are
/// bit-identical to the arena walk.
///
/// # Safety
///
/// AVX2 must be available (dispatcher-probed); `rows.len() ==
/// acc.len() * m` with `form.width <= m`, and `form` must satisfy the
/// [`PerfectTrees`] invariants (`2^depth` leaves per tree, split
/// features below its width), which its construction establishes.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn accumulate_perfect(
    form: &PerfectTrees,
    rows: &[f64],
    m: usize,
    acc: &mut [f64],
    scratch: &mut Vec<f64>,
) {
    const RUN: usize = PERFECT_GROUPS * GROUP;
    scratch.resize((m + 1) * BLOCK, 0.0);
    let (cols, sums) = scratch.split_at_mut(m * BLOCK);
    for (block, acc) in rows.chunks(BLOCK * m).zip(acc.chunks_mut(BLOCK)) {
        let n = acc.len();
        let padded = n.next_multiple_of(RUN);
        for (r, row) in block.chunks_exact(m).enumerate() {
            for (f, &v) in row.iter().enumerate() {
                cols[f * BLOCK + r] = v;
            }
        }
        for f in 0..m {
            cols[f * BLOCK + n..f * BLOCK + padded].fill(0.0);
        }
        sums[..n].copy_from_slice(acc);
        sums[n..padded].fill(0.0);
        for t in 0..form.n_trees() {
            let (splits, leaves) = form.tree(t);
            for run in (0..padded).step_by(RUN) {
                walk_perfect::<PERFECT_GROUPS>(
                    splits,
                    leaves.as_ptr(),
                    form.depth,
                    cols.as_ptr().add(run),
                    sums.as_mut_ptr().add(run),
                );
            }
        }
        acc.copy_from_slice(&sums[..n]);
    }
}

/// Canonical squared distance with tail handling — vector blocks plus a
/// scalar tail writing the same lane accumulators, combined in the
/// contract order `(l0 + l2) + (l1 + l3)`.
///
/// # Safety
///
/// AVX2 must be available; `a.len() == b.len()` (dispatcher-checked).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    let blocks = a.len() / 4;
    let mut acc = _mm256_setzero_pd();
    for k in 0..blocks {
        let va = _mm256_loadu_pd(a.as_ptr().add(4 * k));
        let vb = _mm256_loadu_pd(b.as_ptr().add(4 * k));
        let d = _mm256_sub_pd(va, vb);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    let tail = 4 * blocks;
    if tail < a.len() {
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), acc);
        for lane in 0..a.len() - tail {
            let d = a[tail + lane] - b[tail + lane];
            l[lane] += d * d;
        }
        return (l[0] + l[2]) + (l[1] + l[3]);
    }
    horizontal(acc)
}

/// `(l0 + l2) + (l1 + l3)` — the contract's horizontal combine.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn horizontal(acc: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let pair = _mm_add_pd(lo, hi); // (l0 + l2, l1 + l3)
    _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
}

/// One distance step, flavored: `d2 + (xj − sv)²` as a fused
/// multiply-add or a mul + add pair.
///
/// # Safety
///
/// AVX2 must be enabled in the calling context; `FMA = true`
/// additionally requires the `fma` feature.
#[inline(always)]
unsafe fn d2_step<const FMA: bool>(d2: __m256d, xj: __m256d, sv: __m256d) -> __m256d {
    let d = _mm256_sub_pd(xj, sv);
    if FMA {
        _mm256_fmadd_pd(d, d, d2)
    } else {
        _mm256_add_pd(d2, _mm256_mul_pd(d, d))
    }
}

/// Flavored coefficient accumulation `acc + c·e`.
///
/// # Safety
///
/// Same feature requirements as [`d2_step`].
#[inline(always)]
unsafe fn coef_step<const FMA: bool>(acc: __m256d, c: __m256d, e: __m256d) -> __m256d {
    if FMA {
        _mm256_fmadd_pd(c, e, acc)
    } else {
        _mm256_add_pd(acc, _mm256_mul_pd(c, e))
    }
}

/// RBF expansion over lane-interleaved support-vector panels: the
/// distance accumulation, the `−γ·d²` scaling, the polynomial `exp`,
/// and the coefficient multiply-accumulate all stay in one 256-bit
/// register per panel of 4 support vectors — no scalar `exp` call ever
/// interrupts the loop. Mirrors the scalar panel loop operation for
/// operation, flavor for flavor (see [`super::rbf_expand`] for the
/// contract).
///
/// # Safety
///
/// AVX2 (plus FMA when `FMA = true`) must be enabled in the calling
/// context; buffer shapes are dispatcher-checked
/// (`svs.len() == coef.len() * m_pad`, `coef.len() % 4 == 0`,
/// `m_pad % 4 == 0`, `rows.len() == out.len() * m`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn rbf_expand_core<const FMA: bool>(
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
) {
    let neg_gamma = _mm256_set1_pd(-gamma);
    let n_panels = coef.len() / 4;
    for (slot, row) in out.iter_mut().zip(rows.chunks_exact(m.max(1))) {
        // The query row is read in place: only the m real dimensions
        // participate (the padded tail is a bitwise no-op per the
        // contract), so no padded scratch copy exists.
        let x = row.as_ptr();
        let mut acc = _mm256_setzero_pd();
        let mut panel = svs.as_ptr();
        let mut p = 0usize;
        // Four panels in flight with one merged dimension loop: each
        // broadcast of x[j] feeds all four panels, and the serial
        // latency chains that bound a single panel (the d² accumulation,
        // the Horner chain inside the exp) are independent across
        // panels, so running four overlaps them toward the machine's FP
        // throughput limit. The accumulator updates stay in panel
        // order, so results are unchanged down to the bit vs the
        // one-panel-at-a-time loop the scalar path runs.
        while p + 4 <= n_panels {
            let p1 = panel.add(4 * m_pad);
            let p2 = panel.add(8 * m_pad);
            let p3 = panel.add(12 * m_pad);
            let mut d0 = _mm256_setzero_pd();
            let mut d1 = _mm256_setzero_pd();
            let mut d2 = _mm256_setzero_pd();
            let mut d3 = _mm256_setzero_pd();
            for j in 0..m {
                let xj = _mm256_set1_pd(*x.add(j));
                d0 = d2_step::<FMA>(d0, xj, _mm256_loadu_pd(panel.add(4 * j)));
                d1 = d2_step::<FMA>(d1, xj, _mm256_loadu_pd(p1.add(4 * j)));
                d2 = d2_step::<FMA>(d2, xj, _mm256_loadu_pd(p2.add(4 * j)));
                d3 = d2_step::<FMA>(d3, xj, _mm256_loadu_pd(p3.add(4 * j)));
            }
            let e0 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d0));
            let e1 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d1));
            let e2 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d2));
            let e3 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d3));
            let c = coef.as_ptr().add(4 * p);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c), e0);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c.add(4)), e1);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c.add(8)), e2);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c.add(12)), e3);
            panel = panel.add(16 * m_pad);
            p += 4;
        }
        // Remainder panels in pairs, then one: still overlapped where
        // possible, still in panel order.
        if p + 2 <= n_panels {
            let p1 = panel.add(4 * m_pad);
            let mut d0 = _mm256_setzero_pd();
            let mut d1 = _mm256_setzero_pd();
            for j in 0..m {
                let xj = _mm256_set1_pd(*x.add(j));
                d0 = d2_step::<FMA>(d0, xj, _mm256_loadu_pd(panel.add(4 * j)));
                d1 = d2_step::<FMA>(d1, xj, _mm256_loadu_pd(p1.add(4 * j)));
            }
            let e0 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d0));
            let e1 = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d1));
            let c = coef.as_ptr().add(4 * p);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c), e0);
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(c.add(4)), e1);
            panel = panel.add(8 * m_pad);
            p += 2;
        }
        if p < n_panels {
            let d = panel_d2::<FMA>(x, panel, m);
            let e = super::vexp::avx2::exp4_core::<FMA>(_mm256_mul_pd(neg_gamma, d));
            acc = coef_step::<FMA>(acc, _mm256_loadu_pd(coef.as_ptr().add(4 * p)), e);
        }
        *slot = bias + horizontal(acc);
    }
}

/// Plain-flavor RBF expansion (hardware without FMA).
///
/// # Safety
///
/// AVX2 must be available; shapes dispatcher-checked (see
/// [`rbf_expand_core`]).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn rbf_expand(
    svs: &[f64],
    coef: &[f64],
    bias: f64,
    gamma: f64,
    m_pad: usize,
    rows: &[f64],
    m: usize,
    out: &mut [f64],
) {
    rbf_expand_core::<false>(svs, coef, bias, gamma, m_pad, rows, m, out)
}

/// Fused-flavor RBF expansion.
///
/// # Safety
///
/// AVX2 **and** FMA must be available; shapes dispatcher-checked (see
/// [`rbf_expand_core`]).
#[target_feature(enable = "avx2", enable = "fma")]
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
    rbf_expand_core::<true>(svs, coef, bias, gamma, m_pad, rows, m, out)
}

/// `−γ`-ready squared distances of one lane-interleaved panel against
/// the query row's `m` real dimensions: lane `l` accumulates panel
/// member `l`'s d² dimension-sequentially, exactly like the scalar
/// panel loop.
///
/// # Safety
///
/// AVX2 (plus FMA when `FMA = true`) must be enabled in the calling
/// context; `x` must hold `m` readable values and `panel` must hold at
/// least `4 · m`.
#[inline(always)]
unsafe fn panel_d2<const FMA: bool>(x: *const f64, panel: *const f64, m: usize) -> __m256d {
    let mut d2 = _mm256_setzero_pd();
    for j in 0..m {
        let xj = _mm256_set1_pd(*x.add(j));
        d2 = d2_step::<FMA>(d2, xj, _mm256_loadu_pd(panel.add(4 * j)));
    }
    d2
}

/// Squashes accumulated GBDT margins into probabilities in place, 4
/// lanes at a time through the polynomial `exp`; the remainder runs the
/// scalar loop, which is element-wise identical. The margin step stays
/// a plain mul + add in every flavor (matching per-point
/// `Gbdt::margin`); only the `exp` internals are flavored.
///
/// # Safety
///
/// AVX2 (plus FMA when `FMA = true`) must be enabled in the calling
/// context.
#[inline(always)]
unsafe fn sigmoid_margins_core<const FMA: bool>(
    base: f64,
    eta: f64,
    acc: &mut [f64],
    tail: fn(f64, f64, &mut [f64]),
) {
    let base_v = _mm256_set1_pd(base);
    let eta_v = _mm256_set1_pd(eta);
    let one = _mm256_set1_pd(1.0);
    let sign = _mm256_set1_pd(-0.0);
    let blocks = acc.len() / 4;
    for k in 0..blocks {
        let ptr = acc.as_mut_ptr().add(4 * k);
        let v = _mm256_loadu_pd(ptr);
        let z = _mm256_add_pd(base_v, _mm256_mul_pd(eta_v, v));
        // `−z` is a sign-bit flip in IEEE, exactly like scalar negation.
        let e = super::vexp::avx2::exp4_core::<FMA>(_mm256_xor_pd(z, sign));
        _mm256_storeu_pd(ptr, _mm256_div_pd(one, _mm256_add_pd(one, e)));
    }
    tail(base, eta, &mut acc[4 * blocks..]);
}

/// Plain-flavor sigmoid squash.
///
/// # Safety
///
/// AVX2 must be available (dispatcher-probed).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn sigmoid_margins(base: f64, eta: f64, acc: &mut [f64]) {
    sigmoid_margins_core::<false>(base, eta, acc, |base, eta, tail| {
        super::scalar::sigmoid_margins(base, eta, tail, super::vexp::exp_poly_core::<false>)
    });
}

/// Fused-flavor sigmoid squash.
///
/// # Safety
///
/// AVX2 **and** FMA must be available (dispatcher-probed).
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sigmoid_margins_fused(base: f64, eta: f64, acc: &mut [f64]) {
    sigmoid_margins_core::<true>(base, eta, acc, |base, eta, tail| {
        // SAFETY: this closure only runs from the fma-enabled wrapper.
        unsafe { super::scalar::sigmoid_margins_fused(base, eta, tail) }
    });
}
