//! Property-based tests of the metamodel substrate: predictions stay in
//! range, training tolerates degenerate data, determinism under seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reds::data::Dataset;
use reds::metamodel::{
    Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, RegressionTree, Svm, SvmParams,
    TreeParams,
};

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..4, 20usize..80).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec(0.0f64..1.0, n * m),
            prop::collection::vec(prop::bool::ANY, n),
            Just(m),
        )
            .prop_map(|(points, labels, m)| {
                let labels = labels
                    .into_iter()
                    .map(|b| if b { 1.0 } else { 0.0 })
                    .collect();
                Dataset::new(points, labels, m).expect("valid shape")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_predictions_interpolate_the_label_range(d in dataset_strategy()) {
        let mut rng = StdRng::seed_from_u64(1);
        let idx: Vec<usize> = (0..d.n()).collect();
        let tree = RegressionTree::fit(
            d.points(),
            d.labels(),
            d.m(),
            &idx,
            &TreeParams::default(),
            &mut rng,
        );
        // Leaf values are means of 0/1 labels: always inside [0, 1].
        for (x, _) in d.iter() {
            let p = tree.predict(x);
            prop_assert!((0.0..=1.0).contains(&p), "tree prediction {}", p);
        }
    }

    #[test]
    fn unlimited_tree_memorises_distinct_points(d in dataset_strategy()) {
        // With min_samples_leaf = 1 and unlimited depth, a tree fitted on
        // points with distinct coordinates reproduces its training labels.
        let mut rng = StdRng::seed_from_u64(2);
        let idx: Vec<usize> = (0..d.n()).collect();
        let tree = RegressionTree::fit(
            d.points(),
            d.labels(),
            d.m(),
            &idx,
            &TreeParams { max_depth: 64, ..Default::default() },
            &mut rng,
        );
        // Points can collide by construction; only check rows whose
        // coordinates are unique in the dataset.
        'rows: for i in 0..d.n() {
            for j in 0..d.n() {
                if i != j && d.point(i) == d.point(j) {
                    continue 'rows;
                }
            }
            prop_assert!((tree.predict(d.point(i)) - d.label(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn forest_predictions_are_probabilities(d in dataset_strategy()) {
        let mut rng = StdRng::seed_from_u64(3);
        let params = RandomForestParams { n_trees: 15, ..Default::default() };
        let forest = RandomForest::fit(&d, &params, &mut rng);
        for (x, _) in d.iter() {
            let p = forest.predict(x);
            prop_assert!((0.0..=1.0).contains(&p), "forest prediction {}", p);
        }
    }

    #[test]
    fn gbdt_predictions_are_probabilities(d in dataset_strategy()) {
        let mut rng = StdRng::seed_from_u64(4);
        let params = GbdtParams { n_rounds: 10, ..Default::default() };
        let model = Gbdt::fit(&d, &params, &mut rng);
        for (x, _) in d.iter() {
            let p = model.predict(x);
            prop_assert!((0.0..=1.0).contains(&p), "gbdt prediction {}", p);
        }
    }

    #[test]
    fn svm_predictions_are_hard_labels(d in dataset_strategy()) {
        let mut rng = StdRng::seed_from_u64(5);
        let params = SvmParams { max_iter: 30, ..Default::default() };
        let svm = Svm::fit(&d, &params, &mut rng);
        for (x, _) in d.iter() {
            let p = svm.predict(x);
            prop_assert!(p == 0.0 || p == 1.0, "svm prediction {}", p);
        }
    }

    #[test]
    fn forest_is_deterministic_under_seed(d in dataset_strategy()) {
        let params = RandomForestParams { n_trees: 8, ..Default::default() };
        let a = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(6));
        let b = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(6));
        let x = vec![0.5; d.m()];
        prop_assert_eq!(a.predict(&x), b.predict(&x));
    }
}

// ---------------------------------------------------------------------
// Kernel bit-equivalence: the scalar and SIMD backends in
// `reds::metamodel::kernels` must agree to the exact bit on every
// input shape — unaligned batch sizes, remainder lanes (`len % 4 ≠ 0`),
// non-finite feature values, and degenerate trees. These drive the
// kernels through their explicit-`Kernel` entry points, so they are
// free of global dispatch state and run under the parallel harness.
// ---------------------------------------------------------------------

use reds::metamodel::kernels::{self, Kernel};

/// Every kernel this machine can execute (scalar always; AVX2 when the
/// CPU has it — on scalar-only hardware the suite degenerates to
/// scalar-vs-scalar and still validates the per-point reference).
fn available_kernels() -> Vec<Kernel> {
    let mut ks = vec![Kernel::Scalar];
    if kernels::avx2_supported() {
        ks.push(Kernel::Avx2);
    }
    ks
}

/// A query value that may be an ordinary coordinate or a traversal
/// stress case (±∞ / NaN, exact threshold hits).
fn query_value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 0.0f64..1.0,
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::NAN),
        1 => Just(0.5f64), // likely exact threshold tie
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_kernels_agree_bitwise_with_per_point_reference(
        d in dataset_strategy(),
        query in prop::collection::vec(query_value_strategy(), 70 * 3),
        starts in prop::collection::vec(-4.0f64..4.0, 70),
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let idx: Vec<usize> = (0..d.n()).collect();
        let tree = RegressionTree::fit(
            d.points(),
            d.labels(),
            d.m(),
            &idx,
            &TreeParams::default(),
            &mut rng,
        );
        let m = d.m();
        // Every batch size up to 70 rows: several full 16-row blocks of
        // the AVX2 kernel and every remainder mod 16. The accumulators
        // start non-zero, so a kernel that overwrites instead of adding
        // fails.
        for rows in 0..=70 {
            let query = &query[..rows * m];
            // Reference: the scalar per-point walk, added to the start.
            let expected: Vec<f64> = query
                .chunks_exact(m)
                .zip(&starts)
                .map(|(x, s)| s + tree.flat().predict(x))
                .collect();
            for kernel in available_kernels() {
                let mut acc = starts[..rows].to_vec();
                kernels::accumulate_tree(kernel, tree.flat(), query, m, &mut acc);
                for (i, (a, e)) in acc.iter().zip(&expected).enumerate() {
                    prop_assert!(
                        a.to_bits() == e.to_bits(),
                        "{:?} rows {} row {}: {} vs {}", kernel, rows, i, a, e
                    );
                }
            }
        }
    }

    #[test]
    fn squared_distance_kernels_agree_bitwise(
        len in 0usize..21,
        raw in prop::collection::vec((query_value_strategy(), query_value_strategy()), 21),
    ) {
        let a: Vec<f64> = raw.iter().take(len).map(|p| p.0).collect();
        let b: Vec<f64> = raw.iter().take(len).map(|p| p.1).collect();
        let want = kernels::squared_distance(Kernel::Scalar, &a, &b);
        for kernel in available_kernels() {
            let got = kernels::squared_distance(kernel, &a, &b);
            // NaN results must be NaN everywhere, but their payload
            // bits are compiler-unspecified (see the kernel docs); all
            // other results are bit-exact.
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{:?} len {}: {} vs {}", kernel, len, got, want
            );
        }
    }

    #[test]
    fn rbf_expansion_kernels_agree_bitwise(
        m in 1usize..9,
        n_sv in 0usize..6,
        rows in 0usize..7,
        values in prop::collection::vec(-1.0f64..1.0, 6 * 9 + 7 * 9 + 6),
        gamma in 0.1f64..4.0,
    ) {
        // Build the lane-interleaved panel layout `Svm::assemble`
        // produces: 4 support vectors per panel (zero-padded lanes and
        // dimensions), coefficients padded to whole panels.
        let m_pad = kernels::padded_width(m);
        let n_panels = n_sv.div_ceil(4);
        let mut svs = vec![0.0f64; n_panels * 4 * m_pad];
        for i in 0..n_sv {
            let panel = &mut svs[(i / 4) * 4 * m_pad..(i / 4 + 1) * 4 * m_pad];
            for j in 0..m {
                panel[4 * j + i % 4] = values[i * m + j];
            }
        }
        let mut coef = vec![0.0f64; 4 * n_panels];
        coef[..n_sv].copy_from_slice(&values[6 * 9 + 7 * 9..6 * 9 + 7 * 9 + n_sv]);
        let query: Vec<f64> = values[6 * 9..6 * 9 + rows * m].to_vec();
        let mut reference = vec![0.0f64; rows];
        kernels::rbf_expand(
            Kernel::Scalar, &svs, &coef, 0.25, gamma, m_pad, &query, m,
            &mut reference,
        );
        for kernel in available_kernels() {
            let mut out = vec![0.0f64; rows];
            kernels::rbf_expand(
                kernel, &svs, &coef, 0.25, gamma, m_pad, &query, m,
                &mut out,
            );
            for (i, (a, e)) in out.iter().zip(&reference).enumerate() {
                prop_assert!(
                    a.to_bits() == e.to_bits() || (a.is_nan() && e.is_nan()),
                    "{:?} row {}: {} vs {}", kernel, i, a, e
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// vexp: the canonical polynomial `exp` behind the RBF expansion and the
// GBDT sigmoid. Scalar and AVX2 must agree payload-exactly on *every*
// 64-bit input pattern (unlike squared_distance, vexp blends the input
// NaN bits through untouched), the polynomial must stay within a small
// ULP envelope of libm across the finite range, and results are never
// negative. These drive the explicit-backend `exp_in_place` entry
// point, so they are free of global dispatch state.
// ---------------------------------------------------------------------

use reds::metamodel::kernels::{vexp, ExpBackend};

/// ULP distance between two non-negative floats (`exp` never produces a
/// negative or `-0.0` result, so the bit patterns order monotonically).
fn ulp_distance(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// An `exp` input that may be any 64-bit pattern (all NaN payloads, all
/// denormals, ±∞) or a value from the numerically interesting ranges.
fn exp_input_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => (u64::MIN..=u64::MAX).prop_map(f64::from_bits),
        3 => -750.0f64..710.0,
        2 => -1.0f64..1.0, // the RBF hot range: −γ·d² near zero
        1 => (1u64..=4_503_599_627_370_495u64).prop_map(f64::from_bits), // denormals
        1 => prop_oneof![
            Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN),
            Just(vexp::EXP_OVERFLOW), Just(vexp::EXP_UNDERFLOW),
            Just(0.0), Just(-0.0),
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vexp_kernels_agree_payload_exactly_on_any_bit_pattern(
        xs in prop::collection::vec(exp_input_strategy(), 0..23),
    ) {
        let expected: Vec<f64> = xs.iter().map(|&x| vexp::exp_poly(x)).collect();
        for kernel in available_kernels() {
            let mut out = xs.clone();
            kernels::exp_in_place(kernel, ExpBackend::Poly, &mut out);
            for (i, (a, e)) in out.iter().zip(&expected).enumerate() {
                // Payload-exact, NaN included: vexp blends input bits.
                prop_assert!(
                    a.to_bits() == e.to_bits(),
                    "{:?} lane {}: exp({}) = {:016x} vs {:016x}",
                    kernel, i, xs[i], a.to_bits(), e.to_bits()
                );
            }
        }
    }

    #[test]
    fn vexp_stays_within_the_ulp_contract_of_libm(
        xs in prop::collection::vec(-750.0f64..710.0, 1..64),
    ) {
        for &x in &xs {
            let got = vexp::exp_poly(x);
            let want = x.exp();
            prop_assert!(
                ulp_distance(got, want) <= 2,
                "exp_poly({}) = {:e} is {} ULP from libm {:e}",
                x, got, ulp_distance(got, want), want
            );
        }
    }

    #[test]
    fn vexp_is_never_negative_and_weakly_monotone(
        xs in prop::collection::vec(exp_input_strategy(), 1..64),
        base in -745.0f64..709.0,
    ) {
        for &x in &xs {
            let e = vexp::exp_poly(x);
            prop_assert!(
                e.is_nan() || e.to_bits() >> 63 == 0,
                "exp_poly({}) = {} has its sign bit set", x, e
            );
        }
        // Weak monotonicity on a coarse grid: a 1e-3 step moves exp by
        // ~0.1%, far beyond the polynomial's ULP-level noise, so
        // ordering must be preserved (strict per-ULP monotonicity is
        // not promised across 2^k boundaries).
        let mut prev = vexp::exp_poly(base);
        for step in 1..=20 {
            let next = vexp::exp_poly(base + step as f64 * 1e-3);
            prop_assert!(next >= prev, "exp not monotone at {} + {}e-3", base, step);
            prev = next;
        }
    }
}

#[test]
fn vexp_special_values_match_the_documented_table() {
    use reds::metamodel::kernels::vexp::{EXP_OVERFLOW, EXP_UNDERFLOW};
    // Overflow / underflow thresholds and the values straddling them.
    assert_eq!(vexp::exp_poly(EXP_OVERFLOW), f64::INFINITY);
    assert_eq!(vexp::exp_poly(f64::INFINITY), f64::INFINITY);
    assert!(vexp::exp_poly(next_down(EXP_OVERFLOW)).is_finite());
    assert_eq!(vexp::exp_poly(EXP_UNDERFLOW).to_bits(), 0);
    assert_eq!(vexp::exp_poly(f64::NEG_INFINITY).to_bits(), 0);
    // (One ULP above the cutoff still rounds to zero — the threshold
    // sits essentially at ln 2⁻¹⁰⁷⁵ — so probe a bit further in.)
    assert!(vexp::exp_poly(-745.0) > 0.0);
    // NaN payloads pass through bit-exactly, sign included.
    for bits in [0x7FF8_0000_0000_0001u64, 0xFFF8_DEAD_BEEF_0001u64] {
        assert_eq!(vexp::exp_poly(f64::from_bits(bits)).to_bits(), bits);
    }
    // exp(0) is exactly 1; denormal inputs land there too.
    assert_eq!(vexp::exp_poly(0.0), 1.0);
    assert_eq!(vexp::exp_poly(-0.0), 1.0);
    assert_eq!(vexp::exp_poly(f64::from_bits(1)), 1.0);
    // Deep negative inputs produce denormal outputs, same as libm.
    let deep = vexp::exp_poly(-744.5);
    assert!(deep > 0.0 && !deep.is_normal(), "exp(-744.5) = {deep:e}");
}

/// `f64::next_down` (stable since 1.86) spelled out so the suite
/// builds on the MSRV toolchain.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

#[test]
fn kernels_handle_singleton_trees_and_empty_batches() {
    // A tree that is a single leaf (constant targets) and the empty
    // batch must work on every backend.
    let pts: Vec<f64> = (0..40).map(|i| i as f64).collect();
    let ys = vec![0.25; 40];
    let idx: Vec<usize> = (0..40).collect();
    let tree = RegressionTree::fit(
        &pts,
        &ys,
        1,
        &idx,
        &TreeParams::default(),
        &mut StdRng::seed_from_u64(8),
    );
    assert_eq!(tree.n_nodes(), 1, "constant targets must yield one leaf");
    for kernel in available_kernels() {
        let mut acc = vec![0.0f64; 9]; // 9 rows: 2 groups of 4 + remainder
        let query = vec![3.0f64; 9];
        kernels::accumulate_tree(kernel, tree.flat(), &query, 1, &mut acc);
        for v in &acc {
            assert_eq!(v.to_bits(), 0.25f64.to_bits(), "{kernel:?}");
        }
        let mut empty: Vec<f64> = Vec::new();
        kernels::accumulate_tree(kernel, tree.flat(), &[], 1, &mut empty);
        assert!(empty.is_empty());
    }
}

// ---------------------------------------------------------------------
// Shallow GBDT ensembles: under AVX2, `Gbdt::predict_batch` walks the
// perfect-tree form of an ensemble of depth <= 6 by mask bits instead
// of the arenas. Random ensembles of depth 0 to 6 (single leaves, full
// trees, spines with a leaf at every depth, random shapes; repeated
// features and thresholds, ±0.0 among them) must predict bit for bit
// what per-point `predict` and the forced-scalar walk predict, at row
// counts around the kernel's 32-row runs and 128-row blocks; a depth-7
// tree sends the ensemble down the arena walk, which must match too.
// These tests set the global kernel override, so they hold a lock.
// ---------------------------------------------------------------------

use std::sync::Mutex;

use rand::Rng;
use reds::metamodel::FlatTree;

static KERNEL_OVERRIDE: Mutex<()> = Mutex::new(());

/// Row counts around the AVX2 bit walk's runs and blocks.
const ROW_COUNTS: [usize; 9] = [0, 1, 3, 4, 5, 127, 128, 129, 4_097];

/// Thresholds drawn with repeats; `0.5` ties the query strategy's
/// exact hits, and `±0.0` meet the `−0.0` queries.
const THRESHOLDS: [f64; 5] = [0.5, 0.25, 0.75, 0.0, -0.0];

/// How a random tree grows.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every node above the depth limit splits.
    Full,
    /// One child of every split is a leaf: a leaf at every depth.
    Spine,
    /// Each node below the root is a leaf with probability 0.3.
    Random,
}

/// Parallel arena arrays, grown in preorder (left child at `i + 1`).
#[derive(Default)]
struct Arena {
    feature: Vec<u32>,
    value: Vec<f64>,
    right: Vec<u32>,
}

/// Grows a subtree of at most `levels` splits into `arena`; returns
/// its root. `leaf` forces a leaf.
fn grow(
    rng: &mut StdRng,
    shape: Shape,
    levels: usize,
    m: usize,
    arena: &mut Arena,
    leaf: bool,
) -> u32 {
    let i = arena.feature.len() as u32;
    let random_leaf = matches!(shape, Shape::Random) && i > 0 && rng.gen_bool(0.3);
    if leaf || levels == 0 || random_leaf {
        let value = if rng.gen_bool(0.125) {
            -0.0
        } else {
            rng.gen_range(-1.0..1.0)
        };
        arena.feature.push(FlatTree::LEAF);
        arena.value.push(value);
        arena.right.push(i);
        return i;
    }
    arena.feature.push(rng.gen_range(0..m as u32));
    arena
        .value
        .push(THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())]);
    arena.right.push(0);
    let leaf_left = matches!(shape, Shape::Spine) && rng.gen_bool(0.5);
    let leaf_right = matches!(shape, Shape::Spine) && !leaf_left;
    grow(rng, shape, levels - 1, m, arena, leaf_left);
    arena.right[i as usize] = grow(rng, shape, levels - 1, m, arena, leaf_right);
    i
}

/// A GBDT over one tree per `(depth, shape)`, decoded the way the
/// JSON and `.redsart` readers decode one.
fn random_gbdt(rng: &mut StdRng, trees: &[(usize, Shape)], m: usize) -> Gbdt {
    let arenas = trees
        .iter()
        .map(|&(depth, shape)| {
            let mut arena = Arena::default();
            grow(rng, shape, depth, m, &mut arena, false);
            FlatTree::from_parts(arena.feature, arena.value, arena.right, m).expect("valid arena")
        })
        .collect();
    let base_score = rng.gen_range(-1.0..1.0);
    Gbdt::from_arenas(base_score, 0.3, arenas, m).expect("valid ensemble")
}

/// Checks dispatched and forced-scalar `predict_batch` against
/// per-point `predict`, bit for bit, at every row count of
/// [`ROW_COUNTS`], on rows drawn from `pool`.
fn assert_batches_match_per_point(gbdt: &Gbdt, m: usize, pool: &[f64], rng: &mut StdRng) {
    let _guard = KERNEL_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    for n in ROW_COUNTS {
        let query: Vec<f64> = (0..n * m)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let dispatched = gbdt.predict_batch(&query, m);
        kernels::set_kernel(Some(Kernel::Scalar));
        let scalar = gbdt.predict_batch(&query, m);
        kernels::set_kernel(None);
        assert_eq!((dispatched.len(), scalar.len()), (n, n));
        for (r, x) in query.chunks_exact(m).enumerate() {
            let want = gbdt.predict(x).to_bits();
            assert_eq!(
                dispatched[r].to_bits(),
                want,
                "dispatched, {n} rows, row {r}: {x:?}"
            );
            assert_eq!(
                scalar[r].to_bits(),
                want,
                "scalar, {n} rows, row {r}: {x:?}"
            );
        }
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![Just(Shape::Full), Just(Shape::Spine), Just(Shape::Random)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shallow_gbdt_batches_match_per_point_and_scalar(
        trees in prop::collection::vec((0usize..=6, shape_strategy()), 1..8),
        m in 1usize..5,
        pool in prop::collection::vec(
            prop_oneof![9 => query_value_strategy(), 1 => Just(-0.0f64)],
            64,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gbdt = random_gbdt(&mut rng, &trees, m);
        assert_batches_match_per_point(&gbdt, m, &pool, &mut rng);
    }
}

#[test]
fn a_depth_7_tree_takes_the_arena_walk_and_matches() {
    let mut rng = StdRng::seed_from_u64(27);
    let trees = [
        (2, Shape::Full),
        (7, Shape::Spine),
        (6, Shape::Random),
        (0, Shape::Full),
    ];
    let gbdt = random_gbdt(&mut rng, &trees, 3);
    let depth_7 = gbdt.arenas().nth(1).expect("second tree");
    assert_eq!(depth_7.n_nodes(), 15, "a spine of 7 splits and 8 leaves");
    let pool = [
        0.1,
        0.5,
        0.9,
        0.0,
        -0.0,
        0.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    assert_batches_match_per_point(&gbdt, 3, &pool, &mut rng);
}
