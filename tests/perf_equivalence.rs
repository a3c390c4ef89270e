//! Equivalence oracle for the presorted/parallel hot paths.
//!
//! The `SortedView`-based PRIM, the stable-partition CART builder, the
//! parallel forest, and the tree-major batched predictors must produce
//! **bit-identical** results to the pre-optimization reference
//! implementations (`NaivePrim`, `NaiveTree`, `NaiveRandomForest`,
//! per-point `predict`). These tests sweep
//! more than 20 seeded datasets plus the degenerate shapes that break
//! index bookkeeping: empty data, constant columns, all-ties columns,
//! soft labels, and tie runs straddling the α-quantile.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::core::{Reds, RedsConfig};
use reds::data::Dataset;
use reds::metamodel::{
    Gbdt, GbdtParams, Metamodel, NaiveRandomForest, NaiveTree, RandomForest, RandomForestParams,
    RegressionTree, Svm, SvmParams, TreeParams,
};
use reds::subgroup::{HyperBox, NaivePrim, PeelCriterion, Prim, PrimParams, SubgroupDiscovery};

/// Bitwise equality of two trajectories (stricter than `==`: `0.0` vs
/// `-0.0` and NaN payloads count as differences).
fn assert_boxes_bits_eq(a: &[HyperBox], b: &[HyperBox], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: trajectory lengths differ");
    for (step, (ba, bb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ba.m(), bb.m(), "{context}: box {step} dimensionality");
        for j in 0..ba.m() {
            let ((la, ha), (lb, hb)) = (ba.bound(j), bb.bound(j));
            assert!(
                la.to_bits() == lb.to_bits() && ha.to_bits() == hb.to_bits(),
                "{context}: box {step} dim {j}: ({la}, {ha}) vs ({lb}, {hb})"
            );
        }
    }
}

/// A randomized dataset family covering hard labels, soft labels,
/// constant columns, and heavy value ties, keyed by `seed`.
fn dataset_for_seed(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(0xE0_0000 + seed);
    let m = 2 + (seed as usize % 4); // 2..=5 dims
    let n = 150 + (seed as usize % 5) * 60;
    let flavor = seed % 4;
    let points: Vec<f64> = (0..n * m)
        .map(|k| {
            let v: f64 = rng.gen();
            match flavor {
                // Continuous values.
                0 => v,
                // Quantized: many exact ties in every column.
                1 => (v * 6.0).floor() / 6.0,
                // One constant column, rest continuous.
                2 if k % m == 1 => 0.5,
                _ => v,
            }
        })
        .collect();
    let labels: Vec<f64> = points
        .chunks_exact(m)
        .map(|x| {
            if seed % 3 == 2 {
                // Soft labels in [0, 1].
                (x[0] * 0.7 + x[m - 1] * 0.3).clamp(0.0, 1.0)
            } else if x[0] > 0.55 && x[m - 1] > 0.4 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Dataset::new(points, labels, m).expect("valid shape")
}

/// `n` rows on a grid (40 levels in three columns, 7 in the fourth):
/// every value is tied many times over, and a pool this long makes the
/// presorted view compact each column several times along a peel.
fn quantized_pool(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<f64> = (0..n * 4)
        .map(|k| {
            let levels = if k % 4 == 3 { 7.0 } else { 40.0 };
            (rng.gen::<f64>() * levels).floor() / levels
        })
        .collect();
    Dataset::from_fn(points, 4, |x| {
        if x[0] > 0.3 && x[1] < 0.7 && x[3] > 0.2 {
            1.0
        } else {
            0.0
        }
    })
    .expect("valid shape")
}

#[test]
fn prim_matches_naive_bitwise_across_twenty_plus_seeds() {
    let small = (0..24u64).map(|seed| (seed, dataset_for_seed(seed)));
    for (seed, d) in small.chain([(24, quantized_pool(20_000, 24))]) {
        let params = PrimParams {
            alpha: if seed % 2 == 0 { 0.05 } else { 0.13 },
            min_points: 15,
            criterion: if seed % 5 == 0 {
                PeelCriterion::GainPerPoint
            } else {
                PeelCriterion::MeanLabel
            },
            ..Default::default()
        };
        let fast = Prim::new(params.clone());
        let slow = NaivePrim::new(params);
        // Full untruncated trajectories.
        assert_boxes_bits_eq(
            &fast.peel_trajectory(&d),
            &slow.peel_trajectory(&d),
            &format!("trajectory seed {seed}"),
        );
        // Truncated discover, with the training data as validation.
        let a = fast.discover(&d, &d, &mut StdRng::seed_from_u64(seed));
        let b = slow.discover(&d, &d, &mut StdRng::seed_from_u64(seed));
        assert_boxes_bits_eq(&a.boxes, &b.boxes, &format!("discover seed {seed}"));
        // Distinct validation data exercises the incremental tracker.
        let d_val = dataset_for_seed(seed + 1000);
        if d_val.m() == d.m() {
            let a = fast.discover(&d, &d_val, &mut StdRng::seed_from_u64(seed));
            let b = slow.discover(&d, &d_val, &mut StdRng::seed_from_u64(seed));
            assert_boxes_bits_eq(&a.boxes, &b.boxes, &format!("val seed {seed}"));
        }
    }
}

#[test]
fn prim_edge_cases_match_naive() {
    let mut rng = StdRng::seed_from_u64(1);
    let edge_cases = [
        // Empty dataset.
        Dataset::empty(3).unwrap(),
        // Fewer rows than min_points.
        Dataset::new(vec![0.1, 0.9, 0.4, 0.6], vec![1.0, 0.0], 2).unwrap(),
        // Every column constant: nothing can be peeled.
        Dataset::new(vec![0.5; 80], vec![1.0; 40], 2).unwrap(),
        // All-ties column next to a continuous one.
        Dataset::from_fn(
            (0..200)
                .map(|k| if k % 2 == 0 { 0.25 } else { rng.gen() })
                .collect(),
            2,
            |x| if x[1] > 0.5 { 1.0 } else { 0.0 },
        )
        .unwrap(),
        // Tie run straddling the quantile cut.
        {
            let mut points = vec![0.0; 12];
            points.extend(vec![0.5; 30]);
            points.extend(vec![1.0; 8]);
            let labels = points
                .iter()
                .map(|&v| if v > 0.2 { 1.0 } else { 0.0 })
                .collect();
            Dataset::new(points, labels, 1).unwrap()
        },
    ];
    for (i, d) in edge_cases.iter().enumerate() {
        let a = Prim::default().discover(d, d, &mut StdRng::seed_from_u64(2));
        let b = NaivePrim::default().discover(d, d, &mut StdRng::seed_from_u64(2));
        assert_boxes_bits_eq(&a.boxes, &b.boxes, &format!("edge case {i}"));
    }
}

#[test]
fn tree_builders_match_bitwise_across_seeds() {
    for seed in 0..20u64 {
        let d = dataset_for_seed(seed);
        let (n, m) = (d.n(), d.m());
        let mut boot = StdRng::seed_from_u64(seed ^ 0xB007);
        let indices: Vec<usize> = (0..n).map(|_| boot.gen_range(0..n)).collect();
        let params = TreeParams {
            mtry: if seed % 2 == 0 {
                None
            } else {
                Some(1 + seed as usize % m)
            },
            min_samples_leaf: 1 + seed as usize % 3,
            ..TreeParams::default()
        };
        let fast = RegressionTree::fit(
            d.points(),
            d.labels(),
            m,
            &indices,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        let slow = NaiveTree::fit(
            d.points(),
            d.labels(),
            m,
            &indices,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(fast.n_nodes(), slow.n_nodes(), "seed {seed}");
        for i in 0..n {
            let (a, b) = (fast.predict(d.point(i)), slow.predict(d.point(i)));
            assert!(
                a.to_bits() == b.to_bits(),
                "seed {seed} row {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn forest_parallel_fit_and_batch_predict_match_naive() {
    for seed in 0..6u64 {
        let d = dataset_for_seed(seed);
        let params = RandomForestParams {
            n_trees: 30,
            ..Default::default()
        };
        let fast = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(seed));
        let slow = NaiveRandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(seed));
        let query: Vec<f64> = dataset_for_seed(seed + 50)
            .points()
            .iter()
            .copied()
            .take(40 * d.m())
            .collect();
        let batch = fast.predict_batch(&query, d.m());
        for (i, x) in query.chunks_exact(d.m()).enumerate() {
            let (a, b) = (fast.predict(x), slow.predict(x));
            assert!(
                a.to_bits() == b.to_bits(),
                "seed {seed} row {i}: {a} vs {b}"
            );
            assert!(
                a.to_bits() == batch[i].to_bits(),
                "batch seed {seed} row {i}"
            );
        }
    }
}

#[test]
fn gbdt_and_svm_batch_predictions_match_per_point() {
    let d = dataset_for_seed(3);
    let query: Vec<f64> = dataset_for_seed(53)
        .points()
        .iter()
        .copied()
        .take(60 * d.m())
        .collect();

    let gbdt = Gbdt::fit(
        &d,
        &GbdtParams {
            n_rounds: 25,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(4),
    );
    let batch = gbdt.predict_batch(&query, d.m());
    for (i, x) in query.chunks_exact(d.m()).enumerate() {
        assert_eq!(
            gbdt.predict(x).to_bits(),
            batch[i].to_bits(),
            "gbdt row {i}"
        );
    }

    let svm = Svm::fit(&d, &SvmParams::default(), &mut StdRng::seed_from_u64(5));
    let batch = svm.predict_batch(&query, d.m());
    for (i, x) in query.chunks_exact(d.m()).enumerate() {
        assert_eq!(svm.predict(x).to_bits(), batch[i].to_bits(), "svm row {i}");
    }
}

#[test]
fn full_pipeline_matches_naive_subgroup_search() {
    // The REDS pipeline with the optimized PRIM must reproduce the
    // naive-PRIM run exactly: metamodel training, sampling, and
    // pseudo-labeling consume identical RNG streams, and the optimized
    // peel is bit-equivalent.
    let d = dataset_for_seed(7);
    let reds = Reds::random_forest(
        RandomForestParams {
            n_trees: 40,
            ..Default::default()
        },
        RedsConfig::default().with_l(4_000),
    );
    let fast = reds
        .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(8))
        .unwrap();
    let slow = reds
        .run(&d, &NaivePrim::default(), &mut StdRng::seed_from_u64(8))
        .unwrap();
    assert_boxes_bits_eq(&fast.boxes, &slow.boxes, "pipeline");
}

#[test]
fn thread_count_never_changes_results() {
    let d = dataset_for_seed(11);
    let params = RandomForestParams {
        n_trees: 12,
        ..Default::default()
    };
    let query: Vec<f64> = dataset_for_seed(61).points().to_vec();
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 5] {
        reds_par::set_max_threads(Some(threads));
        let forest = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(12));
        let preds = forest.predict_batch(&query[..(query.len() / d.m()) * d.m()], d.m());
        match &reference {
            None => reference = Some(preds),
            Some(r) => assert_eq!(r, &preds, "threads {threads}"),
        }
    }
    reds_par::set_max_threads(None);
}

#[test]
fn forced_scalar_and_dispatched_kernels_are_bit_identical_end_to_end() {
    // The REDS_KERNEL=scalar vs avx2 contract, in-process: forcing the
    // scalar backend must not change a single bit of any model's
    // batched predictions or of a full pipeline run. (On scalar-only
    // hardware dispatch already resolves to scalar and this degenerates
    // to a self-comparison, which keeps the suite portable.)
    use reds::metamodel::kernels;

    let d = dataset_for_seed(5);
    let m = d.m();
    let query: Vec<f64> = dataset_for_seed(55)
        .points()
        .iter()
        .copied()
        .take(101 * m) // odd row count: remainder lanes on every path
        .collect();
    let forest = RandomForest::fit(
        &d,
        &RandomForestParams {
            n_trees: 24,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(6),
    );
    let gbdt = Gbdt::fit(
        &d,
        &GbdtParams {
            n_rounds: 20,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(7),
    );
    let svm = Svm::fit(&d, &SvmParams::default(), &mut StdRng::seed_from_u64(8));
    let models: [(&str, &dyn Metamodel); 3] = [("forest", &forest), ("gbdt", &gbdt), ("svm", &svm)];

    for (name, model) in models {
        kernels::set_kernel(Some(kernels::Kernel::Scalar));
        let scalar = model.predict_batch(&query, m);
        kernels::set_kernel(None);
        let dispatched = model.predict_batch(&query, m);
        assert_eq!(scalar.len(), dispatched.len(), "{name}");
        for (i, (a, b)) in scalar.iter().zip(&dispatched).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name} row {i}: scalar {a} vs dispatched {b}"
            );
        }
    }

    // Whole pipelines (train → pseudo-label → PRIM) for all three
    // metamodel families: identical boxes. The GBDT and SVM runs push
    // the vectorized `exp` (sigmoid finalization, RBF expansion)
    // through the full discovery loop, not just `predict_batch`.
    let config = || RedsConfig::default().with_l(3_000);
    let pipelines: [(&str, Reds); 3] = [
        (
            "forest",
            Reds::random_forest(
                RandomForestParams {
                    n_trees: 16,
                    ..Default::default()
                },
                config(),
            ),
        ),
        (
            "gbdt",
            Reds::xgboost(
                GbdtParams {
                    n_rounds: 15,
                    ..Default::default()
                },
                config(),
            ),
        ),
        ("svm", Reds::svm(SvmParams::default(), config())),
    ];
    for (name, reds) in &pipelines {
        kernels::set_kernel(Some(kernels::Kernel::Scalar));
        let scalar_run = reds
            .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(9))
            .unwrap();
        kernels::set_kernel(None);
        let dispatched_run = reds
            .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_boxes_bits_eq(
            &scalar_run.boxes,
            &dispatched_run.boxes,
            &format!("{name} kernel pipeline"),
        );
    }
}

#[test]
fn exp_backends_agree_everywhere_poly_is_within_contract() {
    // The polynomial and libm exp are different functions (that is the
    // point of the REDS_EXP escape hatch), but they must stay within
    // the documented 2-ULP envelope on the RBF/sigmoid operating range
    // and agree exactly on special values. Explicit-backend entry
    // points only — no global state, safe under the parallel harness.
    use reds::metamodel::kernels::{self, ExpBackend, Kernel};

    let mut xs: Vec<f64> = (-7400..=7090).map(|k| k as f64 * 0.1).collect();
    xs.extend([
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        kernels::vexp::EXP_OVERFLOW,
        kernels::vexp::EXP_UNDERFLOW,
        f64::MIN_POSITIVE / 2.0,
    ]);
    let mut poly = xs.clone();
    kernels::exp_in_place(Kernel::Scalar, ExpBackend::Poly, &mut poly);
    let mut libm = xs.clone();
    kernels::exp_in_place(Kernel::Scalar, ExpBackend::Libm, &mut libm);
    for ((&x, &p), &l) in xs.iter().zip(&poly).zip(&libm) {
        let ulp = p.to_bits().abs_diff(l.to_bits());
        assert!(
            ulp <= 2,
            "exp({x}): poly {p:e} is {ulp} ULP from libm {l:e}"
        );
        if !x.is_finite() || x == 0.0 {
            assert_eq!(p.to_bits(), l.to_bits(), "special value exp({x})");
        }
    }
}

// ---------------------------------------------------------------------
// Hard labels: `Metamodel::hard_labels` must return exactly
// `predict_batch` followed by the `p > bnd` threshold of
// `Labeling::Hard`, bit for bit — the forest's early exit included.
// ---------------------------------------------------------------------

/// `predict_batch` plus the hard-label threshold: the reference.
fn thresholded(model: &dyn Metamodel, points: &[f64], m: usize, bnd: f64) -> Vec<f64> {
    model
        .predict_batch(points, m)
        .into_iter()
        .map(|p| if p > bnd { 1.0 } else { 0.0 })
        .collect()
}

fn assert_hard_labels_match(model: &dyn Metamodel, points: &[f64], m: usize, bnd: f64, ctx: &str) {
    let want = thresholded(model, points, m, bnd);
    let got = model.hard_labels(points, m, bnd);
    assert_eq!(got.len(), want.len(), "{ctx} bnd {bnd}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx} bnd {bnd} row {i}: {g} vs {w}"
        );
    }
}

/// Thresholds to sweep for a `t`-tree ensemble: the leaf-range edges,
/// the default, exact multiples `k/t` (sums of 0/1 leaves land on
/// `bnd·t`), both zeros, ±∞ and NaN.
fn hard_thresholds(t: usize) -> Vec<f64> {
    let k = |k: usize| k as f64 / t as f64;
    vec![
        0.0,
        -0.0,
        0.5,
        1.0,
        k(1),
        k(t / 2),
        k(t.saturating_sub(1)),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

/// `rows` query points in `[-0.1, 1.1)^m`.
fn hard_query(rows: usize, m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * m)
        .map(|_| rng.gen::<f64>() * 1.2 - 0.1)
        .collect()
}

/// Every batch size 0..=70 (several full 16-row kernel blocks and every
/// remainder), at every threshold.
fn assert_small_hard_batches(model: &dyn Metamodel, m: usize, t: usize, ctx: &str) {
    let query = hard_query(70, m, 0x4AD);
    for bnd in hard_thresholds(t) {
        for rows in 0..=70 {
            let ctx = format!("{ctx} rows {rows}");
            assert_hard_labels_match(model, &query[..rows * m], m, bnd, &ctx);
        }
    }
}

/// One batch spanning several labeling chunks (1024 rows for the
/// forest's `hard_labels`, 4096 for `predict_batch`), at every
/// threshold, under one thread and the default thread count.
fn assert_large_hard_batches(model: &dyn Metamodel, m: usize, t: usize, ctx: &str) {
    let large = hard_query(2 * 4096 + 37, m, 0x4AE);
    for threads in [Some(1), None] {
        reds_par::set_max_threads(threads);
        for bnd in hard_thresholds(t) {
            let ctx = format!("{ctx} large, threads {threads:?}");
            assert_hard_labels_match(model, &large, m, bnd, &ctx);
        }
    }
    reds_par::set_max_threads(None);
}

#[test]
fn forest_hard_labels_match_thresholded_batch_predictions() {
    for (seed, n_trees) in [(0u64, 1usize), (1, 9), (2, 30), (3, 30), (6, 17)] {
        let d = dataset_for_seed(seed);
        let forest = RandomForest::fit(
            &d,
            &RandomForestParams {
                n_trees,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(seed + 100),
        );
        let ctx = format!("seed {seed} trees {n_trees}");
        assert_small_hard_batches(&forest, d.m(), n_trees, &ctx);
        assert_large_hard_batches(&forest, d.m(), n_trees, &ctx);
    }
}

/// A forest document of `n_trees` depth-2 trees over `m = 3` columns,
/// with random split features and thresholds and leaves drawn from
/// `palette`.
fn palette_forest(n_trees: usize, palette: &[f64], seed: u64) -> RandomForest {
    use reds::metamodel::persist::f64_to_json;
    use reds_json::Json;
    let m = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = |right: usize, rng: &mut StdRng| {
        Json::arr([
            Json::num(rng.gen_range(0..m) as f64),
            Json::num(rng.gen::<f64>()),
            Json::num(right as f64),
        ])
    };
    let trees: Vec<Json> = (0..n_trees)
        .map(|_| {
            let leaf = |rng: &mut StdRng| {
                Json::arr([f64_to_json(palette[rng.gen_range(0..palette.len())])])
            };
            let nodes = vec![
                split(4, &mut rng),
                split(3, &mut rng),
                leaf(&mut rng),
                leaf(&mut rng),
                split(6, &mut rng),
                leaf(&mut rng),
                leaf(&mut rng),
            ];
            Json::obj([("m", Json::num(m as f64)), ("nodes", Json::arr(nodes))])
        })
        .collect();
    let doc = Json::obj([("m", Json::num(m as f64)), ("trees", Json::arr(trees))]);
    RandomForest::from_json(&doc).expect("valid forest document")
}

#[test]
fn crafted_forest_hard_labels_match_thresholded_batch_predictions() {
    let inf = f64::INFINITY;
    let palettes: [(&str, &[f64]); 6] = [
        ("0/1 leaves", &[0.0, 1.0]),
        ("negative", &[-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.5]),
        ("infinite", &[0.0, 0.5, 1.0, inf, -inf]),
        ("nan", &[0.0, 0.5, 1.0, f64::NAN]),
        ("overflowing", &[-1e308, 0.5, 1e308]),
        ("-0.0 only", &[-0.0]),
    ];
    for (name, palette) in palettes {
        for (k, n_trees) in [1usize, 8, 9, 24, 41].into_iter().enumerate() {
            let forest = palette_forest(n_trees, palette, 7 + k as u64);
            let ctx = format!("{name}, {n_trees} trees");
            assert_small_hard_batches(&forest, 3, n_trees, &ctx);
            // Sums of 0/1 leaves land exactly on `bnd·T` across chunks.
            if name == "0/1 leaves" {
                assert_large_hard_batches(&forest, 3, n_trees, &ctx);
            }
        }
    }
}

#[test]
fn default_hard_labels_threshold_gbdt_and_svm_batches() {
    let d = dataset_for_seed(3);
    let gbdt = Gbdt::fit(
        &d,
        &GbdtParams {
            n_rounds: 20,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(4),
    );
    let svm = Svm::fit(&d, &SvmParams::default(), &mut StdRng::seed_from_u64(5));
    let query = hard_query(300, d.m(), 0x5EED);
    let models: [(&str, &dyn Metamodel); 2] = [("gbdt", &gbdt), ("svm", &svm)];
    for (name, model) in models {
        for bnd in hard_thresholds(20) {
            for rows in [0usize, 1, 5, 17, 70, 300] {
                let ctx = format!("{name} rows {rows}");
                assert_hard_labels_match(model, &query[..rows * d.m()], d.m(), bnd, &ctx);
            }
        }
    }
}

#[test]
fn negative_zero_leaves_predict_like_the_batch_kernels() {
    // Every label is −0.0, so every leaf is −0.0. The batch kernels sum
    // trees from +0.0 (−0.0 + +0.0 = +0.0); per-point prediction must
    // too, or the per-point ≡ batch contract breaks on the sign bit.
    let mut rng = StdRng::seed_from_u64(0x2E20);
    let points: Vec<f64> = (0..50 * 2).map(|_| rng.gen()).collect();
    let d = Dataset::new(points, vec![-0.0; 50], 2).expect("valid shape");
    let params = RandomForestParams {
        n_trees: 5,
        ..Default::default()
    };
    let forest = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(1));
    let naive = NaiveRandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(1));
    let batch = forest.predict_batch(d.points(), 2);
    for (i, x) in d.points().chunks_exact(2).enumerate() {
        assert_eq!(batch[i].to_bits(), 0.0f64.to_bits(), "batch row {i}");
        assert_eq!(forest.predict(x).to_bits(), batch[i].to_bits(), "row {i}");
        assert_eq!(naive.predict(x).to_bits(), batch[i].to_bits(), "naive {i}");
    }

    // GBDT margins fold from +0.0 too: base −0.0 plus −0.0 leaves is
    // the batch kernel's +0.0.
    let doc = reds_json::from_str(
        r#"{"m": 1, "base_score": -0.0, "eta": 1.0, "trees": [[[-0.0]], [[-0.0]]]}"#,
    )
    .expect("valid json");
    let gbdt = Gbdt::from_json(&doc).expect("valid gbdt document");
    assert_eq!(gbdt.margin(&[0.5]).to_bits(), 0.0f64.to_bits());
}
