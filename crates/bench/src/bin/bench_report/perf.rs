//! `--section perf`: the presorted-column engine and the prediction
//! kernels against the references they must reproduce.
//!
//! ```text
//! bench_report --section perf [--l 80000] [--n 400] [--m 10] [--reps 2] [--out-dir .]
//! ```
//!
//! The references are the pre-optimization implementations, kept as
//! oracles: per-step re-sorting PRIM, serial naive-builder forest
//! training, per-point virtual-dispatch pseudo-labeling and the forced
//! scalar kernels. Every timing is best of `--reps`. Gates:
//!
//! * naive ≡ presorted PRIM boxes at `L/4` and at `L`;
//! * naive ≡ `Reds::run` pipeline boxes (`reds/vs_l`);
//! * per-point ≡ batch forest predictions, and `hard_labels` ≡
//!   `predict_batch` + threshold;
//! * scalar ≡ dispatched `predict_batch` for each family (the libm `exp`
//!   is a deliberately different function and is timed only);
//! * at `--l` ≥ 80 000 only: the pipeline ≥ 3× the naive one; and,
//!   where dispatch selects SIMD, the forest and GBDT kernels ≥ 1.5×
//!   scalar, and the SVM ≥ 2.5× scalar-libm when the `exp` backend is
//!   the polynomial.
//!
//! Writes `BENCH_prim.json`, `BENCH_forest.json` (which times the
//! forest's `hard_labels` next to `predict_batch`) and
//! `BENCH_kernels.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::report::{box_bits, corner_data, same_bits, time_best, write_report, Gates};
use reds_bench::Args;
use reds_core::{Reds, RedsConfig};
use reds_data::Dataset;
use reds_json::Json;
use reds_metamodel::kernels::{self, ExpBackend, Kernel};
use reds_metamodel::{
    Gbdt, GbdtParams, Metamodel, NaiveRandomForest, RandomForest, RandomForestParams, Svm,
    SvmParams,
};
use reds_sampling::uniform;
use reds_subgroup::{HyperBox, NaivePrim, Prim, SdResult, SubgroupDiscovery};

/// One REDS pipeline run at `seed`. The optimized path is `Reds::run`
/// itself; the naive path replicates its exact RNG stream, so both see
/// identical training draws, sampled points, and subgroup-search seeds.
fn run_pipeline(d: &Dataset, config: &RedsConfig, naive: bool, seed: u64) -> SdResult {
    let params = RandomForestParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    if !naive {
        return Reds::random_forest(params, config.clone())
            .run(d, &Prim::default(), &mut rng)
            .expect("valid pipeline input");
    }
    // Pre-optimization path: serial enum-arena forest, L
    // virtual-dispatch predictions, re-sorting PRIM.
    let m = d.m();
    let forest = NaiveRandomForest::fit(d, &params, &mut rng);
    let model: &dyn Metamodel = &forest;
    let points = uniform(config.l, m, &mut rng);
    let labels: Vec<f64> = points
        .chunks_exact(m)
        .map(|x| threshold(model.predict(x), config.bnd))
        .collect();
    let d_new = Dataset::new(points, labels, m).expect("valid shape");
    let mut sd_rng = StdRng::seed_from_u64(rng.gen());
    NaivePrim::default().discover(&d_new, d, &mut sd_rng)
}

fn threshold(p: f64, bnd: f64) -> f64 {
    if p > bnd {
        1.0
    } else {
        0.0
    }
}

fn box_summary(b: &HyperBox) -> Json {
    Json::arr((0..b.m()).map(|j| {
        let (lo, hi) = b.bound(j);
        Json::arr([Json::num(lo), Json::num(hi)])
    }))
}

pub fn run(args: &Args, gates: &mut Gates) {
    let l = args.get_usize("l", 80_000);
    let n = args.get_usize("n", 400);
    let m = args.get_usize("m", 10);
    let reps = args.get_usize("reps", 2);
    let out_dir = args.get_str("out-dir", ".");

    // ---------------- PRIM: naive vs presorted peeling ----------------
    let mut prim_rows = Vec::new();
    for peel_n in [l / 4, l] {
        let d = corner_data(peel_n, m, 11);
        let (naive_ms, naive_result) = time_best(reps, || {
            NaivePrim::default().discover(&d, &d, &mut StdRng::seed_from_u64(12))
        });
        let (fast_ms, fast_result) = time_best(reps, || {
            Prim::default().discover(&d, &d, &mut StdRng::seed_from_u64(12))
        });
        let identical = gates.check(
            box_bits(&naive_result) == box_bits(&fast_result),
            format!("PRIM paths diverged at n = {peel_n}"),
        );
        println!(
            "prim/peel n={peel_n} m={m}: naive {naive_ms:.1} ms, presorted {fast_ms:.1} ms \
             ({:.1}x), identical boxes: {identical}",
            naive_ms / fast_ms
        );
        prim_rows.push(Json::obj([
            ("n", Json::num(peel_n as f64)),
            ("m", Json::num(m as f64)),
            ("naive_ms", Json::num(naive_ms)),
            ("presorted_ms", Json::num(fast_ms)),
            ("speedup", Json::num(naive_ms / fast_ms)),
            ("identical_boxes", Json::Bool(identical)),
        ]));
    }

    // -------- Pipeline acceptance: reds/vs_l at the default config --------
    let config = RedsConfig::default().with_l(l);
    let train = corner_data(n, m, 1);
    let (naive_ms, naive_result) = time_best(reps, || run_pipeline(&train, &config, true, 2));
    let (fast_ms, fast_result) = time_best(reps, || run_pipeline(&train, &config, false, 2));
    let identical = gates.check(
        box_bits(&naive_result) == box_bits(&fast_result),
        "pipeline paths diverged",
    );
    let speedup = naive_ms / fast_ms;
    println!(
        "reds/vs_l l={l}: naive {naive_ms:.0} ms, optimized {fast_ms:.0} ms ({speedup:.1}x), \
         identical boxes: {identical} ({} boxes)",
        fast_result.boxes.len()
    );
    let pipeline = Json::obj([
        ("bench", Json::str("reds/vs_l")),
        ("l", Json::num(l as f64)),
        ("n_train", Json::num(n as f64)),
        ("m", Json::num(m as f64)),
        ("naive_ms", Json::num(naive_ms)),
        ("optimized_ms", Json::num(fast_ms)),
        ("speedup", Json::num(speedup)),
        ("identical_boxes", Json::Bool(identical)),
        ("n_boxes", Json::num(fast_result.boxes.len() as f64)),
        (
            "last_box",
            fast_result.last_box().map_or(Json::Null, box_summary),
        ),
    ]);
    let prim_doc = Json::obj([("peel", Json::Arr(prim_rows)), ("pipeline", pipeline)]);
    write_report(&out_dir, "BENCH_prim.json", &prim_doc);

    // ---------------- Forest: fit and predict paths ----------------
    let params = RandomForestParams::default();
    let (fit_naive_ms, slow_forest) = time_best(reps, || {
        NaiveRandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(3))
    });
    let (fit_ms, fast_forest) = time_best(reps, || {
        RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(3))
    });
    let query = uniform(l, m, &mut StdRng::seed_from_u64(4));
    let (point_ms, point_preds) = time_best(reps, || {
        query
            .chunks_exact(m)
            .map(|x| slow_forest.predict(x))
            .collect::<Vec<f64>>()
    });
    let (batch_ms, batch_preds) = time_best(reps, || fast_forest.predict_batch(&query, m));
    let preds_identical = gates.check(
        same_bits(&point_preds, &batch_preds),
        "forest prediction paths diverged",
    );
    // Hard labels, as `Reds::run` pseudo-labels: the early exit against
    // the full walk it must reproduce.
    let bnd = config.bnd;
    let (hard_ms, hard_labels) = time_best(reps, || fast_forest.hard_labels(&query, m, bnd));
    let thresholded: Vec<f64> = batch_preds.iter().map(|&p| threshold(p, bnd)).collect();
    let labels_identical = gates.check(
        same_bits(&hard_labels, &thresholded),
        "forest hard labels diverged from predict_batch + threshold",
    );
    println!(
        "forest/fit n={n} trees={}: naive-serial {fit_naive_ms:.0} ms, presorted-parallel \
         {fit_ms:.0} ms ({:.1}x)",
        params.n_trees,
        fit_naive_ms / fit_ms
    );
    println!(
        "forest/predict l={l}: per-point {point_ms:.0} ms, batch {batch_ms:.0} ms ({:.1}x), \
         identical: {preds_identical}",
        point_ms / batch_ms
    );
    println!(
        "forest/hard_labels l={l} bnd={bnd}: predict_batch {batch_ms:.0} ms, hard_labels \
         {hard_ms:.0} ms ({:.2}x), identical labels: {labels_identical}",
        batch_ms / hard_ms
    );
    let forest_doc = Json::obj([
        (
            "fit",
            Json::obj([
                ("n_train", Json::num(n as f64)),
                ("m", Json::num(m as f64)),
                ("n_trees", Json::num(params.n_trees as f64)),
                ("naive_serial_ms", Json::num(fit_naive_ms)),
                ("presorted_parallel_ms", Json::num(fit_ms)),
                ("speedup", Json::num(fit_naive_ms / fit_ms)),
                ("threads", Json::num(reds_par::max_threads() as f64)),
            ]),
        ),
        (
            "predict",
            Json::obj([
                ("l", Json::num(l as f64)),
                ("per_point_ms", Json::num(point_ms)),
                ("batch_tree_major_ms", Json::num(batch_ms)),
                ("speedup", Json::num(point_ms / batch_ms)),
                ("identical_predictions", Json::Bool(preds_identical)),
            ]),
        ),
        (
            "hard_labels",
            Json::obj([
                ("l", Json::num(l as f64)),
                ("bnd", Json::num(bnd)),
                ("predict_batch_ms", Json::num(batch_ms)),
                ("hard_labels_ms", Json::num(hard_ms)),
                ("speedup", Json::num(batch_ms / hard_ms)),
                ("identical_labels", Json::Bool(labels_identical)),
            ]),
        ),
    ]);
    write_report(&out_dir, "BENCH_forest.json", &forest_doc);

    // -------- Kernels: scalar vs runtime-dispatched SIMD --------
    //
    // Every family's `predict_batch` under forced scalar with libm
    // `exp` (the pre-vexp baseline), forced scalar with the polynomial
    // `exp`, and runtime dispatch.
    let dispatched = kernels::active();
    let exp_backend = kernels::vexp::backend();
    let gbdt = Gbdt::fit(
        &train,
        &GbdtParams::default(),
        &mut StdRng::seed_from_u64(5),
    );
    let svm = Svm::fit(&train, &SvmParams::default(), &mut StdRng::seed_from_u64(6));
    let families: [(&str, &dyn Metamodel); 3] =
        [("forest", &fast_forest), ("gbdt", &gbdt), ("svm", &svm)];
    let mut kernel_rows = Vec::new();
    let mut speedups = Vec::new();
    for (family, model) in families {
        kernels::set_kernel(Some(Kernel::Scalar));
        kernels::vexp::set_backend(Some(ExpBackend::Libm));
        let (libm_ms, _) = time_best(reps, || model.predict_batch(&query, m));
        kernels::vexp::set_backend(None);
        let (scalar_ms, scalar_preds) = time_best(reps, || model.predict_batch(&query, m));
        kernels::set_kernel(None);
        let (simd_ms, simd_preds) = time_best(reps, || model.predict_batch(&query, m));
        let identical = gates.check(
            same_bits(&scalar_preds, &simd_preds),
            format!(
                "{family}: scalar and {} kernels diverged",
                dispatched.name()
            ),
        );
        let kernel_speedup = scalar_ms / simd_ms;
        let libm_speedup = libm_ms / simd_ms;
        println!(
            "kernels/{family} l={l}: scalar-libm {libm_ms:.0} ms, scalar {scalar_ms:.0} ms, \
             {} {simd_ms:.0} ms ({kernel_speedup:.2}x vs scalar, {libm_speedup:.2}x vs libm), \
             identical: {identical}",
            dispatched.name()
        );
        speedups.push((family, kernel_speedup, libm_speedup));
        kernel_rows.push(Json::obj([
            ("family", Json::str(family)),
            ("l", Json::num(l as f64)),
            ("m", Json::num(m as f64)),
            ("scalar_libm_ms", Json::num(libm_ms)),
            ("scalar_ms", Json::num(scalar_ms)),
            ("dispatched_ms", Json::num(simd_ms)),
            ("speedup", Json::num(kernel_speedup)),
            ("speedup_vs_libm", Json::num(libm_speedup)),
            ("identical_predictions", Json::Bool(identical)),
            // Each family has a ratio gate: forest and GBDT against
            // scalar, the SVM against scalar-libm.
            ("gated", Json::Bool(true)),
        ]));
    }
    let kernels_doc = Json::obj([
        ("dispatched", Json::str(dispatched.name())),
        ("exp_backend", Json::str(exp_backend.name())),
        ("avx2_supported", Json::Bool(kernels::avx2_supported())),
        ("threads", Json::num(reds_par::max_threads() as f64)),
        ("families", Json::Arr(kernel_rows)),
    ]);
    write_report(&out_dir, "BENCH_kernels.json", &kernels_doc);

    // The ratio gates apply at the benchmark's reference size; reduced
    // runs check equivalence only. The kernel gates mean something only
    // where dispatch selects SIMD: on scalar-only hardware (or under
    // REDS_KERNEL=scalar) they would compare scalar with scalar.
    if l < 80_000 {
        return;
    }
    gates.check(
        speedup >= 3.0,
        format!("pipeline speedup {speedup:.2}x below the 3x acceptance target"),
    );
    if dispatched == Kernel::Scalar {
        return;
    }
    for (family, kernel_speedup, libm_speedup) in speedups {
        if family != "svm" {
            gates.check(
                kernel_speedup >= 1.5,
                format!(
                    "{family} kernel speedup {kernel_speedup:.2}x below the 1.5x acceptance target"
                ),
            );
        } else if exp_backend == ExpBackend::Poly {
            // The SVM is exp-bound, so its gate measures the whole vexp
            // story: dispatched polynomial SIMD against the scalar-libm
            // baseline the pre-vexp kernels were stuck at.
            gates.check(
                libm_speedup >= 2.5,
                format!(
                    "svm dispatched-vs-scalar-libm speedup {libm_speedup:.2}x below the 2.5x \
                     acceptance target"
                ),
            );
        }
    }
}
