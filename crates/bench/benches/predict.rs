//! Kernel-level prediction microbenchmarks: single-tree traversal,
//! forest and GBDT `predict_batch`, and the SVM RBF expansion, each
//! under the forced-scalar and runtime-dispatched (AVX2 where
//! available) backends.
//!
//! Batch sizes follow the paper's `N = 3·2^{M+1}` design-size rule for
//! `M ∈ {6, 12, 30}`, capped at 98 304 rows (`3·2^{15}`) — the `M = 30`
//! row would otherwise be `3·2^{31} ≈ 6.4·10⁹`; the cap is printed so a
//! reduced row is never mistaken for full paper scale. The GBDT group
//! times a 256-row request and a 65 536-row labeling batch instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::Dataset;
use reds_metamodel::{
    kernels, Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, RegressionTree, Svm,
    SvmParams, TreeParams,
};

/// The paper's design size for dimensionality `m`, capped for the
/// bench harness.
fn paper_rows(m: usize) -> usize {
    const CAP: usize = 98_304; // 3 * 2^15
    let uncapped = 3usize.saturating_mul(1usize << (m + 1).min(40));
    if uncapped > CAP {
        eprintln!("predict bench: capping N = 3*2^{} at {CAP} rows", m + 1);
        CAP
    } else {
        uncapped
    }
}

fn corner_data(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_fn((0..n * m).map(|_| rng.gen::<f64>()).collect(), m, |x| {
        if x[0] > 0.6 && x[1] > 0.6 {
            1.0
        } else {
            0.0
        }
    })
    .expect("valid shape")
}

/// Kernels to sweep: forced scalar, plus the dispatched backend when it
/// differs (i.e. when AVX2 is available and not overridden away).
fn backends() -> Vec<(&'static str, Option<kernels::Kernel>)> {
    let mut out = vec![("scalar", Some(kernels::Kernel::Scalar))];
    if kernels::active() != kernels::Kernel::Scalar {
        out.push((kernels::active().name(), None));
    }
    out
}

fn bench_tree_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict/tree");
    group.sample_size(10);
    for m in [6usize, 12, 30] {
        let n = paper_rows(m);
        let d = corner_data(600, m, 1);
        let idx: Vec<usize> = (0..d.n()).collect();
        let tree = RegressionTree::fit(
            d.points(),
            d.labels(),
            m,
            &idx,
            &TreeParams::default(),
            &mut StdRng::seed_from_u64(2),
        );
        let query: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..n * m).map(|_| rng.gen()).collect()
        };
        for (name, force) in backends() {
            let kernel = force.unwrap_or_else(kernels::active);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/m{m}"), n),
                &query,
                |b, q| {
                    let mut acc = vec![0.0f64; n];
                    b.iter(|| {
                        acc.fill(0.0);
                        kernels::accumulate_tree(kernel, tree.flat(), q, m, &mut acc);
                        acc[0]
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_forest_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict/forest_batch");
    group.sample_size(10);
    for m in [6usize, 12, 30] {
        let n = paper_rows(m);
        let d = corner_data(400, m, 4);
        let params = RandomForestParams {
            n_trees: 100,
            ..Default::default()
        };
        let forest = RandomForest::fit(&d, &params, &mut StdRng::seed_from_u64(5));
        let query: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(6);
            (0..n * m).map(|_| rng.gen()).collect()
        };
        for (name, force) in backends() {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/m{m}"), n),
                &query,
                |b, q| {
                    kernels::set_kernel(force);
                    b.iter(|| forest.predict_batch(q, m).len());
                    kernels::set_kernel(None);
                },
            );
        }
    }
    group.finish();
}

fn bench_gbdt_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict/gbdt_batch");
    group.sample_size(10);
    // The default ensemble on a Latin-hypercube design of 400 DSGC runs
    // (M = 12): its trees reach the default depth of 4, where the
    // corner concept of the other groups grows stumps.
    let dsgc = reds_functions::by_name("dsgc").expect("dsgc is registered");
    let m = dsgc.m();
    let mut rng = StdRng::seed_from_u64(10);
    let design = reds_sampling::latin_hypercube(400, m, &mut rng);
    let d = dsgc.label_dataset(design, &mut rng).expect("whole rows");
    let gbdt = Gbdt::fit(&d, &GbdtParams::default(), &mut rng);
    // A served 256-row request, and a pseudo-labeling batch.
    for n in [256usize, 65_536] {
        let query: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(12);
            (0..n * m).map(|_| rng.gen()).collect()
        };
        for (name, force) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &query, |b, q| {
                kernels::set_kernel(force);
                b.iter(|| gbdt.predict_batch(q, m).len());
                kernels::set_kernel(None);
            });
        }
    }
    group.finish();
}

fn bench_svm_rbf(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict/svm_rbf");
    group.sample_size(10);
    for m in [6usize, 12, 30] {
        // The expansion costs rows × n_sv × m; scale rows down so the
        // scalar baseline stays benchable.
        let n = (paper_rows(m) / 8).max(256);
        let d = corner_data(300, m, 7);
        let svm = Svm::fit(&d, &SvmParams::default(), &mut StdRng::seed_from_u64(8));
        let query: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..n * m).map(|_| rng.gen()).collect()
        };
        for (name, force) in backends() {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/m{m}"), n),
                &query,
                |b, q| {
                    kernels::set_kernel(force);
                    b.iter(|| svm.predict_batch(q, m).len());
                    kernels::set_kernel(None);
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_traversal,
    bench_forest_batch,
    bench_gbdt_batch,
    bench_svm_rbf
);
criterion_main!(benches);
