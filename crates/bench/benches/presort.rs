//! Naive-vs-presorted microbenchmarks for the §7 hot paths: the
//! presort itself (`argsort_stable` on one column, `SortedView::new` on
//! a whole pool), PRIM peeling with and without the `SortedView`
//! columnar index, serial-naive vs parallel-presorted forest training,
//! and per-point vs tree-major batched forest prediction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::{argsort_stable, ord_key, Dataset, SortedView};
use reds_metamodel::{Metamodel, NaiveRandomForest, RandomForest, RandomForestParams};
use reds_subgroup::{NaivePrim, Prim, SubgroupDiscovery};

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

/// `n × m` points, uniform in `[0, 1)` or on a 16-level grid (every
/// value tied about `n / 16` times).
fn presort_pool(n: usize, m: usize, grid: bool, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n * m)
        .map(|_| {
            let v = rng.gen::<f64>();
            if grid {
                (v * 16.0).floor() / 16.0
            } else {
                v
            }
        })
        .collect();
    Dataset::new(points, vec![0.0; n], m).expect("valid shape")
}

fn bench_presort(c: &mut Criterion) {
    let mut group = c.benchmark_group("presort/sort");
    group.sample_size(10);
    for (name, grid) in [("uniform", false), ("grid16", true)] {
        let d = presort_pool(100_000, 12, grid, 8);
        group.bench_function(BenchmarkId::new("argsort_stable_1e5", name), |b| {
            b.iter(|| argsort_stable(d.n(), |i| ord_key(d.value(i, 0))))
        });
        group.bench_function(BenchmarkId::new("sorted_view_1e5x12", name), |b| {
            b.iter(|| SortedView::new(&d))
        });
    }
    group.finish();
}

fn bench_prim_naive_vs_presorted(c: &mut Criterion) {
    let mut group = c.benchmark_group("presort/prim_peel");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let d = corner_data(n, 10, 1);
        group.bench_with_input(BenchmarkId::new("naive", n), &d, |b, d| {
            let prim = NaivePrim::default();
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| prim.discover(d, d, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("presorted", n), &d, |b, d| {
            let prim = Prim::default();
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| prim.discover(d, d, &mut rng));
        });
    }
    group.finish();
}

fn bench_forest_serial_vs_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("presort/forest_fit");
    group.sample_size(10);
    let d = corner_data(400, 10, 3);
    let params = RandomForestParams {
        n_trees: 100,
        ..Default::default()
    };
    group.bench_function("naive_serial", |b| {
        reds_par::set_max_threads(Some(1));
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| NaiveRandomForest::fit(&d, &params, &mut rng));
        reds_par::set_max_threads(None);
    });
    group.bench_function("presorted_parallel", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| RandomForest::fit(&d, &params, &mut rng));
    });
    group.finish();
}

fn bench_predict_point_vs_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("presort/forest_predict");
    group.sample_size(10);
    let d = corner_data(300, 10, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let forest = RandomForest::fit(&d, &RandomForestParams::default(), &mut rng);
    let query: Vec<f64> = (0..20_000 * 10).map(|_| rng.gen::<f64>()).collect();
    group.bench_function("per_point", |b| {
        b.iter(|| {
            query
                .chunks_exact(10)
                .map(|x| forest.predict(x))
                .sum::<f64>()
        })
    });
    group.bench_function("batch_tree_major", |b| {
        b.iter(|| forest.predict_batch(&query, 10).iter().sum::<f64>())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_presort,
    bench_prim_naive_vs_presorted,
    bench_forest_serial_vs_parallel,
    bench_predict_point_vs_batch
);
criterion_main!(benches);
