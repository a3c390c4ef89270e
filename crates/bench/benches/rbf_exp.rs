//! Microbenchmarks for the vectorized exponential (`vexp`) and the RBF
//! expansion built on it: raw `exp` throughput per element under every
//! backend × exp combination, and the SVM RBF expansion at paper-scale
//! support-vector counts under scalar-libm (the pre-`vexp` baseline),
//! scalar-poly, and dispatched-poly.
//!
//! These are the numbers behind the `kernels/svm` acceptance gate of
//! `bench_report --section perf` (dispatched ≥ 2.5× scalar-libm): run
//! with `cargo bench -p reds-bench --bench rbf_exp`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::Dataset;
use reds_metamodel::kernels::{self, ExpBackend};
use reds_metamodel::{Metamodel, Svm, SvmParams};

/// Backend × exp configurations to sweep: scalar-libm is the
/// pre-`vexp` baseline the acceptance gate compares against,
/// scalar-poly isolates the polynomial itself, and the dispatched row
/// adds the SIMD lanes (on hardware without AVX2 it duplicates
/// scalar-poly, which is exactly what dispatch would run).
fn configs() -> Vec<(&'static str, kernels::Kernel, ExpBackend)> {
    let mut out = vec![
        ("scalar-libm", kernels::Kernel::Scalar, ExpBackend::Libm),
        ("scalar-poly", kernels::Kernel::Scalar, ExpBackend::Poly),
    ];
    if kernels::active() != kernels::Kernel::Scalar {
        out.push((
            match kernels::active() {
                kernels::Kernel::Avx2 => "avx2-poly",
                kernels::Kernel::Scalar => unreachable!(),
            },
            kernels::active(),
            ExpBackend::Poly,
        ));
    }
    out
}

/// Raw element-wise `exp` throughput over a buffer of RBF-typical
/// arguments (`−γ·d²` values: negative, moderate magnitude).
fn bench_exp_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbf_exp/exp");
    let n = 65_536usize;
    let mut rng = StdRng::seed_from_u64(1);
    let inputs: Vec<f64> = (0..n).map(|_| -30.0 * rng.gen::<f64>()).collect();
    for (name, kernel, backend) in configs() {
        group.bench_with_input(BenchmarkId::new(name, n), &inputs, |b, xs| {
            let mut buf = xs.to_vec();
            b.iter(|| {
                buf.copy_from_slice(xs);
                kernels::exp_in_place(kernel, backend, &mut buf);
                buf[0]
            });
        });
    }
    group.finish();
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

/// Full SVM RBF expansion (`predict_batch`) across training-set sizes —
/// support-vector count grows with the training set, so this sweeps the
/// panel loop from L1-resident to multi-KB support buffers.
fn bench_svm_expand(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbf_exp/svm_batch");
    group.sample_size(10);
    let m = 10usize;
    let rows = 20_000usize;
    let query: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(2);
        (0..rows * m).map(|_| rng.gen()).collect()
    };
    for n_train in [200usize, 400, 800] {
        let d = corner_data(n_train, m, 3);
        let svm = Svm::fit(&d, &SvmParams::default(), &mut StdRng::seed_from_u64(4));
        let label = format!("n_sv{}", svm.n_support());
        for (name, kernel, backend) in configs() {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/{label}"), rows),
                &query,
                |b, q| {
                    kernels::set_kernel(Some(kernel));
                    kernels::vexp::set_backend(Some(backend));
                    b.iter(|| svm.predict_batch(q, m).len());
                    kernels::vexp::set_backend(None);
                    kernels::set_kernel(None);
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exp_elementwise, bench_svm_expand);
criterion_main!(benches);
