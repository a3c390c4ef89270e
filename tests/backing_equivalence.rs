//! Equivalence matrix of the pool backings (`reds-core`).
//!
//! `Reds::discover` must give the same result under both
//! [`Backing`]s: in memory, and paged (`reds-stream`'s chunked
//! labeling, spilled sort runs and k-way merge into a `.redsart`
//! artifact, which `reds-ooc` searches through a bounded page cache).
//! "The same" means the `f64` bound bits of every box on the trajectory
//! and the state of the caller's generator afterwards, so downstream
//! draws stay aligned across backings. Each case runs in memory first
//! and then under every paged configuration it names; the cases sweep
//! every metamodel family, the paged algorithms, many seeds, degenerate
//! and proptest-drawn chunkings, page sizes from one record to the
//! whole pool, tiny and default caches, the logit-normal sampler, and
//! given pools with probability labels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::core::{
    Backing, NewPointSampler, OocConfig, Pool, Reds, RedsConfig, RedsError, StreamConfig,
};
use reds::data::Dataset;
use reds::metamodel::{GbdtParams, RandomForestParams, SvmParams};
use reds::subgroup::{BestInterval, CartSd, Prim, SdResult, SubgroupDiscovery};

/// Corner concept: y = 1 iff the first two inputs clear 0.55.
fn corner_data(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_fn((0..n * m).map(|_| rng.gen::<f64>()).collect(), m, |x| {
        if x[0] > 0.55 && x[1] > 0.55 {
            1.0
        } else {
            0.0
        }
    })
    .expect("valid shape")
}

fn forest(n_trees: usize, config: RedsConfig) -> Reds {
    Reds::random_forest(
        RandomForestParams {
            n_trees,
            ..Default::default()
        },
        config,
    )
}

/// The three metamodel families at test sizes: 40 forest trees, 30
/// boosting rounds.
fn family(tag: &str, config: RedsConfig) -> Reds {
    match tag {
        "f" => forest(40, config),
        "x" => Reds::xgboost(
            GbdtParams {
                n_rounds: 30,
                ..Default::default()
            },
            config,
        ),
        "s" => Reds::svm(SvmParams::default(), config),
        other => panic!("unknown family {other}"),
    }
}

/// The smaller families of the paged matrix: 20 trees, 15 rounds.
fn paged_family(tag: &str, config: RedsConfig) -> Reds {
    match tag {
        "f" => forest(20, config),
        "x" => Reds::xgboost(
            GbdtParams {
                n_rounds: 15,
                ..Default::default()
            },
            config,
        ),
        _ => family(tag, config),
    }
}

/// The paged backing at `chunk_rows` rows a chunk and the default page
/// size and cache.
fn chunked(chunk_rows: usize) -> Backing {
    paged(chunk_rows, OocConfig::new())
}

fn paged(chunk_rows: usize, ooc: OocConfig) -> Backing {
    Backing::Paged {
        stream: StreamConfig::new().with_chunk_rows(chunk_rows),
        ooc,
    }
}

fn paged_at(chunk_rows: usize, page_rows: u32, cache_bytes: usize) -> Backing {
    paged(
        chunk_rows,
        OocConfig::new()
            .with_page_rows(page_rows)
            .with_cache_bytes(cache_bytes),
    )
}

/// The bound bits of every box — the bit-identity witness.
fn bounds_bits(result: &SdResult) -> Vec<Vec<(u64, u64)>> {
    result
        .boxes
        .iter()
        .map(|b| {
            (0..b.m())
                .map(|j| {
                    let (lo, hi) = b.bound(j);
                    (lo.to_bits(), hi.to_bits())
                })
                .collect()
        })
        .collect()
}

/// Runs one case in memory and then under each of `backings`, from
/// `StdRng::seed_from_u64(seed)`, and asserts that every backing gives
/// the in-memory bound bits and leaves the generator in the in-memory
/// state.
fn assert_backings_agree(
    reds: &Reds,
    d: &Dataset,
    pool: Pool<'_>,
    sd: &dyn SubgroupDiscovery,
    seed: u64,
    backings: &[Backing],
    context: &str,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = reds
        .discover(d, pool, &Backing::InMemory, sd, &mut rng)
        .unwrap_or_else(|e| panic!("{context}: in memory: {e}"));
    let next = rng.gen::<u64>();
    for backing in backings {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = reds
            .discover(d, pool, backing, sd, &mut rng)
            .unwrap_or_else(|e| panic!("{context}: {backing:?}: {e}"));
        assert_eq!(
            bounds_bits(&reference),
            bounds_bits(&result),
            "{context}: {backing:?} diverges"
        );
        assert_eq!(
            next,
            rng.gen::<u64>(),
            "{context}: {backing:?} leaves the generator elsewhere"
        );
    }
}

/// All three metamodel families across 8 seeds, with a chunk size that
/// never divides `L` evenly.
#[test]
fn streaming_matches_run_for_all_families_over_eight_seeds() {
    for tag in ["f", "x", "s"] {
        let l = if tag == "s" { 1_200 } else { 2_000 };
        let reds = family(tag, RedsConfig::default().with_l(l));
        for seed in 0..8u64 {
            let d = corner_data(110, 2, 1_000 + seed);
            assert_backings_agree(
                &reds,
                &d,
                Pool::Sample,
                &Prim::default(),
                seed,
                &[chunked(677)],
                &format!("family {tag}, seed {seed}"),
            );
        }
    }
}

/// The degenerate chunkings — one row at a time, one chunk holding
/// everything, and one chunk larger than the pool — for all three
/// families.
#[test]
fn extreme_chunk_sizes_are_bit_identical_for_all_families() {
    let l = 400;
    let d = corner_data(90, 2, 77);
    for tag in ["f", "x", "s"] {
        let reds = family(tag, RedsConfig::default().with_l(l));
        assert_backings_agree(
            &reds,
            &d,
            Pool::Sample,
            &Prim::default(),
            7,
            &[chunked(1), chunked(l), chunked(l + 123)],
            &format!("family {tag}"),
        );
    }
}

/// Both paged algorithms — PRIM and BestInterval — agree with the
/// in-memory run. CART has no paged path and says so.
#[test]
fn all_presorted_algorithms_agree_with_the_monolithic_path() {
    let algorithms: [(&str, &dyn SubgroupDiscovery); 2] =
        [("prim", &Prim::default()), ("bi", &BestInterval::default())];
    let reds = family("f", RedsConfig::default().with_l(1_500));
    for (name, sd) in algorithms {
        for seed in 0..3u64 {
            let d = corner_data(130, 3, 500 + seed);
            assert_backings_agree(
                &reds,
                &d,
                Pool::Sample,
                sd,
                30 + seed,
                &[chunked(191)],
                &format!("algorithm {name}, seed {seed}"),
            );
        }
    }
    let err = reds
        .discover(
            &corner_data(130, 3, 500),
            Pool::Sample,
            &paged(191, OocConfig::new()),
            &CartSd::default(),
            &mut StdRng::seed_from_u64(30),
        )
        .expect_err("CART needs the whole pool in memory");
    assert!(matches!(err, RedsError::NoPagedPath { .. }), "{err:?}");
}

/// A paper-default-scale case: `L = 10⁵` through the forest family.
#[test]
fn paper_default_l_is_bit_identical() {
    let d = corner_data(200, 2, 9_000);
    let reds = family("f", RedsConfig::default().with_l(100_000));
    assert_backings_agree(
        &reds,
        &d,
        Pool::Sample,
        &Prim::default(),
        90,
        &[chunked(8_192), chunked(100_000)],
        "L = 1e5",
    );
}

/// The logit-normal sampler (semi-supervised experiments) streams into
/// the paged build too.
#[test]
fn logit_normal_sampler_streams_bit_identically() {
    let d = corner_data(100, 2, 44);
    let config = RedsConfig::default()
        .with_l(900)
        .with_sampler(NewPointSampler::LogitNormal {
            mu: 0.0,
            sigma: 1.0,
        });
    assert_backings_agree(
        &forest(40, config),
        &d,
        Pool::Sample,
        &Prim::default(),
        45,
        &[chunked(101)],
        "logit-normal",
    );
}

/// A given pool (semi-supervised REDS) streams into the paged build
/// bit-identically, probability labels included.
#[test]
fn pool_streaming_matches_run_on_pool_with_probability_labels() {
    let d = corner_data(80, 2, 55);
    let pool = reds::sampling::uniform(800, 2, &mut StdRng::seed_from_u64(56));
    let reds = forest(40, RedsConfig::default().with_probability_labels());
    assert_backings_agree(
        &reds,
        &d,
        Pool::Given(&pool),
        &Prim::default(),
        57,
        &[chunked(33)],
        "given pool + probability labels",
    );
}

/// A given pool pages too, for both paged algorithms, hard and
/// probability labels.
#[test]
fn given_pool_pages_bit_identically() {
    let d = corner_data(90, 3, 0xD1);
    let pool = reds::sampling::uniform(1_100, 3, &mut StdRng::seed_from_u64(0xD2));
    for config in [
        RedsConfig::default(),
        RedsConfig::default().with_probability_labels(),
    ] {
        let reds = forest(20, config.clone());
        for (name, sd) in [
            ("prim", &Prim::default() as &dyn SubgroupDiscovery),
            ("bi", &BestInterval::default()),
        ] {
            assert_backings_agree(
                &reds,
                &d,
                Pool::Given(&pool),
                sd,
                0xD3,
                &[paged_at(97, 7, 8 << 10), paged(1_100, OocConfig::new())],
                &format!(
                    "given pool, {name}, probability {}",
                    config.probability_labels
                ),
            );
        }
    }
}

/// The corner data of `reds-core`'s own tests with a forest of 50
/// trees: PRIM paged at four chunkings (one row, a prime, exactly `L`,
/// beyond `L`), at a smaller `L` and over a given pool; PRIM and BI
/// paged at pathological page sizes and caches.
#[test]
fn small_forest_cases_agree_across_backings() {
    let quick = |config| forest(50, config);
    let d = corner_data(150, 2, 30);
    assert_backings_agree(
        &quick(RedsConfig::default().with_l(2_000)),
        &d,
        Pool::Sample,
        &Prim::default(),
        31,
        &[chunked(1), chunked(97), chunked(2_000), chunked(5_000)],
        "forest 50, chunked",
    );
    let d = corner_data(100, 2, 40);
    assert_backings_agree(
        &quick(RedsConfig::default().with_l(500)),
        &d,
        Pool::Sample,
        &Prim::default(),
        41,
        &[chunked(37)],
        "forest 50, L = 500, chunked",
    );
    let d = corner_data(90, 2, 50);
    let pool = reds::sampling::uniform(700, 2, &mut StdRng::seed_from_u64(51));
    assert_backings_agree(
        &quick(RedsConfig::default()),
        &d,
        Pool::Given(&pool),
        &Prim::default(),
        52,
        &[chunked(64)],
        "forest 50, given pool, chunked",
    );
    let d = corner_data(150, 2, 80);
    for sd in [
        &Prim::default() as &dyn SubgroupDiscovery,
        &BestInterval::default(),
    ] {
        assert_backings_agree(
            &quick(RedsConfig::default().with_l(2_000)),
            &d,
            Pool::Sample,
            sd,
            81,
            &[
                paged_at(173, 1, 1 << 10),
                paged_at(173, 257, 64 << 10),
                paged_at(173, 4_096, 48 << 20),
            ],
            &format!("forest 50, {}, paged", sd.name()),
        );
    }
    let d = corner_data(100, 2, 90);
    assert_backings_agree(
        &quick(RedsConfig::default().with_l(500)),
        &d,
        Pool::Sample,
        &Prim::default(),
        91,
        &[paged(37, OocConfig::new())],
        "forest 50, L = 500, paged",
    );
}

/// The paged matrix: families × algorithms × seeds × page sizes (one
/// record per page through everything in one page) × two caches: one
/// far too small to hold the pool, and the default budget, which holds
/// all of it, every build at 173 rows a chunk.
#[test]
fn out_of_core_matches_run_and_streaming_for_every_family_and_page_size() {
    let l = 1_500usize;
    let d = corner_data(120, 3, 0xA5);
    // 1 row per page fragments every scan; 7 and 311 misalign page and
    // chunk boundaries; l and 4·l put the whole pool in one page.
    let mut backings = Vec::new();
    for page_rows in [1u32, 7, 311, l as u32, 4 * l as u32] {
        for cache_bytes in [8 << 10, OocConfig::new().cache_bytes] {
            backings.push(paged_at(173, page_rows, cache_bytes));
        }
    }
    for tag in ["f", "x", "s"] {
        let reds = paged_family(tag, RedsConfig::default().with_l(l));
        for (name, sd) in [
            ("prim", &Prim::default() as &dyn SubgroupDiscovery),
            ("bi", &BestInterval::default()),
        ] {
            for seed in [3u64, 41] {
                assert_backings_agree(
                    &reds,
                    &d,
                    Pool::Sample,
                    sd,
                    seed,
                    &backings,
                    &format!("family {tag}, {name}, seed {seed}"),
                );
            }
        }
    }
}

/// The paged path leaves the caller's generator where the in-memory
/// path does.
#[test]
fn out_of_core_rng_protocol_matches_run() {
    let d = corner_data(90, 2, 0xB7);
    assert_backings_agree(
        &paged_family("f", RedsConfig::default().with_l(600)),
        &d,
        Pool::Sample,
        &Prim::default(),
        9,
        &[paged(97, OocConfig::new())],
        "rng protocol",
    );
}

/// Probability ("p"-variant) pseudo-labels exercise non-0/1 label sums
/// through the paged label pages.
#[test]
fn out_of_core_matches_run_with_probability_labels() {
    let d = corner_data(100, 2, 0xC3);
    let reds = paged_family(
        "f",
        RedsConfig::default().with_l(800).with_probability_labels(),
    );
    for sd in [
        &Prim::default() as &dyn SubgroupDiscovery,
        &BestInterval::default(),
    ] {
        assert_backings_agree(
            &reds,
            &d,
            Pool::Sample,
            sd,
            5,
            &[paged_at(64, 13, 4 << 10)],
            &format!("probability labels, {}", sd.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chunk sizes (1 ..= beyond L) against the in-memory
    /// path.
    #[test]
    fn any_chunking_is_bit_identical(
        seed in 0u64..1_000,
        chunk in 1usize..700,
        l in 150usize..500,
    ) {
        let d = corner_data(70, 2, seed.wrapping_mul(31).wrapping_add(3));
        assert_backings_agree(
            &family("f", RedsConfig::default().with_l(l)),
            &d,
            Pool::Sample,
            &Prim::default(),
            seed,
            &[chunked(chunk)],
            &format!("seed {seed}, chunk {chunk}, l {l}"),
        );
    }
}
