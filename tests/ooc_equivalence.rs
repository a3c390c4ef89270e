//! Acceptance suite of the out-of-core PR: `Reds::discover_out_of_core`
//! produces **bit-identical** boxes to the monolithic `Reds::run` and
//! the streaming `Reds::discover_streaming` — for every metamodel
//! family (forest, GBDT, SVM), both paged algorithms (PRIM and
//! BestInterval), multiple seeds, and pathological page sizes from one
//! record per page up to the whole pool in a single page.
//!
//! Bit-identity means the `f64` bound bits of every box on the
//! trajectory, not approximate equality: the paged column store must
//! serve every scan in the exact order of the in-memory `SortedView`
//! path so that each floating-point summation associates identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::core::{OocConfig, Reds, RedsConfig};
use reds::data::Dataset;
use reds::metamodel::{GbdtParams, RandomForestParams, SvmParams};
use reds::subgroup::{BestInterval, Prim, SdResult, SubgroupDiscovery};
use reds_stream::StreamConfig;

/// Corner concept with some label noise resistance: y = 1 iff the
/// first two inputs clear 0.55.
fn corner_data(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_fn((0..n * m).map(|_| rng.gen::<f64>()).collect(), m, |x| {
        if x[0] > 0.55 && x[1] > 0.55 {
            1.0
        } else {
            0.0
        }
    })
    .unwrap()
}

fn family(tag: &str, config: RedsConfig) -> Reds {
    match tag {
        "forest" => Reds::random_forest(
            RandomForestParams {
                n_trees: 20,
                ..Default::default()
            },
            config,
        ),
        "gbdt" => Reds::xgboost(
            GbdtParams {
                n_rounds: 15,
                ..Default::default()
            },
            config,
        ),
        "svm" => Reds::svm(SvmParams::default(), config),
        other => panic!("unknown family {other}"),
    }
}

/// The bound bits of every box — the bit-identity witness.
fn bounds_bits(result: &SdResult) -> Vec<(u64, u64)> {
    result
        .boxes
        .iter()
        .flat_map(|b| {
            (0..b.m()).map(|j| {
                let (lo, hi) = b.bound(j);
                (lo.to_bits(), hi.to_bits())
            })
        })
        .collect()
}

/// The full matrix: families × algorithms × seeds × page sizes (1
/// record per page through "everything in one page") × two caches: one
/// far too small to hold the pool, and the default budget, which holds
/// all of it (every fetch after the first is a hit). Every cell must be
/// bit-identical to both the monolithic and the streaming path.
#[test]
fn out_of_core_matches_run_and_streaming_for_every_family_and_page_size() {
    let l = 1_500usize;
    for family_tag in ["forest", "gbdt", "svm"] {
        let d = corner_data(120, 3, 0xA5);
        let reds = family(family_tag, RedsConfig::default().with_l(l));
        for (alg_tag, sd) in [
            ("prim", &Prim::default() as &dyn SubgroupDiscovery),
            ("bi", &BestInterval::default()),
        ] {
            for seed in [3u64, 41] {
                let reference = reds.run(&d, sd, &mut StdRng::seed_from_u64(seed)).unwrap();
                let streamed = reds
                    .discover_streaming(
                        &d,
                        sd,
                        &mut StdRng::seed_from_u64(seed),
                        &StreamConfig::new().with_chunk_rows(173),
                    )
                    .unwrap();
                assert_eq!(
                    bounds_bits(&reference),
                    bounds_bits(&streamed),
                    "{family_tag}/{alg_tag}/seed {seed}: streaming diverges"
                );
                // 1 row/page fragments every scan; 7 and 311 misalign
                // page and chunk boundaries; l and 4·l put the whole
                // pool in a single page.
                for page_rows in [1u32, 7, 311, l as u32, 4 * l as u32] {
                    for cache_bytes in [8 << 10, OocConfig::new().cache_bytes] {
                        let ooc = OocConfig::new()
                            .with_page_rows(page_rows)
                            .with_cache_bytes(cache_bytes);
                        let paged = reds
                            .discover_out_of_core(
                                &d,
                                sd,
                                &mut StdRng::seed_from_u64(seed),
                                &StreamConfig::new().with_chunk_rows(173),
                                &ooc,
                            )
                            .unwrap();
                        assert_eq!(
                            bounds_bits(&reference),
                            bounds_bits(&paged),
                            "{family_tag}/{alg_tag}/seed {seed}/page_rows {page_rows}/\
                             cache {cache_bytes}: out-of-core diverges"
                        );
                    }
                }
            }
        }
    }
}

/// The out-of-core path leaves the caller's RNG in exactly the state
/// the monolithic path does, so downstream draws stay aligned across
/// modes.
#[test]
fn out_of_core_rng_protocol_matches_run() {
    let d = corner_data(90, 2, 0xB7);
    let reds = family("forest", RedsConfig::default().with_l(600));
    let mut rng_run = StdRng::seed_from_u64(9);
    let mut rng_ooc = StdRng::seed_from_u64(9);
    reds.run(&d, &Prim::default(), &mut rng_run).unwrap();
    reds.discover_out_of_core(
        &d,
        &Prim::default(),
        &mut rng_ooc,
        &StreamConfig::new().with_chunk_rows(97),
        &OocConfig::new(),
    )
    .unwrap();
    assert_eq!(rng_run.gen::<u64>(), rng_ooc.gen::<u64>());
}

/// Probability ("p"-variant) pseudo-labels exercise non-0/1 label sums
/// through the paged label pages; bit-identity must hold there too.
#[test]
fn out_of_core_matches_run_with_probability_labels() {
    let d = corner_data(100, 2, 0xC3);
    let reds = family(
        "forest",
        RedsConfig::default().with_l(800).with_probability_labels(),
    );
    for sd in [
        &Prim::default() as &dyn SubgroupDiscovery,
        &BestInterval::default(),
    ] {
        let reference = reds.run(&d, sd, &mut StdRng::seed_from_u64(5)).unwrap();
        let paged = reds
            .discover_out_of_core(
                &d,
                sd,
                &mut StdRng::seed_from_u64(5),
                &StreamConfig::new().with_chunk_rows(64),
                &OocConfig::new()
                    .with_page_rows(13)
                    .with_cache_bytes(4 << 10),
            )
            .unwrap();
        assert_eq!(
            bounds_bits(&reference),
            bounds_bits(&paged),
            "{}: probability labels diverge out of core",
            sd.name()
        );
    }
}
