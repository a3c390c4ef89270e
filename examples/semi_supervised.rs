//! REDS as a semi-supervised subgroup-discovery method (§6.1, §9.4):
//! a small labeled dataset plus a large *unlabeled* pool from the same
//! input distribution. REDS trains its metamodel on the labeled part
//! and pseudo-labels the pool for PRIM.
//!
//! ```text
//! cargo run --release --example semi_supervised
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds::core::{Backing, Pool, Reds, RedsConfig};
use reds::functions::by_name;
use reds::metamodel::GbdtParams;
use reds::metrics::score_box;
use reds::sampling::logit_normal;
use reds::subgroup::{Prim, SubgroupDiscovery};

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    let f = by_name("hart3").expect("registered function");
    // Inputs follow a *non-uniform* distribution (logit-normal) — the
    // only requirement is that labeled and unlabeled points share it.
    let labeled_points = logit_normal(150, f.m(), 0.0, 1.0, &mut rng);
    let labeled = f
        .label_dataset(labeled_points, &mut rng)
        .expect("consistent shape");
    let pool = logit_normal(20_000, f.m(), 0.0, 1.0, &mut rng);
    println!(
        "labeled: {} examples ({:.1}% positive); unlabeled pool: {} points",
        labeled.n(),
        100.0 * labeled.pos_rate(),
        pool.len() / f.m()
    );

    let prim = Prim::default();
    let plain = prim.discover(&labeled, &labeled, &mut rng);

    let reds = Reds::xgboost(
        GbdtParams::default(),
        RedsConfig::default().with_probability_labels(),
    );
    let semi = reds
        .discover(
            &labeled,
            Pool::Given(&pool),
            &Backing::InMemory,
            &prim,
            &mut rng,
        )
        .expect("pipeline runs");

    // Honest evaluation data from the same distribution.
    let test_points = logit_normal(20_000, f.m(), 0.0, 1.0, &mut rng);
    let test = f
        .label_dataset(test_points, &mut rng)
        .expect("consistent shape");
    for (name, result) in [("PRIM (labeled only)", &plain), ("REDS (semi-sup.)", &semi)] {
        // Pick the F1-optimal compromise box from the trajectory — the
        // choice a domain expert makes interactively (§5).
        let s = result
            .boxes
            .iter()
            .map(|b| score_box(b, &test))
            .max_by(|a, b| {
                let f1 = |s: &reds::metrics::BoxScore| {
                    2.0 * s.precision * s.recall / (s.precision + s.recall).max(1e-9)
                };
                f1(a).total_cmp(&f1(b))
            })
            .expect("non-empty trajectory");
        println!(
            "{name:20} precision {:.3}  recall {:.3}  ({} inputs restricted)",
            s.precision, s.recall, s.n_restricted
        );
    }
}
