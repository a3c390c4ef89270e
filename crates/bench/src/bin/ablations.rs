//! Ablation studies of six design choices:
//!
//! 1. hard vs probability pseudo-labels at `L = N` (Proposition 1);
//! 2. REDS validation anchoring (`D_val = D` vs `D_val = D_new`);
//! 3. PRIM pasting on/off (§3.2.1 claims it is negligible);
//! 4. peeling-fraction `α` sensitivity (the Table 2 grid);
//! 5. the peeling objective (classic mean vs gain-per-point);
//! 6. active vs passive spending of the simulation budget (§10).
//!
//! ```text
//! cargo run --release -p reds-bench --bin ablations -- [--reps 10]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_core::{ActiveConfig, ActiveReds, Reds, RedsConfig};
use reds_data::Dataset;
use reds_eval::stats::wilcoxon_signed_rank;
use reds_functions::BenchmarkFunction;
use reds_metamodel::GbdtParams;
use reds_metrics::{pr_auc, precision};
use reds_sampling::{latin_hypercube, uniform};
use reds_subgroup::{PeelCriterion, Prim, PrimParams, SubgroupDiscovery};

use reds_bench::Args;

fn test_data(f: &BenchmarkFunction, seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = uniform(n, f.m(), &mut rng);
    f.label_dataset(pts, &mut rng).expect("consistent shape")
}

fn train_data(f: &BenchmarkFunction, seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = latin_hypercube(n, f.m(), &mut rng);
    f.label_dataset(pts, &mut rng).expect("consistent shape")
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 10);
    let n = args.get_usize("n", 400);
    let f = reds_bench::resolve_function(&args.get_str("function", "morris"));
    let test = test_data(f, 0xAB1A, args.get_usize("test", 10_000));

    // ---------------------------------------------------------------
    println!("Ablation 1: label type at L = N = {n} (Proposition 1)");
    let mut hard = Vec::new();
    let mut soft = Vec::new();
    let mut plain = Vec::new();
    for rep in 0..reps {
        let d = train_data(f, 100 + rep as u64, n);
        let mut rng = StdRng::seed_from_u64(200 + rep as u64);
        let prim = Prim::default();
        plain.push(pr_auc(&prim.discover(&d, &d, &mut rng).boxes, &test));
        for (probability, out) in [(false, &mut hard), (true, &mut soft)] {
            let mut config = RedsConfig::default().with_l(n);
            if probability {
                config = config.with_probability_labels();
            }
            let reds = Reds::xgboost(GbdtParams::default(), config);
            let mut rng = StdRng::seed_from_u64(300 + rep as u64);
            let r = reds.run(&d, &prim, &mut rng).expect("pipeline runs");
            out.push(pr_auc(&r.boxes, &test));
        }
    }
    println!("  P (simulated labels): PR AUC {:.3}", mean(&plain));
    println!("  RPx  (hard, L = N):   PR AUC {:.3}", mean(&hard));
    println!("  RPxp (soft, L = N):   PR AUC {:.3}", mean(&soft));
    println!(
        "  soft vs simulated p = {:.3} (Proposition 1 expects soft >= simulated)",
        wilcoxon_signed_rank(&soft, &plain)
    );

    // ---------------------------------------------------------------
    println!("\nAblation 2: REDS validation anchoring (final-box test precision)");
    let mut anchored = Vec::new();
    let mut unanchored = Vec::new();
    for rep in 0..reps {
        let d = train_data(f, 400 + rep as u64, n);
        let reds = Reds::xgboost(GbdtParams::default(), RedsConfig::default().with_l(20_000));
        let mut rng = StdRng::seed_from_u64(500 + rep as u64);
        // Anchored: the shipped behaviour (D_val = D).
        let r = reds
            .run(&d, &Prim::default(), &mut rng)
            .expect("pipeline runs");
        anchored.push(precision(r.last_box().expect("non-empty"), &test));
        // Unanchored: rebuild D_new manually and validate on it.
        let mut rng = StdRng::seed_from_u64(500 + rep as u64);
        let model = reds.train_metamodel(&d, &mut rng).expect("training runs");
        let pool = uniform(20_000, f.m(), &mut rng);
        let d_new = Dataset::from_fn(
            pool,
            f.m(),
            |x| {
                if model.predict(x) > 0.5 {
                    1.0
                } else {
                    0.0
                }
            },
        )
        .expect("consistent shape");
        let r = Prim::default().discover(&d_new, &d_new, &mut rng);
        unanchored.push(precision(r.last_box().expect("non-empty"), &test));
    }
    println!("  D_val = D     : precision {:.3}", mean(&anchored));
    println!("  D_val = D_new : precision {:.3}", mean(&unanchored));

    // ---------------------------------------------------------------
    println!("\nAblation 3: PRIM pasting (paper: negligible)");
    let mut no_paste = Vec::new();
    let mut with_paste = Vec::new();
    for rep in 0..reps {
        let d = train_data(f, 600 + rep as u64, n);
        for (paste, out) in [(false, &mut no_paste), (true, &mut with_paste)] {
            let prim = Prim::new(PrimParams {
                paste,
                ..Default::default()
            });
            let mut rng = StdRng::seed_from_u64(700 + rep as u64);
            let r = prim.discover(&d, &d, &mut rng);
            out.push(pr_auc(&r.boxes, &test));
        }
    }
    println!("  peel only  : PR AUC {:.3}", mean(&no_paste));
    println!("  peel+paste : PR AUC {:.3}", mean(&with_paste));
    println!(
        "  difference p = {:.3}",
        wilcoxon_signed_rank(&with_paste, &no_paste)
    );

    // ---------------------------------------------------------------
    println!("\nAblation 4: peeling fraction alpha (Table 2 grid)");
    for alpha in [0.03, 0.05, 0.1, 0.2] {
        let mut scores = Vec::new();
        for rep in 0..reps {
            let d = train_data(f, 800 + rep as u64, n);
            let prim = Prim::new(PrimParams {
                alpha,
                ..Default::default()
            });
            let mut rng = StdRng::seed_from_u64(900 + rep as u64);
            scores.push(pr_auc(&prim.discover(&d, &d, &mut rng).boxes, &test));
        }
        println!("  alpha {alpha:>5}: PR AUC {:.3}", mean(&scores));
    }

    // ---------------------------------------------------------------
    println!("\nAblation 5: peeling objective");
    for criterion in [PeelCriterion::MeanLabel, PeelCriterion::GainPerPoint] {
        let mut scores = Vec::new();
        for rep in 0..reps {
            let d = train_data(f, 1_000 + rep as u64, n);
            let prim = Prim::new(PrimParams {
                criterion,
                ..Default::default()
            });
            let mut rng = StdRng::seed_from_u64(1_100 + rep as u64);
            scores.push(pr_auc(&prim.discover(&d, &d, &mut rng).boxes, &test));
        }
        println!("  {criterion:?}: PR AUC {:.3}", mean(&scores));
    }

    // ---------------------------------------------------------------
    println!("\nAblation 6: active vs passive budget ({n} simulations total)");
    let mut passive = Vec::new();
    let mut active_scores = Vec::new();
    for rep in 0..reps {
        let sim = |x: &[f64], rng: &mut StdRng| f.label(x, rng);
        // Passive: the whole budget as one LHS design + REDS.
        let d = train_data(f, 1_200 + rep as u64, n);
        let reds = Reds::xgboost(GbdtParams::default(), RedsConfig::default().with_l(20_000));
        let mut rng = StdRng::seed_from_u64(1_300 + rep as u64);
        let r = reds
            .run(&d, &Prim::default(), &mut rng)
            .expect("pipeline runs");
        passive.push(pr_auc(&r.boxes, &test));
        // Active: half the budget up front, half by uncertainty sampling.
        let config = ActiveConfig {
            initial_n: n / 2,
            batch_size: n / 8,
            rounds: 4,
            pool_size: 4_000,
        };
        let reds = Reds::xgboost(GbdtParams::default(), RedsConfig::default().with_l(20_000));
        let active = ActiveReds::new(reds, config);
        let mut rng = StdRng::seed_from_u64(1_300 + rep as u64);
        let (r, spent) = active
            .run(f.m(), &sim, &Prim::default(), &mut rng)
            .expect("pipeline runs");
        assert_eq!(spent.n(), n, "equal budgets");
        active_scores.push(pr_auc(&r.boxes, &test));
    }
    println!("  passive REDS: PR AUC {:.3}", mean(&passive));
    println!("  active  REDS: PR AUC {:.3}", mean(&active_scores));
    println!(
        "  active vs passive p = {:.3}",
        wilcoxon_signed_rank(&active_scores, &passive)
    );
}
