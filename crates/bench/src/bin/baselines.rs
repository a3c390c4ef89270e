//! The classic scenario-discovery bake-off of Lempert, Bryant & Bankes
//! (2008) ([61], §2.1) extended with REDS: PRIM vs CART, each with and
//! without the REDS metamodel step. Demonstrates that REDS's SD argument
//! is genuinely pluggable (Algorithm 4 takes *any* `SD`).
//!
//! ```text
//! cargo run --release -p reds-bench --bin baselines -- [--reps 10] [--n 400]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_bench::resolve_function;
use reds_bench::{function_names, Args};
use reds_core::{Reds, RedsConfig};
use reds_eval::stats::wilcoxon_signed_rank;
use reds_metamodel::GbdtParams;
use reds_metrics::pr_auc;
use reds_sampling::{latin_hypercube, uniform};
use reds_subgroup::{CartSd, Prim, SubgroupDiscovery};

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 10);
    let n = args.get_usize("n", 400);
    let l = args.get_usize("l", 20_000);
    let functions = function_names(&args);
    let variants = ["P", "CART", "RPx", "R-CART-x"];
    println!("Baselines (PR AUC on test data), N = {n}, L = {l}");
    println!("| function | {} |", variants.join(" | "));
    println!("|---|{}", "---|".repeat(variants.len()));
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for fname in &functions {
        let f = resolve_function(fname);
        let mut test_rng = StdRng::seed_from_u64(0xBA5E);
        let test_pts = uniform(args.get_usize("test", 10_000), f.m(), &mut test_rng);
        let test = f
            .label_dataset(test_pts, &mut test_rng)
            .expect("consistent shape");
        let mut scores = vec![0.0; variants.len()];
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(1_000 + rep as u64);
            let design = latin_hypercube(n, f.m(), &mut rng);
            let d = f.label_dataset(design, &mut rng).expect("consistent shape");
            let prim = Prim::default();
            let cart = CartSd::default();
            let sds: [&dyn SubgroupDiscovery; 2] = [&prim, &cart];
            for (vi, sd) in sds.iter().enumerate() {
                let mut r = StdRng::seed_from_u64(2_000 + rep as u64);
                let result = sd.discover(&d, &d, &mut r);
                scores[vi] += pr_auc(&result.boxes, &test);
            }
            for (vi, sd) in sds.iter().enumerate() {
                let reds = Reds::xgboost(GbdtParams::default(), RedsConfig::default().with_l(l));
                let mut r = StdRng::seed_from_u64(3_000 + rep as u64);
                let result = reds.run(&d, *sd, &mut r).expect("pipeline runs");
                scores[2 + vi] += pr_auc(&result.boxes, &test);
            }
        }
        let cells: Vec<String> = scores
            .iter()
            .map(|s| format!("{:.3}", s / reps as f64))
            .collect();
        println!("| {fname} | {} |", cells.join(" | "));
        for (vi, s) in scores.iter().enumerate() {
            totals[vi].push(s / reps as f64);
        }
        eprintln!("done: {fname}");
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let cells: Vec<String> = totals.iter().map(|v| format!("{:.3}", mean(v))).collect();
    println!("| **mean** | {} |", cells.join(" | "));
    println!(
        "\nREDS lift: PRIM p = {:.3}, CART p = {:.3} (Wilcoxon signed-rank over functions)",
        wilcoxon_signed_rank(&totals[2], &totals[0]),
        wilcoxon_signed_rank(&totals[3], &totals[1]),
    );
}
