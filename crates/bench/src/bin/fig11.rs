//! Reproduces **Figure 11**: peeling trajectories of P, Pc, RPx on
//! `morris` at `N = 400` (smoothed over repetitions) and the PR AUC
//! distribution, with the Wilcoxon–Mann–Whitney test between RPx and Pc.
//!
//! ```text
//! cargo run --release -p reds-bench --bin fig11 -- [--reps 20] [--n 400]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_bench::Args;
use reds_eval::stats::wilcoxon_rank_sum;
use reds_eval::{run_method, MethodOpts};
use reds_functions::by_name;
use reds_metrics::{pr_auc, pr_points};
use reds_sampling::{latin_hypercube, uniform};

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 20);
    let n = args.get_usize("n", 400);
    let f = by_name("morris").expect("registry");
    let mut test_rng = StdRng::seed_from_u64(0xF11);
    let test_points = uniform(args.get_usize("test", 20_000), f.m(), &mut test_rng);
    let test = f
        .label_dataset(test_points, &mut test_rng)
        .expect("consistent shape");
    let opts = MethodOpts {
        l_prim: args.get_usize("l", 50_000),
        ..Default::default()
    };
    let methods = ["P", "Pc", "RPx"];
    // Bin trajectories on a recall grid for the smoothed curves.
    const BINS: usize = 20;
    let mut curves = vec![vec![(0.0f64, 0usize); BINS]; methods.len()];
    let mut aucs: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(3_000 + rep as u64);
        let design = latin_hypercube(n, f.m(), &mut rng);
        let d = f.label_dataset(design, &mut rng).expect("consistent shape");
        for (mi, name) in methods.iter().enumerate() {
            let mut method_rng = StdRng::seed_from_u64(4_000 + (rep * 7 + mi) as u64);
            let result = run_method(name, &d, &opts, &mut method_rng).expect("valid method");
            aucs[mi].push(100.0 * pr_auc(&result.boxes, &test));
            for p in pr_points(&result.boxes, &test) {
                let bin = ((p.recall * BINS as f64) as usize).min(BINS - 1);
                curves[mi][bin].0 += p.precision;
                curves[mi][bin].1 += 1;
            }
        }
        eprintln!("rep {}/{reps}", rep + 1);
    }

    println!("Figure 11 (left): smoothed peeling trajectories, morris N = {n}");
    println!("| recall bin | {} |", methods.join(" | "));
    println!("|---|{}", "---|".repeat(methods.len()));
    for bin in 0..BINS {
        let lo = bin as f64 / BINS as f64;
        let cells: Vec<String> = curves
            .iter()
            .map(|c| {
                let (sum, cnt) = c[bin];
                if cnt == 0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", sum / cnt as f64)
                }
            })
            .collect();
        println!(
            "| {lo:.2}–{:.2} | {} |",
            lo + 1.0 / BINS as f64,
            cells.join(" | ")
        );
    }

    println!("\nFigure 11 (right): PR AUC distribution over {reps} repetitions");
    println!("| method | mean | min | max |");
    println!("|---|---|---|---|");
    for (mi, name) in methods.iter().enumerate() {
        let v = &aucs[mi];
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!("| {name} | {mean:.1} | {min:.1} | {max:.1} |");
    }
    let idx = |name: &str| methods.iter().position(|m| *m == name).expect("in list");
    println!(
        "\nWilcoxon–Mann–Whitney RPx vs Pc on PR AUC: p = {:.2e}",
        wilcoxon_rank_sum(&aucs[idx("RPx")], &aucs[idx("Pc")])
    );
}
