//! Reproduces **Figure 12**: learning curves on `morris` — scenario
//! quality versus the number of simulations `N` (left column) and
//! versus REDS's pseudo-label volume `L` at fixed `N = 400` (right
//! column), for the PRIM family (PR AUC) and the BI family (WRAcc).
//!
//! The `L = N = 400` point of `RPxp` demonstrates Proposition 1:
//! probability pseudo-labels beat the same number of simulated hard
//! labels.
//!
//! ```text
//! cargo run --release -p reds-bench --bin fig12 -- \
//!     [--reps 10] [--ns 200,400,800,1600,3200] [--ls 400,800,1600,3200,6400,25000] \
//!     [--l 50000] [--test 20000]
//! ```

use reds_bench::Args;
use reds_eval::savings::{mean_savings, savings_profile};
use reds_eval::{run_experiment, ExperimentSpec, MethodOpts};
use reds_functions::by_name;

const USAGE: &str = "usage: fig12 [--reps N] [--ns N,N,...] [--ls L,L,...] [--l L] [--test N]";

/// The `--key value` options `USAGE` lists; fig12 takes no bare flag.
const OPTIONS: [&str; 5] = ["reps", "ns", "ls", "l", "test"];

fn main() {
    let args = Args::parse();
    args.accept_only(&OPTIONS, &[], USAGE);
    let reps = args.get_usize("reps", 10);
    let ns = args.get_usize_list("ns", &[200, 400, 800, 1_600, 3_200], USAGE);
    let ls = args.get_usize_list("ls", &[400, 800, 1_600, 3_200, 6_400, 25_000], USAGE);
    let l_default = args.get_usize("l", 50_000);
    let test_size = args.get_usize("test", 20_000);
    let f = by_name("morris").expect("registry");

    // Left column: quality vs N at fixed L.
    let prim_methods = ["P", "Pc", "RPx", "RPxp"];
    println!("Figure 12 (top-left): PR AUC vs N, morris, L = {l_default}");
    println!("| N | {} |", prim_methods.join(" | "));
    println!("|---|{}", "---|".repeat(prim_methods.len()));
    let mut pc_curve = Vec::new();
    let mut rpx_curve = Vec::new();
    for &n in &ns {
        let mut spec = ExperimentSpec::new(f, n, &prim_methods);
        spec.reps = reps;
        spec.test_size = test_size;
        spec.opts = MethodOpts {
            l_prim: l_default,
            ..Default::default()
        };
        let s = run_experiment(&spec);
        let cells: Vec<String> = s.iter().map(|x| format!("{:.1}", x.pr_auc)).collect();
        println!("| {n} | {} |", cells.join(" | "));
        pc_curve.push((n as f64, s[1].pr_auc));
        rpx_curve.push((n as f64, s[2].pr_auc));
        eprintln!("done: N={n} (PRIM family)");
    }
    // A point where RPx already beats Pc's quality at the grid's first N
    // holds only a lower bound on the savings; the mean leaves it out.
    let profile = savings_profile(&pc_curve, &rpx_curve);
    let censored = profile.iter().filter(|s| s.censored).count();
    match mean_savings(&pc_curve, &rpx_curve) {
        Some(saved) => println!(
            "\nheadline: RPx needs on average {:.0}% fewer simulations than Pc\n\
             for the same PR AUC on this sweep (paper: 50-75%), over {} uncensored\n\
             reference points; {censored} censored (RPx reaches Pc's quality at its first N)",
            100.0 * saved,
            profile.len() - censored
        ),
        None => println!(
            "\nheadline: no uncensored reference point on this sweep ({censored} censored)"
        ),
    }

    let bi_methods = ["BI", "BIc", "RBIcxp"];
    println!("\nFigure 12 (bottom-left): WRAcc vs N, morris, L = 10000");
    println!("| N | {} |", bi_methods.join(" | "));
    println!("|---|{}", "---|".repeat(bi_methods.len()));
    for &n in &ns {
        let mut spec = ExperimentSpec::new(f, n, &bi_methods);
        spec.reps = reps;
        spec.test_size = test_size;
        spec.opts = MethodOpts {
            l_bi: 10_000,
            ..Default::default()
        };
        let s = run_experiment(&spec);
        let cells: Vec<String> = s.iter().map(|x| format!("{:.2}", x.wracc)).collect();
        println!("| {n} | {} |", cells.join(" | "));
        eprintln!("done: N={n} (BI family)");
    }

    // Right column: quality vs L at fixed N = 400. The baselines P / BI
    // do not depend on L; they are printed once per row for reference.
    let n_fixed = 400;
    println!("\nFigure 12 (top-right): PR AUC vs L, morris, N = {n_fixed}");
    println!("| L | P (ref) | RPx | RPxp |");
    println!("|---|---|---|---|");
    for &l in &ls {
        let mut spec = ExperimentSpec::new(f, n_fixed, &["P", "RPx", "RPxp"]);
        spec.reps = reps;
        spec.test_size = test_size;
        spec.opts = MethodOpts {
            l_prim: l,
            ..Default::default()
        };
        let s = run_experiment(&spec);
        println!(
            "| {l} | {:.1} | {:.1} | {:.1} |",
            s[0].pr_auc, s[1].pr_auc, s[2].pr_auc
        );
        eprintln!("done: L={l} (PRIM family)");
    }

    println!("\nFigure 12 (bottom-right): WRAcc vs L, morris, N = {n_fixed}");
    println!("| L | BI (ref) | RBIcxp |");
    println!("|---|---|---|");
    for &l in &ls {
        let mut spec = ExperimentSpec::new(f, n_fixed, &["BI", "RBIcxp"]);
        spec.reps = reps;
        spec.test_size = test_size;
        spec.opts = MethodOpts {
            l_bi: l,
            ..Default::default()
        };
        let s = run_experiment(&spec);
        println!("| {l} | {:.2} | {:.2} |", s[0].wracc, s[1].wracc);
        eprintln!("done: L={l} (BI family)");
    }
}
