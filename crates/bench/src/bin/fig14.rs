//! Reproduces **Figure 14**: REDS as a semi-supervised subgroup
//! discovery method (§9.4). All inputs are sampled i.i.d. from a
//! logit-normal distribution (`μ = 0`, `σ = 1`); functions whose share
//! of interesting examples drops to ≤ 5 % under this distribution are
//! excluded, as in the paper. Reports the quality change of PBc/RPx
//! relative to Pc and of BI/RBIcxp relative to BIc.
//!
//! ```text
//! cargo run --release -p reds-bench --bin fig14 -- [--reps 10] [--n 400]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_bench::{function_names, resolve_function, Args};
use reds_eval::stats::wilcoxon_signed_rank;
use reds_eval::{run_experiment, Design, ExperimentSpec, MethodOpts};
use reds_sampling::logit_normal;

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 10);
    let n = args.get_usize("n", 400);
    let opts = MethodOpts {
        l_prim: args.get_usize("l", 20_000),
        l_bi: args.get_usize("l-bi", 10_000),
        bumping_q: args.get_usize("q", 20),
        ..Default::default()
    };
    // Keep the functions whose positive share under the logit-normal
    // distribution stays above 5 % (the paper keeps 30 of 32).
    let functions: Vec<String> = function_names(&args)
        .into_iter()
        .filter(|name| name != "dsgc")
        .filter(|name| {
            let f = resolve_function(name);
            let mut rng = StdRng::seed_from_u64(0x514);
            let pts = logit_normal(4_000, f.m(), 0.0, 1.0, &mut rng);
            let share: f64 = pts
                .chunks_exact(f.m())
                .map(|x| f.prob_positive(x))
                .sum::<f64>()
                / 4_000.0;
            if share <= 0.05 {
                eprintln!("excluding {name}: logit-normal share {:.1}%", 100.0 * share);
                false
            } else {
                true
            }
        })
        .collect();

    let methods = ["Pc", "PBc", "RPx", "BIc", "BI", "RBIcxp"];
    println!("Figure 14: semi-supervised setting (logit-normal inputs), N = {n}");
    println!("| function | PBc ΔPRAUC | RPx ΔPRAUC | RPx Δprec | BI ΔWRAcc | RBIcxp ΔWRAcc |");
    println!("|---|---|---|---|---|---|");
    let mut rpx_auc = Vec::new();
    let mut pc_auc = Vec::new();
    let mut rbicxp_w = Vec::new();
    let mut bic_w = Vec::new();
    for fname in &functions {
        let f = resolve_function(fname);
        let mut spec = ExperimentSpec::new(f, n, &methods);
        spec.design = Design::LogitNormal;
        spec.reps = reps;
        spec.test_size = args.get_usize("test", 20_000);
        spec.opts = opts.clone();
        let s = run_experiment(&spec);
        let idx = |name: &str| {
            s.iter()
                .position(|x| x.method == name)
                .expect("method in list")
        };
        let pc = &s[idx("Pc")];
        let bic = &s[idx("BIc")];
        println!(
            "| {fname} | {:+.1} | {:+.1} | {:+.1} | {:+.1} | {:+.1} |",
            100.0 * (s[idx("PBc")].pr_auc - pc.pr_auc) / pc.pr_auc.max(1e-9),
            100.0 * (s[idx("RPx")].pr_auc - pc.pr_auc) / pc.pr_auc.max(1e-9),
            100.0 * (s[idx("RPx")].precision - pc.precision) / pc.precision.max(1e-9),
            100.0 * (s[idx("BI")].wracc - bic.wracc) / bic.wracc.abs().max(1e-9),
            100.0 * (s[idx("RBIcxp")].wracc - bic.wracc) / bic.wracc.abs().max(1e-9),
        );
        rpx_auc.push(s[idx("RPx")].pr_auc);
        pc_auc.push(pc.pr_auc);
        rbicxp_w.push(s[idx("RBIcxp")].wracc);
        bic_w.push(bic.wracc);
        eprintln!("done: {fname}");
    }
    println!(
        "\npost-hoc RPx vs Pc (Wilcoxon signed-rank over functions): p = {:.2e}",
        wilcoxon_signed_rank(&rpx_auc, &pc_auc)
    );
    println!(
        "post-hoc RBIcxp vs BIc: p = {:.2e}",
        wilcoxon_signed_rank(&rbicxp_w, &bic_w)
    );
}
