//! Reproduces **Figure 10**: the mixed-inputs experiment (§9.1.2).
//! Even-indexed inputs are drawn from the discrete grid
//! `{0.1, 0.3, 0.5, 0.7, 0.9}`; REDS resamples from the same mixed
//! distribution. Reports the relative quality gain of RPcxp over Pc and
//! RBIcxp over BIc at `N = 400` (`dsgc` is excluded, as in the paper).
//!
//! ```text
//! cargo run --release -p reds-bench --bin fig10 -- [--reps 10] [--n 400]
//! ```

use reds_bench::{function_names, resolve_function, Args};
use reds_eval::stats::wilcoxon_signed_rank;
use reds_eval::{run_experiment, Design, ExperimentSpec, MethodOpts};

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 10);
    let n = args.get_usize("n", 400);
    let functions: Vec<String> = function_names(&args)
        .into_iter()
        .filter(|f| f != "dsgc")
        .collect();
    let opts = MethodOpts {
        l_prim: args.get_usize("l", 20_000),
        l_bi: args.get_usize("l-bi", 10_000),
        bumping_q: args.get_usize("q", 20),
        ..Default::default()
    };
    let methods = ["Pc", "PBc", "RPcxp", "BIc", "BI", "RBIcxp"];
    println!("Figure 10: mixed inputs, N = {n} — quality change (%) vs Pc / BIc");
    println!("| function | PBc ΔPRAUC | RPcxp ΔPRAUC | RPcxp Δprec | BI ΔWRAcc | RBIcxp ΔWRAcc |");
    println!("|---|---|---|---|---|---|");
    let mut rpcxp_auc = Vec::new();
    let mut pc_auc = Vec::new();
    let mut rbicxp_w = Vec::new();
    let mut bic_w = Vec::new();
    for fname in &functions {
        let f = resolve_function(fname);
        let mut spec = ExperimentSpec::new(f, n, &methods);
        spec.design = Design::MixedEven;
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
            100.0 * (s[idx("RPcxp")].pr_auc - pc.pr_auc) / pc.pr_auc.max(1e-9),
            100.0 * (s[idx("RPcxp")].precision - pc.precision) / pc.precision.max(1e-9),
            100.0 * (s[idx("BI")].wracc - bic.wracc) / bic.wracc.abs().max(1e-9),
            100.0 * (s[idx("RBIcxp")].wracc - bic.wracc) / bic.wracc.abs().max(1e-9),
        );
        rpcxp_auc.push(s[idx("RPcxp")].pr_auc);
        pc_auc.push(pc.pr_auc);
        rbicxp_w.push(s[idx("RBIcxp")].wracc);
        bic_w.push(bic.wracc);
        eprintln!("done: {fname}");
    }
    println!(
        "\npost-hoc RPcxp vs Pc (Wilcoxon signed-rank over functions): p = {:.2e}",
        wilcoxon_signed_rank(&rpcxp_auc, &pc_auc)
    );
    println!(
        "post-hoc RBIcxp vs BIc: p = {:.2e}",
        wilcoxon_signed_rank(&rbicxp_w, &bic_w)
    );
}
