//! Reproduces **Figure 9**: wall-clock runtimes of PRIM-family and
//! BI-family methods contingent on the training size `N`, averaged over
//! functions and repetitions.
//!
//! ```text
//! cargo run --release -p reds-bench --bin fig9 -- \
//!     [--reps 5] [--ns 200,400,800] [--functions ...] [--all]
//! ```

use reds_bench::{function_names, resolve_function, Args};
use reds_eval::{run_experiment, ExperimentSpec, MethodOpts};

fn main() {
    let args = Args::parse();
    let reps = args.get_usize("reps", 5);
    let functions = function_names(&args);
    let ns = args.get_usize_list("ns", &[200, 400, 800], "");
    let opts = MethodOpts {
        l_prim: args.get_usize("l", 20_000),
        l_bi: args.get_usize("l-bi", 10_000),
        bumping_q: args.get_usize("q", 20),
        ..Default::default()
    };
    let prim_methods = ["Pc", "PBc", "RPf", "RPx"];
    let bi_methods = ["BI", "BIc", "RBIcxp"];
    for (title, methods) in [
        ("PRIM-family", prim_methods.as_slice()),
        ("BI-family", bi_methods.as_slice()),
    ] {
        println!("\nFigure 9 ({title}): mean runtime in ms");
        println!("| N | {} |", methods.join(" | "));
        println!("|---|{}", "---|".repeat(methods.len()));
        for n in &ns {
            let mut totals = vec![0.0; methods.len()];
            let mut count = 0.0;
            for fname in &functions {
                let f = resolve_function(fname);
                let mut spec = ExperimentSpec::new(f, *n, methods);
                spec.reps = reps;
                spec.test_size = 4_000; // scoring size does not affect runtime of methods
                spec.opts = opts.clone();
                for (i, s) in run_experiment(&spec).iter().enumerate() {
                    totals[i] += s.runtime_ms;
                }
                count += 1.0;
            }
            let cells: Vec<String> = totals.iter().map(|t| format!("{:.0}", t / count)).collect();
            println!("| {n} | {} |", cells.join(" | "));
            eprintln!("done: N={n} ({title})");
        }
    }
    println!(
        "\nNote: REDS runtime is dominated by L (pseudo-label volume), so it scales\n\
         sublinearly in N — the paper's observation (§9.1.1). REDS is cheaper than\n\
         2–4x more simulation runs whenever one simulation exceeds ~2 s."
    );
}
