//! The gated benchmark report: one binary, one section per subsystem.
//!
//! ```text
//! cargo run --release -p reds-bench --bin bench_report -- \
//!     --section perf|pool|art [section flags]
//! ```
//!
//! * `perf` — the presorted PRIM, the forest and the prediction kernels
//!   against their naive and scalar references (`BENCH_prim.json`,
//!   `BENCH_forest.json`, `BENCH_kernels.json`);
//! * `pool` — the streamed and paged pool backings against the
//!   in-memory pipeline, in bits, wall time and peak RSS
//!   (`BENCH_pool.json`);
//! * `art` — cold starts from `reds-json` and `.redsart` model files
//!   (`BENCH_art.json`).
//!
//! Each section's module documents its flags and gates. Every gate that
//! fails is printed as a `FAIL:` line and the report exits with status
//! 1; a bad invocation (a flag or token the section does not take
//! included), or an `--out-dir` that cannot be written, exits with
//! status 2.

mod art;
mod perf;
mod pool;

use reds_bench::report::Gates;
use reds_bench::{cli_fail, Args};

const USAGE: &str = "usage: bench_report --section perf|pool|art [flags]
  perf: [--l N] [--n N] [--m N] [--reps N] [--out-dir DIR]
  pool: [--l N] [--m N] [--chunk-rows N] [--mem-budget MIB] [--cache-mib N] [--page-rows N]
        [--algorithm prim|bi] [--n N] [--trees N] [--seed N] [--out-dir DIR] [--spill-dir DIR]
        [--construct-only] [--skip-inmem]
  art:  [--function NAME] [--n N] [--trees N] [--seed N] [--family f|x|s] [--reps N]
        [--probe-rows N] [--out-dir DIR]";

/// The `--key value` options (`section` among them) and the bare flags
/// of each section, as `USAGE` lists them; `pool` also takes the
/// `--measure MODE` its measurement children are started with.
fn accepted(section: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match section {
        "perf" => (&["section", "l", "n", "m", "reps", "out-dir"], &[]),
        "pool" => (
            &[
                "section",
                "l",
                "m",
                "chunk-rows",
                "mem-budget",
                "cache-mib",
                "page-rows",
                "algorithm",
                "n",
                "trees",
                "seed",
                "out-dir",
                "spill-dir",
                "measure",
            ],
            &["construct-only", "skip-inmem"],
        ),
        "art" => (
            &[
                "section",
                "function",
                "n",
                "trees",
                "seed",
                "family",
                "reps",
                "probe-rows",
                "out-dir",
            ],
            &[],
        ),
        _ => return None,
    })
}

fn main() {
    let args = Args::parse();
    let section = args.get_str("section", "");
    let Some((options, flags)) = accepted(&section) else {
        cli_fail(
            format!("--section expects perf, pool or art, got '{section}'"),
            USAGE,
        )
    };
    args.accept_only(options, flags, USAGE);
    let mut gates = Gates::default();
    match section.as_str() {
        "perf" => perf::run(&args, &mut gates),
        "pool" => pool::run(&args, &mut gates),
        _ => art::run(&args, &mut gates),
    }
    gates.finish();
}
