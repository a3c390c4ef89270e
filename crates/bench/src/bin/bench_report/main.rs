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
//! 1; a bad invocation, or an `--out-dir` that cannot be written, exits
//! with status 2.

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

fn main() {
    let args = Args::parse();
    let mut gates = Gates::default();
    match args.get_str("section", "").as_str() {
        "perf" => perf::run(&args, &mut gates),
        "pool" => pool::run(&args, &mut gates),
        "art" => art::run(&args, &mut gates),
        other => cli_fail(
            format!("--section expects perf, pool or art, got '{other}'"),
            USAGE,
        ),
    }
    gates.finish();
}
