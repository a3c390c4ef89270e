//! Reproduces **Table 3** (and the data behind **Figure 7**): quality of
//! PRIM-based methods — P, Pc, PB, PBc, RPf, RPx, RPs — across the
//! benchmark functions for several training sizes `N`, plus the
//! `morris`-at-`N = 800` row ("mor800"), the pairwise post-hoc Friedman
//! p-values, and the Spearman correlation between dimensionality and
//! REDS's PR AUC gain (§9.1.1).
//!
//! ```text
//! cargo run --release -p reds-bench --bin table3 -- \
//!     [--reps 10] [--l 20000] [--q 20] [--test 20000] [--all] \
//!     [--functions morris,sobol] [--ns 200,400,800] [--methods P,RPx] \
//!     [--json out.json] \
//!     [--shard i/k --checkpoint-dir DIR] [--resume]
//! ```
//!
//! Paper-scale settings: `--all --reps 50 --l 100000 --q 50`.
//!
//! Long sweeps can be split across processes/machines with
//! `--shard i/k` (every shard writes a JSONL checkpoint into
//! `--checkpoint-dir`, resumable after interruption with `--resume`)
//! and recombined by the `merge_shards` binary — bit-identically to a
//! monolithic run; see README "Running paper-scale sweeps".

use reds_bench::sweep::{run_cli, Sweep, SWEEP_FLAGS, SWEEP_OPTIONS, SWEEP_USAGE};
use reds_bench::Args;

fn main() {
    let args = Args::parse();
    args.accept_only(&SWEEP_OPTIONS, &SWEEP_FLAGS, SWEEP_USAGE);
    let sweep = Sweep::table3(&args);
    run_cli(&sweep, &args);
}
