//! Reproduces **Table 4** (and the data behind **Figure 8**): quality of
//! BI-based methods — BI, BIc, BI5, RBIcfp, RBIcxp — plus the post-hoc
//! Friedman p-value between RBIcxp and BIc and the Spearman correlation
//! between dimensionality and the WRAcc gain (§9.1.1).
//!
//! ```text
//! cargo run --release -p reds-bench --bin table4 -- \
//!     [--reps 10] [--l-bi 10000] [--test 20000] [--all] \
//!     [--functions ...] [--ns 200,400,800] [--methods BI,BIc] \
//!     [--shard i/k --checkpoint-dir DIR] [--resume]
//! ```
//!
//! Supports the same sharding/checkpoint/resume workflow as `table3`;
//! see README "Running paper-scale sweeps".

use reds_bench::sweep::{run_cli, Sweep, SWEEP_FLAGS, SWEEP_OPTIONS, SWEEP_USAGE};
use reds_bench::Args;

fn main() {
    let args = Args::parse();
    args.accept_only(&SWEEP_OPTIONS, &SWEEP_FLAGS, SWEEP_USAGE);
    let sweep = Sweep::table4(&args);
    run_cli(&sweep, &args);
}
