//! Recombines the shard checkpoints of a `table3`/`table4` sweep into
//! the final report.
//!
//! ```text
//! cargo run --release -p reds-bench --bin merge_shards -- \
//!     --table 3 --checkpoint-dir DIR \
//!     [<same sweep flags as the table binary>] [--json out.json]
//! ```
//!
//! Pass the *same* sweep flags (`--functions`, `--ns`, `--reps`, `--l`,
//! `--q`, `--test`, `--methods`, …) that the shards ran with: the sweep
//! configuration is fingerprinted, every checkpoint header carries the
//! producing run's fingerprint, and merging refuses configurations that
//! do not match. Duplicate units and incomplete grids are rejected; the
//! emitted report is byte-identical to a monolithic run of the same
//! sweep (wall-clock runtimes excepted — they are measured, not
//! derived, and only appear in `--json` output).

use std::path::PathBuf;
use std::process::ExitCode;

use reds_bench::sweep::{merge_dir, render, rows_json, Sweep, SWEEP_OPTIONS, SWEEP_USAGE};
use reds_bench::Args;

const USAGE: &str = "usage: merge_shards --table 3|4 --checkpoint-dir DIR [sweep flags]
  (the sweep flags the shards ran with, bar --shard and --resume)";

fn main() -> ExitCode {
    let args = Args::parse();
    // `--table`, and the sweep's flags bar the two that steer one shard.
    let options: Vec<&str> = SWEEP_OPTIONS
        .iter()
        .copied()
        .filter(|&o| o != "shard")
        .chain(["table"])
        .collect();
    args.accept_only(&options, &["all"], &format!("{USAGE}\n\n{SWEEP_USAGE}"));
    let sweep = match args.get_str("table", "").as_str() {
        "3" => Sweep::table3(&args),
        "4" => Sweep::table4(&args),
        other => {
            eprintln!(
                "merge_shards: --table must be 3 or 4 (got {other:?}); pass the same sweep \
                 flags the shards ran with, plus --checkpoint-dir"
            );
            return ExitCode::from(2);
        }
    };
    let dir = args.get_str("checkpoint-dir", "");
    if dir.is_empty() {
        eprintln!("merge_shards: --checkpoint-dir is required");
        return ExitCode::from(2);
    }
    let results = match merge_dir(&sweep, &PathBuf::from(&dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("merge_shards: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render(&sweep, &results));
    let json_path = args.get_str("json", "");
    if !json_path.is_empty() {
        if let Err(e) = std::fs::write(&json_path, rows_json(&sweep, &results).to_string_pretty()) {
            eprintln!("merge_shards: writing {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("rows written to {json_path}");
    }
    ExitCode::SUCCESS
}
