//! Fleet coordinator: distributes a `table3`/`table4` sweep over
//! `reds_worker` processes and prints the same report, byte for byte.
//!
//! ```text
//! cargo run --release -p reds-bench --bin reds_coordinator -- \
//!     --table 3 --workers 127.0.0.1:9400,127.0.0.1:9401 \
//!     --checkpoint-dir DIR [--resume] \
//!     [sweep flags: --reps --l --l-bi --q --test --functions --ns --methods --all] \
//!     [--lease-units 4] [--lease-ttl-ms 30000] [--io-timeout-ms 10000] \
//!     [--max-park-rounds 40] [--seed 0] [--json out.json] [--shutdown-workers]
//! ```
//!
//! Work units are leased to workers in batches, results are ingested
//! exactly once into `DIR/shard-0-of-1.jsonl` (the PR 2 checkpoint
//! format — `merge_shards` and `--resume` work on it unchanged, and
//! `merge_shards` skips the journal), and every grant/ingest/expiry is
//! journaled to `DIR/fleet-journal.jsonl` (`reds_fleet::JOURNAL_FILE`).
//! Kill the coordinator at any point and rerun with `--resume`: it
//! picks up from the last durable record. Because every unit is
//! bit-deterministic, the final report is identical to a monolithic
//! `table3`/`table4` run no matter how the fleet behaved.
//!
//! A flag the coordinator does not take is refused (exit 2) before it
//! connects to any worker.

use std::path::PathBuf;
use std::time::Duration;

use reds_bench::sweep::{aggregate, render, rows_json, Sweep, SWEEP_OPTIONS, SWEEP_USAGE};
use reds_bench::{cli_fail, Args};
use reds_fleet::{run_fleet, shutdown_workers, FleetConfig, FleetError, JOURNAL_FILE};

const USAGE: &str = "usage: reds_coordinator --table 3|4 --workers HOST:PORT[,HOST:PORT...] \
                     --checkpoint-dir DIR [--resume] [sweep flags] [--lease-units N] \
                     [--lease-ttl-ms MS] [--io-timeout-ms MS] [--max-park-rounds N] \
                     [--seed N] [--json out.json] [--shutdown-workers]
  (the sweep flags of table3/table4, bar --shard)";

fn main() {
    let args = Args::parse();
    let usage = format!("{USAGE}\n\n{SWEEP_USAGE}");
    let options: Vec<&str> = SWEEP_OPTIONS
        .iter()
        .copied()
        .filter(|&o| o != "shard")
        .chain([
            "table",
            "workers",
            "lease-units",
            "lease-ttl-ms",
            "io-timeout-ms",
            "max-park-rounds",
            "seed",
        ])
        .collect();
    args.accept_only(&options, &["all", "resume", "shutdown-workers"], &usage);
    let sweep = match args.get_usize("table", 3) {
        3 => Sweep::table3(&args),
        4 => Sweep::table4(&args),
        other => cli_fail(format!("--table expects 3 or 4, got {other}"), &usage),
    };
    let workers: Vec<String> = args
        .get_str("workers", "")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if workers.is_empty() {
        cli_fail("--workers needs at least one HOST:PORT", &usage);
    }
    let dir = args.get_str("checkpoint-dir", "");
    if dir.is_empty() {
        cli_fail(
            "--checkpoint-dir is required (results and journal live there)",
            &usage,
        );
    }
    let dir = PathBuf::from(dir);
    let resume = args.has_flag("resume");

    let config = FleetConfig {
        workers,
        lease_units: args.get_usize("lease-units", 4),
        lease_ttl: Duration::from_millis(args.get_usize("lease-ttl-ms", 30_000) as u64),
        io_timeout: Duration::from_millis(args.get_usize("io-timeout-ms", 10_000) as u64),
        max_park_rounds: args.get_usize("max-park-rounds", 40) as u32,
        seed: args.get_usize("seed", 0) as u64,
        ..FleetConfig::default()
    };

    let fingerprint = sweep.fingerprint();
    let units = sweep.fleet_units();
    eprintln!(
        "coordinator: sweep {fingerprint}, {} unit(s), {} worker(s)",
        units.len(),
        config.workers.len()
    );
    let outcome = run_fleet(
        &fingerprint,
        &units,
        &dir.join("shard-0-of-1.jsonl"),
        &dir.join(JOURNAL_FILE),
        resume,
        &config,
    )
    .unwrap_or_else(|e| {
        match &e {
            FleetError::FleetLost { .. } => {
                eprintln!("error: {e}");
                eprintln!("rerun with --resume once workers are back");
            }
            _ => eprintln!("error: fleet run failed: {e}"),
        }
        std::process::exit(1)
    });
    eprintln!(
        "fleet done: {} ingested (+{} resumed), {} duplicate(s) discarded, {} lease(s) expired",
        outcome.ingested,
        outcome.records.len() - outcome.ingested,
        outcome.duplicates,
        outcome.expired_leases
    );

    if args.has_flag("shutdown-workers") {
        shutdown_workers(&config.workers, config.io_timeout);
    }

    let results = aggregate(&sweep, &outcome.records).unwrap_or_else(|e| {
        eprintln!("error: aggregation failed: {e}");
        std::process::exit(1)
    });
    print!("{}", render(&sweep, &results));
    let json_path = args.get_str("json", "");
    if !json_path.is_empty() {
        std::fs::write(&json_path, rows_json(&sweep, &results).to_string_pretty()).unwrap_or_else(
            |e| {
                eprintln!("error: cannot write {json_path}: {e}");
                std::process::exit(1)
            },
        );
        eprintln!("rows written to {json_path}");
    }
}
