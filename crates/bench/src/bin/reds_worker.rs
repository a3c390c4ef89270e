//! Fleet worker: executes sweep work units leased to it by
//! `reds_coordinator` over the NDJSON fleet protocol.
//!
//! ```text
//! cargo run --release -p reds-bench --bin reds_worker -- \
//!     --table 3 --addr 127.0.0.1:9400 \
//!     [sweep flags: --reps --l --l-bi --q --test --functions --ns --methods --all] \
//!     [--die-after-units N]
//! ```
//!
//! The sweep flags must match the coordinator's exactly — the
//! handshake compares sweep fingerprints and refuses mismatches, so a
//! worker can never contribute wrong-configuration results.
//!
//! `--die-after-units N` is a deterministic fault hook for the test
//! suite: the worker crashes abruptly (record discarded, sockets cut)
//! after executing its `N`-th unit, and exits with status 2. The
//! coordinator's lease deadline reassigns the lost work.
//!
//! A flag the worker does not take is refused (exit 2) before it binds.

use reds_bench::sweep::{Sweep, SweepExecutor, SWEEP_OPTIONS, SWEEP_USAGE};
use reds_bench::{cli_fail, Args};
use reds_fleet::{serve_worker, WorkerConfig};

const USAGE: &str = "usage: reds_worker --table 3|4 [--addr HOST:PORT] [sweep flags] \
                     [--die-after-units N]
  (the coordinator's sweep flags, bar --json, --shard, --checkpoint-dir and --resume)";

fn main() {
    let args = Args::parse();
    let usage = format!("{USAGE}\n\n{SWEEP_USAGE}");
    let options: Vec<&str> = SWEEP_OPTIONS
        .iter()
        .copied()
        .filter(|o| !["json", "shard", "checkpoint-dir"].contains(o))
        .chain(["table", "addr", "die-after-units"])
        .collect();
    args.accept_only(&options, &["all"], &usage);
    let sweep = match args.get_usize("table", 3) {
        3 => Sweep::table3(&args),
        4 => Sweep::table4(&args),
        other => cli_fail(format!("--table expects 3 or 4, got {other}"), &usage),
    };
    let addr = args.get_str("addr", "127.0.0.1:0");
    let die_after = args.get_usize("die-after-units", 0);
    let config = WorkerConfig {
        die_after_units: (die_after > 0).then_some(die_after),
    };

    let fingerprint = sweep.fingerprint();
    let handle = serve_worker(SweepExecutor::new(sweep), &addr, config).unwrap_or_else(|e| {
        eprintln!("error: cannot bind worker on {addr}: {e}");
        std::process::exit(1)
    });
    // The test harness and quickstart docs scrape this line for the
    // bound port, so keep its shape stable.
    println!("worker listening on {}", handle.addr());
    eprintln!("sweep fingerprint {fingerprint}");
    if handle.join() {
        eprintln!("worker crashed via --die-after-units");
        std::process::exit(2);
    }
    eprintln!("worker shut down");
}
