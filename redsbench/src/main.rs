//! Workload binary of the REDS benchmark.
//!
//! `redsbench/run.py` builds this binary and runs one subcommand per
//! measured process, so each peak-RSS reading covers one workload only:
//!
//! ```text
//! redsbench machine
//! redsbench setup      --seed S --cases K
//! redsbench reference  --workload W --seed S --cases K --l L
//! redsbench pipeline   --workload W --seed S --cases K --l L --cache-mib C
//!                      --seconds T --scratch DIR --trace 0|1 [--expect D1,D2,…]
//! redsbench prep-serve --seed S --dir DIR
//! redsbench loadgen    --addr HOST:PORT --dir DIR --seed S --seconds T
//!                      --rate R --every K --trace 0|1 [--closed 1]
//! ```
//!
//! Each prints one JSON object as its last line; `run.py` turns them
//! into the benchmark's metrics.

mod loadgen;
mod pipeline;
mod stats;
mod timed;
mod workload;

use std::collections::HashMap;
use std::process::exit;

use reds_json::Json;

/// `--key value` arguments after the subcommand.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    /// The raw value of `--key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// `--key` parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'"))
    }

    /// `--key` as a 0/1 switch (absent is 0).
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.0.get(key).map(String::as_str) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--{key} expects 0 or 1, got '{other}'")),
        }
    }
}

/// Facts a result depends on: kernel and exp backends, FMA flavor
/// (box bits are identical only between machines of one flavor),
/// parallelism and CPU model.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "reds_threads",
            Json::str(std::env::var("REDS_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("par_workers", Json::num(reds_par::max_threads() as f64)),
        (
            "kernel",
            Json::str(reds_metamodel::kernels::active().name()),
        ),
        (
            "exp_backend",
            Json::str(reds_metamodel::kernels::vexp::backend().name()),
        ),
        (
            "fma",
            Json::Bool(reds_metamodel::kernels::vexp::fma_supported()),
        ),
        ("cpu", Json::str(cpu)),
    ])
}

fn dispatch(cmd: &str, args: &Args) -> Result<Json, String> {
    match cmd {
        "machine" => Ok(machine()),
        "setup" => pipeline::setup(args),
        "reference" => pipeline::reference(args),
        "pipeline" => pipeline::measure(args),
        "prep-serve" => loadgen::prep(args),
        "loadgen" => loadgen::drive(args),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: redsbench <machine|setup|reference|pipeline|prep-serve|loadgen> [--flag value]…");
        exit(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(cmd, &args)) {
        Ok(doc) => println!("{}", doc.to_string_compact()),
        Err(e) => {
            eprintln!("redsbench {cmd}: {e}");
            exit(1);
        }
    }
}
