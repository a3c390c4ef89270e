//! Machine-readable memory/runtime report for out-of-core discovery.
//!
//! Compares `Reds::run` (fully in-memory) against
//! `Reds::discover_out_of_core` (pool streamed to a scratch `.redsart`
//! artifact, search paging it back in through a bounded cache) at the
//! same seed, verifies bit-identical boxes, measures wall time and
//! **peak RSS** (`VmHWM`), and emits `BENCH_ooc.json` — including
//! `ooc_slowdown`, the out-of-core wall time over the in-memory one.
//!
//! ```text
//! cargo run --release -p reds-bench --bin ooc_report -- \
//!     [--l 2000000] [--m 12] [--mem-budget 64] [--cache-mib N] \
//!     [--page-rows 4096] [--chunk-rows 65536] [--algorithm prim|bi] \
//!     [--n 400] [--trees 50] [--seed 7] [--out-dir .] [--spill-dir DIR] \
//!     [--skip-inmem]
//! ```
//!
//! Each measured configuration runs in its **own subprocess** (the
//! binary re-execs itself with `--measure <mode>`): `VmHWM` is a
//! process-wide high-water mark, so two configurations measured in one
//! process would shadow each other.
//!
//! Pass/fail rules:
//!
//! * the out-of-core boxes must be **bit-identical** to the in-memory
//!   run (skipped with `--skip-inmem`, for paper-scale runs where the
//!   in-memory side alone needs more RAM than the machine has);
//! * the out-of-core child's peak RSS must stay **below
//!   `--mem-budget` MiB** (default 64). The paper-scale gate is
//!   `--l 10000000 --m 12`, where the in-memory pool alone
//!   (`12·8·L` points + labels + sort orders) exceeds 1.5 GiB.

use std::io::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::{cli_fail, rss, Args};
use reds_core::{OocConfig, Reds, RedsConfig, StreamConfig};
use reds_data::Dataset;
use reds_json::Json;
use reds_metamodel::RandomForestParams;
use reds_subgroup::{BestInterval, Prim, SdResult, SubgroupDiscovery};

const USAGE: &str = "usage: ooc_report [--l N] [--m N] [--mem-budget MIB] [--cache-mib N] \
[--page-rows N] [--chunk-rows N] [--algorithm prim|bi] [--n N] [--trees N] [--seed N] \
[--out-dir DIR] [--spill-dir DIR] [--skip-inmem]";

#[derive(Clone)]
struct Spec {
    l: usize,
    m: usize,
    chunk_rows: usize,
    page_rows: u32,
    cache_bytes: usize,
    n_train: usize,
    trees: usize,
    seed: u64,
    algorithm: String,
    spill_dir: Option<String>,
}

impl Spec {
    fn from_args(args: &Args, mem_budget_mib: usize) -> Self {
        let spill = args.get_str("spill-dir", "");
        let algorithm = args.get_str("algorithm", "prim");
        if algorithm != "prim" && algorithm != "bi" {
            cli_fail(
                format!("--algorithm expects prim|bi, got '{algorithm}'"),
                USAGE,
            );
        }
        // By default the page cache takes half the process budget,
        // leaving the other half for the model, the chunk buffers, the
        // mask cache, and the allocator's own overhead.
        let cache_mib = args.get_usize("cache-mib", (mem_budget_mib / 2).max(1));
        Self {
            l: args.get_usize("l", 2_000_000),
            m: args.get_usize("m", 12),
            chunk_rows: args.get_usize("chunk-rows", 65_536),
            page_rows: args.get_usize("page-rows", 4_096) as u32,
            cache_bytes: cache_mib << 20,
            n_train: args.get_usize("n", 400),
            trees: args.get_usize("trees", 50),
            seed: args.get_usize("seed", 7) as u64,
            algorithm,
            spill_dir: if spill.is_empty() { None } else { Some(spill) },
        }
    }

    fn to_cli(&self) -> Vec<String> {
        let mut v = vec![
            "--l".into(),
            self.l.to_string(),
            "--m".into(),
            self.m.to_string(),
            "--chunk-rows".into(),
            self.chunk_rows.to_string(),
            "--page-rows".into(),
            self.page_rows.to_string(),
            "--cache-mib".into(),
            (self.cache_bytes >> 20).to_string(),
            "--n".into(),
            self.n_train.to_string(),
            "--trees".into(),
            self.trees.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--algorithm".into(),
            self.algorithm.clone(),
        ];
        if let Some(dir) = &self.spill_dir {
            v.push("--spill-dir".into());
            v.push(dir.clone());
        }
        v
    }

    fn stream_config(&self) -> StreamConfig {
        let mut cfg = StreamConfig::new().with_chunk_rows(self.chunk_rows);
        if let Some(dir) = &self.spill_dir {
            cfg = cfg.with_spill_dir(dir.clone());
        }
        cfg
    }

    fn ooc_config(&self) -> OocConfig {
        OocConfig::new()
            .with_cache_bytes(self.cache_bytes)
            .with_page_rows(self.page_rows)
    }

    fn discovery(&self) -> Box<dyn SubgroupDiscovery> {
        match self.algorithm.as_str() {
            "bi" => Box::new(BestInterval::default()),
            _ => Box::new(Prim::default()),
        }
    }
}

/// The benchmark's training set (same shape as `stream_report`, so the
/// two reports exercise comparable workloads).
fn train_data(spec: &Spec) -> Dataset {
    let mut data_rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed);
    Dataset::from_fn(
        (0..spec.n_train * spec.m)
            .map(|_| data_rng.gen::<f64>())
            .collect(),
        spec.m,
        |x| {
            if x[0] > 0.6 && x[1] > 0.6 {
                1.0
            } else {
                0.0
            }
        },
    )
    .expect("valid training shape")
}

fn boxes_digest(result: &SdResult) -> u64 {
    // FNV-1a over the bound bits of every box, coarsest first.
    let mut h: u64 = 0xcbf29ce484222325;
    let mut upd = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for b in &result.boxes {
        for j in 0..b.m() {
            let (lo, hi) = b.bound(j);
            upd(lo.to_bits());
            upd(hi.to_bits());
        }
    }
    h
}

/// One measured child configuration, printed as a JSON object.
fn run_measure(mode: &str, spec: &Spec) {
    let t0 = Instant::now();
    let train = train_data(spec);
    let params = RandomForestParams {
        n_trees: spec.trees,
        ..Default::default()
    };
    let reds = Reds::random_forest(params, RedsConfig::default().with_l(spec.l));
    let sd = spec.discovery();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let result = match mode {
        "inmem-discover" => reds
            .run(&train, sd.as_ref(), &mut rng)
            .unwrap_or_else(|e| cli_fail(format!("in-memory pipeline failed: {e}"), "")),
        "ooc-discover" => reds
            .discover_out_of_core(
                &train,
                sd.as_ref(),
                &mut rng,
                &spec.stream_config(),
                &spec.ooc_config(),
            )
            .unwrap_or_else(|e| cli_fail(format!("out-of-core pipeline failed: {e}"), "")),
        other => cli_fail(format!("unknown --measure mode '{other}'"), USAGE),
    };
    let runtime_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pairs = vec![
        ("mode", Json::str(mode)),
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("algorithm", Json::str(spec.algorithm.clone())),
        ("page_rows", Json::num(spec.page_rows as f64)),
        ("cache_bytes", Json::num(spec.cache_bytes as f64)),
        ("runtime_ms", Json::num(runtime_ms)),
        (
            "peak_rss_bytes",
            rss::peak_rss_bytes().map_or(Json::Null, |b| Json::num(b as f64)),
        ),
        ("digest", Json::str(boxes_digest(&result).to_string())),
        ("boxes", Json::num(result.boxes.len() as f64)),
    ];
    println!("{}", Json::obj(pairs).to_string_compact());
}

/// Re-execs this binary with `--measure mode`, parses the child's JSON.
fn spawn_measure(mode: &str, spec: &Spec) -> Json {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| cli_fail(format!("cannot locate own binary: {e}"), ""));
    let output = std::process::Command::new(exe)
        .arg("--measure")
        .arg(mode)
        .args(spec.to_cli())
        .output()
        .unwrap_or_else(|e| cli_fail(format!("cannot spawn measurement child: {e}"), ""));
    if !output.status.success() {
        let _ = std::io::stderr().write_all(&output.stderr);
        cli_fail(format!("measurement child '{mode}' failed"), "");
    }
    let text = String::from_utf8_lossy(&output.stdout);
    reds_json::from_str(text.trim())
        .unwrap_or_else(|e| cli_fail(format!("child '{mode}' emitted bad JSON: {e}"), ""))
}

fn field_str(doc: &Json, key: &str) -> String {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn field_f64(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

fn main() {
    let args = Args::parse();
    let mem_budget_mib = args.get_usize("mem-budget", 64);
    let spec = Spec::from_args(&args, mem_budget_mib);
    let measure = args.get_str("measure", "");
    if !measure.is_empty() {
        run_measure(&measure, &spec);
        return;
    }

    let out_dir = args.get_str("out-dir", ".");
    let skip_inmem = args.has_flag("skip-inmem");
    let budget_bytes = (mem_budget_mib << 20) as f64;

    eprintln!(
        "ooc_report: L = {}, M = {}, {} — budget {} MiB (cache {} MiB, {} rows/page)",
        spec.l,
        spec.m,
        spec.algorithm,
        mem_budget_mib,
        spec.cache_bytes >> 20,
        spec.page_rows,
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    let ooc = spawn_measure("ooc-discover", &spec);
    let ooc_peak = field_f64(&ooc, "peak_rss_bytes");
    let mut under_budget = None;
    if let Some(peak) = ooc_peak {
        let ok = peak < budget_bytes;
        under_budget = Some(ok);
        eprintln!(
            "  ooc-discover peak RSS {:.0} MiB vs budget {} MiB",
            peak / (1 << 20) as f64,
            mem_budget_mib
        );
        if !ok {
            failures.push(format!(
                "ooc-discover peak RSS {:.0} MiB is not below the {} MiB budget",
                peak / (1 << 20) as f64,
                mem_budget_mib
            ));
        }
    }

    let mut identical = None;
    let mut inmem_peak = None;
    let mut inmem_ms = None;
    let ooc_ms = field_f64(&ooc, "runtime_ms");
    if !skip_inmem {
        let inmem = spawn_measure("inmem-discover", &spec);
        inmem_peak = field_f64(&inmem, "peak_rss_bytes");
        inmem_ms = field_f64(&inmem, "runtime_ms");
        let same = field_str(&inmem, "digest") == field_str(&ooc, "digest");
        identical = Some(same);
        if !same {
            failures.push(format!(
                "boxes differ between in-memory and out-of-core at L = {}",
                spec.l
            ));
        }
        if let (Some(ip), Some(op)) = (inmem_peak, ooc_peak) {
            eprintln!(
                "  peak RSS: inmem {:.0} MiB vs ooc {:.0} MiB",
                ip / (1 << 20) as f64,
                op / (1 << 20) as f64
            );
        }
        rows.push(inmem);
    }
    rows.push(ooc);
    let slowdown = inmem_ms.zip(ooc_ms).map(|(i, o)| {
        eprintln!(
            "  wall time: inmem {:.2} s vs ooc {:.2} s ({:.2}x the in-memory run)",
            i / 1e3,
            o / 1e3,
            o / i
        );
        o / i
    });

    let report = Json::obj([
        ("kind", Json::str("reds-ooc-report")),
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("algorithm", Json::str(spec.algorithm.clone())),
        ("seed", Json::str(spec.seed.to_string())),
        ("page_rows", Json::num(spec.page_rows as f64)),
        ("cache_bytes", Json::num(spec.cache_bytes as f64)),
        ("mem_budget_bytes", Json::num(budget_bytes)),
        (
            "ooc_peak_below_budget",
            under_budget.map_or(Json::Null, Json::Bool),
        ),
        (
            "ooc_bit_identical",
            identical.map_or(Json::Null, Json::Bool),
        ),
        (
            "inmem_peak_rss_bytes",
            inmem_peak.map_or(Json::Null, Json::num),
        ),
        ("inmem_runtime_ms", inmem_ms.map_or(Json::Null, Json::num)),
        ("ooc_runtime_ms", ooc_ms.map_or(Json::Null, Json::num)),
        ("ooc_slowdown", slowdown.map_or(Json::Null, Json::num)),
        ("measurements", Json::arr(rows)),
    ]);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        cli_fail(format!("cannot create {out_dir}: {e}"), "");
    }
    let path = format!("{out_dir}/BENCH_ooc.json");
    let mut text = report.to_string_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        cli_fail(format!("cannot write {path}: {e}"), "");
    }
    eprintln!("wrote {path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "OK: out-of-core discovery under the {} MiB budget{}",
        mem_budget_mib,
        if skip_inmem {
            String::new()
        } else {
            " and bit-identical to the in-memory run".to_string()
        }
    );
}
