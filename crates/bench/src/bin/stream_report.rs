//! Machine-readable memory/runtime report for the streaming pipeline.
//!
//! Compares the monolithic generate → `predict_batch` → argsort path
//! against the `reds-stream` bounded-memory pipeline at the same seed,
//! verifies bit-identity (order+label digest for construction, box
//! bounds for full discovery), measures wall time and **peak RSS**
//! (`VmHWM`), and emits `BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p reds-bench --bin stream_report -- \
//!     [--l 2000000] [--m 12] [--chunk-rows 65536] [--n 400] [--trees 50] \
//!     [--seed 7] [--discover-l 100000] [--out-dir .] [--spill-dir DIR] \
//!     [--construct-only] [--ooc [--mem-budget MIB]]
//! ```
//!
//! `--ooc` adds an `ooc-discover` measurement — the same discovery
//! served through `Reds::discover_out_of_core` (scratch `.redsart`
//! artifact + paged search) — which must be bit-identical to the
//! monolithic boxes and, when `--mem-budget` (MiB) is given, keep its
//! peak RSS below that budget. The dedicated `ooc_report` binary runs
//! the fuller out-of-core gate.
//!
//! Each measured configuration runs in its **own subprocess** (the
//! binary re-execs itself with `--measure <mode>`): `VmHWM` is a
//! process-wide high-water mark, so two configurations measured in one
//! process would shadow each other.
//!
//! The paper-scale gate (`--l 10000000 --m 12 --construct-only`) is not
//! part of CI's default run — CI smokes `L = 2·10⁶` — but uses the
//! same code path and the same pass/fail rules: construction digests
//! must match, and the streaming construction's peak RSS must stay
//! below the `L × M` point buffer the pipeline replaces (and below the
//! monolithic construction's peak).

use std::io::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::{cli_fail, rss, Args};
use reds_core::{Backing, Pool, Reds, RedsConfig, StreamConfig};
use reds_data::{Dataset, SortedView};
use reds_json::Json;
use reds_metamodel::{Metamodel, RandomForest, RandomForestParams};
use reds_sampling::uniform;
use reds_stream::{digest_pool, stream_scan, SamplerSource, StreamSampler};
use reds_subgroup::{Prim, SdResult};

const USAGE: &str = "usage: stream_report [--l N] [--m N] [--chunk-rows N] [--n N] \
[--trees N] [--seed N] [--discover-l N] [--out-dir DIR] [--spill-dir DIR] [--construct-only] \
[--ooc] [--mem-budget MIB]";

const BND: f64 = 0.5;

#[derive(Clone)]
struct Spec {
    l: usize,
    m: usize,
    chunk_rows: usize,
    n_train: usize,
    trees: usize,
    seed: u64,
    spill_dir: Option<String>,
}

impl Spec {
    fn from_args(args: &Args) -> Self {
        let spill = args.get_str("spill-dir", "");
        Self {
            l: args.get_usize("l", 2_000_000),
            m: args.get_usize("m", 12),
            chunk_rows: args.get_usize("chunk-rows", 65_536),
            n_train: args.get_usize("n", 400),
            trees: args.get_usize("trees", 50),
            seed: args.get_usize("seed", 7) as u64,
            spill_dir: if spill.is_empty() { None } else { Some(spill) },
        }
    }

    fn to_cli(&self, l: usize) -> Vec<String> {
        let mut v = vec![
            "--l".into(),
            l.to_string(),
            "--m".into(),
            self.m.to_string(),
            "--chunk-rows".into(),
            self.chunk_rows.to_string(),
            "--n".into(),
            self.n_train.to_string(),
            "--trees".into(),
            self.trees.to_string(),
            "--seed".into(),
            self.seed.to_string(),
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
}

/// The benchmark's training set — defined once so the construct-phase
/// and discover-phase measurements exercise the same workload.
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

/// The shared setup of every mode: training data + fitted forest, with
/// the RNG left exactly where pool generation starts.
fn trained_model(spec: &Spec) -> (Dataset, RandomForest, StdRng) {
    let train = train_data(spec);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let params = RandomForestParams {
        n_trees: spec.trees,
        ..Default::default()
    };
    let forest = RandomForest::fit(&train, &params, &mut rng);
    (train, forest, rng)
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
    let (digest, extra): (u64, Vec<(&str, Json)>) = match mode {
        "mono-construct" => {
            let (_, forest, mut rng) = trained_model(spec);
            let points = uniform(spec.l, spec.m, &mut rng);
            let labels: Vec<f64> = forest
                .predict_batch(&points, spec.m)
                .into_iter()
                .map(|p| if p > BND { 1.0 } else { 0.0 })
                .collect();
            let d = Dataset::new(points, labels, spec.m).expect("valid pool");
            let cols = SortedView::new(&d).into_columns();
            (digest_pool(&cols, d.labels()), Vec::new())
        }
        "stream-construct" => {
            let (_, forest, rng) = trained_model(spec);
            let mut source = SamplerSource::new(StreamSampler::Uniform, spec.l, spec.m, rng);
            let stats = stream_scan(
                &mut source,
                &mut |pts, m| forest.hard_labels(pts, m, BND),
                &spec.stream_config(),
            )
            .unwrap_or_else(|e| cli_fail(format!("streaming scan failed: {e}"), ""));
            (
                stats.digest,
                vec![
                    ("runs_per_column", Json::num(stats.runs_per_column as f64)),
                    ("spilled_bytes", Json::num(stats.spilled_bytes as f64)),
                    ("positives", Json::num(stats.positives as f64)),
                ],
            )
        }
        "mono-discover" | "stream-discover" | "ooc-discover" => {
            let train = train_data(spec);
            let params = RandomForestParams {
                n_trees: spec.trees,
                ..Default::default()
            };
            let reds = Reds::random_forest(params, RedsConfig::default().with_l(spec.l));
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let result = match mode {
                "mono-discover" => reds
                    .run(&train, &Prim::default(), &mut rng)
                    .unwrap_or_else(|e| cli_fail(format!("pipeline failed: {e}"), "")),
                "stream-discover" => reds
                    .discover(
                        &train,
                        Pool::Sample,
                        &Backing::Streamed(spec.stream_config()),
                        &Prim::default(),
                        &mut rng,
                    )
                    .unwrap_or_else(|e| cli_fail(format!("streaming pipeline failed: {e}"), "")),
                _ => reds
                    .discover_out_of_core(
                        &train,
                        &Prim::default(),
                        &mut rng,
                        &spec.stream_config(),
                        &reds_core::OocConfig::default(),
                    )
                    .unwrap_or_else(|e| cli_fail(format!("out-of-core pipeline failed: {e}"), "")),
            };
            (
                boxes_digest(&result),
                vec![("boxes", Json::num(result.boxes.len() as f64))],
            )
        }
        other => cli_fail(format!("unknown --measure mode '{other}'"), USAGE),
    };
    let runtime_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut pairs = vec![
        ("mode", Json::str(mode)),
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("chunk_rows", Json::num(spec.chunk_rows as f64)),
        ("runtime_ms", Json::num(runtime_ms)),
        (
            "peak_rss_bytes",
            rss::peak_rss_bytes().map_or(Json::Null, |b| Json::num(b as f64)),
        ),
        ("digest", Json::str(digest.to_string())),
    ];
    pairs.extend(extra);
    println!("{}", Json::obj(pairs).to_string_compact());
}

/// Re-execs this binary with `--measure mode`, parses the child's JSON.
fn spawn_measure(mode: &str, spec: &Spec, l: usize) -> Json {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| cli_fail(format!("cannot locate own binary: {e}"), ""));
    let output = std::process::Command::new(exe)
        .arg("--measure")
        .arg(mode)
        .args(spec.to_cli(l))
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
    let spec = Spec::from_args(&args);
    let measure = args.get_str("measure", "");
    if !measure.is_empty() {
        run_measure(&measure, &spec);
        return;
    }

    let out_dir = args.get_str("out-dir", ".");
    let construct_only = args.has_flag("construct-only");
    let discover_l = args.get_usize("discover-l", 100_000.min(spec.l));
    let lxm_bytes = (spec.l * spec.m * 8) as f64;

    eprintln!(
        "stream_report: L = {}, M = {}, chunk = {} rows ({} runs/column)",
        spec.l,
        spec.m,
        spec.chunk_rows,
        spec.l.div_ceil(spec.chunk_rows),
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // ----- construction phase: the subsystem under test --------------
    let mono = spawn_measure("mono-construct", &spec, spec.l);
    let stream = spawn_measure("stream-construct", &spec, spec.l);
    let construct_identical = field_str(&mono, "digest") == field_str(&stream, "digest");
    if !construct_identical {
        failures.push("construction digests differ between mono and stream".into());
    }
    let mono_peak = field_f64(&mono, "peak_rss_bytes");
    let stream_peak = field_f64(&stream, "peak_rss_bytes");
    let mut stream_below_lxm = None;
    if let Some(sp) = stream_peak {
        let below = sp < lxm_bytes;
        stream_below_lxm = Some(below);
        if !below {
            failures.push(format!(
                "stream-construct peak RSS {:.0} MiB is not below the L×M buffer ({:.0} MiB)",
                sp / (1 << 20) as f64,
                lxm_bytes / (1 << 20) as f64
            ));
        }
    }
    if let (Some(mp), Some(sp)) = (mono_peak, stream_peak) {
        eprintln!(
            "  construct peak RSS: mono {:.0} MiB vs stream {:.0} MiB (L×M buffer alone: {:.0} MiB)",
            mp / (1 << 20) as f64,
            sp / (1 << 20) as f64,
            lxm_bytes / (1 << 20) as f64
        );
        if sp >= mp {
            failures.push(format!(
                "stream-construct peak RSS ({sp:.0} B) not below mono-construct ({mp:.0} B)"
            ));
        }
    }
    rows.push(mono);
    rows.push(stream);

    // ----- full discovery (bit-identity of the boxes) ----------------
    let mut discover_identical = None;
    let mut ooc_identical = None;
    let mut ooc_under_budget = None;
    let with_ooc = args.has_flag("ooc");
    let mem_budget_mib = args.get_usize("mem-budget", 0);
    if !construct_only {
        let mono_d = spawn_measure("mono-discover", &spec, discover_l);
        let stream_d = spawn_measure("stream-discover", &spec, discover_l);
        let same = field_str(&mono_d, "digest") == field_str(&stream_d, "digest");
        discover_identical = Some(same);
        if !same {
            failures.push(format!(
                "discover boxes differ between mono and stream at L = {discover_l}"
            ));
        }
        if with_ooc {
            let ooc_d = spawn_measure("ooc-discover", &spec, discover_l);
            let same = field_str(&mono_d, "digest") == field_str(&ooc_d, "digest");
            ooc_identical = Some(same);
            if !same {
                failures.push(format!(
                    "discover boxes differ between mono and out-of-core at L = {discover_l}"
                ));
            }
            if mem_budget_mib > 0 {
                if let Some(peak) = field_f64(&ooc_d, "peak_rss_bytes") {
                    let budget = (mem_budget_mib << 20) as f64;
                    let below = peak < budget;
                    ooc_under_budget = Some(below);
                    if !below {
                        failures.push(format!(
                            "ooc-discover peak RSS {:.0} MiB is not below the {} MiB budget",
                            peak / (1 << 20) as f64,
                            mem_budget_mib
                        ));
                    }
                }
            }
            rows.push(ooc_d);
        }
        rows.push(mono_d);
        rows.push(stream_d);
    }

    let report = Json::obj([
        ("kind", Json::str("reds-stream-report")),
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("chunk_rows", Json::num(spec.chunk_rows as f64)),
        ("seed", Json::str(spec.seed.to_string())),
        ("lxm_buffer_bytes", Json::num(lxm_bytes)),
        ("construct_bit_identical", Json::Bool(construct_identical)),
        (
            "discover_bit_identical",
            discover_identical.map_or(Json::Null, Json::Bool),
        ),
        (
            "ooc_bit_identical",
            ooc_identical.map_or(Json::Null, Json::Bool),
        ),
        (
            "ooc_peak_below_budget",
            ooc_under_budget.map_or(Json::Null, Json::Bool),
        ),
        (
            "stream_peak_below_lxm_buffer",
            stream_below_lxm.map_or(Json::Null, Json::Bool),
        ),
        ("measurements", Json::arr(rows)),
    ]);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        cli_fail(format!("cannot create {out_dir}: {e}"), "");
    }
    let path = format!("{out_dir}/BENCH_stream.json");
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
        "OK: streaming construction bit-identical{} and within the memory bound",
        if construct_only {
            String::new()
        } else {
            format!(", discovery bit-identical at L = {discover_l}")
        }
    );
}
