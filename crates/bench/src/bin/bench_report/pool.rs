//! `--section pool`: the streamed and paged pool backings against the
//! in-memory pipeline, in bits, wall time and peak RSS.
//!
//! ```text
//! bench_report --section pool [--l 2000000] [--m 12] [--chunk-rows 65536] \
//!     [--mem-budget 64] [--cache-mib N] [--page-rows 4096] [--algorithm prim|bi] \
//!     [--n 400] [--trees 50] [--seed 7] [--out-dir .] [--spill-dir DIR] \
//!     [--construct-only] [--skip-inmem]
//! ```
//!
//! Each configuration runs in a child process of its own
//! ([`measure_in_child`]), all at the same `L` and seed:
//!
//! * construction: the monolithic generate → `predict_batch` → argsort
//!   path (`mono-construct`) against `reds-stream`'s bounded-memory scan
//!   (`stream-construct`);
//! * discovery: `Reds::discover` over the in-memory (`inmem-discover`),
//!   streamed (`stream-discover`) and paged (`ooc-discover`) backings.
//!   The page cache takes `--cache-mib`, by default half the budget.
//!
//! Gates:
//!
//! * the construction digests (sort orders and labels) are equal;
//! * the streamed construction's peak RSS is below the `L × M` point
//!   buffer it replaces and below the monolithic construction's peak;
//! * the three backings' box digests are equal;
//! * the paged run's peak RSS is below `--mem-budget` MiB.
//!
//! `--construct-only` skips discovery. `--skip-inmem` skips the children
//! that hold the whole pool in memory (monolithic construction,
//! in-memory and streamed discovery), and the gates that compare with
//! them, for paper-scale runs (`--l 10000000 --m 12`) where the pool
//! alone needs more than 1.5 GiB. Writes `BENCH_pool.json`, with
//! `ooc_slowdown`, the paged wall time over the in-memory one.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_bench::report::{box_digest, corner_data, measure_in_child, print_measurement};
use reds_bench::report::{write_report, Gates};
use reds_bench::{cli_fail, Args};
use reds_core::{Backing, OocConfig, Pool, Reds, RedsConfig, StreamConfig};
use reds_data::{Dataset, SortedView};
use reds_json::Json;
use reds_metamodel::{Metamodel, RandomForest, RandomForestParams};
use reds_sampling::uniform;
use reds_stream::{digest_pool, stream_scan, SamplerSource, StreamSampler};
use reds_subgroup::{BestInterval, Prim, SubgroupDiscovery};

/// Pseudo-label threshold of the construction children.
const BND: f64 = 0.5;

const MIB: f64 = (1u64 << 20) as f64;

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
        let algorithm = args.get_str("algorithm", "prim");
        if algorithm != "prim" && algorithm != "bi" {
            cli_fail(
                format!("--algorithm expects prim|bi, got '{algorithm}'"),
                super::USAGE,
            );
        }
        let spill_dir = args.get_str("spill-dir", "");
        Self {
            l: args.get_usize("l", 2_000_000),
            m: args.get_usize("m", 12),
            chunk_rows: args.get_usize("chunk-rows", 65_536),
            page_rows: args.get_usize("page-rows", 4_096) as u32,
            // The other half of the budget is for the model, the chunk
            // buffers, the mask cache and the allocator.
            cache_bytes: args.get_usize("cache-mib", (mem_budget_mib / 2).max(1)) << 20,
            n_train: args.get_usize("n", 400),
            trees: args.get_usize("trees", 50),
            seed: args.get_usize("seed", 7) as u64,
            algorithm,
            spill_dir: (!spill_dir.is_empty()).then_some(spill_dir),
        }
    }

    fn stream_config(&self) -> StreamConfig {
        let cfg = StreamConfig::new().with_chunk_rows(self.chunk_rows);
        match &self.spill_dir {
            Some(dir) => cfg.with_spill_dir(dir.clone()),
            None => cfg,
        }
    }

    fn forest(&self) -> RandomForestParams {
        RandomForestParams {
            n_trees: self.trees,
            ..Default::default()
        }
    }
}

/// The child side: runs `mode` and prints its measurement.
fn measure(mode: &str, spec: &Spec) {
    let t0 = Instant::now();
    let train = corner_data(spec.n_train, spec.m, spec.seed ^ 0x5eed);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut fields = vec![
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("chunk_rows", Json::num(spec.chunk_rows as f64)),
        ("algorithm", Json::str(spec.algorithm.clone())),
        ("page_rows", Json::num(spec.page_rows as f64)),
        ("cache_bytes", Json::num(spec.cache_bytes as f64)),
    ];
    let digest = match mode {
        "mono-construct" => {
            let forest = RandomForest::fit(&train, &spec.forest(), &mut rng);
            let points = uniform(spec.l, spec.m, &mut rng);
            let labels: Vec<f64> = forest
                .predict_batch(&points, spec.m)
                .into_iter()
                .map(|p| if p > BND { 1.0 } else { 0.0 })
                .collect();
            let d = Dataset::new(points, labels, spec.m).expect("valid pool");
            digest_pool(&SortedView::new(&d).into_columns(), d.labels())
        }
        "stream-construct" => {
            let forest = RandomForest::fit(&train, &spec.forest(), &mut rng);
            let mut source = SamplerSource::new(StreamSampler::Uniform, spec.l, spec.m, rng);
            let stats = stream_scan(
                &mut source,
                &mut |pts, m| forest.hard_labels(pts, m, BND),
                &spec.stream_config(),
            )
            .unwrap_or_else(|e| cli_fail(format!("streaming scan failed: {e}"), ""));
            fields.extend([
                ("runs_per_column", Json::num(stats.runs_per_column as f64)),
                ("spilled_bytes", Json::num(stats.spilled_bytes as f64)),
                ("positives", Json::num(stats.positives as f64)),
            ]);
            stats.digest
        }
        "inmem-discover" | "stream-discover" | "ooc-discover" => {
            let backing = match mode {
                "inmem-discover" => Backing::InMemory,
                "stream-discover" => Backing::Streamed(spec.stream_config()),
                _ => Backing::Paged {
                    stream: spec.stream_config(),
                    ooc: OocConfig::new()
                        .with_cache_bytes(spec.cache_bytes)
                        .with_page_rows(spec.page_rows),
                },
            };
            let sd: Box<dyn SubgroupDiscovery> = match spec.algorithm.as_str() {
                "bi" => Box::new(BestInterval::default()),
                _ => Box::new(Prim::default()),
            };
            let result = Reds::random_forest(spec.forest(), RedsConfig::default().with_l(spec.l))
                .discover(&train, Pool::Sample, &backing, sd.as_ref(), &mut rng)
                .unwrap_or_else(|e| cli_fail(format!("{mode} failed: {e}"), ""));
            fields.push(("boxes", Json::num(result.boxes.len() as f64)));
            box_digest(&result)
        }
        other => cli_fail(format!("unknown --measure mode '{other}'"), ""),
    };
    fields.push(("digest", Json::str(digest.to_string())));
    print_measurement(mode, t0, fields);
}

/// A child's measurement, with the fields the gates read.
struct Measured {
    row: Json,
    digest: Option<String>,
    peak: Option<f64>,
    ms: Option<f64>,
}

fn measured(mode: &str) -> Measured {
    let row = measure_in_child(mode);
    Measured {
        digest: row.get("digest").and_then(Json::as_str).map(str::to_string),
        peak: row.get("peak_rss_bytes").and_then(Json::as_f64),
        ms: row.get("runtime_ms").and_then(Json::as_f64),
        row,
    }
}

pub fn run(args: &Args, gates: &mut Gates) {
    let mem_budget_mib = args.get_usize("mem-budget", 64);
    let spec = Spec::from_args(args, mem_budget_mib);
    let mode = args.get_str("measure", "");
    if !mode.is_empty() {
        return measure(&mode, &spec);
    }
    let inmem = !args.has_flag("skip-inmem");
    let discover = !args.has_flag("construct-only");
    let lxm_bytes = (spec.l * spec.m * 8) as f64;
    let budget_bytes = (mem_budget_mib << 20) as f64;
    eprintln!(
        "pool: L = {}, M = {}, chunk = {} rows ({} runs/column), {} — budget {} MiB \
         (cache {} MiB, {} rows/page)",
        spec.l,
        spec.m,
        spec.chunk_rows,
        spec.l.div_ceil(spec.chunk_rows.max(1)),
        spec.algorithm,
        mem_budget_mib,
        spec.cache_bytes >> 20,
        spec.page_rows,
    );

    // ----- construction ------------------------------------------------
    let mono = inmem.then(|| measured("mono-construct"));
    let stream = measured("stream-construct");
    let construct_identical = mono.as_ref().map(|mono| {
        gates.check(
            mono.digest == stream.digest,
            "construction digests differ between mono and stream",
        )
    });
    let below_lxm = stream.peak.map(|sp| {
        gates.check(
            sp < lxm_bytes,
            format!(
                "stream-construct peak RSS {:.0} MiB is not below the L×M buffer ({:.0} MiB)",
                sp / MIB,
                lxm_bytes / MIB
            ),
        )
    });
    if let (Some(mp), Some(sp)) = (mono.as_ref().and_then(|m| m.peak), stream.peak) {
        eprintln!(
            "  construct peak RSS: mono {:.0} MiB vs stream {:.0} MiB (L×M buffer alone: {:.0} MiB)",
            mp / MIB,
            sp / MIB,
            lxm_bytes / MIB
        );
        gates.check(
            sp < mp,
            format!("stream-construct peak RSS ({sp:.0} B) not below mono-construct ({mp:.0} B)"),
        );
    }

    // ----- discovery ---------------------------------------------------
    let in_memory = (discover && inmem).then(|| measured("inmem-discover"));
    let streamed = (discover && inmem).then(|| measured("stream-discover"));
    let paged = discover.then(|| measured("ooc-discover"));
    let under_budget = paged.as_ref().and_then(|p| p.peak).map(|peak| {
        eprintln!(
            "  ooc-discover peak RSS {:.0} MiB vs budget {mem_budget_mib} MiB",
            peak / MIB
        );
        gates.check(
            peak < budget_bytes,
            format!(
                "ooc-discover peak RSS {:.0} MiB is not below the {mem_budget_mib} MiB budget",
                peak / MIB
            ),
        )
    });
    let mut same_boxes = |other: &Option<Measured>, name: &str| {
        let (base, other) = (in_memory.as_ref()?, other.as_ref()?);
        Some(gates.check(
            base.digest == other.digest,
            format!(
                "discover boxes differ between in-memory and {name} at L = {}",
                spec.l
            ),
        ))
    };
    let discover_identical = same_boxes(&streamed, "streamed");
    let ooc_identical = same_boxes(&paged, "out-of-core");
    let inmem_ms = in_memory.as_ref().and_then(|m| m.ms);
    let ooc_ms = paged.as_ref().and_then(|p| p.ms);
    let slowdown = inmem_ms.zip(ooc_ms).map(|(i, o)| o / i);
    if let Some(s) = slowdown {
        eprintln!("  wall time: ooc {s:.2}x the in-memory run");
    }

    let num = |x: Option<f64>| x.map_or(Json::Null, Json::num);
    let flag = |x: Option<bool>| x.map_or(Json::Null, Json::Bool);
    let report = Json::obj([
        ("kind", Json::str("reds-pool-report")),
        ("l", Json::num(spec.l as f64)),
        ("m", Json::num(spec.m as f64)),
        ("chunk_rows", Json::num(spec.chunk_rows as f64)),
        ("algorithm", Json::str(spec.algorithm.clone())),
        ("seed", Json::str(spec.seed.to_string())),
        ("page_rows", Json::num(spec.page_rows as f64)),
        ("cache_bytes", Json::num(spec.cache_bytes as f64)),
        ("mem_budget_bytes", Json::num(budget_bytes)),
        ("lxm_buffer_bytes", Json::num(lxm_bytes)),
        ("construct_bit_identical", flag(construct_identical)),
        ("stream_peak_below_lxm_buffer", flag(below_lxm)),
        ("discover_bit_identical", flag(discover_identical)),
        ("ooc_bit_identical", flag(ooc_identical)),
        ("ooc_peak_below_budget", flag(under_budget)),
        (
            "inmem_peak_rss_bytes",
            num(in_memory.as_ref().and_then(|m| m.peak)),
        ),
        ("inmem_runtime_ms", num(inmem_ms)),
        ("ooc_runtime_ms", num(ooc_ms)),
        ("ooc_slowdown", num(slowdown)),
        (
            "measurements",
            Json::arr(
                [mono, Some(stream), in_memory, streamed, paged]
                    .into_iter()
                    .flatten()
                    .map(|m| m.row),
            ),
        ),
    ]);
    write_report(&args.get_str("out-dir", "."), "BENCH_pool.json", &report);
}
