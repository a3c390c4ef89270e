//! Workload inputs and the two pipeline workloads.
//!
//! Every workload starts from the DSGC smart-grid simulator (M = 12): a
//! Latin-hypercube design of N = 400 points, labeled by simulation.
//!
//! The simulated datasets are the system under study, so they are the
//! same in every run: each comes from [`DESIGN_SEED`]. The benchmark
//! seed draws everything a run computes from them (the `L`-point pool,
//! the metamodel's bootstrap and subsampling, the served traffic), so a
//! new seed gives new inputs while the cost of a run stays comparable
//! between seeds.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_core::{OocConfig, OocPool, Reds, RedsConfig, StreamConfig};
use reds_data::Dataset;
use reds_metamodel::{GbdtParams, RandomForestParams, Trainer};
use reds_stream::{ChunkSource, Labeling, PoolBuilder, SamplerSource, StreamSampler};
use reds_subgroup::{Prim, SdResult, SubgroupDiscovery};

use crate::timed::{TimedSd, TimedSource, TimedTrainer, Trace};

/// Simulated runs in `D`.
pub const N: usize = 400;

/// Seed of the simulated designs.
pub const DESIGN_SEED: u64 = 2021;

/// Rows per cached column page of the out-of-core pool.
pub const PAGE_ROWS: u32 = 4_096;

/// Rows per streamed chunk of the out-of-core pipeline.
pub const CHUNK_ROWS: usize = 65_536;

/// The two pipeline workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `Reds::run`: default random forest, PRIM, hard labels.
    InmemForestPrim,
    /// `Reds::discover_out_of_core`: default GBDT, PRIM, paged pool.
    OocGbdtPrim,
}

impl Pipeline {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "inmem-forest-prim" => Some(Self::InmemForestPrim),
            "ooc-gbdt-prim" => Some(Self::OocGbdtPrim),
            _ => None,
        }
    }

    /// Metamodel trainer of the workload.
    pub fn trainer(self) -> Box<dyn Trainer> {
        match self {
            Self::InmemForestPrim => Box::new(RandomForestParams::default()),
            Self::OocGbdtPrim => Box::new(GbdtParams::default()),
        }
    }
}

/// Knobs of one pipeline run.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The workload.
    pub pipeline: Pipeline,
    /// Pseudo-labeled points `L`.
    pub l: usize,
    /// Page-cache budget of the out-of-core pool, in bytes.
    pub cache_bytes: usize,
    /// Directory for spill runs and scratch artifacts.
    pub scratch: PathBuf,
}

impl Setup {
    fn config(&self) -> RedsConfig {
        RedsConfig::default().with_l(self.l)
    }

    fn stream(&self) -> StreamConfig {
        StreamConfig::new()
            .with_chunk_rows(CHUNK_ROWS)
            .with_spill_dir(self.scratch.clone())
    }

    fn ooc(&self) -> OocConfig {
        OocConfig::new()
            .with_cache_bytes(self.cache_bytes)
            .with_page_rows(PAGE_ROWS)
    }
}

/// SplitMix64 of `seed` and a stream index: independent seeds for the
/// cases of one run.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Simulates `D`: a Latin-hypercube design of [`N`] DSGC runs.
pub fn simulate(seed: u64) -> Dataset {
    let f = reds_functions::by_name("dsgc").expect("dsgc is registered");
    let mut rng = StdRng::seed_from_u64(seed);
    let points = reds_sampling::latin_hypercube(N, f.m(), &mut rng);
    f.label_dataset(points, &mut rng)
        .expect("a Latin-hypercube design tiles into rows")
}

/// One discovery input: `D` and the seed of the discovery's generator.
pub struct Case {
    /// Simulated data.
    pub d: Dataset,
    /// Seed of the pipeline's generator.
    pub seed: u64,
}

/// Dataset `i` of every run.
pub fn design(i: u64) -> Dataset {
    simulate(mix(DESIGN_SEED, i))
}

/// The `k` cases of benchmark seed `seed`: the first `k` designs, each
/// with its own generator seed.
pub fn cases(seed: u64, k: usize) -> Vec<Case> {
    (0..k as u64)
        .map(|i| Case {
            d: design(i),
            seed: mix(seed, i),
        })
        .collect()
}

/// FNV-1a over the bound bits of every box, coarsest first.
pub fn digest(result: &SdResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &result.boxes {
        for &(lo, hi) in b.bounds() {
            for bits in [lo.to_bits(), hi.to_bits()] {
                for byte in bits.to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

/// One discovery through the workload's public entry point.
pub fn run(setup: &Setup, case: &Case) -> Result<SdResult, String> {
    let reds = Reds::new(setup.pipeline.trainer(), setup.config());
    let mut rng = StdRng::seed_from_u64(case.seed);
    match setup.pipeline {
        Pipeline::InmemForestPrim => reds
            .run(&case.d, &Prim::default(), &mut rng)
            .map_err(|e| e.to_string()),
        Pipeline::OocGbdtPrim => reds
            .discover_out_of_core(
                &case.d,
                &Prim::default(),
                &mut rng,
                &setup.stream(),
                &setup.ooc(),
            )
            .map_err(|e| e.to_string()),
    }
}

/// The in-memory `Reds::run` digest every run of the workload must
/// reproduce.
pub fn reference(setup: &Setup, case: &Case) -> Result<u64, String> {
    let reds = Reds::new(setup.pipeline.trainer(), setup.config());
    let mut rng = StdRng::seed_from_u64(case.seed);
    reds.run(&case.d, &Prim::default(), &mut rng)
        .map(|r| digest(&r))
        .map_err(|e| e.to_string())
}

/// Counters of the out-of-core layers of one traced discovery.
#[derive(Debug, Clone, Default)]
pub struct OocCounters {
    /// Sorted runs spilled per column.
    pub runs_per_column: f64,
    /// Size of the pool artifact.
    pub art_bytes: f64,
    /// Page fetches served from the cache.
    pub cache_hits: f64,
    /// Page fetches that went to disk.
    pub cache_misses: f64,
    /// Bytes the search read through `read`/`pread` calls, from the
    /// process's I/O accounting: computed from syscalls, not measured
    /// at the device.
    pub bytes_read: f64,
}

/// One traced discovery: the same computation as [`run`], with every
/// layer wrapped.
///
/// In memory this is `Reds::run` itself, handed a timing trainer and a
/// timing search. Out of core, `Reds::discover_out_of_core` hides the
/// stream, artifact and store stages, so this composes the same stages
/// from their public pieces, in the same order and with the same
/// generator protocol; the traced digest must equal the untraced one.
pub fn run_traced(
    setup: &Setup,
    case: &Case,
    trace: &std::sync::Arc<Trace>,
) -> Result<(SdResult, OocCounters), String> {
    let reds = Reds::new(
        Box::new(TimedTrainer::new(setup.pipeline.trainer(), trace.clone())),
        setup.config(),
    );
    let prim = Prim::default();
    let sd = TimedSd::new(&prim, trace.clone());
    let mut rng = StdRng::seed_from_u64(case.seed);
    match setup.pipeline {
        Pipeline::InmemForestPrim => reds
            .run(&case.d, &sd, &mut rng)
            .map(|r| (r, OocCounters::default()))
            .map_err(|e| e.to_string()),
        Pipeline::OocGbdtPrim => ooc_traced(setup, &reds, &sd, case, &mut rng, trace),
    }
}

fn ooc_traced(
    setup: &Setup,
    reds: &Reds,
    sd: &TimedSd<'_>,
    case: &Case,
    rng: &mut StdRng,
    trace: &Trace,
) -> Result<(SdResult, OocCounters), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let d = &case.d;
    let m = d.m();
    let model = reds.train_metamodel(d, rng).map_err(|e| err(&e))?;
    let stream = setup.stream();
    let mut sampler = SamplerSource::new(StreamSampler::Uniform, setup.l, m, rng.clone());
    let mut source = TimedSource::new(&mut sampler, trace);
    let labeling = Labeling::Hard {
        bnd: reds.config().bnd,
    };
    let t0 = Instant::now();
    let mut builder = PoolBuilder::new(m, &stream).map_err(|e| err(&e))?;
    trace.fold_ns.since(t0);
    let (mut chunk, mut labels) = (Vec::new(), Vec::new());
    loop {
        chunk.clear();
        if source.next_chunk(stream.effective_chunk_rows(), &mut chunk) == 0 {
            break;
        }
        labels.clear();
        labels.extend(
            model
                .predict_batch(&chunk, m)
                .into_iter()
                .map(|p| labeling.apply(p)),
        );
        let t0 = Instant::now();
        builder.push_chunk(&chunk, &labels).map_err(|e| err(&e))?;
        trace.fold_ns.since(t0);
        trace.chunks.add(1);
    }
    let art = scratch_file(&setup.scratch, "pool.redsart");
    let _guard = RemoveOnDrop(art.clone());
    let t0 = Instant::now();
    let stats = builder.finish_art(&art, PAGE_ROWS).map_err(|e| err(&e))?;
    trace.finish_ns.since(t0);
    let art_bytes = std::fs::metadata(&art).map_err(|e| err(&e))?.len() as f64;
    *rng = sampler.into_rng();
    let mut sd_rng = StdRng::seed_from_u64(rng.gen());
    let t0 = Instant::now();
    let mut pool = OocPool::open(&art, &setup.ooc()).map_err(|e| err(&e))?;
    trace.open_ns.since(t0);
    let read0 = read_syscall_bytes();
    let result = sd
        .discover_paged(&mut pool, d, &mut sd_rng)
        .ok_or("PRIM declined the paged store")?;
    let bytes_read = read_syscall_bytes() - read0;
    let cache = pool.stats();
    Ok((
        result,
        OocCounters {
            runs_per_column: stats.runs_per_column as f64,
            art_bytes,
            cache_hits: cache.cache_hits as f64,
            cache_misses: cache.cache_misses as f64,
            bytes_read,
        },
    ))
}

/// A scratch path unique within this process.
fn scratch_file(dir: &Path, name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}-{seq}-{name}", std::process::id()))
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Bytes this process has requested through read syscalls
/// (`/proc/self/io` `rchar`); 0 where the kernel does not report it.
fn read_syscall_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("rchar:"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(pipeline: Pipeline, scratch: &Path) -> Setup {
        Setup {
            pipeline,
            l: 3_000,
            cache_bytes: 64 << 10,
            scratch: scratch.to_path_buf(),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("redsbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cases_share_designs_and_draw_seeds_from_the_benchmark_seed() {
        let a = cases(7, 2);
        let b = cases(7, 2);
        let c = cases(8, 2);
        assert_eq!(a[1].d.points(), b[1].d.points());
        assert_eq!(a[1].seed, b[1].seed);
        assert_ne!(a[0].seed, c[0].seed);
        assert_ne!(a[0].d.points(), a[1].d.points());
    }

    #[test]
    fn timing_wrappers_are_transparent_in_memory() {
        let dir = scratch_dir("inmem");
        let setup = small(Pipeline::InmemForestPrim, &dir);
        let case = &cases(3, 1)[0];
        let plain = run(&setup, case).unwrap();
        let trace = Trace::shared();
        let (traced, _) = run_traced(&setup, case, &trace).unwrap();
        assert_eq!(digest(&plain), digest(&traced));
        assert_eq!(digest(&plain), reference(&setup, case).unwrap());
        assert!(trace.fit_ns.get() > 0 && trace.presort_ns.get() > 0);
        assert_eq!(trace.predict_rows.get(), setup.l as u64);
        assert!(trace.scan_calls.get() > 0 && trace.entries_visited.get() > 0);
        assert_eq!(trace.boxes.get(), plain.boxes.len() as u64);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn timing_wrappers_are_transparent_out_of_core() {
        let dir = scratch_dir("ooc");
        let setup = small(Pipeline::OocGbdtPrim, &dir);
        let case = &cases(4, 1)[0];
        let plain = run(&setup, case).unwrap();
        let trace = Trace::shared();
        let (traced, counters) = run_traced(&setup, case, &trace).unwrap();
        assert_eq!(digest(&plain), digest(&traced));
        assert_eq!(digest(&plain), reference(&setup, case).unwrap());
        assert!(counters.cache_misses > 0.0 && counters.art_bytes > 0.0);
        assert_eq!(trace.chunks.get(), 1);
        assert_eq!(trace.presort_ns.get(), 0, "the paged path never presorts");
        assert!(trace.rows_deactivated.get() > 0);
        // Only the scratch directory the run created remains.
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "scratch files left behind: {left:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
