//! The `setup`, `reference` and `pipeline` subcommands.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_json::Json;

use crate::stats::{median, summary_json};
use crate::timed::Trace;
use crate::workload::{
    cases, digest, mix, peak_rss_mib, reference as reference_digest, run, run_traced, Case,
    OocCounters, Pipeline, Setup,
};
use crate::Args;

/// Rows of one library `predict_batch` call (the served batch size).
pub const PREDICT_ROWS: usize = 256;

/// Library `predict_batch` calls timed per pipeline run, at least: a
/// p99 with ten samples beyond it.
const PREDICT_CALLS: usize = 1_000;

/// Share of each discovery's wall time spent on library predicts right
/// after it, so predicts sample the same stretch of time as discoveries.
const PREDICT_SHARE: f64 = 0.2;

/// Distinct predict batches, cycled.
const PREDICT_BATCHES: usize = 8;

fn setup_of(args: &Args) -> Result<Setup, String> {
    let name = args.str("workload")?;
    let pipeline =
        Pipeline::parse(name).ok_or_else(|| format!("'{name}' is not a pipeline workload"))?;
    let scratch = PathBuf::from(args.str("scratch").unwrap_or("."));
    Ok(Setup {
        pipeline,
        l: args.num("l")?,
        cache_bytes: args.num::<usize>("cache-mib").unwrap_or(32) << 20,
        scratch,
    })
}

fn cases_of(args: &Args) -> Result<Vec<Case>, String> {
    Ok(cases(args.num("seed")?, args.num("cases")?))
}

fn digests_json(digests: &[u64]) -> Json {
    Json::arr(digests.iter().map(|d| Json::str(format!("{d:016x}"))))
}

/// `setup`: simulates the run's datasets, then reports ready. The
/// caller times this process from spawn to exit.
pub fn setup(args: &Args) -> Result<Json, String> {
    let cases = cases_of(args)?;
    let positives: f64 = cases.iter().map(|c| c.d.labels().iter().sum::<f64>()).sum();
    Ok(Json::obj([
        ("cases", Json::num(cases.len() as f64)),
        ("positives", Json::num(positives)),
    ]))
}

/// `reference`: the in-memory `Reds::run` digest of every case.
pub fn reference(args: &Args) -> Result<Json, String> {
    let setup = setup_of(args)?;
    let digests = cases_of(args)?
        .iter()
        .map(|c| reference_digest(&setup, c))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Json::obj([("digests", digests_json(&digests))]))
}

fn expected_digests(args: &Args, setup: &Setup, cases: &[Case]) -> Result<Vec<u64>, String> {
    match args.str("expect") {
        Ok(list) => {
            let digests = list
                .split(',')
                .map(|h| u64::from_str_radix(h, 16).map_err(|_| format!("bad digest '{h}'")))
                .collect::<Result<Vec<_>, _>>()?;
            if digests.len() != cases.len() {
                return Err(format!(
                    "{} expected digests for {} cases",
                    digests.len(),
                    cases.len()
                ));
            }
            Ok(digests)
        }
        Err(_) => cases.iter().map(|c| reference_digest(setup, c)).collect(),
    }
}

/// Tally of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, ok: Result<bool, String>) -> bool {
        self.attempted += 1;
        let failure = match ok {
            Ok(true) => return true,
            Ok(false) => format!("{what}: output differs from the reference"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(failure);
        }
        false
    }

    fn json(&self, mut pairs: Vec<(&str, Json)>) -> Json {
        pairs.push(("attempted", Json::num(self.attempted as f64)));
        pairs.push(("failed", Json::num(self.failed as f64)));
        pairs.push((
            "errors",
            Json::arr(self.errors.iter().map(|e| Json::str(e.clone()))),
        ));
        Json::obj(pairs)
    }
}

/// Runs whole rounds over `cases` until `seconds` have passed (at
/// least one round).
fn rounds(cases: &[Case], seconds: f64, mut each: impl FnMut(usize, &Case)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        for (i, case) in cases.iter().enumerate() {
            each(i, case);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// `pipeline`: the measured process of a pipeline workload.
pub fn measure(args: &Args) -> Result<Json, String> {
    let setup = setup_of(args)?;
    let cases = cases_of(args)?;
    let seconds: f64 = args.num("seconds")?;
    std::fs::create_dir_all(&setup.scratch).map_err(|e| e.to_string())?;
    let expected = expected_digests(args, &setup, &cases)?;
    if args.flag("trace")? {
        return traced(&setup, &cases, &expected, seconds);
    }
    let mut tally = Tally::default();
    let mut discover_s = Vec::new();
    // Peak RSS of the first discovery, the only one in a fresh process:
    // later ones start from whatever the allocator kept from earlier.
    let mut peak = None;
    let mut predicts: Option<LibraryPredicts> = None;
    let seed = args.num("seed")?;
    rounds(&cases, seconds, |i, case| {
        let t0 = Instant::now();
        let result = run(&setup, case);
        let dt = t0.elapsed().as_secs_f64();
        peak.get_or_insert_with(peak_rss_mib);
        if tally.check("discover", result.map(|r| digest(&r) == expected[i])) {
            discover_s.push(dt);
        }
        predicts
            .get_or_insert_with(|| LibraryPredicts::new(&setup, &cases[0], seed))
            .run_for(dt * PREDICT_SHARE, &mut tally);
    });
    let mut predicts = predicts.expect("at least one round ran");
    while predicts.times.len() < PREDICT_CALLS && tally.failed == 0 {
        predicts.call(&mut tally);
    }
    Ok(tally.json(vec![
        ("discover_s", summary_json(&discover_s)),
        ("predict_ms", summary_json(&predicts.times)),
        ("peak_rss_mib", Json::num(peak.unwrap_or(0.0))),
    ]))
}

/// Library `predict_batch` calls of [`PREDICT_ROWS`] rows on the
/// workload's metamodel, each checked bit for bit against the first
/// (untimed) answer for the same batch.
struct LibraryPredicts {
    model: Box<dyn reds_metamodel::Metamodel>,
    m: usize,
    batches: Vec<Vec<f64>>,
    expected: Vec<Vec<u64>>,
    next: usize,
    /// Wall time of every correct call, ms.
    times: Vec<f64>,
}

fn bits(v: Vec<f64>) -> Vec<u64> {
    v.into_iter().map(f64::to_bits).collect()
}

impl LibraryPredicts {
    /// Fits the workload's metamodel to `case` and draws the batches.
    fn new(setup: &Setup, case: &Case, seed: u64) -> Self {
        let model = setup
            .pipeline
            .trainer()
            .train(&case.d, &mut StdRng::seed_from_u64(case.seed));
        let m = case.d.m();
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x9e_d1c7));
        let batches: Vec<Vec<f64>> = (0..PREDICT_BATCHES)
            .map(|_| reds_sampling::uniform(PREDICT_ROWS, m, &mut rng))
            .collect();
        let expected = batches
            .iter()
            .map(|b| bits(model.predict_batch(b, m)))
            .collect();
        Self {
            model,
            m,
            batches,
            expected,
            next: 0,
            times: Vec::new(),
        }
    }

    fn call(&mut self, tally: &mut Tally) {
        let b = self.next % PREDICT_BATCHES;
        self.next += 1;
        let t0 = Instant::now();
        let out = black_box(
            self.model
                .predict_batch(black_box(&self.batches[b]), self.m),
        );
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if tally.check("predict_batch", Ok(bits(out) == self.expected[b])) {
            self.times.push(dt);
        }
    }

    fn run_for(&mut self, seconds: f64, tally: &mut Tally) {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            self.call(tally);
        }
    }
}

/// One traced discovery with its wall time.
struct TracedRun {
    case: usize,
    wall_ms: f64,
    trace: Arc<Trace>,
    ooc: OocCounters,
}

impl TracedRun {
    fn label_ms(&self) -> f64 {
        self.trace.predict_ns.ms()
    }

    fn sort_ms(&self) -> f64 {
        let t = &self.trace;
        t.presort_ns.ms() + t.fold_ns.ms() + t.finish_ns.ms()
    }

    fn search_ms(&self) -> f64 {
        self.trace.search_ns.ms()
    }
}

fn traced_once(
    setup: &Setup,
    case: &Case,
    index: usize,
    tally: &mut Tally,
    expect: Option<u64>,
) -> Option<TracedRun> {
    let trace = Trace::shared();
    let t0 = Instant::now();
    let result = run_traced(setup, case, &trace);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (digest_ok, ooc) = match result {
        Ok((r, ooc)) => (Ok(expect.is_none_or(|e| digest(&r) == e)), ooc),
        Err(e) => (Err(e), OocCounters::default()),
    };
    tally
        .check("traced discover", digest_ok)
        .then_some(TracedRun {
            case: index,
            wall_ms,
            trace,
            ooc,
        })
}

/// Log-log slope of a stage between `L/4` and `L`.
fn slope(at_l: f64, at_quarter: f64) -> f64 {
    if at_l > 0.0 && at_quarter > 0.0 {
        (at_l / at_quarter).ln() / 4f64.ln()
    } else {
        0.0
    }
}

/// The traced run: untraced and traced discoveries interleaved on the
/// same cases (their digests must agree), then the `L/4` scaling pass
/// and, in memory, a single-thread pass.
fn traced(setup: &Setup, cases: &[Case], expected: &[u64], seconds: f64) -> Result<Json, String> {
    let mut tally = Tally::default();
    let mut plain_ms = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    rounds(cases, seconds, |i, case| {
        let t0 = Instant::now();
        let result = run(setup, case);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if tally.check("discover", result.map(|r| digest(&r) == expected[i])) {
            plain_ms.push(dt);
        }
        runs.extend(traced_once(setup, case, i, &mut tally, Some(expected[i])));
    });
    if runs.is_empty() {
        return Err(format!("no traced discovery succeeded: {:?}", tally.errors));
    }

    // Scaling: every case once more at L/4, traced and untraced (no
    // in-memory reference exists at L/4, so the two must agree).
    let quarter = Setup {
        l: setup.l / 4,
        ..setup.clone()
    };
    let mut quarter_runs = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let plain = run(&quarter, case).map(|r| digest(&r));
        let expect = plain.as_ref().ok().copied();
        tally.check("discover at L/4", plain.map(|_| true));
        quarter_runs.extend(traced_once(&quarter, case, i, &mut tally, expect));
    }
    let first_at_l: Vec<&TracedRun> = (0..cases.len())
        .filter_map(|i| runs.iter().find(|r| r.case == i))
        .collect();
    let stage_slope = |f: &dyn Fn(&TracedRun) -> f64| {
        let at_l: f64 = first_at_l.iter().map(|r| f(r)).sum();
        let at_q: f64 = quarter_runs
            .iter()
            .filter(|q| first_at_l.iter().any(|r| r.case == q.case))
            .map(f)
            .sum();
        slope(at_l, at_q)
    };

    // Parallel efficiency of fit and labeling: one worker against the
    // default worker count, on the first case.
    let workers = reds_par::max_threads();
    let (mut eff_fit, mut eff_predict) = (0.0, 0.0);
    if setup.pipeline == Pipeline::InmemForestPrim && workers > 1 {
        reds_par::set_max_threads(Some(1));
        let single = traced_once(setup, &cases[0], 0, &mut tally, Some(expected[0]));
        reds_par::set_max_threads(None);
        if let (Some(one), Some(many)) = (single, first_at_l.first()) {
            let eff = |t1: f64, tn: f64| {
                if tn > 0.0 {
                    t1 / tn / workers as f64
                } else {
                    0.0
                }
            };
            eff_fit = eff(one.trace.fit_ns.ms(), many.trace.fit_ns.ms());
            eff_predict = eff(one.trace.predict_ns.ms(), many.trace.predict_ns.ms());
        }
    }

    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&TracedRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let hits = mean(&|r| r.ooc.cache_hits);
    let misses = mean(&|r| r.ooc.cache_misses);
    let traced_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    let overhead_pct = if plain_ms.is_empty() {
        0.0
    } else {
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0
    };
    let layers: Vec<(&str, f64)> = vec![
        ("metamodel.fit_ms", mean(&|r| r.trace.fit_ns.ms())),
        ("kernels.predict_ms", mean(&|r| r.trace.predict_ns.ms())),
        ("kernels.rows", mean(&|r| r.trace.predict_rows.get() as f64)),
        (
            "kernels.calls",
            mean(&|r| r.trace.predict_calls.get() as f64),
        ),
        ("data.presort_ms", mean(&|r| r.trace.presort_ns.ms())),
        ("subgroup.self_ms", mean(&|r| r.trace.subgroup_self_ms())),
        ("subgroup.boxes", mean(&|r| r.trace.boxes.get() as f64)),
        ("store.scan_ms", mean(&|r| r.trace.scan_ns.ms())),
        (
            "store.scan_calls",
            mean(&|r| r.trace.scan_calls.get() as f64),
        ),
        (
            "store.entries_visited",
            mean(&|r| r.trace.entries_visited.get() as f64),
        ),
        ("store.deactivate_ms", mean(&|r| r.trace.deactivate_ns.ms())),
        (
            "store.rows_deactivated",
            mean(&|r| r.trace.rows_deactivated.get() as f64),
        ),
        ("store.lookup_ms", mean(&|r| r.trace.lookup_ns.ms())),
        ("sampling.ms", mean(&|r| r.trace.sampling_ns.ms())),
        ("stream.fold_ms", mean(&|r| r.trace.fold_ns.ms())),
        ("stream.chunks", mean(&|r| r.trace.chunks.get() as f64)),
        ("stream.finish_ms", mean(&|r| r.trace.finish_ns.ms())),
        ("stream.runs_per_column", mean(&|r| r.ooc.runs_per_column)),
        ("art.bytes", mean(&|r| r.ooc.art_bytes)),
        ("ooc.open_ms", mean(&|r| r.trace.open_ns.ms())),
        ("ooc.cache_hits", hits),
        ("ooc.cache_misses", misses),
        (
            "ooc.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("ooc.bytes_read_computed", mean(&|r| r.ooc.bytes_read)),
        (
            "core.other_ms",
            mean(&|r| r.wall_ms - r.trace.attributed_ms()),
        ),
        ("trace.overhead_pct", overhead_pct),
        ("slope.fit", stage_slope(&|r| r.trace.fit_ns.ms())),
        ("slope.label", stage_slope(&|r| r.label_ms())),
        ("slope.sort", stage_slope(&|r| r.sort_ms())),
        ("slope.search", stage_slope(&|r| r.search_ms())),
        ("slope.discover", stage_slope(&|r| r.wall_ms)),
        ("par.efficiency_fit", eff_fit),
        ("par.efficiency_predict", eff_predict),
    ];
    Ok(tally.json(vec![
        (
            "layers",
            Json::obj(layers.into_iter().map(|(k, v)| (k, Json::num(v)))),
        ),
        ("traced_discoveries", Json::num(n)),
        ("plain_discoveries", Json::num(plain_ms.len() as f64)),
        ("peak_rss_mib", Json::num(peak_rss_mib())),
    ]))
}
