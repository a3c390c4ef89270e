//! The repeated-run experiment driver behind every table and figure of
//! §9: generate a training design, label it with a benchmark function,
//! run each method, score on a large held-out test set, and aggregate
//! over repetitions.
//!
//! The grid of work is decomposed into deterministic
//! [`WorkUnit`]s (see [`crate::workunit`]): the monolithic
//! [`run_experiment`] enumerates every unit and executes them in
//! parallel in-process, while sharded sweeps execute any subset via
//! [`execute_units`] and later recombine partial results with
//! [`aggregate_units`] — bit-identically to the monolithic run.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_core::NewPointSampler;
use reds_data::Dataset;
use reds_functions::BenchmarkFunction;
use reds_metrics::{consistency, n_irrelevantly_restricted, pr_auc, score_box};
use reds_sampling::{halton_offset, latin_hypercube, logit_normal, mixed_design, uniform};
use reds_subgroup::HyperBox;

use crate::methods::{run_method, MethodOpts};
use crate::workunit::{enumerate_units, test_seed, WorkUnit};

/// Training-design family of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Latin hypercube sampling (the default of §8.5).
    Lhs,
    /// Halton sequence (used for `dsgc`).
    Halton,
    /// Mixed continuous/discrete design (§9.1.2).
    MixedEven,
    /// Logit-normal i.i.d. inputs (§9.4).
    LogitNormal,
}

impl Design {
    /// The paper's design for a given function name.
    pub fn for_function(name: &str) -> Self {
        if name == "dsgc" {
            Self::Halton
        } else {
            Self::Lhs
        }
    }

    fn sample(&self, n: usize, m: usize, rep: usize, rng: &mut StdRng) -> Vec<f64> {
        match self {
            Self::Lhs => latin_hypercube(n, m, rng),
            Self::Halton => halton_offset(n, m, 1 + (rep * n) as u64),
            Self::MixedEven => mixed_design(n, m, rng),
            Self::LogitNormal => logit_normal(n, m, 0.0, 1.0, rng),
        }
    }

    /// REDS must resample from the same input distribution (§6.1).
    fn sampler(&self) -> NewPointSampler {
        match self {
            Self::Lhs | Self::Halton => NewPointSampler::Uniform,
            Self::MixedEven => NewPointSampler::MixedEven,
            Self::LogitNormal => NewPointSampler::LogitNormal {
                mu: 0.0,
                sigma: 1.0,
            },
        }
    }

    /// Test data follows the same distribution as the training design
    /// (i.i.d. rather than space-filling).
    fn sample_test(&self, n: usize, m: usize, rng: &mut StdRng) -> Vec<f64> {
        match self {
            Self::Lhs | Self::Halton => uniform(n, m, rng),
            Self::MixedEven => mixed_design(n, m, rng),
            Self::LogitNormal => logit_normal(n, m, 0.0, 1.0, rng),
        }
    }
}

/// One experiment: a function, a training size, methods, repetitions.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Benchmark function under study.
    pub function: &'static BenchmarkFunction,
    /// Training-set size `N`.
    pub n: usize,
    /// Number of repetitions (the paper uses 50).
    pub reps: usize,
    /// Paper-style method names to compare.
    pub methods: Vec<String>,
    /// Shared method options (`L`, `Q`, …).
    pub opts: MethodOpts,
    /// Training design.
    pub design: Design,
    /// Held-out test size (the paper uses 20 000).
    pub test_size: usize,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Worker threads of the sweep pool. `0` takes
    /// `reds_par::max_threads()`: a `reds_par::set_max_threads`
    /// override, else `REDS_THREADS`, else every available core.
    pub threads: usize,
}

impl ExperimentSpec {
    /// A spec with the paper's structure but scaled-down driver defaults.
    pub fn new(function: &'static BenchmarkFunction, n: usize, methods: &[&str]) -> Self {
        Self {
            function,
            n,
            reps: 10,
            methods: methods.iter().map(|s| s.to_string()).collect(),
            opts: MethodOpts::default(),
            design: Design::for_function(function.name()),
            test_size: 20_000,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// Scores of one method in one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// PR AUC of the returned box sequence on the test data.
    pub pr_auc: f64,
    /// Test precision of the final box.
    pub precision: f64,
    /// Test recall of the final box.
    pub recall: f64,
    /// Test WRAcc of the final box.
    pub wracc: f64,
    /// Restricted inputs of the final box.
    pub n_restricted: usize,
    /// Irrelevantly restricted inputs of the final box.
    pub n_irrel: usize,
    /// Wall-clock runtime of the method, milliseconds.
    pub runtime_ms: f64,
    /// The final box (consistency is computed across repetitions).
    pub last_box: HyperBox,
}

/// Aggregated scores of one method across repetitions.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Method name.
    pub method: String,
    /// Mean PR AUC (%).
    pub pr_auc: f64,
    /// Mean final-box precision (%).
    pub precision: f64,
    /// Mean final-box WRAcc (%).
    pub wracc: f64,
    /// Mean pairwise consistency across repetitions (%).
    pub consistency: f64,
    /// Mean number of restricted inputs.
    pub n_restricted: f64,
    /// Mean number of irrelevantly restricted inputs.
    pub n_irrel: f64,
    /// Mean runtime (ms).
    pub runtime_ms: f64,
    /// Raw per-repetition scores (for statistical tests).
    pub per_rep: Vec<Evaluation>,
}

/// A shard's partial results cannot be recombined into the full grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregationError {
    /// A grid cell has no result.
    Missing {
        /// Method name of the missing cell.
        method: String,
        /// Repetition of the missing cell.
        rep: usize,
    },
    /// A grid cell has more than one result.
    Duplicate {
        /// Method name of the duplicated cell.
        method: String,
        /// Repetition of the duplicated cell.
        rep: usize,
    },
    /// A result's unit does not match the spec's grid (wrong function,
    /// size, seed derivation, or out-of-range coordinates).
    Foreign(
        /// The offending unit.
        Box<WorkUnit>,
    ),
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing { method, rep } => {
                write!(f, "no result for method {method}, repetition {rep}")
            }
            Self::Duplicate { method, rep } => {
                write!(f, "duplicate result for method {method}, repetition {rep}")
            }
            Self::Foreign(unit) => write!(
                f,
                "unit (function {}, N {}, method {}, rep {}) does not belong to this experiment",
                unit.function, unit.n, unit.method, unit.rep
            ),
        }
    }
}

impl std::error::Error for AggregationError {}

/// The shared held-out test set of the experiment (one per spec, drawn
/// from the design's distribution with a seed decoupled from the
/// training repetitions).
pub fn experiment_test_set(spec: &ExperimentSpec) -> Dataset {
    let m = spec.function.m();
    let mut test_rng = StdRng::seed_from_u64(test_seed(spec));
    let test_points = spec.design.sample_test(spec.test_size, m, &mut test_rng);
    spec.function
        .label_dataset(test_points, &mut test_rng)
        .expect("test design shape is consistent")
}

/// Executes one grid cell: regenerate the repetition's training set
/// from the unit's seeds, run the method, and score it on `test`.
/// Deterministic given `(spec, unit)` — except for `runtime_ms`, which
/// is measured wall-clock.
///
/// # Panics
///
/// Panics when the unit's method name is invalid.
pub fn execute_unit(spec: &ExperimentSpec, test: &Dataset, unit: &WorkUnit) -> Evaluation {
    let m = spec.function.m();
    let mut opts = spec.opts.clone();
    opts.sampler = spec.design.sampler();
    let mut rng = StdRng::seed_from_u64(unit.rep_seed);
    let design = spec.design.sample(spec.n, m, unit.rep, &mut rng);
    // Units run on the workers of `execute_units_with`, which already
    // keep the cores busy, so the design is labeled row by row on this
    // thread: the fan-out of `label_dataset` would only oversubscribe
    // them. The labels are the same either way.
    let d = Dataset::from_fn(design, m, |x| spec.function.label(x, &mut rng))
        .expect("training design shape is consistent");
    let mut method_rng = StdRng::seed_from_u64(unit.method_seed);
    let start = Instant::now();
    let result = run_method(&unit.method, &d, &opts, &mut method_rng)
        .unwrap_or_else(|e| panic!("method {}: {e}", unit.method));
    let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
    let last = result
        .last_box()
        .cloned()
        .unwrap_or_else(|| HyperBox::unbounded(m));
    let s = score_box(&last, test);
    Evaluation {
        pr_auc: pr_auc(&result.boxes, test),
        precision: s.precision,
        recall: s.recall,
        wracc: s.wracc,
        n_restricted: s.n_restricted,
        n_irrel: n_irrelevantly_restricted(&last, spec.function.active_inputs()),
        runtime_ms,
        last_box: last,
    }
}

/// Executes a set of units in parallel (`spec.threads` workers; 0 =
/// `reds_par::max_threads()`), invoking `on_complete` under a lock as
/// each unit finishes — the checkpoint hook. Returns results in the
/// order of `units`.
pub fn execute_units_with<F>(
    spec: &ExperimentSpec,
    units: &[WorkUnit],
    on_complete: F,
) -> Vec<(WorkUnit, Evaluation)>
where
    F: FnMut(&WorkUnit, &Evaluation) + Send,
{
    if units.is_empty() {
        return Vec::new();
    }
    let test = experiment_test_set(spec);
    let cells: Vec<Mutex<Option<Evaluation>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let sink = Mutex::new(on_complete);
    let next = AtomicUsize::new(0);
    let threads = pool_width(spec.threads, units.len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= units.len() {
                    break;
                }
                let eval = execute_unit(spec, &test, &units[i]);
                {
                    let mut hook = sink.lock().expect("no poisoned locks");
                    (*hook)(&units[i], &eval);
                }
                *cells[i].lock().expect("no poisoned locks") = Some(eval);
            });
        }
    });

    units
        .iter()
        .cloned()
        .zip(cells)
        .map(|(u, cell)| {
            let eval = cell
                .into_inner()
                .expect("no poisoned locks")
                .expect("every unit completed");
            (u, eval)
        })
        .collect()
}

/// Workers of the sweep pool for `units` units: `threads`, or
/// `reds_par::max_threads()` when it is 0, and never more than one per
/// unit.
fn pool_width(threads: usize, units: usize) -> usize {
    let threads = if threads == 0 {
        reds_par::max_threads()
    } else {
        threads
    };
    threads.min(units)
}

/// [`execute_units_with`] without a completion hook.
pub fn execute_units(spec: &ExperimentSpec, units: &[WorkUnit]) -> Vec<(WorkUnit, Evaluation)> {
    execute_units_with(spec, units, |_, _| {})
}

/// Recombines unit results — from any number of shards, in any order —
/// into the per-method summaries of the monolithic run. Every cell of
/// the rep × method grid must be present exactly once, and every unit
/// must match the spec's own enumeration (including derived seeds, so
/// results produced under a different spec are rejected).
pub fn aggregate_units(
    spec: &ExperimentSpec,
    results: &[(WorkUnit, Evaluation)],
) -> Result<Vec<MethodSummary>, AggregationError> {
    let expected = enumerate_units(spec);
    let n_methods = spec.methods.len();
    let mut grid: Vec<Option<&Evaluation>> = vec![None; expected.len()];
    for (unit, eval) in results {
        let idx = unit.rep * n_methods + unit.method_index;
        if unit.rep >= spec.reps || unit.method_index >= n_methods || expected[idx] != *unit {
            return Err(AggregationError::Foreign(Box::new(unit.clone())));
        }
        if grid[idx].is_some() {
            return Err(AggregationError::Duplicate {
                method: unit.method.clone(),
                rep: unit.rep,
            });
        }
        grid[idx] = Some(eval);
    }
    if let Some(hole) = grid.iter().position(Option::is_none) {
        return Err(AggregationError::Missing {
            method: spec.methods[hole % n_methods].clone(),
            rep: hole / n_methods,
        });
    }

    let ranges = vec![(0.0, 1.0); spec.function.m()];
    Ok(spec
        .methods
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let per_rep: Vec<Evaluation> = (0..spec.reps)
                .map(|rep| grid[rep * n_methods + mi].expect("validated above").clone())
                .collect();
            let k = per_rep.len() as f64;
            let boxes: Vec<HyperBox> = per_rep.iter().map(|e| e.last_box.clone()).collect();
            MethodSummary {
                method: name.clone(),
                pr_auc: 100.0 * per_rep.iter().map(|e| e.pr_auc).sum::<f64>() / k,
                precision: 100.0 * per_rep.iter().map(|e| e.precision).sum::<f64>() / k,
                wracc: 100.0 * per_rep.iter().map(|e| e.wracc).sum::<f64>() / k,
                consistency: 100.0 * consistency(&boxes, &ranges),
                n_restricted: per_rep.iter().map(|e| e.n_restricted as f64).sum::<f64>() / k,
                n_irrel: per_rep.iter().map(|e| e.n_irrel as f64).sum::<f64>() / k,
                runtime_ms: per_rep.iter().map(|e| e.runtime_ms).sum::<f64>() / k,
                per_rep,
            }
        })
        .collect())
}

/// Zeroes every wall-clock runtime in place. All other fields of an
/// experiment are bit-identical across shard decompositions, resume
/// orders, and thread counts; runtimes are measured and therefore the
/// one exception — strip them before comparing runs for equality.
pub fn strip_runtimes(summaries: &mut [MethodSummary]) {
    for s in summaries {
        s.runtime_ms = 0.0;
        for e in &mut s.per_rep {
            e.runtime_ms = 0.0;
        }
    }
}

/// Runs the experiment: every method on every repetition's dataset, in
/// parallel over the rep × method grid. Returns one summary per method,
/// in the order of `spec.methods`.
///
/// # Panics
///
/// Panics when a method name is invalid (validate names with
/// [`run_method`] first when handling user input).
pub fn run_experiment(spec: &ExperimentSpec) -> Vec<MethodSummary> {
    let units = enumerate_units(spec);
    let results = execute_units(spec, &units);
    aggregate_units(spec, &results).expect("a full enumeration aggregates cleanly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reds_functions::by_name;

    fn tiny_spec(methods: &[&str]) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(by_name("2").unwrap(), 100, methods);
        spec.reps = 3;
        spec.test_size = 2_000;
        spec.opts = MethodOpts {
            l_prim: 1_500,
            l_bi: 1_500,
            bumping_q: 5,
            ..Default::default()
        };
        spec
    }

    #[test]
    fn experiment_produces_summaries_in_method_order() {
        let spec = tiny_spec(&["P", "RPx"]);
        let summaries = run_experiment(&spec);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].method, "P");
        assert_eq!(summaries[1].method, "RPx");
        for s in &summaries {
            assert_eq!(s.per_rep.len(), 3);
            assert!(s.pr_auc > 0.0 && s.pr_auc <= 100.0, "{}", s.pr_auc);
            assert!((0.0..=100.0).contains(&s.consistency));
            assert!(s.runtime_ms > 0.0);
        }
    }

    #[test]
    fn experiment_is_reproducible() {
        let spec = tiny_spec(&["P"]);
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a[0].pr_auc, b[0].pr_auc);
        assert_eq!(a[0].precision, b[0].precision);
    }

    #[test]
    fn irrelevant_restrictions_use_ground_truth() {
        // Function "2" has 2 active of 5 inputs; any restriction beyond
        // the first two is irrelevant and must be counted.
        let spec = tiny_spec(&["P"]);
        let summaries = run_experiment(&spec);
        for e in &summaries[0].per_rep {
            assert!(e.n_irrel <= e.n_restricted);
        }
    }

    #[test]
    fn design_for_function_uses_halton_for_dsgc() {
        assert_eq!(Design::for_function("dsgc"), Design::Halton);
        assert_eq!(Design::for_function("morris"), Design::Lhs);
    }

    fn assert_bit_identical(a: &[MethodSummary], b: &[MethodSummary]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.method, y.method);
            assert_eq!(x.pr_auc.to_bits(), y.pr_auc.to_bits());
            assert_eq!(x.precision.to_bits(), y.precision.to_bits());
            assert_eq!(x.wracc.to_bits(), y.wracc.to_bits());
            assert_eq!(x.consistency.to_bits(), y.consistency.to_bits());
            assert_eq!(x.per_rep.len(), y.per_rep.len());
            for (e, f) in x.per_rep.iter().zip(&y.per_rep) {
                assert_eq!(e.pr_auc.to_bits(), f.pr_auc.to_bits());
                assert_eq!(e.last_box, f.last_box);
            }
        }
    }

    #[test]
    fn two_shards_merge_bit_identically_to_the_monolithic_run() {
        use crate::workunit::{enumerate_units, shard_units};
        let spec = tiny_spec(&["P"]);
        let mut mono = run_experiment(&spec);
        let units = enumerate_units(&spec);
        let mut merged: Vec<_> = execute_units(&spec, &shard_units(&units, 1, 2));
        merged.extend(execute_units(&spec, &shard_units(&units, 0, 2)));
        let mut sharded = aggregate_units(&spec, &merged).expect("complete grid");
        strip_runtimes(&mut mono);
        strip_runtimes(&mut sharded);
        assert_bit_identical(&mono, &sharded);
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let mut one = tiny_spec(&["P"]);
        one.threads = 1;
        let mut three = tiny_spec(&["P"]);
        three.threads = 3;
        let mut a = run_experiment(&one);
        let mut b = run_experiment(&three);
        strip_runtimes(&mut a);
        strip_runtimes(&mut b);
        assert_bit_identical(&a, &b);
    }

    #[test]
    fn pool_width_follows_the_reds_par_thread_count() {
        for n in [1, 3] {
            reds_par::set_max_threads(Some(n));
            let resolved = (pool_width(0, 10), pool_width(0, 2));
            reds_par::set_max_threads(None);
            assert_eq!(resolved, (n, n.min(2)), "set_max_threads({n})");
        }
        // An explicit width wins over the override.
        reds_par::set_max_threads(Some(1));
        let explicit = pool_width(5, 10);
        reds_par::set_max_threads(None);
        assert_eq!(explicit, 5);
    }

    #[test]
    fn aggregation_rejects_incomplete_and_duplicated_grids() {
        use crate::workunit::enumerate_units;
        let spec = tiny_spec(&["P"]);
        let units = enumerate_units(&spec);
        let results = execute_units(&spec, &units);

        let partial = &results[..results.len() - 1];
        assert!(matches!(
            aggregate_units(&spec, partial),
            Err(AggregationError::Missing { .. })
        ));

        let mut doubled = results.clone();
        doubled.push(results[0].clone());
        assert!(matches!(
            aggregate_units(&spec, &doubled),
            Err(AggregationError::Duplicate { .. })
        ));

        let mut foreign = results.clone();
        foreign[0].0.rep_seed ^= 1;
        assert!(matches!(
            aggregate_units(&spec, &foreign),
            Err(AggregationError::Foreign(_))
        ));
    }
}
