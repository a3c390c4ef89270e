use rand::Rng;
use reds_data::{DataError, Dataset};
use std::time::{Duration, Instant};

/// How a benchmark source maps a point to the binary output.
#[derive(Clone)]
pub enum FunctionKind {
    /// Deterministic raw output; `y = 1` iff `raw(x) < thr` (§8.3).
    Thresholded {
        /// Raw real-valued simulation output.
        raw: fn(&[f64]) -> f64,
        /// Binarization threshold (`thr` column of Table 1).
        thr: f64,
    },
    /// Stochastic simulation: the function *is* `P(y = 1 | x)`
    /// (the Dalal et al. "noisy" functions 1–8 and 102).
    Probabilistic {
        /// Conditional positive probability.
        prob: fn(&[f64]) -> f64,
    },
}

/// One data source of Table 1: a named function on `[0,1]^M` together
/// with its active-input set and binarization rule.
#[derive(Clone)]
pub struct BenchmarkFunction {
    name: &'static str,
    m: usize,
    active: &'static [usize],
    kind: FunctionKind,
}

impl BenchmarkFunction {
    /// Builds a function descriptor. `active` lists the zero-based input
    /// indices that influence the output (the `I` column of Table 1).
    pub const fn new(
        name: &'static str,
        m: usize,
        active: &'static [usize],
        kind: FunctionKind,
    ) -> Self {
        Self {
            name,
            m,
            active,
            kind,
        }
    }

    /// Function name as used throughout the paper ("morris", "dsgc", …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of inputs `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Zero-based indices of inputs that affect the output.
    pub fn active_inputs(&self) -> &'static [usize] {
        self.active
    }

    /// Number of active inputs (`I` of Table 1).
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// `true` when input `j` has no influence on the output — the ground
    /// truth behind the `#irrel` metric (§4).
    pub fn is_irrelevant(&self, j: usize) -> bool {
        !self.active.contains(&j)
    }

    /// `P(y = 1 | x)` — `0.0`/`1.0` for deterministic functions.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.m()`.
    pub fn prob_positive(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "{}: wrong input dimension", self.name);
        match &self.kind {
            FunctionKind::Thresholded { raw, thr } => {
                if raw(x) < *thr {
                    1.0
                } else {
                    0.0
                }
            }
            FunctionKind::Probabilistic { prob } => prob(x).clamp(0.0, 1.0),
        }
    }

    /// Raw (pre-binarization) output for thresholded functions, or
    /// `P(y = 1 | x)` for probabilistic ones.
    pub fn raw(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "{}: wrong input dimension", self.name);
        match &self.kind {
            FunctionKind::Thresholded { raw, .. } => raw(x),
            FunctionKind::Probabilistic { prob } => prob(x),
        }
    }

    /// One simulated binary label: deterministic threshold test, or a
    /// Bernoulli draw for stochastic functions.
    pub fn label(&self, x: &[f64], rng: &mut impl Rng) -> f64 {
        draw_label(self.prob_positive(x), rng)
    }

    /// Labels a row-major design into a [`Dataset`] — the "run the
    /// simulations" step of scenario discovery.
    ///
    /// Rows are labeled on the calling thread in doubling batches, timed
    /// after each batch. Once the time they took shows that the rows
    /// left are worth spawning workers for, the simulations of those rows
    /// (`prob_positive`) fan out across `reds-par` workers, as many as
    /// get about half a millisecond of work each: a simulator such as
    /// `dsgc` fans out after its first row, while a closed form stays on
    /// the calling thread. The Bernoulli draws of stochastic functions
    /// always happen on the calling thread in row order, exactly as
    /// [`label`](Self::label) row by row would make them. The labels, and
    /// the state of `rng` afterwards, are therefore identical under any
    /// `REDS_THREADS` and whichever rows fanned out.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ZeroDimensional`] when `self.m() == 0`, and
    /// a [`DataError`] when `points.len()` is not a multiple of
    /// `self.m()`.
    pub fn label_dataset(
        &self,
        points: Vec<f64>,
        rng: &mut impl Rng,
    ) -> Result<Dataset, DataError> {
        let m = self.m;
        if m == 0 {
            return Err(DataError::ZeroDimensional);
        }
        let rows = points.len() / m;
        let mut labels = Vec::with_capacity(rows);
        let start = Instant::now();
        let mut batch = 1;
        while labels.len() < rows {
            let done = labels.len();
            let end = (done + batch).min(rows);
            let x = &points[done * m..end * m];
            labels.extend(x.chunks_exact(m).map(|x| self.label(x, rng)));
            batch *= 2;
            let workers = fan_out_workers(start.elapsed(), end, rows - end, reds_par::max_threads);
            if workers > 1 {
                // One contiguous block of rows per worker, joined in order.
                let block = (rows - end).div_ceil(workers) * m;
                let blocks: Vec<&[f64]> = points[end * m..rows * m].chunks(block).collect();
                let probs = reds_par::par_map(&blocks, |b| {
                    b.chunks_exact(m)
                        .map(|x| self.prob_positive(x))
                        .collect::<Vec<_>>()
                });
                let probs = probs.into_iter().flatten();
                labels.extend(probs.map(|p| draw_label(p, rng)));
            }
        }
        Dataset::new(points, labels, m)
    }

    /// Expected positive share under uniform inputs, estimated from `n`
    /// Monte-Carlo points (the "share" column of Table 1).
    pub fn estimate_share(&self, n: usize, rng: &mut impl Rng) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut x = vec![0.0; self.m];
        for _ in 0..n {
            for v in &mut x {
                *v = rng.gen();
            }
            sum += self.prob_positive(&x);
        }
        sum / n as f64
    }
}

/// Serial time the rows done so far must have taken before their cost is
/// extrapolated; shorter spans are mostly clock and cache noise.
const PROBE: Duration = Duration::from_micros(100);

/// Estimated serial work each worker must take on for a fan-out to beat
/// the calling thread alone. Spawning and joining two scoped threads
/// costs about 0.1 ms on a 2-core Xeon, and labeling measured no faster
/// fanned out until a design held about 1 ms of serial work.
const WORK_PER_WORKER: Duration = Duration::from_micros(500);

/// How many workers the `rest` rows should fan out across, given that the
/// `done` rows before them took `spent` on the calling thread: as many as
/// get [`WORK_PER_WORKER`] of estimated work each, up to `max_threads()`.
/// `1` keeps the rows on the calling thread.
fn fan_out_workers(
    spent: Duration,
    done: usize,
    rest: usize,
    max_threads: impl FnOnce() -> usize,
) -> usize {
    if spent < PROBE {
        return 1;
    }
    let rest_work = spent.as_secs_f64() * rest as f64 / done as f64;
    let affordable = (rest_work / WORK_PER_WORKER.as_secs_f64()) as usize;
    // The thread count reads the environment and the cgroup CPU quota
    // (about 12 µs), so it is looked up only when two workers would pay.
    if affordable < 2 {
        return 1;
    }
    affordable.min(max_threads())
}

/// One label from `P(y = 1 | x)`: a Bernoulli draw, except that certain
/// outcomes skip the RNG so labeling a deterministic function never
/// consumes randomness.
fn draw_label(p: f64, rng: &mut impl Rng) -> f64 {
    if p <= 0.0 {
        0.0
    } else if p >= 1.0 || rng.gen::<f64>() < p {
        1.0
    } else {
        0.0
    }
}

impl std::fmt::Debug for BenchmarkFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchmarkFunction")
            .field("name", &self.name)
            .field("m", &self.m)
            .field("active", &self.active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// `reds_par`'s thread override is process-global; tests that set it
    /// hold this lock so the parallel test harness cannot interleave them.
    static THREADS: Mutex<()> = Mutex::new(());

    /// Takes [`THREADS`]. A test that failed while holding it leaves
    /// nothing to repair, since every holder sets the override it needs.
    fn hold_threads() -> MutexGuard<'static, ()> {
        THREADS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn halfline(x: &[f64]) -> f64 {
        x[0]
    }

    fn coin(_: &[f64]) -> f64 {
        0.5
    }

    const DET: BenchmarkFunction = BenchmarkFunction::new(
        "det",
        2,
        &[0],
        FunctionKind::Thresholded {
            raw: halfline,
            thr: 0.5,
        },
    );
    const STO: BenchmarkFunction =
        BenchmarkFunction::new("sto", 1, &[0], FunctionKind::Probabilistic { prob: coin });
    const STO2: BenchmarkFunction =
        BenchmarkFunction::new("sto2", 2, &[0], FunctionKind::Probabilistic { prob: coin });

    /// Threads that evaluated [`slow_halfline`].
    static SLOW_THREADS: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());

    /// `P(y = 1 | x) = x_0` at a simulator's cost of 0.2 ms per row,
    /// recording the thread it ran on.
    fn slow_halfline(x: &[f64]) -> f64 {
        std::thread::sleep(Duration::from_micros(200));
        let mut seen = SLOW_THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        seen.push(std::thread::current().id());
        x[0]
    }

    const SLOW: BenchmarkFunction = BenchmarkFunction::new(
        "slow",
        1,
        &[0],
        FunctionKind::Probabilistic {
            prob: slow_halfline,
        },
    );

    /// Seed of the labeling generator in the thread-count tests.
    const LABEL_SEED: u64 = 41;

    /// `label_dataset` under a forced worker count, with the next output
    /// of the generator it left behind.
    fn label_with_threads(
        f: &BenchmarkFunction,
        points: &[f64],
        threads: usize,
    ) -> (Result<Dataset, DataError>, u64) {
        reds_par::set_max_threads(Some(threads));
        let mut rng = StdRng::seed_from_u64(LABEL_SEED);
        let d = f.label_dataset(points.to_vec(), &mut rng);
        reds_par::set_max_threads(None);
        (d, rng.gen())
    }

    /// The labels of the design's whole rows made one `label` call at a
    /// time, with the generator's next output.
    fn label_row_by_row(f: &BenchmarkFunction, points: &[f64]) -> (Vec<u64>, u64) {
        let mut rng = StdRng::seed_from_u64(LABEL_SEED);
        let labels = points
            .chunks_exact(f.m())
            .map(|x| f.label(x, &mut rng).to_bits())
            .collect();
        (labels, rng.gen())
    }

    #[test]
    fn deterministic_labeling_thresholds() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DET.prob_positive(&[0.2, 0.9]), 1.0);
        assert_eq!(DET.prob_positive(&[0.7, 0.1]), 0.0);
        assert_eq!(DET.label(&[0.2, 0.9], &mut rng), 1.0);
    }

    #[test]
    fn stochastic_labeling_matches_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let pos: f64 = (0..n).map(|_| STO.label(&[0.3], &mut rng)).sum();
        let rate = pos / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn irrelevance_is_complement_of_active() {
        assert!(!DET.is_irrelevant(0));
        assert!(DET.is_irrelevant(1));
        assert_eq!(DET.n_active(), 1);
    }

    #[test]
    fn label_dataset_has_right_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = DET
            .label_dataset(vec![0.1, 0.5, 0.9, 0.5], &mut rng)
            .unwrap();
        assert_eq!(d.n(), 2);
        assert_eq!(d.labels(), &[1.0, 0.0]);
    }

    #[test]
    fn label_dataset_does_not_depend_on_the_thread_count() {
        let _guard = hold_threads();
        let mut design_rng = StdRng::seed_from_u64(40);
        for f in crate::all_functions() {
            let n = if f.name() == "dsgc" { 41 } else { 200 };
            let points = reds_sampling::uniform(n, f.m(), &mut design_rng);
            let (expected, next) = label_row_by_row(f, &points);
            for threads in [1, 3] {
                let (d, after) = label_with_threads(f, &points, threads);
                let d = d.expect("a uniform design tiles into rows");
                let labels: Vec<u64> = d.labels().iter().map(|y| y.to_bits()).collect();
                assert_eq!(labels, expected, "{}: labels, threads {threads}", f.name());
                assert_eq!(after, next, "{}: rng state, threads {threads}", f.name());
            }
        }
    }

    #[test]
    fn label_dataset_errors_do_not_depend_on_the_thread_count() {
        let _guard = hold_threads();
        let flat =
            BenchmarkFunction::new("flat", 0, &[], FunctionKind::Probabilistic { prob: coin });
        let untouched: u64 = StdRng::seed_from_u64(LABEL_SEED).gen();
        // Two whole rows and one coordinate over.
        let ragged = [0.1, 0.2, 0.3, 0.4, 0.5];
        let (_, next) = label_row_by_row(&STO2, &ragged);
        for threads in [1, 3] {
            let (d, after) = label_with_threads(&flat, &[0.1, 0.2], threads);
            assert_eq!(d, Err(DataError::ZeroDimensional), "threads {threads}");
            assert_eq!(after, untouched, "m = 0 draws nothing, threads {threads}");
            let (d, after) = label_with_threads(&STO2, &ragged, threads);
            let shape = DataError::ShapeMismatch {
                points: 5,
                labels: 2,
                m: 2,
            };
            assert_eq!(d, Err(shape), "threads {threads}");
            assert_eq!(
                after, next,
                "ragged draws for whole rows, threads {threads}"
            );
        }
    }

    #[test]
    fn slow_stochastic_rows_fan_out_and_still_draw_in_row_order() {
        let _guard = hold_threads();
        let points: Vec<f64> = (0..65).map(|i| (i as f64 + 0.5) / 65.0).collect();
        let (expected, next) = label_row_by_row(&SLOW, &points);
        SLOW_THREADS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let (d, after) = label_with_threads(&SLOW, &points, 3);
        let labels: Vec<u64> = d.unwrap().labels().iter().map(|y| y.to_bits()).collect();
        assert_eq!(labels, expected);
        assert_eq!(after, next, "rng state");
        let me = std::thread::current().id();
        let seen = SLOW_THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(seen.len(), 65, "one evaluation per row");
        assert_eq!(seen[0], me, "the first row runs on the calling thread");
        assert!(seen.iter().any(|t| *t != me), "the other rows fan out");
    }

    #[test]
    fn fan_out_workers_each_get_enough_measured_work() {
        let us = Duration::from_micros;
        let never = || -> usize { panic!("thread count looked up") };
        // Under the probe the estimate is not trusted.
        assert_eq!(fan_out_workers(us(99), 1, 1_000_000, never), 1);
        // 1 000 rows took 0.1 ms, so 19 000 more take about 1.9 ms:
        // enough for three workers of 0.5 ms, capped by the thread count.
        assert_eq!(fan_out_workers(us(100), 1_000, 19_000, || 8), 3);
        assert_eq!(fan_out_workers(us(100), 1_000, 19_000, || 2), 2);
        assert_eq!(fan_out_workers(us(100), 1_000, 19_000, || 1), 1);
        // Less than two workers' share left: the count is not looked up.
        assert_eq!(fan_out_workers(us(100), 1_000, 9_000, never), 1);
        assert_eq!(fan_out_workers(us(400), 40, 0, never), 1);
        // One simulation of 0.4 ms with 39 to go: 15.6 ms of work.
        assert_eq!(fan_out_workers(us(400), 1, 39, || 8), 8);
        assert_eq!(fan_out_workers(us(400), 1, 39, || 64), 31);
    }

    #[test]
    fn estimate_share_converges() {
        let mut rng = StdRng::seed_from_u64(3);
        let share = DET.estimate_share(20_000, &mut rng);
        assert!((share - 0.5).abs() < 0.02, "share {share}");
    }

    #[test]
    #[should_panic(expected = "wrong input dimension")]
    fn wrong_dimension_panics() {
        DET.prob_positive(&[0.1]);
    }
}
