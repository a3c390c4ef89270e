//! Random forest (Breiman 2001): bagged CART trees with per-split random
//! feature subsets. The forest's mean prediction over 0/1 labels is an
//! estimate of `P(y = 1 | x)` — exactly the `f^am` the REDS "p" variants
//! feed to the subgroup-discovery step (§6.1).
//!
//! ## Performance
//!
//! Trees are embarrassingly parallel: every tree draws its own seeded
//! RNG stream up front, so training fans out across threads via
//! `reds-par` with **bit-identical** output to the serial loop.
//! [`Metamodel::predict_batch`] is overridden with a tree-major kernel:
//! the outer loop walks trees, the inner loop walks points, so each
//! tree's node arena stays hot in cache across the whole batch — the
//! shape that dominates REDS's `L`-point pseudo-labeling. Per-point
//! tree sums still accumulate in tree order, so batched and one-by-one
//! prediction agree bit for bit. [`Metamodel::hard_labels`] is
//! overridden too: it stops walking trees for a row once the remaining
//! trees can no longer move its mean across the threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::{Dataset, SortedView};

use crate::kernels::FlatTree;
use crate::tree::{NaiveTree, RegressionTree, TreeParams};
use crate::{Metamodel, Trainer};

/// Random forest hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Features per split; `None` = `ceil(sqrt(M))` (the classification
    /// default of Breiman and of R's `randomForest`).
    pub mtry: Option<usize>,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_trees: 200,
            mtry: None,
            min_samples_leaf: 1,
            max_depth: 30,
        }
    }
}

/// A fitted random forest.
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    m: usize,
}

impl RandomForest {
    /// Trains a forest on `data` (bootstrap sample + feature subsampling
    /// per tree).
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `params.n_trees == 0`.
    pub fn fit(data: &Dataset, params: &RandomForestParams, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot train a forest on empty data");
        assert!(params.n_trees > 0, "need at least one tree");
        let (seeds, tree_params) = prepare(data, params, rng);
        // Argsort every feature once for the whole forest; each tree
        // derives its bootstrap's sorted columns from this in linear
        // time (`SortedView` orders by `(value, row)`, the tie order
        // the builders share).
        let orders: Vec<Vec<u32>> = SortedView::new(data).into_columns();
        // Independent seeded RNG streams keep training deterministic —
        // and embarrassingly parallel — regardless of construction
        // order or thread count.
        let trees = reds_par::par_map(&seeds, |&seed| {
            let (indices, mut trng) = bootstrap_for_seed(data.n(), seed);
            RegressionTree::fit_with_orders(
                data.points(),
                data.labels(),
                data.m(),
                &indices,
                &tree_params,
                &orders,
                &mut trng,
            )
        });
        Self { trees, m: data.m() }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees in ensemble order — the order predictions
    /// accumulate in, which serializers (`reds-json`, `reds-art`) must
    /// preserve for bit-identical round trips.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of input columns.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Serializes the fitted forest: `{"m": …, "trees": […]}` of
    /// [`RegressionTree::to_json`] documents, in ensemble order (the
    /// order matters — per-point sums accumulate in tree order, so
    /// preserving it keeps round-tripped predictions bit-identical).
    pub fn to_json(&self) -> reds_json::Json {
        reds_json::Json::obj([
            ("m", reds_json::Json::num(self.m as f64)),
            (
                "trees",
                reds_json::Json::arr(self.trees.iter().map(RegressionTree::to_json)),
            ),
        ])
    }

    /// Reconstructs a forest from [`RandomForest::to_json`] output,
    /// validating every tree (see [`RegressionTree::from_json`]).
    pub fn from_json(doc: &reds_json::Json) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{bad, field, usize_from_json};
        let m = usize_from_json(field(doc, "m")?, "'m'")?;
        let trees = field(doc, "trees")?
            .as_array()
            .ok_or_else(|| bad("'trees' must be an array"))?
            .iter()
            .map(RegressionTree::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(t) = trees.iter().find(|t| t.m() != m) {
            return Err(bad(format!(
                "tree fitted on {} columns inside a forest with m = {m}",
                t.m()
            )));
        }
        let arenas = trees.into_iter().map(RegressionTree::into_flat).collect();
        Self::from_arenas(arenas, m).map_err(bad)
    }

    /// Builds a forest over decoded tree arenas, in ensemble order —
    /// where the `reds-json` and `.redsart` decoders end. Rejects
    /// `m == 0`, an empty ensemble, and any split on a feature `>= m`.
    pub fn from_arenas(arenas: Vec<FlatTree>, m: usize) -> Result<Self, String> {
        FlatTree::check_ensemble(&arenas, m)?;
        let trees = arenas
            .into_iter()
            .map(|flat| RegressionTree::from_flat(flat, m))
            .collect();
        Ok(Self { trees, m })
    }
}

/// Rows per batch chunk: large enough to amortise the per-tree pass,
/// small enough to stay cache-resident and spread over workers.
const CHUNK_ROWS: usize = 4096;

/// Rows per [`RandomForest::hard_labels`] chunk. Each worker keeps a
/// copy of one chunk's open points; at 4096 rows of 12 columns those
/// copies raised a pipeline's peak RSS by 0.9 MiB on 2 workers, at 1024
/// by 0.2 MiB, with no measured change in speed.
const HARD_CHUNK_ROWS: usize = 1024;

/// Trees walked between two early-exit checks of
/// [`RandomForest::hard_labels`] (2, 16 and 32 measured within noise of
/// 8).
const EXIT_BLOCK: usize = 8;

impl Metamodel for RandomForest {
    fn predict(&self, x: &[f64]) -> f64 {
        // Fold from +0.0 like the batch kernels: `Iterator::sum` starts
        // from −0.0, which would keep an all-(−0.0) sum negative.
        let sum = self.trees.iter().fold(0.0, |s, t| s + t.predict(x));
        sum / self.trees.len() as f64
    }

    /// Tree-major batched prediction: for each chunk of rows, the outer
    /// loop walks trees and the inner loop walks the chunk, keeping one
    /// tree's arena in cache across many points. The traversal kernel
    /// (scalar or AVX2) is resolved **once** here and threaded through
    /// every worker — both backends are bit-identical, and per-point
    /// sums still accumulate in tree order, so the result matches
    /// per-point [`Metamodel::predict`] exactly; chunks fan out across
    /// threads.
    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        let kernel = self.check_batch(points, m);
        let mut out = vec![0.0f64; points.len() / m];
        reds_par::par_fill_chunks(&mut out, CHUNK_ROWS, |start, acc| {
            let rows = &points[start * m..(start + acc.len()) * m];
            for tree in &self.trees {
                crate::kernels::accumulate_tree(kernel, tree.flat(), rows, m, acc);
            }
            let n_trees = self.trees.len() as f64;
            for v in acc.iter_mut() {
                *v /= n_trees;
            }
        });
        out
    }

    /// Hard labels with an exact early exit. Each chunk of 1024 rows
    /// walks the trees in blocks of 8; after a block, every row whose
    /// label the remaining trees can no longer change is written out,
    /// and the rest (points and partial sums) are compacted for the
    /// next block. Rows still open after the last tree are labeled from
    /// their full sum, exactly as [`Metamodel::predict_batch`] +
    /// threshold would. `exit_thresholds` explains why a settled label
    /// is always that label.
    fn hard_labels(&self, points: &[f64], m: usize, bnd: f64) -> Vec<f64> {
        let kernel = self.check_batch(points, m);
        let exits = exit_thresholds(&self.trees, bnd);
        let n_trees = self.trees.len() as f64;
        let mut out = vec![0.0f64; points.len() / m];
        reds_par::par_fill_chunks_with(
            &mut out,
            HARD_CHUNK_ROWS,
            OpenRows::default,
            |open, start, labels| {
                open.reset(&points[start * m..(start + labels.len()) * m], m);
                for (block, trees) in self.trees.chunks(EXIT_BLOCK).enumerate() {
                    for tree in trees {
                        crate::kernels::accumulate_tree(
                            kernel,
                            tree.flat(),
                            &open.points,
                            m,
                            &mut open.acc,
                        );
                    }
                    if let Some(&(one, zero)) = exits.get(block) {
                        open.settle(m, labels, one, zero);
                    }
                }
                for (&row, &acc) in open.row.iter().zip(&open.acc) {
                    labels[row as usize] = if acc / n_trees > bnd { 1.0 } else { 0.0 };
                }
            },
        );
        out
    }
}

impl RandomForest {
    /// Checks a batch's shape and resolves the traversal kernel once
    /// for the whole call.
    fn check_batch(&self, points: &[f64], m: usize) -> crate::kernels::Kernel {
        assert_eq!(m, self.m, "prediction dimensionality mismatch");
        assert!(points.len().is_multiple_of(m), "ragged point buffer");
        crate::kernels::active()
    }
}

/// Partial-sum thresholds that settle a hard label before the last
/// tree: `(one, zero)` after each block `b` but the last, i.e. after the
/// first `(b + 1) · EXIT_BLOCK` trees. A partial sum `>= one` settles
/// label 1, one `<= zero` settles label 0; NaN disables a side. Rows
/// open after the last block take the plain threshold.
///
/// A row's batch prediction is `acc / T > bnd` with
/// `acc = (…((+0.0 + v₁) + v₂) …) + v_T`, summed in tree order. Rounded
/// addition is monotone in each operand, and so is rounded division by
/// `T > 0`. So once the first `t` trees gave `a`, the final `acc` lies
/// between `L(a)`, the same rounded sum continued with each remaining
/// tree's smallest leaf, and `H(a)`, continued with each one's largest.
/// The label is 1 whenever `L(a) / T > bnd`, and 0 whenever
/// `H(a) / T <= bnd`.
///
/// Both tests are monotone in `a`, so each is one comparison against a
/// threshold: the least `a` that passes the first, the greatest that
/// passes the second. These are found exactly by bisecting the `f64`
/// order with the rounded sums themselves — no rounding slack is
/// estimated anywhere.
///
/// Non-finite values never settle a row wrongly:
/// * the first test needs every remaining smallest leaf finite, and the
///   second every remaining largest leaf. A leaf of `±∞` or NaN in the
///   remaining trees disables that test (NaN propagates through the
///   per-tree min/max), so `∞ − ∞` can never arise inside `L` or `H`;
///   with finite addends, `L` and `H` are monotone over `[−∞, +∞]`;
/// * a NaN `bnd` passes neither test, and a NaN partial sum compares
///   false against both thresholds. Such rows finish the full walk.
///
/// If `L(a) / T > bnd`, `L` never reached `−∞`; the true partial sums
/// stay above it, so they never meet `+∞ + (−∞)` either. If
/// `H(a) / T <= bnd` and the true sum ends NaN, its label is 0 anyway.
fn exit_thresholds(trees: &[RegressionTree], bnd: f64) -> Vec<(f64, f64)> {
    let n_trees = trees.len() as f64;
    let ranges: Vec<(f64, f64)> = trees.iter().map(|t| leaf_range(t.flat())).collect();
    (EXIT_BLOCK..trees.len())
        .step_by(EXIT_BLOCK)
        .map(|done| {
            let rest = &ranges[done..];
            let low = |a: f64| rest.iter().fold(a, |s, r| s + r.0);
            let high = |a: f64| rest.iter().fold(a, |s, r| s + r.1);
            let one = if rest.iter().all(|r| r.0.is_finite()) {
                first_passing(|a| low(a) / n_trees > bnd).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            };
            let zero = if rest.iter().all(|r| r.1.is_finite()) {
                last_passing(|a| high(a) / n_trees <= bnd).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            };
            (one, zero)
        })
        .collect()
}

/// Smallest and largest leaf value of a tree; NaN when any leaf is NaN.
fn leaf_range(tree: &FlatTree) -> (f64, f64) {
    let leaves = (0..tree.n_nodes())
        .filter(|&i| tree.is_leaf(i))
        .map(|i| tree.value(i));
    leaves.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        if v.is_nan() || lo.is_nan() {
            (f64::NAN, f64::NAN)
        } else {
            (lo.min(v), hi.max(v))
        }
    })
}

/// The least non-NaN `f64` satisfying `pass`, which must be monotone
/// (false, then true) along the `f64` order; `None` if nothing passes.
fn first_passing(pass: impl Fn(f64) -> bool) -> Option<f64> {
    use reds_data::{ord_key, ord_key_inverse};
    // Keys of the non-NaN floats form one contiguous range.
    let (mut lo, mut hi) = (ord_key(f64::NEG_INFINITY), ord_key(f64::INFINITY));
    if !pass(f64::INFINITY) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pass(ord_key_inverse(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(ord_key_inverse(hi))
}

/// The greatest non-NaN `f64` satisfying `pass`, which must be monotone
/// (true, then false) along the `f64` order; `None` if nothing passes.
fn last_passing(pass: impl Fn(f64) -> bool) -> Option<f64> {
    match first_passing(|a| !pass(a)) {
        None => Some(f64::INFINITY),
        Some(f64::NEG_INFINITY) => None,
        Some(fail) => Some(reds_data::ord_key_inverse(reds_data::ord_key(fail) - 1)),
    }
}

/// The rows of one chunk whose hard label is still open: their points
/// (row-major), tree-order partial sums, and positions in the chunk.
#[derive(Default)]
struct OpenRows {
    points: Vec<f64>,
    acc: Vec<f64>,
    row: Vec<u32>,
}

impl OpenRows {
    /// Opens every row of a fresh chunk with a `+0.0` sum.
    fn reset(&mut self, points: &[f64], m: usize) {
        let n = points.len() / m;
        self.points.clear();
        self.points.extend_from_slice(points);
        self.acc.clear();
        self.acc.resize(n, 0.0);
        self.row.clear();
        self.row.extend(0..n as u32);
    }

    /// Writes out label 1 for every row whose partial sum is `>= one`
    /// and label 0 where it is `<= zero`, and closes those rows; the
    /// last open row moves into each freed slot.
    fn settle(&mut self, m: usize, labels: &mut [f64], one: f64, zero: f64) {
        let mut i = 0;
        while i < self.acc.len() {
            let label = if self.acc[i] >= one {
                1.0
            } else if self.acc[i] <= zero {
                0.0
            } else {
                i += 1;
                continue;
            };
            labels[self.row[i] as usize] = label;
            let last = self.acc.len() - 1;
            self.acc.swap_remove(i);
            self.row.swap_remove(i);
            self.points.copy_within(last * m..(last + 1) * m, i * m);
            self.points.truncate(last * m);
        }
    }
}

fn prepare(
    data: &Dataset,
    params: &RandomForestParams,
    rng: &mut impl Rng,
) -> (Vec<u64>, TreeParams) {
    let m = data.m();
    let mtry = params
        .mtry
        .unwrap_or_else(|| (m as f64).sqrt().ceil() as usize)
        .clamp(1, m);
    let tree_params = TreeParams {
        max_depth: params.max_depth,
        min_samples_leaf: params.min_samples_leaf,
        min_samples_split: 2 * params.min_samples_leaf.max(1),
        mtry: Some(mtry),
    };
    let seeds: Vec<u64> = (0..params.n_trees).map(|_| rng.gen()).collect();
    (seeds, tree_params)
}

fn bootstrap_for_seed(n: usize, seed: u64) -> (Vec<usize>, StdRng) {
    let mut trng = StdRng::seed_from_u64(seed);
    let indices: Vec<usize> = (0..n).map(|_| trng.gen_range(0..n)).collect();
    (indices, trng)
}

/// The pre-optimization forest: a serial loop over [`NaiveTree`]s with
/// per-point enum-arena prediction (and the default serial
/// `predict_batch`). Bit-identical predictions to [`RandomForest`];
/// reference oracle for the equivalence tests and the baseline of the
/// `presort` benchmarks only.
#[doc(hidden)]
pub struct NaiveRandomForest {
    trees: Vec<NaiveTree>,
    m: usize,
}

impl NaiveRandomForest {
    /// Serial pre-optimization training; same RNG consumption as
    /// [`RandomForest::fit`].
    pub fn fit(data: &Dataset, params: &RandomForestParams, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot train a forest on empty data");
        assert!(params.n_trees > 0, "need at least one tree");
        let (seeds, tree_params) = prepare(data, params, rng);
        let trees = seeds
            .into_iter()
            .map(|seed| {
                let (indices, mut trng) = bootstrap_for_seed(data.n(), seed);
                NaiveTree::fit(
                    data.points(),
                    data.labels(),
                    data.m(),
                    &indices,
                    &tree_params,
                    &mut trng,
                )
            })
            .collect();
        Self { trees, m: data.m() }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Metamodel for NaiveRandomForest {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "prediction dimensionality mismatch");
        let sum = self.trees.iter().fold(0.0, |s, t| s + t.predict(x));
        sum / self.trees.len() as f64
    }
}

impl Trainer for RandomForestParams {
    fn train(&self, data: &Dataset, rng: &mut StdRng) -> Box<dyn Metamodel> {
        Box::new(RandomForest::fit(data, self, rng))
    }

    fn tag(&self) -> &'static str {
        "f"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
            let d = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
            if d < 0.09 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn forest_learns_a_disc_better_than_chance() {
        let train = ring_data(400, 1);
        let test = ring_data(1000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let forest = RandomForest::fit(&train, &RandomForestParams::default(), &mut rng);
        let correct = test
            .iter()
            .filter(|(x, y)| (forest.predict(x) > 0.5) == (*y > 0.5))
            .count();
        let acc = correct as f64 / test.n() as f64;
        assert!(acc > 0.9, "forest accuracy {acc}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let train = ring_data(200, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let forest = RandomForest::fit(&train, &RandomForestParams::default(), &mut rng);
        for i in 0..50 {
            let x = [i as f64 / 50.0, 0.5];
            let p = forest.predict(&x);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let train = ring_data(150, 6);
        let params = RandomForestParams {
            n_trees: 20,
            ..Default::default()
        };
        let f1 = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(7));
        let f2 = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(7));
        let x = [0.3, 0.8];
        assert_eq!(f1.predict(&x), f2.predict(&x));
    }

    #[test]
    fn forest_variance_is_lower_than_single_tree() {
        // Train many models on different resamples; the spread of the
        // forest's prediction at a fixed point should not exceed a single
        // tree's (the low-variance property REDS relies on, §6.2). The
        // probe sits just inside the ring boundary, where individual
        // trees genuinely disagree across resamples.
        let x = [0.77, 0.6];
        let tree_params = RandomForestParams {
            n_trees: 1,
            ..Default::default()
        };
        let forest_params = RandomForestParams {
            n_trees: 60,
            ..Default::default()
        };
        let spread = |params: &RandomForestParams| {
            let preds: Vec<f64> = (0..24)
                .map(|s| {
                    let d = ring_data(150, 100 + s);
                    let mut rng = StdRng::seed_from_u64(200 + s);
                    RandomForest::fit(&d, params, &mut rng).predict(&x)
                })
                .collect();
            let mean = preds.iter().sum::<f64>() / preds.len() as f64;
            preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64
        };
        let (sf, st) = (spread(&forest_params), spread(&tree_params));
        assert!(sf <= st + 1e-9, "forest spread {sf} vs tree spread {st}");
    }

    #[test]
    fn parallel_fit_and_batch_predict_match_naive_bitwise() {
        let train = ring_data(200, 21);
        let params = RandomForestParams {
            n_trees: 40,
            ..Default::default()
        };
        let fast = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(22));
        let slow = NaiveRandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(22));
        let query: Vec<f64> = (0..400).map(|i| (i % 29) as f64 / 29.0).collect();
        let batch_fast = fast.predict_batch(&query, 2);
        let batch_slow = slow.predict_batch(&query, 2);
        for (i, x) in query.chunks_exact(2).enumerate() {
            let point = fast.predict(x);
            assert_eq!(
                point.to_bits(),
                slow.predict(x).to_bits(),
                "fit mismatch at {i}"
            );
            assert_eq!(
                point.to_bits(),
                batch_fast[i].to_bits(),
                "batch mismatch at {i}"
            );
            assert_eq!(point.to_bits(), batch_slow[i].to_bits());
        }
    }

    #[test]
    fn thread_count_does_not_change_predictions() {
        let train = ring_data(150, 23);
        let params = RandomForestParams {
            n_trees: 16,
            ..Default::default()
        };
        reds_par::set_max_threads(Some(1));
        let serial = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(24));
        reds_par::set_max_threads(Some(4));
        let parallel = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(24));
        reds_par::set_max_threads(None);
        let query: Vec<f64> = (0..200).map(|i| (i % 17) as f64 / 17.0).collect();
        assert_eq!(
            serial.predict_batch(&query, 2),
            parallel.predict_batch(&query, 2)
        );
    }

    #[test]
    fn trainer_trait_object_works() {
        let train = ring_data(100, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let params = RandomForestParams {
            n_trees: 10,
            ..Default::default()
        };
        let model = params.train(&train, &mut rng);
        assert!(model.predict(&[0.5, 0.5]) > 0.4);
        assert_eq!(params.tag(), "f");
        let batch = model.predict_batch(&[0.5, 0.5, 0.0, 0.0], 2);
        assert_eq!(batch.len(), 2);
    }
}
