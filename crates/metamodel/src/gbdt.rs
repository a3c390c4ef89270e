//! Gradient-boosted decision trees with the XGBoost second-order
//! logistic objective (Chen & Guestrin 2016) — the "x" metamodel of the
//! paper, its strongest performer ("RPx", §9.1.1).
//!
//! Each round fits a regression tree to the gradient/hessian statistics
//! of the logistic loss; split gain and leaf weights use the regularised
//! second-order formulas
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! w    = −G / (H + λ)
//! ```
//!
//! Like the CART builder, each round's tree grows on presorted columns
//! (dataset argsorted once per fit, subsample columns derived by an
//! `O(m·n)` filter, stable partition per split), and the per-round
//! margin refresh over all `N` rows fans out across threads.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use reds_data::{Dataset, SortedView};

use crate::kernels::{self, FlatTree, PerfectTrees};
use crate::{Metamodel, Trainer};

/// GBDT hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Learning rate (shrinkage) `η`.
    pub eta: f64,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f64,
    /// Minimum split gain `γ`.
    pub gamma: f64,
    /// Minimum hessian sum per child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_rounds: 150,
            max_depth: 4,
            eta: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.8,
        }
    }
}

/// Per-round tree builder on presorted columns — the same
/// stable-partition scheme as the CART builder: the dataset is
/// argsorted once per fit, each round derives its subsample's sorted
/// columns by filtering (`O(m·n)`), and every split partitions the
/// columns in place, so there is no per-node sorting. Subsample rows
/// are distinct, so rows themselves are the ids.
struct GradBuilder<'a> {
    points: &'a [f64],
    grad: &'a [f64],
    hess: &'a [f64],
    m: usize,
    params: &'a GbdtParams,
    nodes: FlatTree,
    /// Node-order row array; `build` works on `main[lo..hi]`.
    main: Vec<u32>,
    /// Per-feature row arrays sorted by `(value, row)`, subsample only.
    cols: Vec<Vec<u32>>,
    /// Scratch buffer for the stable partitions.
    scratch: Vec<u32>,
    /// Per-row side flag of the split being applied.
    goes_left: &'a mut [bool],
}

impl<'a> GradBuilder<'a> {
    #[inline]
    fn value(&self, row: u32, feature: usize) -> f64 {
        self.points[row as usize * self.m + feature]
    }

    fn sums(&self, lo: usize, hi: usize) -> (f64, f64) {
        self.main[lo..hi].iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + self.grad[i as usize], h + self.hess[i as usize])
        })
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let n = hi - lo;
        let (g_total, h_total) = self.sums(lo, hi);
        let leaf_weight = -g_total / (h_total + self.params.lambda);
        if depth >= self.params.max_depth || n < 2 {
            return self.nodes.push_leaf(leaf_weight);
        }
        let parent_score = g_total * g_total / (h_total + self.params.lambda);
        let mut best: Option<(usize, f64, f64)> = None;
        for feature in 0..self.m {
            let col = &self.cols[feature][lo..hi];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for k in 0..n - 1 {
                gl += self.grad[col[k] as usize];
                hl += self.hess[col[k] as usize];
                let v_here = self.value(col[k], feature);
                let v_next = self.value(col[k + 1], feature);
                if v_next <= v_here {
                    continue;
                }
                let hr = h_total - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gr = g_total - gl;
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((feature, crate::tree::split_threshold(v_here, v_next), gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return self.nodes.push_leaf(leaf_weight);
        };
        for &row in &self.main[lo..hi] {
            self.goes_left[row as usize] = self.value(row, feature) <= threshold;
        }
        let split_at = crate::tree::stable_partition(
            self.goes_left,
            &mut self.scratch,
            &mut self.main[lo..hi],
        );
        debug_assert!(split_at > 0 && split_at < n);
        for f in 0..self.m {
            let mut col = std::mem::take(&mut self.cols[f]);
            let at =
                crate::tree::stable_partition(self.goes_left, &mut self.scratch, &mut col[lo..hi]);
            debug_assert_eq!(at, split_at);
            self.cols[f] = col;
        }
        let node_id = self.nodes.push_split(feature as u32, threshold);
        let left = self.build(lo, lo + split_at, depth + 1);
        debug_assert_eq!(left, node_id + 1, "left child must follow its parent");
        let right = self.build(lo + split_at, hi, depth + 1);
        self.nodes.set_right(node_id, right);
        node_id
    }
}

/// Logistic squash through the resolved [`kernels::exp`] backend — the
/// same exponential (canonical polynomial, or libm under
/// `REDS_EXP=libm`) the batched [`kernels::sigmoid_margins`] kernel
/// evaluates, so per-point and batched predictions agree bitwise.
#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + kernels::exp(-z))
}

/// A fitted gradient-boosted tree ensemble. Each round's tree is a
/// kernel-ready [`FlatTree`] whose leaf values are leaf *weights*.
pub struct Gbdt {
    trees: Vec<FlatTree>,
    /// The trees as perfect trees of the ensemble's depth, for the AVX2
    /// bit walk; `None` when a tree is deeper than
    /// [`PerfectTrees::MAX_DEPTH`]. Built with the ensemble, so no
    /// prediction pays for it.
    perfect: Option<PerfectTrees>,
    base_score: f64,
    eta: f64,
    m: usize,
}

impl Gbdt {
    /// Trains a boosted ensemble on binary labels.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `params` are degenerate
    /// (`n_rounds == 0`, `subsample ∉ (0, 1]`).
    pub fn fit(data: &Dataset, params: &GbdtParams, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot train GBDT on empty data");
        assert!(params.n_rounds > 0, "need at least one round");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        let n = data.n();
        let m = data.m();
        // Base score: log-odds of the positive rate, clamped away from
        // the degenerate all-one/all-zero cases.
        let rate = data.pos_rate().clamp(1e-6, 1.0 - 1e-6);
        let base_score = (rate / (1.0 - rate)).ln();
        let mut margins = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        let mut all_rows: Vec<usize> = (0..n).collect();
        let sample_size = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        // Argsort every feature once; each round's subsample columns
        // derive from these by an O(m·n) filter.
        let global_cols: Vec<Vec<u32>> = SortedView::new(data).into_columns();
        let mut in_sample = vec![false; n];
        let mut goes_left = vec![false; n];
        for _ in 0..params.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = p - data.label(i);
                hess[i] = (p * (1.0 - p)).max(1e-16);
            }
            all_rows.shuffle(rng);
            in_sample.fill(false);
            for &r in &all_rows[..sample_size] {
                in_sample[r] = true;
            }
            let main: Vec<u32> = (0..n as u32).filter(|&r| in_sample[r as usize]).collect();
            let cols: Vec<Vec<u32>> = global_cols
                .iter()
                .map(|gc| {
                    gc.iter()
                        .copied()
                        .filter(|&r| in_sample[r as usize])
                        .collect()
                })
                .collect();
            let mut builder = GradBuilder {
                points: data.points(),
                grad: &grad,
                hess: &hess,
                m,
                params,
                nodes: FlatTree::with_capacity(2 * sample_size),
                main,
                cols,
                scratch: vec![0; sample_size],
                goes_left: &mut goes_left,
            };
            builder.build(0, sample_size, 0);
            let tree = builder.nodes;
            // The per-round margin refresh walks the whole dataset
            // through the new tree — the dominant per-round cost at
            // large N. Rows are independent, so it fans out across
            // threads (with a per-worker prediction scratch) through
            // the dispatched traversal kernel, bit-identically to the
            // serial per-point walk.
            let kernel = kernels::active();
            let points = data.points();
            reds_par::par_fill_chunks_with(
                &mut margins,
                8192,
                || vec![0.0f64; 8192],
                |preds, start, chunk| {
                    let preds = &mut preds[..chunk.len()];
                    preds.fill(0.0);
                    let rows = &points[start * m..(start + chunk.len()) * m];
                    kernels::accumulate_tree(kernel, &tree, rows, m, preds);
                    for (margin, p) in chunk.iter_mut().zip(preds.iter()) {
                        *margin += params.eta * p;
                    }
                },
            );
            trees.push(tree);
        }
        Self::assemble(base_score, params.eta, trees, m)
    }

    /// The ensemble over checked arenas, with its perfect-tree form.
    fn assemble(base_score: f64, eta: f64, trees: Vec<FlatTree>, m: usize) -> Self {
        Self {
            perfect: PerfectTrees::new(&trees),
            trees,
            base_score,
            eta,
            m,
        }
    }

    /// Raw additive margin (log-odds) at `x`.
    pub fn margin(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "prediction dimensionality mismatch");
        // Fold from +0.0 like the batch kernels (`Iterator::sum` starts
        // from −0.0).
        let sum = self.trees.iter().fold(0.0, |s, t| s + t.predict(x));
        self.base_score + self.eta * sum
    }

    /// Number of boosted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted base score (log-odds prior added to every margin).
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The fitted learning rate applied to the summed tree outputs.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Borrowed flat arenas in boosting order — the order margins
    /// accumulate in, which serializers (`reds-json`, `reds-art`) must
    /// preserve for bit-identical round trips.
    pub fn arenas(&self) -> impl ExactSizeIterator<Item = &FlatTree> {
        self.trees.iter()
    }

    /// Number of input columns the ensemble was fitted on.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Serializes the fitted ensemble: each tree is an array of nodes —
    /// leaves `[weight]`, splits `[feature, threshold, left, right]`
    /// (the in-memory layout always has `left == i + 1`, but the wire
    /// format keeps both children explicit for compatibility).
    pub fn to_json(&self) -> reds_json::Json {
        use crate::persist::f64_to_json;
        use reds_json::Json;
        let tree_to_json = |flat: &FlatTree| {
            Json::arr((0..flat.n_nodes()).map(|i| {
                if flat.is_leaf(i) {
                    Json::arr([f64_to_json(flat.value(i))])
                } else {
                    Json::arr([
                        Json::num(flat.feature(i) as f64),
                        f64_to_json(flat.value(i)),
                        Json::num((i + 1) as f64),
                        Json::num(flat.right(i) as f64),
                    ])
                }
            }))
        };
        Json::obj([
            ("m", Json::num(self.m as f64)),
            ("base_score", f64_to_json(self.base_score)),
            ("eta", f64_to_json(self.eta)),
            ("trees", Json::arr(self.trees.iter().map(tree_to_json))),
        ])
    }

    /// Reconstructs an ensemble from [`Gbdt::to_json`] output. Both
    /// children of every split must lie strictly after it in the arena
    /// (traversal terminates) and inside it; feature ids must be `< m`.
    pub fn from_json(doc: &reds_json::Json) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{bad, f64_from_json, field, usize_from_json};
        let m = usize_from_json(field(doc, "m")?, "'m'")?;
        let base_score = f64_from_json(field(doc, "base_score")?)?;
        let eta = f64_from_json(field(doc, "eta")?)?;
        let tree_docs = field(doc, "trees")?
            .as_array()
            .ok_or_else(|| bad("'trees' must be an array"))?;
        let mut trees = Vec::with_capacity(tree_docs.len());
        for (ti, tree_doc) in tree_docs.iter().enumerate() {
            let arr = tree_doc
                .as_array()
                .ok_or_else(|| bad(format!("tree {ti} must be an array of nodes")))?;
            if arr.is_empty() {
                return Err(bad(format!("tree {ti} has no nodes")));
            }
            let len = arr.len();
            if len > u32::MAX as usize {
                return Err(bad(format!("tree {ti} has too many nodes")));
            }
            // First pass: decode with the original forward-reference
            // validation (children strictly after their parent and
            // inside the arena — traversal terminates).
            enum Parsed {
                Leaf(f64),
                Split {
                    feature: u32,
                    threshold: f64,
                    left: u32,
                    right: u32,
                },
            }
            let mut parsed = Vec::with_capacity(len);
            for (i, node) in arr.iter().enumerate() {
                let parts = node
                    .as_array()
                    .ok_or_else(|| bad(format!("tree {ti} node {i} must be an array")))?;
                match parts.len() {
                    1 => parsed.push(Parsed::Leaf(f64_from_json(&parts[0])?)),
                    4 => {
                        let feature = usize_from_json(&parts[0], "split feature")?;
                        if feature >= m {
                            return Err(bad(format!(
                                "tree {ti} node {i}: feature {feature} out of range (m = {m})"
                            )));
                        }
                        let threshold = f64_from_json(&parts[1])?;
                        let left = usize_from_json(&parts[2], "left child")?;
                        let right = usize_from_json(&parts[3], "right child")?;
                        if left <= i || right <= i || left >= len || right >= len {
                            return Err(bad(format!(
                                "tree {ti} node {i}: children must lie strictly forward \
                                 in the arena (left = {left}, right = {right}, len = {len})"
                            )));
                        }
                        parsed.push(Parsed::Split {
                            feature: feature as u32,
                            threshold,
                            left: left as u32,
                            right: right as u32,
                        });
                    }
                    k => {
                        return Err(bad(format!(
                            "tree {ti} node {i} has {k} fields (expected 1 or 4)"
                        )))
                    }
                }
            }
            // Second pass: re-lay the arena depth-first so the left
            // child sits at `i + 1` — the branchless layout the SIMD
            // kernels traverse. An explicit stack (no recursion) holds
            // `(old index, parent split to patch)`; pushing the right
            // subtree first makes the left subtree emit immediately
            // after its parent. Documents whose nodes form a DAG (two
            // parents sharing a child) would duplicate subtrees here,
            // so the emit count is capped at the input length.
            let mut flat = FlatTree::with_capacity(len);
            let mut stack: Vec<(u32, Option<u32>)> = vec![(0, None)];
            while let Some((old, patch)) = stack.pop() {
                if flat.n_nodes() >= len {
                    return Err(bad(format!(
                        "tree {ti}: nodes must form a tree (shared subtrees detected)"
                    )));
                }
                let new_id = match &parsed[old as usize] {
                    Parsed::Leaf(w) => flat.push_leaf(*w),
                    Parsed::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let id = flat.push_split(*feature, *threshold);
                        stack.push((*right, Some(id)));
                        stack.push((*left, None));
                        id
                    }
                };
                if let Some(parent) = patch {
                    flat.set_right(parent, new_id);
                }
            }
            flat.validate(m).map_err(bad)?;
            trees.push(flat);
        }
        Self::from_arenas(base_score, eta, trees, m).map_err(bad)
    }

    /// Builds an ensemble over decoded tree arenas, in boosting order —
    /// where the `reds-json` and `.redsart` decoders end. Rejects
    /// `m == 0`, an empty ensemble, and any split on a feature `>= m`.
    pub fn from_arenas(
        base_score: f64,
        eta: f64,
        arenas: Vec<FlatTree>,
        m: usize,
    ) -> Result<Self, String> {
        FlatTree::check_ensemble(&arenas, m)?;
        Ok(Self::assemble(base_score, eta, arenas, m))
    }
}

impl Metamodel for Gbdt {
    fn predict(&self, x: &[f64]) -> f64 {
        sigmoid(self.margin(x))
    }

    /// Tree-major batched prediction (see `RandomForest::predict_batch`
    /// for the cache rationale), by the kernel resolved once per call,
    /// parallel over row chunks. Under AVX2 an ensemble of depth at
    /// most [`PerfectTrees::MAX_DEPTH`] (the default `max_depth` is 4)
    /// evaluates its splits in bulk over transposed row blocks and
    /// walks mask bits to its leaves; the scalar kernel and deeper
    /// ensembles walk the arenas. Either way each row adds the leaves
    /// [`Metamodel::predict`] reaches in the same order, so the batch
    /// is bit-identical to per-point prediction on every backend and at
    /// any thread count.
    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        assert_eq!(m, self.m, "prediction dimensionality mismatch");
        assert!(points.len().is_multiple_of(m.max(1)), "ragged point buffer");
        let kernel = kernels::active();
        let n = points.len() / m.max(1);
        let mut out = vec![0.0f64; n];
        reds_par::par_fill_chunks_with(&mut out, 4096, Vec::new, |scratch, start, acc| {
            let rows = &points[start * m..(start + acc.len()) * m];
            let perfect = self.perfect.as_ref();
            kernels::accumulate_trees(kernel, &self.trees, perfect, rows, m, acc, scratch);
            kernels::sigmoid_margins(kernel, self.base_score, self.eta, acc);
        });
        out
    }
}

impl Trainer for GbdtParams {
    fn train(&self, data: &Dataset, rng: &mut StdRng) -> Box<dyn Metamodel> {
        Box::new(Gbdt::fit(data, self, rng))
    }

    fn tag(&self) -> &'static str {
        "x"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stripe_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 3).map(|_| rng.gen::<f64>()).collect(), 3, |x| {
            if x[0] > 0.3 && x[0] < 0.7 && x[1] > 0.2 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn gbdt_learns_a_band() {
        let train = stripe_data(400, 1);
        let test = stripe_data(1000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let model = Gbdt::fit(&train, &GbdtParams::default(), &mut rng);
        let acc = test
            .iter()
            .filter(|(x, y)| (model.predict(x) > 0.5) == (*y > 0.5))
            .count() as f64
            / test.n() as f64;
        assert!(acc > 0.9, "GBDT accuracy {acc}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let train = stripe_data(200, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let model = Gbdt::fit(&train, &GbdtParams::default(), &mut rng);
        for i in 0..30 {
            let p = model.predict(&[i as f64 / 30.0, 0.5, 0.5]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let train = stripe_data(300, 6);
        let log_loss = |model: &Gbdt| {
            train
                .iter()
                .map(|(x, y)| {
                    let p = model.predict(x).clamp(1e-9, 1.0 - 1e-9);
                    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
                })
                .sum::<f64>()
                / train.n() as f64
        };
        let short = Gbdt::fit(
            &train,
            &GbdtParams {
                n_rounds: 5,
                subsample: 1.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(7),
        );
        let long = Gbdt::fit(
            &train,
            &GbdtParams {
                n_rounds: 100,
                subsample: 1.0,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(7),
        );
        assert!(log_loss(&long) < log_loss(&short));
    }

    #[test]
    fn constant_labels_predict_the_constant() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = Dataset::from_fn((0..100).map(|_| rng.gen::<f64>()).collect(), 1, |_| 1.0).unwrap();
        let model = Gbdt::fit(&d, &GbdtParams::default(), &mut rng);
        assert!(model.predict(&[0.5]) > 0.99);
    }

    #[test]
    fn determinism_under_seed() {
        let train = stripe_data(150, 9);
        let params = GbdtParams {
            n_rounds: 20,
            ..Default::default()
        };
        let a = Gbdt::fit(&train, &params, &mut StdRng::seed_from_u64(10));
        let b = Gbdt::fit(&train, &params, &mut StdRng::seed_from_u64(10));
        assert_eq!(a.predict(&[0.4, 0.6, 0.1]), b.predict(&[0.4, 0.6, 0.1]));
    }

    #[test]
    fn trainer_tag_is_x() {
        assert_eq!(GbdtParams::default().tag(), "x");
    }
}
