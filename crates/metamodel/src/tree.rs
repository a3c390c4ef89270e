//! CART regression tree — the building block of the forest metamodel.
//!
//! Splits minimise the within-node sum of squared errors (variance
//! reduction), which for 0/1 targets coincides with the Gini-style purity
//! gain, so the same tree serves probability regression and
//! classification.
//!
//! ## Performance
//!
//! Two optimizations keep this on the REDS hot path budget:
//!
//! * **Presorted building.** The builder argsorts every feature column
//!   **once** over the sample slots (`O(m·n log n)`) and maintains the
//!   sorted order down the tree with a stable partition at each split —
//!   the classic sklearn/ranger trick — so per-node split search is
//!   `O(m·n)` instead of `O(m·n log n)`.
//! * **Branchless structure-of-arrays arena.** Fitted nodes flatten
//!   into the parallel `feature`/`value`/`right` arrays of
//!   [`FlatTree`](crate::kernels::FlatTree) (left child implicit at
//!   `index + 1`, depth-first layout); batched prediction dispatches to
//!   the runtime-selected [`crate::kernels`] backend — the 64-lane
//!   interleaved scalar walk or the gather-based 4-wide AVX2 kernel,
//!   which are bit-identical.
//!
//! The pre-optimization tree (per-node re-sorting builder, enum-arena
//! nodes, pointer-chasing predict) is kept as [`NaiveTree`] (hidden from
//! docs) as the reference oracle for the equivalence tests and the
//! baseline of the `presort` benchmarks. Both builders order ties by
//! `(row, slot)`, so they produce bit-identical trees.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::kernels::FlatTree;

/// Hyperparameters of a single CART tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered per split; `None` = all features.
    pub mtry: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 30,
            min_samples_leaf: 1,
            min_samples_split: 2,
            mtry: None,
        }
    }
}

/// Marker for leaves, mirrored from the kernel layout.
const LEAF: u32 = FlatTree::LEAF;

/// A fitted CART regression tree over the kernel-ready
/// structure-of-arrays arena.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    flat: FlatTree,
    m: usize,
}

/// The presorted tree builder.
///
/// Samples are addressed by *slot* (position in the caller's `indices`
/// array; bootstrap duplicates get distinct slots). `cols[f]` holds all
/// slots sorted by `(value of feature f, row, slot)`; each split stably
/// partitions `main` and every column in place, preserving sorted order
/// inside both children. The per-node cost is `O(m·n)` — no sorting
/// after the initial argsort.
struct Builder<'a> {
    points: &'a [f64],
    targets: &'a [f64],
    m: usize,
    params: &'a TreeParams,
    nodes: FlatTree,
    feature_pool: Vec<usize>,
    /// Slot → dataset row (bootstrap duplicates share a row).
    rows: Vec<u32>,
    /// Node-order slot array; `build` works on `main[lo..hi]`.
    main: Vec<u32>,
    /// Per-feature slot arrays sorted by `(value, slot)`.
    cols: Vec<Vec<u32>>,
    /// Scratch buffer for the stable partitions.
    scratch: Vec<u32>,
    /// Per-slot side flag of the split being applied.
    goes_left: Vec<bool>,
}

/// Split threshold between two adjacent sorted values. The midpoint can
/// round to `v_next` when the values are adjacent doubles (or overflow
/// to `±∞`/NaN for infinite values), which would send *every* sample
/// left; fall back to `v_here` in that case — `value <= v_here` still
/// separates the two runs exactly.
pub(crate) fn split_threshold(v_here: f64, v_next: f64) -> f64 {
    let mid = 0.5 * (v_here + v_next);
    if v_here < mid && mid < v_next {
        mid
    } else {
        v_here
    }
}

/// Stably partitions `slice` (of slot or row ids) by the per-id
/// `goes_left` flags, preserving relative order on both sides — which
/// keeps a `(value, id)`-sorted feature column sorted within both
/// children. Returns the left count. Shared by the CART and GBDT
/// builders.
pub(crate) fn stable_partition(
    goes_left: &[bool],
    scratch: &mut [u32],
    slice: &mut [u32],
) -> usize {
    let mut left = 0usize;
    let mut right = 0usize;
    for &id in slice.iter() {
        if goes_left[id as usize] {
            left += 1;
        } else {
            scratch[right] = id;
            right += 1;
        }
    }
    let mut write = 0usize;
    for read in 0..slice.len() {
        let id = slice[read];
        if goes_left[id as usize] {
            slice[write] = id;
            write += 1;
        }
    }
    slice[left..left + right].copy_from_slice(&scratch[..right]);
    left
}

impl<'a> Builder<'a> {
    fn new(
        points: &'a [f64],
        targets: &'a [f64],
        m: usize,
        indices: &[usize],
        params: &'a TreeParams,
        orders: Option<&[Vec<u32>]>,
    ) -> Self {
        let s = indices.len();
        assert!(s <= u32::MAX as usize, "too many samples for u32 slots");
        assert!(m < LEAF as usize, "too many features for u32 ids");
        let rows: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        let cols: Vec<Vec<u32>> = match orders {
            // Ensemble path: the caller argsorted the *dataset* once;
            // derive each bootstrap's sorted slots in O(n + s) per
            // feature by walking the dataset order and emitting every
            // row's slots (counting-sorted, so ties order by
            // (value, row, slot)).
            Some(orders) => {
                assert_eq!(orders.len(), m, "one dataset order per feature");
                let n_rows = points.len() / m.max(1);
                let mut count = vec![0u32; n_rows + 1];
                for &r in &rows {
                    count[r as usize + 1] += 1;
                }
                for r in 0..n_rows {
                    count[r + 1] += count[r];
                }
                // slots_by_row[count[r]..count[r+1]] = ascending slots of row r.
                let mut slots_by_row = vec![0u32; s];
                let mut cursor = count.clone();
                for (slot, &r) in rows.iter().enumerate() {
                    slots_by_row[cursor[r as usize] as usize] = slot as u32;
                    cursor[r as usize] += 1;
                }
                orders
                    .iter()
                    .map(|order| {
                        let mut col = Vec::with_capacity(s);
                        for &row in order {
                            let (lo, hi) = (
                                count[row as usize] as usize,
                                count[row as usize + 1] as usize,
                            );
                            col.extend_from_slice(&slots_by_row[lo..hi]);
                        }
                        col
                    })
                    .collect()
            }
            // Standalone path: argsort this sample's slots directly,
            // with the same (value, row, slot) tie order.
            None => {
                let value = |slot: u32, f: usize| points[rows[slot as usize] as usize * m + f];
                (0..m)
                    .map(|f| {
                        let mut col: Vec<u32> = (0..s as u32).collect();
                        col.sort_unstable_by(|&a, &b| {
                            value(a, f)
                                .total_cmp(&value(b, f))
                                .then(rows[a as usize].cmp(&rows[b as usize]))
                                .then(a.cmp(&b))
                        });
                        col
                    })
                    .collect()
            }
        };
        Self {
            points,
            targets,
            m,
            params,
            nodes: FlatTree::with_capacity(2 * s),
            feature_pool: (0..m).collect(),
            rows,
            main: (0..s as u32).collect(),
            cols,
            scratch: vec![0; s],
            goes_left: vec![false; s],
        }
    }

    #[inline]
    fn value(&self, slot: u32, feature: usize) -> f64 {
        self.points[self.rows[slot as usize] as usize * self.m + feature]
    }

    #[inline]
    fn target(&self, slot: u32) -> f64 {
        self.targets[self.rows[slot as usize] as usize]
    }

    fn target_sum(&self, lo: usize, hi: usize) -> f64 {
        self.main[lo..hi]
            .iter()
            .map(|&slot| self.target(slot))
            .sum()
    }

    /// Finds the best SSE-reducing split of node `[lo, hi)` along
    /// `feature` by scanning its presorted column. Returns
    /// `(threshold, gain, n_left)` or `None` when no admissible split
    /// exists.
    fn best_split_on(
        &self,
        lo: usize,
        hi: usize,
        feature: usize,
        total_sum: f64,
    ) -> Option<(f64, f64, usize)> {
        let col = &self.cols[feature][lo..hi];
        let n = col.len();
        let min_leaf = self.params.min_samples_leaf;
        let mut left_sum = 0.0;
        let mut best: Option<(f64, f64, usize)> = None;
        for k in 0..n - 1 {
            left_sum += self.target(col[k]);
            let n_left = k + 1;
            let n_right = n - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let v_here = self.value(col[k], feature);
            let v_next = self.value(col[k + 1], feature);
            if v_next <= v_here {
                continue; // cannot separate equal values
            }
            // SSE reduction = left_sum²/n_l + right_sum²/n_r − total²/n
            // (constant term dropped — same for every candidate).
            let right_sum = total_sum - left_sum;
            let gain = left_sum * left_sum / n_left as f64 + right_sum * right_sum / n_right as f64;
            if best.is_none_or(|(_, g, _)| gain > g) {
                best = Some((split_threshold(v_here, v_next), gain, n_left));
            }
        }
        // Convert the proxy score into a true gain relative to no split.
        best.map(|(thr, score, nl)| (thr, score - total_sum * total_sum / n as f64, nl))
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize, rng: &mut impl Rng) -> u32 {
        let n = hi - lo;
        let sum = self.target_sum(lo, hi);
        let mean = sum / n as f64;
        if depth >= self.params.max_depth || n < self.params.min_samples_split {
            return self.nodes.push_leaf(mean);
        }
        // Candidate features: all, or a fresh random subset per split
        // (random forest's per-node feature subsampling).
        let n_candidates = self.params.mtry.unwrap_or(self.m).clamp(1, self.m);
        if n_candidates < self.m {
            self.feature_pool.shuffle(rng);
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for ci in 0..n_candidates {
            let feature = self.feature_pool[ci];
            if let Some((thr, gain, _)) = self.best_split_on(lo, hi, feature, sum) {
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((feature, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return self.nodes.push_leaf(mean);
        };
        // Stable partition of the node order and every feature column
        // around the chosen threshold.
        for &slot in &self.main[lo..hi] {
            self.goes_left[slot as usize] = self.value(slot, feature) <= threshold;
        }
        let split_at = stable_partition(&self.goes_left, &mut self.scratch, &mut self.main[lo..hi]);
        debug_assert!(split_at > 0 && split_at < n);
        for f in 0..self.m {
            let mut col = std::mem::take(&mut self.cols[f]);
            let at = stable_partition(&self.goes_left, &mut self.scratch, &mut col[lo..hi]);
            debug_assert_eq!(at, split_at);
            self.cols[f] = col;
        }
        let node_id = self.nodes.push_split(feature as u32, threshold);
        let left = self.build(lo, lo + split_at, depth + 1, rng);
        debug_assert_eq!(left, node_id + 1, "left child must follow its parent");
        let right = self.build(lo + split_at, hi, depth + 1, rng);
        self.nodes.set_right(node_id, right);
        node_id
    }
}

impl RegressionTree {
    /// Fits a tree to `targets` over the row-major `points` buffer with
    /// `m` columns, using rows `indices` (duplicates allowed — bootstrap
    /// samples pass repeated indices).
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty or buffers disagree on shape.
    pub fn fit(
        points: &[f64],
        targets: &[f64],
        m: usize,
        indices: &[usize],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree to zero rows");
        assert_eq!(points.len(), targets.len() * m, "shape mismatch");
        Self::fit_impl(points, targets, m, indices, params, None, rng)
    }

    /// Ensemble fit: `orders[f]` lists the dataset rows argsorted by
    /// `(value of feature f, row)` — computed **once** per forest and
    /// shared by every tree, which replaces the per-tree
    /// `O(m·s log s)` argsort with an `O(m·(n + s))` merge. Identical
    /// output to [`RegressionTree::fit`].
    ///
    /// Public because the streaming pipeline's out-of-core sort
    /// produces exactly these orders as a by-product (CART scenario
    /// discovery reuses them instead of re-argsorting `L` rows).
    pub fn fit_with_orders(
        points: &[f64],
        targets: &[f64],
        m: usize,
        indices: &[usize],
        params: &TreeParams,
        orders: &[Vec<u32>],
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree to zero rows");
        assert_eq!(points.len(), targets.len() * m, "shape mismatch");
        Self::fit_impl(points, targets, m, indices, params, Some(orders), rng)
    }

    fn fit_impl(
        points: &[f64],
        targets: &[f64],
        m: usize,
        indices: &[usize],
        params: &TreeParams,
        orders: Option<&[Vec<u32>]>,
        rng: &mut impl Rng,
    ) -> Self {
        let mut builder = Builder::new(points, targets, m, indices, params, orders);
        let s = indices.len();
        let root = builder.build(0, s, 0, rng);
        debug_assert_eq!(root, 0);
        Self {
            flat: builder.nodes,
            m,
        }
    }

    /// Predicted value at `x` (the mean target of the matched leaf).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.m()`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "prediction dimensionality mismatch");
        self.flat.predict(x)
    }

    /// The kernel-ready structure-of-arrays arena — what the batched
    /// prediction kernels in [`crate::kernels`] traverse.
    pub fn flat(&self) -> &FlatTree {
        &self.flat
    }

    /// Wraps an arena already checked for `m` (see
    /// [`FlatTree::check_ensemble`]).
    pub(crate) fn from_flat(flat: FlatTree, m: usize) -> Self {
        Self { flat, m }
    }

    /// Unwraps the arena.
    pub(crate) fn into_flat(self) -> FlatTree {
        self.flat
    }

    /// Number of input columns the tree was fitted on.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Node arena as JSON: leaves `[value]`, splits
    /// `[feature, threshold, right]` (left child implicit at the next
    /// index, mirroring the in-memory layout).
    pub(crate) fn nodes_to_json(&self) -> reds_json::Json {
        use crate::persist::f64_to_json;
        use reds_json::Json;
        Json::arr((0..self.flat.n_nodes()).map(|i| {
            if self.flat.is_leaf(i) {
                Json::arr([f64_to_json(self.flat.value(i))])
            } else {
                Json::arr([
                    Json::num(self.flat.feature(i) as f64),
                    f64_to_json(self.flat.value(i)),
                    Json::num(self.flat.right(i) as f64),
                ])
            }
        }))
    }

    /// Rebuilds the arena from [`RegressionTree::nodes_to_json`] output,
    /// rejecting any structure whose traversal could fail to terminate:
    /// both children of a split must lie strictly after it (left at
    /// `i + 1`, right beyond the left subtree), inside the arena, and
    /// every feature id must be `< m`.
    pub(crate) fn nodes_from_json(
        doc: &reds_json::Json,
        m: usize,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{bad, f64_from_json, usize_from_json};
        let arr = doc
            .as_array()
            .ok_or_else(|| bad("'nodes' must be an array"))?;
        if arr.is_empty() {
            return Err(bad("tree has no nodes"));
        }
        let len = arr.len();
        if len > u32::MAX as usize {
            return Err(bad("tree has too many nodes"));
        }
        let mut flat = FlatTree::with_capacity(len);
        for (i, node) in arr.iter().enumerate() {
            let parts = node
                .as_array()
                .ok_or_else(|| bad(format!("node {i} must be an array")))?;
            match parts.len() {
                1 => {
                    flat.push_leaf(f64_from_json(&parts[0])?);
                }
                3 => {
                    let feature = usize_from_json(&parts[0], "split feature")?;
                    let threshold = f64_from_json(&parts[1])?;
                    let right = usize_from_json(&parts[2], "right child")?;
                    if feature as u32 == LEAF {
                        return Err(bad(format!("node {i}: feature id reserved for leaves")));
                    }
                    let id = flat.push_split(feature as u32, threshold);
                    if right <= id as usize {
                        return Err(bad(format!(
                            "node {i}: children must lie strictly forward in the arena \
                             (right = {right}, len = {len})"
                        )));
                    }
                    flat.set_right(id, right as u32);
                }
                k => return Err(bad(format!("node {i} has {k} fields (expected 1 or 3)"))),
            }
        }
        // One pass re-checks every traversal-safety invariant the SIMD
        // gathers rely on (forward in-bounds children, features < m).
        flat.validate(m).map_err(bad)?;
        Ok(Self { flat, m })
    }

    /// Number of nodes (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.flat.n_nodes()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.flat.n_leaves()
    }

    /// Every leaf as `(per-dimension bounds, leaf value)`, where bounds
    /// use `±∞` for unconstrained sides. The regions partition the input
    /// space — the representation CART-based scenario discovery
    /// (Lempert, Bryant & Bankes 2008) extracts boxes from.
    pub fn leaf_regions(&self) -> Vec<(Vec<(f64, f64)>, f64)> {
        let mut out = Vec::with_capacity(self.n_leaves());
        let root_bounds = vec![(f64::NEG_INFINITY, f64::INFINITY); self.m];
        self.collect_leaves(0, root_bounds, &mut out);
        out
    }

    fn collect_leaves(
        &self,
        i: usize,
        bounds: Vec<(f64, f64)>,
        out: &mut Vec<(Vec<(f64, f64)>, f64)>,
    ) {
        if self.flat.is_leaf(i) {
            out.push((bounds, self.flat.value(i)));
            return;
        }
        let feature = self.flat.feature(i) as usize;
        let threshold = self.flat.value(i);
        let mut lb = bounds.clone();
        lb[feature].1 = lb[feature].1.min(threshold);
        self.collect_leaves(i + 1, lb, out);
        let mut rb = bounds;
        rb[feature].0 = rb[feature].0.max(threshold);
        self.collect_leaves(self.flat.right(i) as usize, rb, out);
    }
}

/// The pre-optimization tree: enum-arena nodes, per-node re-sorting
/// builder (`O(m·n log n)` per node), pointer-chasing predict. Kept as
/// the reference oracle for the equivalence tests — ties order by slot,
/// exactly like the presorted builder, so predictions match
/// [`RegressionTree`] bit for bit. Not part of the supported API.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct NaiveTree {
    nodes: Vec<NaiveNode>,
    m: usize,
}

#[derive(Debug, Clone)]
enum NaiveNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: u32,
        right: u32,
    },
}

struct NaiveBuilder<'a> {
    points: &'a [f64],
    targets: &'a [f64],
    m: usize,
    params: &'a TreeParams,
    nodes: Vec<NaiveNode>,
    feature_pool: Vec<usize>,
    rows: Vec<u32>,
}

impl<'a> NaiveBuilder<'a> {
    #[inline]
    fn value(&self, slot: u32, feature: usize) -> f64 {
        self.points[self.rows[slot as usize] as usize * self.m + feature]
    }

    #[inline]
    fn target(&self, slot: u32) -> f64 {
        self.targets[self.rows[slot as usize] as usize]
    }

    fn best_split_on(
        &self,
        idx: &[u32],
        feature: usize,
        total_sum: f64,
    ) -> Option<(f64, f64, usize)> {
        let n = idx.len();
        let mut sorted = idx.to_vec();
        sorted.sort_unstable_by(|&a, &b| {
            self.value(a, feature)
                .total_cmp(&self.value(b, feature))
                .then(self.rows[a as usize].cmp(&self.rows[b as usize]))
                .then(a.cmp(&b))
        });
        let min_leaf = self.params.min_samples_leaf;
        let mut left_sum = 0.0;
        let mut best: Option<(f64, f64, usize)> = None;
        for k in 0..n - 1 {
            left_sum += self.target(sorted[k]);
            let n_left = k + 1;
            let n_right = n - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let v_here = self.value(sorted[k], feature);
            let v_next = self.value(sorted[k + 1], feature);
            if v_next <= v_here {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let gain = left_sum * left_sum / n_left as f64 + right_sum * right_sum / n_right as f64;
            if best.is_none_or(|(_, g, _)| gain > g) {
                best = Some((split_threshold(v_here, v_next), gain, n_left));
            }
        }
        best.map(|(thr, score, nl)| (thr, score - total_sum * total_sum / n as f64, nl))
    }

    fn build(&mut self, idx: &mut [u32], depth: usize, rng: &mut impl Rng) -> u32 {
        let n = idx.len();
        let sum: f64 = idx.iter().map(|&slot| self.target(slot)).sum();
        let mean = sum / n as f64;
        let make_leaf = |nodes: &mut Vec<NaiveNode>| {
            nodes.push(NaiveNode::Leaf { value: mean });
            (nodes.len() - 1) as u32
        };
        if depth >= self.params.max_depth || n < self.params.min_samples_split {
            return make_leaf(&mut self.nodes);
        }
        let n_candidates = self.params.mtry.unwrap_or(self.m).clamp(1, self.m);
        if n_candidates < self.m {
            self.feature_pool.shuffle(rng);
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for ci in 0..n_candidates {
            let feature = self.feature_pool[ci];
            if let Some((thr, gain, _)) = self.best_split_on(idx, feature, sum) {
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((feature, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return make_leaf(&mut self.nodes);
        };
        // Stable in-place partition around the chosen threshold.
        let mut buf: Vec<u32> = Vec::with_capacity(n);
        buf.extend(
            idx.iter()
                .copied()
                .filter(|&s| self.value(s, feature) <= threshold),
        );
        let split_at = buf.len();
        buf.extend(
            idx.iter()
                .copied()
                .filter(|&s| self.value(s, feature) > threshold),
        );
        idx.copy_from_slice(&buf);
        debug_assert!(split_at > 0 && split_at < n);
        let node_id = self.nodes.len() as u32;
        self.nodes.push(NaiveNode::Split {
            feature,
            threshold,
            left: 0,
            right: 0,
        });
        let (left_idx, right_idx) = idx.split_at_mut(split_at);
        let left = self.build(left_idx, depth + 1, rng);
        let right = self.build(right_idx, depth + 1, rng);
        if let NaiveNode::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_id as usize]
        {
            *l = left;
            *r = right;
        }
        node_id
    }
}

impl NaiveTree {
    /// Fits with the pre-optimization builder; same inputs and RNG
    /// consumption as [`RegressionTree::fit`], bit-identical output.
    pub fn fit(
        points: &[f64],
        targets: &[f64],
        m: usize,
        indices: &[usize],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree to zero rows");
        assert_eq!(points.len(), targets.len() * m, "shape mismatch");
        assert!(
            indices.len() <= u32::MAX as usize,
            "too many samples for u32 slots"
        );
        let mut builder = NaiveBuilder {
            points,
            targets,
            m,
            params,
            nodes: Vec::new(),
            feature_pool: (0..m).collect(),
            rows: indices.iter().map(|&i| i as u32).collect(),
        };
        let mut idx: Vec<u32> = (0..indices.len() as u32).collect();
        let root = builder.build(&mut idx, 0, rng);
        debug_assert_eq!(root, 0);
        Self {
            nodes: builder.nodes,
            m,
        }
    }

    /// The pre-optimization traversal.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.m, "prediction dimensionality mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                NaiveNode::Leaf { value } => return *value,
                NaiveNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Number of nodes (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_corner() -> (Vec<f64>, Vec<f64>) {
        // Corner concept on a 20×20 grid: needs depth 2 but every split
        // has positive greedy gain (unlike symmetric XOR, which defeats
        // any greedy CART).
        let mut pts = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x = i as f64 / 19.0;
                let y = j as f64 / 19.0;
                pts.extend_from_slice(&[x, y]);
                ys.push(if x > 0.5 && y > 0.5 { 1.0 } else { 0.0 });
            }
        }
        (pts, ys)
    }

    #[test]
    fn fits_corner_exactly() {
        let (pts, ys) = grid_corner();
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..ys.len()).collect();
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &TreeParams::default(), &mut rng);
        for (row, &y) in pts.chunks_exact(2).zip(&ys) {
            assert_eq!(tree.predict(row), y);
        }
    }

    #[test]
    fn depth_zero_returns_global_mean() {
        let (pts, ys) = grid_corner();
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..ys.len()).collect();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &params, &mut rng);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((tree.predict(&[0.3, 0.7]) - mean).abs() < 1e-12);
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let pts: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..10).map(|i| if i < 9 { 0.0 } else { 1.0 }).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            min_samples_leaf: 3,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&pts, &ys, 1, &idx, &params, &mut rng);
        // The best pure split (9 vs 1) is forbidden; the chosen leaf
        // containing the positive example must hold ≥ 3 samples, so its
        // mean is at most 1/3.
        assert!(tree.predict(&[9.0]) <= 1.0 / 3.0 + 1e-12);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let pts: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys = vec![0.7; 50];
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..50).collect();
        let tree = RegressionTree::fit(&pts, &ys, 1, &idx, &TreeParams::default(), &mut rng);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict(&[25.0]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn duplicate_feature_values_cannot_be_split_apart() {
        // All x identical: no admissible split, single leaf.
        let pts = vec![1.0; 20];
        let ys: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..20).collect();
        let tree = RegressionTree::fit(&pts, &ys, 1, &idx, &TreeParams::default(), &mut rng);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_indices_with_duplicates_work() {
        let (pts, ys) = grid_corner();
        let mut rng = StdRng::seed_from_u64(1);
        let idx: Vec<usize> = (0..ys.len()).map(|i| i % 100).collect(); // duplicates
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &TreeParams::default(), &mut rng);
        assert!(tree.n_nodes() >= 1);
    }

    #[test]
    fn mtry_one_still_learns_axis_aligned_concept() {
        // y depends only on x1; with mtry = 1 the tree must eventually
        // pick feature 0 at some node and reach low error.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200;
        let pts: Vec<f64> = (0..n * 2)
            .map(|_| rand::Rng::gen::<f64>(&mut rng))
            .collect();
        let ys: Vec<f64> = pts
            .chunks_exact(2)
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let idx: Vec<usize> = (0..n).collect();
        let params = TreeParams {
            mtry: Some(1),
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &params, &mut rng);
        let errors: usize = pts
            .chunks_exact(2)
            .zip(&ys)
            .filter(|(r, &y)| (tree.predict(r) - y).abs() > 0.5)
            .count();
        assert!(errors < n / 10, "{errors} errors of {n}");
    }

    #[test]
    fn presorted_and_naive_builders_agree_bitwise() {
        // Random data with duplicated feature values and bootstrap
        // duplicates: the presorted stable-partition builder must
        // reproduce the naive re-sorting builder exactly, including the
        // RNG stream consumed by per-node feature subsampling.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 120;
        let pts: Vec<f64> = (0..n * 3)
            .map(|_| (rand::Rng::gen::<f64>(&mut rng) * 8.0).floor() / 8.0)
            .collect();
        let ys: Vec<f64> = pts
            .chunks_exact(3)
            .map(|r| if r[0] > 0.5 && r[2] < 0.75 { 1.0 } else { 0.25 })
            .collect();
        let mut boot_rng = StdRng::seed_from_u64(8);
        let idx: Vec<usize> = (0..n)
            .map(|_| rand::Rng::gen_range(&mut boot_rng, 0..n))
            .collect();
        for mtry in [None, Some(2), Some(1)] {
            let params = TreeParams {
                mtry,
                min_samples_leaf: 2,
                ..TreeParams::default()
            };
            let fast =
                RegressionTree::fit(&pts, &ys, 3, &idx, &params, &mut StdRng::seed_from_u64(9));
            let slow = NaiveTree::fit(&pts, &ys, 3, &idx, &params, &mut StdRng::seed_from_u64(9));
            assert_eq!(fast.n_nodes(), slow.n_nodes(), "mtry {mtry:?}");
            for row in pts.chunks_exact(3) {
                let (a, b) = (fast.predict(row), slow.predict(row));
                assert!(a.to_bits() == b.to_bits(), "mtry {mtry:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn adjacent_double_values_split_without_nan_leaves() {
        // The midpoint of two adjacent doubles rounds to the upper
        // value; the threshold must fall back to the lower value so the
        // right child is never empty (regression: NaN leaf / empty
        // range panic).
        let a = 1.0 + f64::EPSILON; // adjacent pair: 0.5*(a+b) == b
        let b = 1.0 + 2.0 * f64::EPSILON;
        assert_eq!(0.5 * (a + b), b, "test premise: midpoint rounds up");
        let pts = vec![a, a, b, b];
        let ys = vec![0.0, 0.0, 1.0, 1.0];
        let idx: Vec<usize> = (0..4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let fast = RegressionTree::fit(&pts, &ys, 1, &idx, &TreeParams::default(), &mut rng);
        let slow = NaiveTree::fit(
            &pts,
            &ys,
            1,
            &idx,
            &TreeParams::default(),
            &mut StdRng::seed_from_u64(0),
        );
        for v in [a, b] {
            assert!(fast.predict(&[v]).is_finite());
            assert_eq!(fast.predict(&[v]).to_bits(), slow.predict(&[v]).to_bits());
        }
        assert_eq!(fast.predict(&[a]), 0.0);
        assert_eq!(fast.predict(&[b]), 1.0);
        // Infinite values must not produce ±∞/NaN thresholds either.
        let pts = vec![f64::NEG_INFINITY, 0.0, f64::INFINITY];
        let ys = vec![0.0, 1.0, 0.0];
        let idx: Vec<usize> = (0..3).collect();
        let tree = RegressionTree::fit(&pts, &ys, 1, &idx, &TreeParams::default(), &mut rng);
        assert!(tree.predict(&[0.0]).is_finite());
        assert_eq!(tree.predict(&[0.0]), 1.0);
        assert_eq!(tree.predict(&[f64::INFINITY]), 0.0);
    }

    #[test]
    fn batched_kernel_traversal_matches_per_point() {
        let (pts, ys) = grid_corner();
        let mut rng = StdRng::seed_from_u64(11);
        let idx: Vec<usize> = (0..ys.len()).collect();
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &TreeParams::default(), &mut rng);
        // 21 rows: exercises a partial final lane group on every kernel.
        let query: Vec<f64> = (0..21 * 2).map(|k| (k % 13) as f64 / 13.0).collect();
        let mut available = vec![kernels::Kernel::Scalar];
        if kernels::avx2_supported() {
            available.push(kernels::Kernel::Avx2);
        }
        for kernel in available {
            let mut acc = vec![0.5f64; 21];
            kernels::accumulate_tree(kernel, tree.flat(), &query, 2, &mut acc);
            for (i, row) in query.chunks_exact(2).enumerate() {
                let expected = 0.5 + tree.predict(row);
                assert_eq!(acc[i].to_bits(), expected.to_bits(), "{kernel:?} row {i}");
            }
        }
    }

    #[test]
    fn leaf_regions_partition_the_space() {
        let (pts, ys) = grid_corner();
        let mut rng = StdRng::seed_from_u64(4);
        let idx: Vec<usize> = (0..ys.len()).collect();
        let tree = RegressionTree::fit(&pts, &ys, 2, &idx, &TreeParams::default(), &mut rng);
        let regions = tree.leaf_regions();
        assert_eq!(regions.len(), tree.n_leaves());
        // Every training point falls into exactly one region, and that
        // region's value equals the tree's prediction.
        for row in pts.chunks_exact(2) {
            let matches: Vec<&(Vec<(f64, f64)>, f64)> = regions
                .iter()
                .filter(|(b, _)| {
                    b.iter()
                        .zip(row)
                        .all(|(&(lo, hi), &v)| v <= hi && (v > lo || lo.is_infinite()))
                })
                .collect();
            assert!(!matches.is_empty(), "point {row:?} in no region");
        }
    }
}
