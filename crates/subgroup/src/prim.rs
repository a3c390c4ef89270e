//! The Patient Rule Induction Method (Friedman & Fisher 1999) —
//! Algorithm 1 of the paper: top-down peeling plus the optional
//! bottom-up pasting phase.
//!
//! Each peeling step removes the `α` fraction of in-box points with the
//! lowest or highest values of one input, choosing the cut that leaves
//! the highest mean label `n⁺/n` inside the shrunken box. The run yields
//! a nested sequence of boxes (the *peeling trajectory*); following
//! Algorithm 1, the trajectory is truncated at the box with the best
//! validation precision.
//!
//! ## Performance
//!
//! Peeling runs on any [`ColumnAccess`] backing: the in-memory
//! [`ViewAccess`] over a [`SortedView`] (every dimension argsorted once,
//! `O(M·N log N)`) or the out-of-core paged store, whose columns were
//! sorted when its artifact was built. Both are `reds-data`'s one
//! sorted-column store, so each cut deactivates the rows it trims
//! without touching any other column, and scans skip the pages cuts
//! have emptied. With `n` points in the box and
//! `k = ⌊α·n⌋`, each step makes `2M` scans, each handing out the `k + 1`
//! lowest or highest active entries of one sorted column, one
//! [`label_sum`](ColumnAccess::label_sum) over the removed rows of each
//! of the up to `2M` candidates, one
//! [`active_label_sum`](ColumnAccess::active_label_sum), and the one cut
//! it chooses. No column is re-sorted, matching the paper's §7 bound
//! `O(M·(N log N + N/α))`. The in-box count on the validation data is
//! maintained incrementally as well — a cut only ever removes validation
//! rows through the freshly moved face, so no full `contains` rescan is
//! needed.
//!
//! The pre-optimization implementation is kept as [`NaivePrim`] (hidden
//! from docs): it is the reference oracle for the equivalence tests and
//! the baseline for the `presort` benchmarks, and produces bit-identical
//! trajectories.

use rand::rngs::StdRng;
use reds_data::{ColumnAccess, Dataset, SortedView, ViewAccess};

use crate::{HyperBox, SdResult, SubgroupDiscovery};

/// Objective guiding each peeling step. The paper uses the classic mean
/// target (§3.2.1); Kwakkel & Jaxa-Rozen's alternative target functions
/// (§2.1) trade purity against the mass removed — both are compatible
/// with REDS and exposed for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeelCriterion {
    /// Maximise the mean label of the surviving box (Friedman & Fisher).
    #[default]
    MeanLabel,
    /// Maximise the mean-label *gain per point removed* — a "lenient"
    /// objective that prefers cuts removing few points, in the spirit of
    /// Kwakkel & Jaxa-Rozen's LENIENT targets.
    GainPerPoint,
}

/// PRIM hyperparameters (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimParams {
    /// Peeling fraction `α` removed per step (paper default 0.05).
    pub alpha: f64,
    /// Minimum number of points (`mp`) that must remain inside the box
    /// on both the training and validation data (paper default 20).
    pub min_points: usize,
    /// Run the bottom-up pasting phase after peeling. The paper found
    /// pasting's effect negligible (§3.2.1) and leaves it off.
    pub paste: bool,
    /// Objective of each peeling step.
    pub criterion: PeelCriterion,
}

impl Default for PrimParams {
    fn default() -> Self {
        Self {
            alpha: 0.05,
            min_points: 20,
            paste: false,
            criterion: PeelCriterion::MeanLabel,
        }
    }
}

/// The PRIM algorithm.
#[derive(Debug, Clone, Default)]
pub struct Prim {
    params: PrimParams,
}

/// One peeling candidate: cut dimension `dim` from below (`low = true`)
/// or above, moving the bound to `new_bound`.
struct Candidate {
    dim: usize,
    low: bool,
    new_bound: f64,
    score: f64,
    n_after: usize,
}

impl PrimParams {
    fn score_of(&self, mean_after: f64, mean_before: f64, removed: usize) -> f64 {
        match self.criterion {
            PeelCriterion::MeanLabel => mean_after,
            PeelCriterion::GainPerPoint => (mean_after - mean_before) / removed as f64,
        }
    }
}

/// Sum of the labels of `rows` (ascending row order, the same
/// association as a filtered scan over the dataset).
fn label_sum(d: &Dataset, rows: &[u32]) -> f64 {
    rows.iter().map(|&i| d.label(i as usize)).sum()
}

/// Mean label over `rows`, or `None` when empty.
fn mean_label(d: &Dataset, rows: &[u32]) -> Option<f64> {
    if rows.is_empty() {
        None
    } else {
        Some(label_sum(d, rows) / rows.len() as f64)
    }
}

impl Prim {
    /// Creates PRIM with the given hyperparameters.
    pub fn new(params: PrimParams) -> Self {
        assert!(
            params.alpha > 0.0 && params.alpha < 1.0,
            "peeling fraction must be in (0, 1)"
        );
        Self { params }
    }

    /// Peeling fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.params.alpha
    }

    /// The full peeling trajectory on `d`, *not* truncated at the best
    /// validation box. Exposed for trajectory plots (Figure 11).
    pub fn peel_trajectory(&self, d: &Dataset) -> Vec<HyperBox> {
        self.peel(d, d).0
    }

    /// Runs the peeling phase. Returns the trajectory together with the
    /// validation precision of every box (`None` when the box covers no
    /// validation rows), computed incrementally alongside the peel.
    fn peel(&self, d: &Dataset, d_val: &Dataset) -> (Vec<HyperBox>, Vec<Option<f64>>) {
        self.peel_with_view(d, SortedView::new(d), d_val)
    }

    /// The peeling phase on an externally built [`SortedView`] of `d`
    /// (e.g. `covering`'s filtered columns). The view must index exactly
    /// `d` with every row active.
    fn peel_with_view(
        &self,
        d: &Dataset,
        view: SortedView,
        d_val: &Dataset,
    ) -> (Vec<HyperBox>, Vec<Option<f64>>) {
        let mut store = ViewAccess::new(d, view);
        self.peel_store(&mut store, d_val)
    }

    /// The peeling phase against any [`ColumnAccess`] backing — the
    /// single implementation behind both the in-memory path
    /// ([`ViewAccess`]) and the out-of-core paged store. The store's
    /// ordering contract keeps every float summation in the order the
    /// naive reference uses, so trajectories are bit-identical across
    /// backings.
    ///
    /// Validation rows stay in memory (`D_val = D` is the original
    /// training data, not the pool) and are filtered incrementally: a
    /// cut only ever removes validation rows through the freshly moved
    /// face, so no full `contains` rescan is needed.
    fn peel_store(
        &self,
        store: &mut dyn ColumnAccess,
        d_val: &Dataset,
    ) -> (Vec<HyperBox>, Vec<Option<f64>>) {
        let m = store.m();
        let mut boxes = vec![HyperBox::unbounded(m)];
        let mut val_rows: Vec<u32> = (0..d_val.n() as u32).collect();
        let mut precisions = vec![mean_label(d_val, &val_rows)];
        if store.n_rows() == 0 {
            return (boxes, precisions);
        }
        let mut current = HyperBox::unbounded(m);
        loop {
            if store.n_active() < self.params.min_points.max(2)
                || val_rows.len() < self.params.min_points
            {
                break;
            }
            // Ascending-row-order label total: the summation order that
            // keeps the scores bit-identical to the naive reference.
            let total_pos = store.active_label_sum();
            let Some(best) = self.best_peel_store(store, total_pos) else {
                break;
            };
            if best.low {
                current.set_lower(best.dim, best.new_bound);
                store.deactivate_below(best.dim, best.new_bound);
                val_rows.retain(|&i| d_val.value(i as usize, best.dim) >= best.new_bound);
            } else {
                current.set_upper(best.dim, best.new_bound);
                store.deactivate_above(best.dim, best.new_bound);
                val_rows.retain(|&i| d_val.value(i as usize, best.dim) <= best.new_bound);
            }
            debug_assert_eq!(store.n_active(), best.n_after);
            boxes.push(current.clone());
            precisions.push(mean_label(d_val, &val_rows));
        }
        (boxes, precisions)
    }

    /// Evaluates all `2M` peeling candidates and returns the one with
    /// the highest score, or `None` when no dimension can be cut (all
    /// in-box values equal everywhere).
    ///
    /// A cut can only ever touch the `k + 1` lowest (or highest) active
    /// entries of a column, so per dimension this buffers `O(α·n)`
    /// entries from each end of the sorted column — no sorting, and no
    /// random access into the store.
    fn best_peel_store(&self, store: &mut dyn ColumnAccess, total_pos: f64) -> Option<Candidate> {
        let n_in = store.n_active();
        let k = ((self.params.alpha * n_in as f64).floor() as usize).max(1);
        if k >= n_in {
            return None;
        }
        let mean_before = total_pos / n_in as f64;
        let mut best: Option<Candidate> = None;
        let mut consider = |cand: Candidate| {
            if best.as_ref().is_none_or(|b| cand.score > b.score) {
                best = Some(cand);
            }
        };
        let mut front: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        let mut back: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        // The removed rows of one candidate, in summation order.
        let mut removed: Vec<u32> = Vec::with_capacity(k);
        for dim in 0..store.m() {
            // `front[r]` is the active entry at rank `r`; `back[i]` the
            // one at rank `n_in − 1 − i`.
            front.clear();
            store.scan_active_front(dim, &mut |v, row| {
                front.push((v, row));
                front.len() < k + 1
            });
            back.clear();
            store.scan_active_back(dim, &mut |v, row| {
                back.push((v, row));
                back.len() < k + 1
            });
            // Low cut: the new lower bound is the value at rank k; every
            // point strictly below it is peeled off, points equal to it
            // stay. Ties straddling the α-quantile therefore shrink the
            // removed count below k (possibly to zero, killing the
            // candidate) — they never split.
            let low_bound = front[k].0;
            let mut removed_low = k;
            while removed_low > 0 && front[removed_low - 1].0 == low_bound {
                removed_low -= 1;
            }
            if removed_low > 0 && removed_low < n_in {
                // Removed labels summed in forward column order — the
                // association of the naive reference's sorted sum.
                removed.clear();
                removed.extend(front[..removed_low].iter().map(|&(_, row)| row));
                let removed_pos = store.label_sum(&removed);
                let n_after = n_in - removed_low;
                let mean_after = (total_pos - removed_pos) / n_after as f64;
                consider(Candidate {
                    dim,
                    low: true,
                    new_bound: low_bound,
                    score: self.params.score_of(mean_after, mean_before, removed_low),
                    n_after,
                });
            }
            // High cut, mirrored: remove points strictly above the value
            // at rank n − 1 − k. The removed tail is still summed in
            // forward column order, hence the reversed back buffer.
            let high_bound = back[k].0;
            let mut removed_high = k;
            while removed_high > 0 && back[removed_high - 1].0 == high_bound {
                removed_high -= 1;
            }
            if removed_high > 0 && removed_high < n_in {
                removed.clear();
                removed.extend(back[..removed_high].iter().rev().map(|&(_, row)| row));
                let removed_pos = store.label_sum(&removed);
                let n_after = n_in - removed_high;
                let mean_after = (total_pos - removed_pos) / n_after as f64;
                consider(Candidate {
                    dim,
                    low: false,
                    new_bound: high_bound,
                    score: self.params.score_of(mean_after, mean_before, removed_high),
                    n_after,
                });
            }
        }
        best
    }

    /// Bottom-up pasting (Friedman & Fisher §8.2): repeatedly re-expand
    /// the box face whose re-inclusion of ≈ `α·n` points raises the mean
    /// label the most, as long as some expansion raises it.
    fn paste(&self, d: &Dataset, b: &HyperBox) -> HyperBox {
        let m = d.m();
        let mut current = b.clone();
        loop {
            let in_idx: Vec<usize> = (0..d.n())
                .filter(|&i| current.contains(d.point(i)))
                .collect();
            if in_idx.is_empty() {
                return current;
            }
            let n_in = in_idx.len() as f64;
            let pos_in: f64 = in_idx.iter().map(|&i| d.label(i)).sum();
            let mean_in = pos_in / n_in;
            let k = ((self.params.alpha * n_in).floor() as usize).max(1);
            let mut best: Option<(usize, bool, f64, f64)> = None; // dim, low, bound, mean
            for dim in 0..m {
                let (lo, hi) = current.bound(dim);
                // Points outside only through this face, inside on all
                // other dimensions.
                let mut slab = current.clone();
                slab.set_lower(dim, f64::NEG_INFINITY);
                slab.set_upper(dim, f64::INFINITY);
                for low in [true, false] {
                    let mut outside: Vec<(f64, f64)> = (0..d.n())
                        .filter_map(|i| {
                            let x = d.point(i);
                            if !slab.contains(x) {
                                return None;
                            }
                            let v = d.value(i, dim);
                            let beyond = if low { v < lo } else { v > hi };
                            beyond.then_some((v, d.label(i)))
                        })
                        .collect();
                    if outside.is_empty() {
                        continue;
                    }
                    // Nearest k points beyond the face.
                    outside.sort_unstable_by(|a, b| {
                        if low {
                            b.0.total_cmp(&a.0)
                        } else {
                            a.0.total_cmp(&b.0)
                        }
                    });
                    let take = k.min(outside.len());
                    let add_pos: f64 = outside[..take].iter().map(|&(_, y)| y).sum();
                    let new_bound = outside[take - 1].0;
                    let new_mean = (pos_in + add_pos) / (n_in + take as f64);
                    if new_mean > mean_in && best.is_none_or(|(_, _, _, bm)| new_mean > bm) {
                        best = Some((dim, low, new_bound, new_mean));
                    }
                }
            }
            let Some((dim, low, bound, _)) = best else {
                return current;
            };
            if low {
                current.set_lower(dim, bound);
            } else {
                current.set_upper(dim, bound);
            }
        }
    }

    /// Trajectory truncation of Algorithm 1, line 5: keep the box with
    /// the highest validation precision and all preceding boxes. Ties
    /// on validation precision favour the earlier (larger) box: equal
    /// purity at higher recall dominates.
    fn truncate_at_best(mut boxes: Vec<HyperBox>, precisions: &[Option<f64>]) -> Vec<HyperBox> {
        let best = precisions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(boxes.len() - 1);
        boxes.truncate(best + 1);
        boxes
    }

    /// Truncation plus the optional pasting phase.
    fn finish(&self, d: &Dataset, boxes: Vec<HyperBox>, precisions: Vec<Option<f64>>) -> SdResult {
        let mut boxes = Self::truncate_at_best(boxes, &precisions);
        if self.params.paste {
            if let Some(last) = boxes.pop() {
                boxes.push(self.paste(d, &last));
            }
        }
        SdResult { boxes }
    }
}

impl SubgroupDiscovery for Prim {
    fn discover(&self, d: &Dataset, d_val: &Dataset, _rng: &mut StdRng) -> SdResult {
        let (boxes, precisions) = self.peel(d, d_val);
        self.finish(d, boxes, precisions)
    }

    fn discover_presorted(
        &self,
        d: &Dataset,
        view: SortedView,
        d_val: &Dataset,
        _rng: &mut StdRng,
    ) -> SdResult {
        let (boxes, precisions) = self.peel_with_view(d, view, d_val);
        self.finish(d, boxes, precisions)
    }

    fn discover_paged(
        &self,
        store: &mut dyn ColumnAccess,
        d_val: &Dataset,
        _rng: &mut StdRng,
    ) -> Option<SdResult> {
        if self.params.paste {
            // Pasting re-expands the box through arbitrary slabs of the
            // pool — random access the paged store does not serve.
            return None;
        }
        let (boxes, precisions) = self.peel_store(store, d_val);
        Some(SdResult {
            boxes: Self::truncate_at_best(boxes, &precisions),
        })
    }

    fn name(&self) -> &'static str {
        "P"
    }
}

/// The pre-optimization PRIM implementation: re-sorts every dimension
/// at every peeling step (`O(M·N log N)` **per step**) and rescans the
/// full validation set with `contains` after every cut.
///
/// Kept as the reference oracle for the equivalence tests and as the
/// baseline of the `presort` benchmarks; produces trajectories
/// bit-identical to [`Prim`]. Not part of the supported API.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct NaivePrim {
    prim: Prim,
}

impl NaivePrim {
    /// Naive PRIM with the given hyperparameters.
    pub fn new(params: PrimParams) -> Self {
        Self {
            prim: Prim::new(params),
        }
    }

    /// The full untruncated peeling trajectory, matching
    /// [`Prim::peel_trajectory`].
    pub fn peel_trajectory(&self, d: &Dataset) -> Vec<HyperBox> {
        self.peel(d, d).0
    }

    fn peel(&self, d: &Dataset, d_val: &Dataset) -> (Vec<HyperBox>, Vec<Option<f64>>) {
        let params = &self.prim.params;
        let m = d.m();
        let mut boxes = vec![HyperBox::unbounded(m)];
        let all_val: Vec<u32> = (0..d_val.n() as u32).collect();
        let mut precisions = vec![mean_label(d_val, &all_val)];
        if d.is_empty() {
            return (boxes, precisions);
        }
        let mut in_idx: Vec<usize> = (0..d.n()).collect();
        let mut val_count = d_val.n();
        let mut current = HyperBox::unbounded(m);
        loop {
            if in_idx.len() < params.min_points.max(2) || val_count < params.min_points {
                break;
            }
            let Some(best) = self.best_peel(d, &in_idx, m) else {
                break;
            };
            if best.low {
                current.set_lower(best.dim, best.new_bound);
            } else {
                current.set_upper(best.dim, best.new_bound);
            }
            in_idx.retain(|&i| {
                let v = d.value(i, best.dim);
                if best.low {
                    v >= best.new_bound
                } else {
                    v <= best.new_bound
                }
            });
            debug_assert_eq!(in_idx.len(), best.n_after);
            let in_val: Vec<u32> = (0..d_val.n() as u32)
                .filter(|&i| current.contains(d_val.point(i as usize)))
                .collect();
            val_count = in_val.len();
            boxes.push(current.clone());
            precisions.push(mean_label(d_val, &in_val));
        }
        (boxes, precisions)
    }

    /// Per-step candidate search, re-sorting each dimension from
    /// scratch. Sorts by `(value, row)` — the same total order the
    /// presorted columns maintain — so label sums associate identically
    /// and the produced trajectories match [`Prim`] bit for bit.
    fn best_peel(&self, d: &Dataset, in_idx: &[usize], m: usize) -> Option<Candidate> {
        let params = &self.prim.params;
        let n_in = in_idx.len();
        let k = ((params.alpha * n_in as f64).floor() as usize).max(1);
        if k >= n_in {
            return None;
        }
        let total_pos: f64 = in_idx.iter().map(|&i| d.label(i)).sum();
        let mean_before = total_pos / n_in as f64;
        let mut values: Vec<(f64, f64, usize)> = Vec::with_capacity(n_in);
        let mut best: Option<Candidate> = None;
        for dim in 0..m {
            values.clear();
            values.extend(in_idx.iter().map(|&i| (d.value(i, dim), d.label(i), i)));
            values.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let low_bound = values[k].0;
            let removed_low = values
                .iter()
                .take_while(|&&(v, _, _)| v < low_bound)
                .count();
            if removed_low > 0 && removed_low < n_in {
                let removed_pos: f64 = values[..removed_low].iter().map(|&(_, y, _)| y).sum();
                let n_after = n_in - removed_low;
                let mean_after = (total_pos - removed_pos) / n_after as f64;
                let score = params.score_of(mean_after, mean_before, removed_low);
                if best.as_ref().is_none_or(|b| score > b.score) {
                    best = Some(Candidate {
                        dim,
                        low: true,
                        new_bound: low_bound,
                        score,
                        n_after,
                    });
                }
            }
            let high_bound = values[n_in - 1 - k].0;
            let removed_high = values
                .iter()
                .rev()
                .take_while(|&&(v, _, _)| v > high_bound)
                .count();
            if removed_high > 0 && removed_high < n_in {
                let removed_pos: f64 = values[n_in - removed_high..]
                    .iter()
                    .map(|&(_, y, _)| y)
                    .sum();
                let n_after = n_in - removed_high;
                let mean_after = (total_pos - removed_pos) / n_after as f64;
                let score = params.score_of(mean_after, mean_before, removed_high);
                if best.as_ref().is_none_or(|b| score > b.score) {
                    best = Some(Candidate {
                        dim,
                        low: false,
                        new_bound: high_bound,
                        score,
                        n_after,
                    });
                }
            }
        }
        best
    }
}

impl SubgroupDiscovery for NaivePrim {
    fn discover(&self, d: &Dataset, d_val: &Dataset, _rng: &mut StdRng) -> SdResult {
        let (boxes, precisions) = self.peel(d, d_val);
        self.prim.finish(d, boxes, precisions)
    }

    fn name(&self) -> &'static str {
        "P(naive)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Corner concept: y = 1 iff x0 > 0.6 and x1 > 0.7.
    fn corner_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 3).map(|_| rng.gen::<f64>()).collect(), 3, |x| {
            if x[0] > 0.6 && x[1] > 0.7 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn prim_finds_the_corner() {
        let d = corner_data(600, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let result = Prim::default().discover(&d, &d, &mut rng);
        let last = result.last_box().unwrap();
        let precision = last.mean_inside(&d).unwrap();
        assert!(precision > 0.9, "precision {precision}");
        let (lo0, _) = last.bound(0);
        let (lo1, _) = last.bound(1);
        assert!((lo0 - 0.6).abs() < 0.1, "x0 lower bound {lo0}");
        assert!((lo1 - 0.7).abs() < 0.1, "x1 lower bound {lo1}");
    }

    #[test]
    fn trajectory_is_nested_and_starts_unbounded() {
        let d = corner_data(400, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let result = Prim::default().discover(&d, &d, &mut rng);
        assert_eq!(result.boxes[0], HyperBox::unbounded(3));
        for w in result.boxes.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            for j in 0..3 {
                assert!(next.bound(j).0 >= prev.bound(j).0);
                assert!(next.bound(j).1 <= prev.bound(j).1);
            }
        }
    }

    #[test]
    fn min_points_bounds_the_final_box() {
        let d = corner_data(300, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let prim = Prim::new(PrimParams {
            min_points: 50,
            ..Default::default()
        });
        // Full (untruncated) trajectory: every box on it respects mp.
        let result = prim.discover(&d, &d, &mut rng);
        for b in &result.boxes {
            let (n, _) = b.count(&d);
            // A box is only pushed when ≥ mp points remained before the
            // cut; after the cut at most α·n + ties are gone, so the
            // count cannot collapse below (1−α)·mp − 1 in one step.
            assert!(n >= 30.0, "box with {n} points");
        }
    }

    #[test]
    fn pure_data_yields_trivial_trajectory() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Dataset::from_fn((0..120).map(|_| rng.gen::<f64>()).collect(), 2, |_| 1.0).unwrap();
        let result = Prim::default().discover(&d, &d, &mut rng);
        // Everything is interesting: the unrestricted box already has
        // precision 1, so truncation keeps the first box.
        assert_eq!(result.boxes.len(), 1);
        assert_eq!(result.boxes[0].n_restricted(), 0);
    }

    #[test]
    fn soft_labels_guide_peeling() {
        // Probability ramp in x: PRIM on soft labels should cut from the
        // low-x side first.
        let mut rng = StdRng::seed_from_u64(8);
        let d =
            Dataset::from_fn((0..500).map(|_| rng.gen::<f64>()).collect(), 1, |x| x[0]).unwrap();
        let result = Prim::default().discover(&d, &d, &mut rng);
        let last = result.last_box().unwrap();
        assert!(last.bound(0).0 > 0.5, "lower bound {}", last.bound(0).0);
        assert_eq!(last.bound(0).1, f64::INFINITY);
    }

    #[test]
    fn pasting_recovers_an_overshrunk_box() {
        let d = corner_data(500, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let plain = Prim::default().discover(&d, &d, &mut rng);
        let pasted = Prim::new(PrimParams {
            paste: true,
            ..Default::default()
        })
        .discover(&d, &d, &mut rng);
        let recall = |b: &HyperBox| b.count(&d).1;
        // Pasting can only re-include points, never lose them.
        assert!(recall(pasted.last_box().unwrap()) >= recall(plain.last_box().unwrap()));
    }

    #[test]
    fn empty_data_returns_unbounded_box() {
        let d = Dataset::empty(2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let result = Prim::default().discover(&d, &d, &mut rng);
        assert_eq!(result.boxes.len(), 1);
        assert_eq!(result.boxes[0].n_restricted(), 0);
    }

    #[test]
    #[should_panic(expected = "peeling fraction")]
    fn invalid_alpha_panics() {
        let _ = Prim::new(PrimParams {
            alpha: 1.5,
            ..Default::default()
        });
    }

    #[test]
    fn gain_per_point_criterion_also_finds_the_corner() {
        let d = corner_data(600, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let prim = Prim::new(PrimParams {
            criterion: PeelCriterion::GainPerPoint,
            ..Default::default()
        });
        let result = prim.discover(&d, &d, &mut rng);
        let precision = result.last_box().unwrap().mean_inside(&d).unwrap();
        assert!(precision > 0.85, "precision {precision}");
    }

    #[test]
    fn criteria_produce_valid_nested_trajectories() {
        let d = corner_data(300, 14);
        for criterion in [PeelCriterion::MeanLabel, PeelCriterion::GainPerPoint] {
            let mut rng = StdRng::seed_from_u64(15);
            let prim = Prim::new(PrimParams {
                criterion,
                ..Default::default()
            });
            let result = prim.discover(&d, &d, &mut rng);
            for w in result.boxes.windows(2) {
                for j in 0..3 {
                    assert!(w[1].bound(j).0 >= w[0].bound(j).0, "{criterion:?}");
                    assert!(w[1].bound(j).1 <= w[0].bound(j).1, "{criterion:?}");
                }
            }
        }
    }

    /// Regression test for tie handling at the α-quantile cut: a run of
    /// equal values straddling rank `k` must never be split — the
    /// removed count shrinks to the strict-inequality prefix, and when
    /// the tie run reaches the bottom of the column the candidate is
    /// dropped entirely.
    #[test]
    fn ties_straddling_the_quantile_are_never_split() {
        // 40 points in 1-D: value 0.0 × 10, then 0.5 × 20, then 1.0 × 10.
        // α = 0.3 → k = 12, which lands inside the 0.5 tie run: the low
        // cut must remove exactly the ten 0.0 points, keeping every 0.5.
        let mut points = vec![0.0; 10];
        points.extend(vec![0.5; 20]);
        points.extend(vec![1.0; 10]);
        let labels: Vec<f64> = points
            .iter()
            .map(|&v| if v > 0.25 { 1.0 } else { 0.0 })
            .collect();
        let d = Dataset::new(points, labels, 1).unwrap();
        let prim = Prim::new(PrimParams {
            alpha: 0.3,
            min_points: 5,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let result = prim.discover(&d, &d, &mut rng);
        let last = result.last_box().unwrap();
        assert_eq!(
            last.bound(0).0,
            0.5,
            "tie run was split: {:?}",
            last.bound(0)
        );
        let (n, np) = last.count(&d);
        assert_eq!(n, 30.0, "every tied 0.5 point must survive the cut");
        assert_eq!(np, 30.0);
        // The naive oracle agrees bit-for-bit on this edge case.
        let naive = NaivePrim::new(PrimParams {
            alpha: 0.3,
            min_points: 5,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let reference = naive.discover(&d, &d, &mut rng);
        assert_eq!(result.boxes, reference.boxes);
    }

    /// When *all* values of the peel dimension are tied, no cut exists
    /// and peeling terminates rather than looping or panicking.
    #[test]
    fn all_tied_column_cannot_be_peeled() {
        let points = vec![0.7; 60];
        let labels: Vec<f64> = (0..60).map(|i| (i % 2) as f64).collect();
        let d = Dataset::new(points, labels, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let result = Prim::default().discover(&d, &d, &mut rng);
        assert_eq!(result.boxes.len(), 1);
        assert_eq!(result.boxes[0].n_restricted(), 0);
    }

    #[test]
    fn naive_and_presorted_trajectories_match_bitwise() {
        for seed in 0..8 {
            let d = corner_data(250, 100 + seed);
            let full = Prim::default().peel_trajectory(&d);
            let reference = NaivePrim::default().peel_trajectory(&d);
            assert_eq!(full, reference, "seed {seed}");
        }
    }

    #[test]
    fn discover_paged_over_a_view_matches_discover_bitwise() {
        for seed in 0..4 {
            let d = corner_data(300, 200 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let direct = Prim::default().discover(&d, &d, &mut rng);
            let mut store = ViewAccess::new(&d, SortedView::new(&d));
            let mut rng = StdRng::seed_from_u64(seed);
            let paged = Prim::default()
                .discover_paged(&mut store, &d, &mut rng)
                .expect("PRIM without pasting supports the paged path");
            assert_eq!(direct.boxes, paged.boxes, "seed {seed}");
        }
    }

    #[test]
    fn pasting_declines_the_paged_path() {
        let d = corner_data(100, 42);
        let prim = Prim::new(PrimParams {
            paste: true,
            ..Default::default()
        });
        let mut store = ViewAccess::new(&d, SortedView::new(&d));
        let mut rng = StdRng::seed_from_u64(0);
        assert!(prim.discover_paged(&mut store, &d, &mut rng).is_none());
    }
}
