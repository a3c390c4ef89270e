//! The BestInterval (BI) algorithm of Mampaey, Nijssen, Feelders &
//! Knobbe (2012) — Algorithm 3 of the paper: beam search over hyperboxes
//! maximising Weighted Relative Accuracy, refining one dimension at a
//! time with an exact linear-time best-interval subroutine.
//!
//! For a fixed dataset, `WRAcc(B) = (n⁺_B − n_B · N⁺/N) / N`, so the best
//! interval along a dimension is the contiguous value range maximising
//! `Σ (y_i − N⁺/N)` over the covered points — a maximum-sum subarray
//! problem solved by Kadane's algorithm over the value-sorted points
//! (ties grouped so the interval never splits equal values).
//!
//! Every dimension is argsorted **once** per `discover` call (a
//! [`SortedView`]); each beam refinement then scans its presorted
//! column linearly instead of re-sorting the covered points —
//! `O(M·N)` per refinement instead of `O(M·N log N)`. BI never
//! deactivates a row, so the sorted-column store's column point scan
//! reads no membership bit for it.

use rand::rngs::StdRng;
use reds_data::{ColumnAccess, Dataset, SortedView, ViewAccess};

use crate::{HyperBox, SdResult, SubgroupDiscovery};

/// BI hyperparameters (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct BiParams {
    /// Maximum number of restricted inputs (`m`, "depth"); `None` = all.
    pub max_restricted: Option<usize>,
    /// Beam size `bs` (paper uses 1 and 5).
    pub beam_size: usize,
    /// Safety cap on beam iterations.
    pub max_iterations: usize,
}

impl Default for BiParams {
    fn default() -> Self {
        Self {
            max_restricted: None,
            beam_size: 1,
            max_iterations: 64,
        }
    }
}

/// The BI beam-search algorithm.
#[derive(Debug, Clone, Default)]
pub struct BestInterval {
    params: BiParams,
}

impl BestInterval {
    /// Creates BI with the given hyperparameters.
    pub fn new(params: BiParams) -> Self {
        assert!(params.beam_size > 0, "beam size must be positive");
        Self { params }
    }

    /// WRAcc of `b` over the store's rows: a full sequential row scan,
    /// accumulating `(n, n⁺)` in ascending row order — the association
    /// of [`HyperBox::count`] on the materialized pool.
    fn wracc(b: &HyperBox, store: &mut dyn ColumnAccess, pos_rate: f64) -> f64 {
        let mut n = 0.0;
        let mut np = 0.0;
        store.scan_rows(&mut |_, point, label| {
            if b.contains(point) {
                n += 1.0;
                np += label;
            }
        });
        (np - n * pos_rate) / store.n_rows() as f64
    }

    /// The exact best WRAcc refinement of `b` along `dim`: the interval
    /// maximising the sum of centred labels over points that satisfy all
    /// *other* dimension constraints. Scans the presorted column of
    /// `dim` — no per-refinement sort.
    fn best_interval(
        b: &HyperBox,
        store: &mut dyn ColumnAccess,
        dim: usize,
        pos_rate: f64,
    ) -> HyperBox {
        // Points inside the box with `dim` relaxed.
        let mut slab = b.clone();
        slab.set_lower(dim, f64::NEG_INFINITY);
        slab.set_upper(dim, f64::INFINITY);
        // Group ties on the fly: the column is already value-sorted, and
        // an interval boundary cannot separate equal values.
        let mut groups: Vec<(f64, f64)> = Vec::new();
        store.scan_column_points(dim, &mut |v, _row, point, label| {
            if !slab.contains(point) {
                return;
            }
            let w = label - pos_rate;
            match groups.last_mut() {
                Some((gv, gw)) if *gv == v => *gw += w,
                _ => groups.push((v, w)),
            }
        });
        if groups.is_empty() {
            return b.clone();
        }
        // Kadane over groups, tracking the value range of the best run.
        let mut best_sum = f64::NEG_INFINITY;
        let mut best_range = (groups[0].0, groups[0].0);
        let mut run_sum = 0.0;
        let mut run_start = 0usize;
        for (idx, &(v, w)) in groups.iter().enumerate() {
            if run_sum <= 0.0 {
                run_sum = w;
                run_start = idx;
            } else {
                run_sum += w;
            }
            if run_sum > best_sum {
                best_sum = run_sum;
                best_range = (groups[run_start].0, v);
            }
        }
        let mut refined = b.clone();
        // The refinement replaces this dimension's bounds; when the best
        // interval spans all observed values the dimension stays
        // unrestricted (equivalently: BI never restricts without gain).
        if best_range.0 > groups[0].0 {
            refined.set_lower(dim, best_range.0);
        } else {
            refined.set_lower(dim, f64::NEG_INFINITY);
        }
        if best_range.1 < groups[groups.len() - 1].0 {
            refined.set_upper(dim, best_range.1);
        } else {
            refined.set_upper(dim, f64::INFINITY);
        }
        refined
    }
}

impl BestInterval {
    /// The beam search against any [`ColumnAccess`] backing — the
    /// single implementation behind the in-memory path ([`ViewAccess`])
    /// and the out-of-core paged store. BI never deactivates rows, so
    /// the store must be handed in fresh (every row active).
    fn search_store(&self, store: &mut dyn ColumnAccess) -> SdResult {
        let m = store.m();
        let max_restricted = self.params.max_restricted.unwrap_or(m).min(m);
        let start = HyperBox::unbounded(m);
        if store.n_rows() == 0 {
            return SdResult { boxes: vec![start] };
        }
        // With every row active this is `Σ labels / N` summed in
        // ascending row order — bitwise `Dataset::pos_rate`.
        let pos_rate = store.active_label_sum() / store.n_rows() as f64;
        let mut beam: Vec<HyperBox> = vec![start];
        for _ in 0..self.params.max_iterations {
            // Candidate pool: current beam plus every one-dimension
            // refinement obeying the depth limit (Algorithm 3, lines 5–12).
            let mut candidates: Vec<HyperBox> = beam.clone();
            for b in &beam {
                for dim in 0..m {
                    let refined = Self::best_interval(b, store, dim, pos_rate);
                    if refined.n_restricted() <= max_restricted
                        && candidates.iter().all(|c| c.bounds() != refined.bounds())
                    {
                        candidates.push(refined);
                    }
                }
            }
            // WRAcc of each candidate is a full pool scan, so score once
            // and stable-sort on the cached values — the permutation a
            // comparator recomputing WRAcc would produce, at a fraction
            // of the scans.
            let mut scored: Vec<(HyperBox, f64)> = candidates
                .into_iter()
                .map(|c| {
                    let w = Self::wracc(&c, store, pos_rate);
                    (c, w)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.truncate(self.params.beam_size);
            let candidates: Vec<HyperBox> = scored.into_iter().map(|(c, _)| c).collect();
            if candidates == beam {
                break;
            }
            beam = candidates;
        }
        SdResult {
            boxes: vec![beam.into_iter().next().expect("beam is never empty")],
        }
    }

    /// The beam search on an externally built [`SortedView`] of `d` —
    /// shared by [`SubgroupDiscovery::discover`] (which argsorts here)
    /// and [`SubgroupDiscovery::discover_presorted`] (which reuses a
    /// caller's presort, such as `covering`'s filtered columns).
    fn search(&self, d: &Dataset, view: SortedView) -> SdResult {
        let mut store = ViewAccess::new(d, view);
        self.search_store(&mut store)
    }
}

impl SubgroupDiscovery for BestInterval {
    fn discover(&self, d: &Dataset, _d_val: &Dataset, _rng: &mut StdRng) -> SdResult {
        self.search(d, SortedView::new(d))
    }

    fn discover_presorted(
        &self,
        d: &Dataset,
        view: SortedView,
        _d_val: &Dataset,
        _rng: &mut StdRng,
    ) -> SdResult {
        self.search(d, view)
    }

    fn discover_paged(
        &self,
        store: &mut dyn ColumnAccess,
        _d_val: &Dataset,
        _rng: &mut StdRng,
    ) -> Option<SdResult> {
        Some(self.search_store(store))
    }

    fn name(&self) -> &'static str {
        "BI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn band_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
            if x[0] > 0.3 && x[0] < 0.7 && x[1] > 0.5 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn bi_returns_a_single_box_with_positive_wracc() {
        let d = band_data(500, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let result = BestInterval::default().discover(&d, &d, &mut rng);
        assert_eq!(result.boxes.len(), 1);
        let b = &result.boxes[0];
        let (n, np) = b.count(&d);
        let wracc = (np - n * d.pos_rate()) / d.n() as f64;
        assert!(wracc > 0.05, "WRAcc {wracc}");
    }

    #[test]
    fn bi_recovers_interior_interval() {
        let d = band_data(800, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let result = BestInterval::default().discover(&d, &d, &mut rng);
        let b = &result.boxes[0];
        let (l0, r0) = b.bound(0);
        assert!((l0 - 0.3).abs() < 0.08, "x0 lower {l0}");
        assert!((r0 - 0.7).abs() < 0.08, "x0 upper {r0}");
        let (l1, r1) = b.bound(1);
        assert!((l1 - 0.5).abs() < 0.08, "x1 lower {l1}");
        assert_eq!(r1, f64::INFINITY, "x1 upper should stay open");
    }

    #[test]
    fn depth_limit_caps_restrictions() {
        let d = band_data(400, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let bi = BestInterval::new(BiParams {
            max_restricted: Some(1),
            ..Default::default()
        });
        let result = bi.discover(&d, &d, &mut rng);
        assert!(result.boxes[0].n_restricted() <= 1);
    }

    #[test]
    fn wider_beam_never_hurts_wracc() {
        let d = band_data(400, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut wracc_of = |bs: usize| {
            let bi = BestInterval::new(BiParams {
                beam_size: bs,
                ..Default::default()
            });
            let result = bi.discover(&d, &d, &mut rng);
            let b = &result.boxes[0];
            let (n, np) = b.count(&d);
            (np - n * d.pos_rate()) / d.n() as f64
        };
        assert!(wracc_of(5) >= wracc_of(1) - 1e-9);
    }

    #[test]
    fn uniform_labels_keep_the_box_unrestricted() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = Dataset::from_fn((0..200).map(|_| rng.gen::<f64>()).collect(), 2, |_| 1.0).unwrap();
        let result = BestInterval::default().discover(&d, &d, &mut rng);
        // With all labels equal, no interval improves WRAcc beyond 0.
        assert_eq!(result.boxes[0].n_restricted(), 0);
    }

    #[test]
    fn empty_data_is_handled() {
        let d = Dataset::empty(3).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let result = BestInterval::default().discover(&d, &d, &mut rng);
        assert_eq!(result.boxes.len(), 1);
    }

    #[test]
    fn discover_paged_over_a_view_matches_discover_bitwise() {
        for seed in 0..4 {
            let d = band_data(300, 20 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bi = BestInterval::new(BiParams {
                beam_size: 3,
                ..Default::default()
            });
            let direct = bi.discover(&d, &d, &mut rng);
            let mut store = ViewAccess::new(&d, SortedView::new(&d));
            let mut rng = StdRng::seed_from_u64(seed);
            let paged = bi
                .discover_paged(&mut store, &d, &mut rng)
                .expect("BI always supports the paged path");
            assert_eq!(direct.boxes, paged.boxes, "seed {seed}");
        }
    }

    #[test]
    fn kadane_groups_ties_correctly() {
        // Discrete x with a positive middle level; the interval must
        // cover the whole level, never split it.
        let points = vec![0.1, 0.1, 0.5, 0.5, 0.5, 0.9, 0.9];
        let labels = vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let d = Dataset::new(points, labels, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let result = BestInterval::default().discover(&d, &d, &mut rng);
        let (l, r) = result.boxes[0].bound(0);
        assert_eq!((l, r), (0.5, 0.5));
    }
}
