//! Backing-agnostic column access for subgroup search.
//!
//! PRIM peeling and BestInterval only ever touch a pool through a
//! narrow surface: sorted-column scans from either end, label sums in
//! fixed orders, row deactivation at a value bound, and sequential
//! row iteration. [`ColumnAccess`] names that surface, so one generic
//! search implementation runs over both the in-memory
//! [`SortedView`]-backed pool ([`ViewAccess`]) and the out-of-core
//! paged column store (`reds-ooc`), with **bit-identical** results:
//! every method pins down the exact floating-point visit order the
//! in-memory path uses, and both backings honor it.
//!
//! All methods take `&mut self` because a paged backing mutates its
//! page cache on every read; the in-memory implementation simply
//! ignores the mutability.

use crate::{Dataset, SortedView};

/// Callback of [`ColumnAccess::scan_column_points`]:
/// `f(value, row, point, label)`.
pub type PointVisitor<'a> = dyn FnMut(f64, u32, &[f64], f64) + 'a;

/// The column/row surface subgroup search consumes, generic over the
/// storage backing (in-memory [`SortedView`] or an out-of-core paged
/// store).
///
/// Ordering contracts (the bit-identity guarantees rest on these):
///
/// * column scans visit active entries in ascending (front) or
///   descending (back) `(value, row id)` order — the `SortedView`
///   total order;
/// * [`active_label_sum`](ColumnAccess::active_label_sum) sums labels
///   of active rows in **ascending row order**;
/// * [`scan_rows`](ColumnAccess::scan_rows) visits **all** rows (the
///   membership mask is not consulted) in ascending row order;
/// * deactivation is monotone — a deactivated row never comes back.
pub trait ColumnAccess {
    /// Number of input dimensions.
    fn m(&self) -> usize;

    /// Total number of rows in the pool (active or not).
    fn n_rows(&self) -> usize;

    /// Number of rows still active.
    fn n_active(&self) -> usize;

    /// `true` when `row` is still active.
    fn is_active(&mut self, row: u32) -> bool;

    /// The label of `row`.
    fn label(&mut self, row: u32) -> f64;

    /// Sum of the labels of all **active** rows, accumulated in
    /// ascending row order.
    fn active_label_sum(&mut self) -> f64;

    /// Visits the active entries of `dim`'s sorted column front to
    /// back — ascending `(value, row id)` — until `f` returns `false`
    /// or the column is exhausted.
    fn scan_active_front(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool);

    /// Visits the active entries of `dim`'s sorted column back to
    /// front — descending `(value, row id)` — until `f` returns
    /// `false` or the column is exhausted.
    fn scan_active_back(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool);

    /// Visits the active entries of `dim`'s sorted column front to
    /// back, handing `f` the full point and label of each row:
    /// `f(value, row, point, label)`.
    fn scan_column_points(&mut self, dim: usize, f: &mut PointVisitor<'_>);

    /// Visits **every** row (the membership mask is not consulted) in
    /// ascending row order: `f(row, point, label)`.
    fn scan_rows(&mut self, f: &mut dyn FnMut(u32, &[f64], f64));

    /// Deactivates every active row whose value in `dim` is strictly
    /// below `bound` (a PRIM "low" cut — the new lower bound is
    /// inclusive). Returns the number of rows removed.
    fn deactivate_below(&mut self, dim: usize, bound: f64) -> usize;

    /// Deactivates every active row whose value in `dim` is strictly
    /// above `bound` (a PRIM "high" cut). Returns the number of rows
    /// removed.
    fn deactivate_above(&mut self, dim: usize, bound: f64) -> usize;
}

/// The in-memory [`ColumnAccess`] backing: a [`SortedView`] over a
/// [`Dataset`], plus the ascending active-row list the PRIM peel loop
/// historically carried (so label sums cost `O(n_active)`, not `O(n)`).
///
/// Scans skip the deactivated rows the view has not compacted away
/// yet, reading the mask only in columns that hold some.
pub struct ViewAccess<'a> {
    d: &'a Dataset,
    view: SortedView,
    /// Active rows in ascending row order (mirrors the view's mask).
    in_rows: Vec<u32>,
}

impl<'a> ViewAccess<'a> {
    /// Wraps a dataset and its sorted view.
    ///
    /// # Panics
    ///
    /// Panics when the view's active-row count disagrees with the
    /// dataset (the view must have been built over `d`, with no rows
    /// deactivated yet).
    pub fn new(d: &'a Dataset, view: SortedView) -> Self {
        assert_eq!(
            view.n_active(),
            d.n(),
            "view must be fresh over the dataset"
        );
        let in_rows = (0..d.n() as u32).collect();
        Self { d, view, in_rows }
    }

    /// Filters `in_rows` through the mask after a cut that removed
    /// `removed` rows; returns `removed`.
    fn drop_inactive_rows(&mut self, removed: usize) -> usize {
        if removed > 0 {
            let view = &self.view;
            self.in_rows.retain(|&i| view.is_active(i as usize));
        }
        removed
    }
}

impl ColumnAccess for ViewAccess<'_> {
    fn m(&self) -> usize {
        self.d.m()
    }

    fn n_rows(&self) -> usize {
        self.d.n()
    }

    fn n_active(&self) -> usize {
        self.view.n_active()
    }

    fn is_active(&mut self, row: u32) -> bool {
        self.view.is_active(row as usize)
    }

    fn label(&mut self, row: u32) -> f64 {
        self.d.label(row as usize)
    }

    fn active_label_sum(&mut self) -> f64 {
        self.in_rows.iter().map(|&i| self.d.label(i as usize)).sum()
    }

    fn scan_active_front(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        let d = self.d;
        self.view
            .scan_front(dim, |row| f(d.value(row as usize, dim), row));
    }

    fn scan_active_back(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        let d = self.d;
        self.view
            .scan_back(dim, |row| f(d.value(row as usize, dim), row));
    }

    fn scan_column_points(&mut self, dim: usize, f: &mut PointVisitor<'_>) {
        let d = self.d;
        self.view.scan_front(dim, |row| {
            let i = row as usize;
            f(d.value(i, dim), row, d.point(i), d.label(i));
            true
        });
    }

    fn scan_rows(&mut self, f: &mut dyn FnMut(u32, &[f64], f64)) {
        for (row, (point, label)) in self.d.iter().enumerate() {
            f(row as u32, point, label);
        }
    }

    fn deactivate_below(&mut self, dim: usize, bound: f64) -> usize {
        let removed = self.view.retain_at_least(self.d, dim, bound);
        self.drop_inactive_rows(removed)
    }

    fn deactivate_above(&mut self, dim: usize, bound: f64) -> usize {
        let removed = self.view.retain_at_most(self.d, dim, bound);
        self.drop_inactive_rows(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> Dataset {
        // Column 0: 3 1 2 1 0 ; column 1: 5 4 3 2 1
        Dataset::new(
            vec![3.0, 5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0, 1.0, 0.0],
            2,
        )
        .unwrap()
    }

    #[test]
    fn front_scan_visits_sorted_order_and_stops() {
        let d = toy();
        let mut a = ViewAccess::new(&d, SortedView::new(&d));
        let mut seen = Vec::new();
        a.scan_active_front(0, &mut |v, row| {
            seen.push((v, row));
            seen.len() < 3
        });
        assert_eq!(seen, vec![(0.0, 4), (1.0, 1), (1.0, 3)]);
        seen.clear();
        a.scan_active_back(0, &mut |v, row| {
            seen.push((v, row));
            true
        });
        assert_eq!(seen.first(), Some(&(3.0, 0)));
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn deactivation_tracks_the_view_and_label_sums() {
        let d = toy();
        let mut a = ViewAccess::new(&d, SortedView::new(&d));
        assert_eq!(a.active_label_sum(), 2.0);
        assert_eq!(a.deactivate_below(0, 1.0), 1); // row 4 (value 0)
        assert_eq!(a.n_active(), 4);
        assert!(!a.is_active(4));
        assert_eq!(a.active_label_sum(), 2.0);
        assert_eq!(a.deactivate_above(1, 3.0), 2); // rows 0 (5), 1 (4)
        assert_eq!(a.n_active(), 2);
        assert_eq!(a.active_label_sum(), 1.0);
        let mut rows = Vec::new();
        a.scan_active_front(1, &mut |_, row| {
            rows.push(row);
            true
        });
        assert_eq!(rows, vec![3, 2]);
    }

    #[test]
    fn scan_rows_ignores_the_mask() {
        let d = toy();
        let mut a = ViewAccess::new(&d, SortedView::new(&d));
        a.deactivate_below(0, 10.0);
        assert_eq!(a.n_active(), 0);
        let mut count = 0;
        a.scan_rows(&mut |row, point, label| {
            assert_eq!(point, d.point(row as usize));
            assert_eq!(label, d.label(row as usize));
            count += 1;
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn column_point_scan_hands_full_rows() {
        let d = toy();
        let mut a = ViewAccess::new(&d, SortedView::new(&d));
        let mut seen = Vec::new();
        a.scan_column_points(1, &mut |v, row, point, label| {
            assert_eq!(v, point[1]);
            seen.push((row, label));
        });
        assert_eq!(seen, vec![(4, 0.0), (3, 1.0), (2, 0.0), (1, 1.0), (0, 0.0)]);
    }

    /// The eager reference: the fresh sorted columns, filtered through
    /// a mask that every cut is applied to directly.
    struct Eager<'a> {
        d: &'a Dataset,
        cols: Vec<Vec<u32>>,
        active: Vec<bool>,
    }

    impl Eager<'_> {
        fn cut(&mut self, dim: usize, below: bool, bound: f64) -> usize {
            let mut removed = 0;
            for (row, on) in self.active.iter_mut().enumerate() {
                let v = self.d.value(row, dim);
                if *on && (if below { v < bound } else { v > bound }) {
                    *on = false;
                    removed += 1;
                }
            }
            removed
        }

        /// `(value bits, row)` of the active entries of `dim`, ascending.
        fn entries(&self, dim: usize) -> Vec<(u64, u32)> {
            let col = self.cols[dim].iter();
            col.filter(|&&row| self.active[row as usize])
                .map(|&row| (self.d.value(row as usize, dim).to_bits(), row))
                .collect()
        }
    }

    /// `(value bits, row)` of the first `take` entries a scan hands out.
    fn scan(a: &mut ViewAccess<'_>, dim: usize, back: bool, take: usize) -> Vec<(u64, u32)> {
        let mut seen = Vec::new();
        let mut visit = |v: f64, row: u32| {
            seen.push((v.to_bits(), row));
            seen.len() < take
        };
        if back {
            a.scan_active_back(dim, &mut visit);
        } else {
            a.scan_active_front(dim, &mut visit);
        }
        seen
    }

    fn assert_matches(a: &mut ViewAccess<'_>, eager: &Eager<'_>, rng: &mut StdRng, what: &str) {
        let n_active = eager.active.iter().filter(|&&on| on).count();
        assert_eq!(a.n_active(), n_active, "{what}: n_active");
        for (row, &on) in eager.active.iter().enumerate() {
            assert_eq!(a.is_active(row as u32), on, "{what}: row {row}");
        }
        let want: f64 = (0..eager.d.n())
            .filter(|&row| eager.active[row])
            .map(|row| eager.d.label(row))
            .sum();
        assert_eq!(
            a.active_label_sum().to_bits(),
            want.to_bits(),
            "{what}: label sum"
        );
        for dim in 0..eager.d.m() {
            let want = eager.entries(dim);
            assert_eq!(scan(a, dim, false, usize::MAX), want, "{what}: front {dim}");
            let back: Vec<_> = want.iter().rev().copied().collect();
            assert_eq!(scan(a, dim, true, usize::MAX), back, "{what}: back {dim}");
            // Scans that stop early, inside and across gather blocks.
            let take = rng.gen_range(1..=want.len().max(1));
            assert_eq!(
                scan(a, dim, false, take),
                want[..take.min(want.len())],
                "{what}"
            );
            assert_eq!(
                scan(a, dim, true, take),
                back[..take.min(back.len())],
                "{what}"
            );
        }
    }

    /// A pool with ties, ±0.0 and a few-valued column.
    fn random_pool(rng: &mut StdRng, n: usize, m: usize) -> Dataset {
        let points = (0..n * m)
            .map(|k| match k % m {
                0 => rng.gen::<f64>(),
                1 => (rng.gen::<f64>() * 9.0).floor() / 9.0 - 0.5,
                2 => [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                _ => rng.gen::<f64>() * 2.0 - 1.0,
            })
            .collect();
        let labels = (0..n).map(|_| rng.gen::<f64>()).collect();
        Dataset::new(points, labels, m).unwrap()
    }

    /// Runs `cuts` seeded cuts, comparing with the eager reference after
    /// each; `dims` picks the cut dimension. Returns how many times a
    /// column was compacted (its live entries shrank without a cut on
    /// it).
    fn run_cuts(seed: u64, n: usize, cuts: usize, dims: impl Fn(&mut StdRng) -> usize) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_pool(&mut rng, n, 4);
        let mut a = ViewAccess::new(&d, SortedView::new(&d));
        let mut eager = Eager {
            d: &d,
            cols: SortedView::new(&d).into_columns(),
            active: vec![true; n],
        };
        let mut compactions = 0;
        for step in 0..cuts {
            let dim = dims(&mut rng);
            let below = rng.gen_bool(0.5);
            let entries = eager.entries(dim);
            if entries.is_empty() {
                break;
            }
            // A bound at a small random rank from the cut's end, now and
            // then one that removes nothing.
            let rank = rng.gen_range(0..entries.len().min(n / 20 + 2));
            let at = if below {
                rank
            } else {
                entries.len() - 1 - rank
            };
            let bound = f64::from_bits(entries[at].0);
            let live_before: Vec<usize> = (0..d.m()).map(|j| a.view.column(j).len()).collect();
            let got = if below {
                a.deactivate_below(dim, bound)
            } else {
                a.deactivate_above(dim, bound)
            };
            assert_eq!(
                got,
                eager.cut(dim, below, bound),
                "seed {seed} cut {step}: removed"
            );
            for (j, &before) in live_before.iter().enumerate() {
                let after = a.view.column(j).len();
                if j != dim && after < before {
                    compactions += 1;
                }
            }
            assert_matches(&mut a, &eager, &mut rng, &format!("seed {seed} cut {step}"));
        }
        compactions
    }

    #[test]
    fn random_cut_sequences_match_the_eager_reference() {
        for seed in 0..12 {
            run_cuts(seed, 64 + 97 * seed as usize, 60, |rng| rng.gen_range(0..4));
        }
    }

    #[test]
    fn repeated_compactions_match_the_eager_reference() {
        // Cutting one dimension only: every other column gathers stale
        // entries until it passes the threshold, again and again.
        let compactions = run_cuts(99, 3000, 80, |_| 0);
        assert!(compactions >= 3 * 3, "only {compactions} compactions");
    }
}
