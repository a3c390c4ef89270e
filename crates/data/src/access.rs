//! Backing-agnostic column access for subgroup search.
//!
//! PRIM peeling and BestInterval only ever touch a pool through a
//! narrow surface: sorted-column scans from either end, label sums in
//! fixed orders, row deactivation at a value bound, and sequential
//! row iteration. [`ColumnAccess`] names that surface, so one generic
//! search implementation runs over both the in-memory
//! [`SortedView`]-backed pool ([`ViewAccess`]) and the out-of-core
//! paged column store (`reds-ooc`), with **bit-identical** results:
//! every method pins down the exact floating-point visit order.
//!
//! Both backings are [`PageSource`]s, and every `PageSource` serves
//! this surface through the one search of the sorted-column store;
//! [`ViewAccess`] only says how the in-memory pool reads a page.
//!
//! All methods take `&mut self` because a paged backing mutates its
//! page cache on every read; the in-memory implementation simply
//! ignores the mutability.

use std::ops::{Deref, Range};
use std::rc::Rc;

use crate::{ActiveSet, Dataset, PageSource, SortedView};

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
/// * [`label_sum`](ColumnAccess::label_sum) sums labels in the order
///   of the rows it is given, and
///   [`active_label_sum`](ColumnAccess::active_label_sum) those of the
///   active rows in **ascending row order**, both from `-0.0`;
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

    /// Sum of the labels of `rows`, accumulated in the given order from
    /// `-0.0` (the identity `Iterator::sum::<f64>` folds from), repeats
    /// included; the empty sum is `-0.0`. The default folds
    /// [`label`](ColumnAccess::label); a backing that can fetch the
    /// labels in bulk overrides it with the same association.
    fn label_sum(&mut self, rows: &[u32]) -> f64 {
        let mut sum = -0.0;
        for &row in rows {
            sum += self.label(row);
        }
        sum
    }

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

/// Rows per page of the in-memory store. Its pages are slices of
/// resident arrays, so the size only sets how finely scans find dead
/// pages and cuts pass them; it is the paged store's default.
const PAGE_ROWS: usize = 4096;

/// The in-memory [`ColumnAccess`] backing: a [`PageSource`] whose
/// column pages are slices of a [`SortedView`]'s row ids, and whose
/// values, labels and points are read from the [`Dataset`] (its labels
/// and its points are one page each).
pub struct ViewAccess<'a> {
    d: &'a Dataset,
    view: Rc<SortedView>,
    active: ActiveSet,
}

impl<'a> ViewAccess<'a> {
    /// Wraps a dataset and its sorted view, with every row active.
    ///
    /// # Panics
    ///
    /// Panics when the view does not index `d`: it must hold `d.m()`
    /// columns of `d.n()` row ids each.
    pub fn new(d: &'a Dataset, view: SortedView) -> Self {
        assert!(
            view.m() == d.m() && (0..d.m()).all(|j| view.column(j).len() == d.n()),
            "the view must index the dataset"
        );
        Self {
            d,
            view: Rc::new(view),
            active: ActiveSet::new(d.n(), d.m(), PAGE_ROWS),
        }
    }
}

/// A page of an in-memory column: a range of the argsort, held through
/// the view's handle so that the search can read the rest of the store
/// while it holds the page.
pub struct ViewPage {
    view: Rc<SortedView>,
    dim: usize,
    ranks: Range<usize>,
}

impl Deref for ViewPage {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.view.column(self.dim)[self.ranks.clone()]
    }
}

impl<'a> PageSource for ViewAccess<'a> {
    type Entry = u32;
    type Page = ViewPage;
    type Floats = &'a [f64];

    fn active(&self) -> &ActiveSet {
        &self.active
    }

    fn active_mut(&mut self) -> &mut ActiveSet {
        &mut self.active
    }

    fn column_page(&mut self, dim: usize, page: usize) -> ViewPage {
        ViewPage {
            view: Rc::clone(&self.view),
            dim,
            ranks: self.active.page_range(page),
        }
    }

    fn entry_row(entry: u32) -> u32 {
        entry
    }

    fn entry_value(&self, dim: usize, entry: u32) -> f64 {
        self.d.value(entry as usize, dim)
    }

    fn fences(&self, dim: usize, page: usize) -> (f64, f64) {
        let rows = &self.view.column(dim)[self.active.page_range(page)];
        let value = |row: u32| self.d.value(row as usize, dim);
        (value(rows[0]), value(rows[rows.len() - 1]))
    }

    fn labels_at(&mut self, _row: usize) -> (&'a [f64], Range<usize>) {
        (self.d.labels(), 0..self.d.n())
    }

    fn points_at(&mut self, _row: usize) -> (&'a [f64], Range<usize>) {
        (self.d.points(), 0..self.d.n())
    }

    fn sum_labels(&mut self, rows: &[u32]) -> f64 {
        let labels = self.d.labels();
        rows.iter()
            .fold(-0.0, |sum, &row| sum + labels[row as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
