//! The sorted-column store: one search over every pool backing.
//!
//! The paper's §7 bound, `O(M·(N log N + L log L + L/α))`, rests on
//! sorting each input once; each PRIM peel then touches only about
//! `α·n` entries at each end of each column. This module is that
//! search, written once. A backing only says how it reads a page
//! ([`PageSource`]): the in-memory [`ViewAccess`](crate::ViewAccess)
//! slices its resident argsort and reads values from the row-major
//! points, the out-of-core `OocPool` (`reds-ooc`) reads a `.redsart`
//! through a page cache. Every [`PageSource`] is a [`ColumnAccess`]
//! through the one blanket impl below, which keeps the store's
//! [`ActiveSet`]:
//!
//! * a column's entries are addressed by **rank**, in pages of
//!   `page_rows` ranks;
//! * per-column **watermarks** `[lo, hi)` bracket the ranks that can
//!   still be active: cuts only ever trim the ends of a sorted column,
//!   so everything outside the bracket is inactive;
//! * pages inside the bracket that a scan finds with no active entry
//!   are **dead**: scans skip them and cuts pass them by their min/max
//!   fences, without reading them — sound because deactivation is
//!   monotone (rows never reactivate);
//! * the active rows are a resident **bitset** of `⌈n/64⌉` words, one
//!   bit per row: a scan gathers each block of up to 64 entries
//!   branch-free before handing any out, and
//!   [`active_label_sum`](ColumnAccess::active_label_sum) walks it a
//!   word at a time.
//!
//! Every visit order is the one [`ColumnAccess`] pins, so both backings
//! give bit-identical results.

use std::ops::{Deref, Range};

use crate::{ColumnAccess, PointVisitor};

/// How one pool backing reads its pages: the only part of the
/// sorted-column store a backing writes. Every `PageSource` is a
/// [`ColumnAccess`], served by the search in this module.
///
/// A column page holds `page_rows` consecutive ranks of one sorted
/// column, the `page_rows` the source's [`ActiveSet`] was built with:
/// page `p` starts at rank `p·page_rows`, and the last page may hold
/// fewer. Labels and points come in pages of consecutive rows, paged
/// alike, each of a size the source chooses.
pub trait PageSource {
    /// One entry of a sorted column, as the source's pages hold it.
    type Entry: Copy + Default;
    /// A page of one column's entries, ascending `(value, row id)`.
    type Page: Deref<Target = [Self::Entry]>;
    /// A page of labels, or of points (`m` values a row).
    type Floats: Deref<Target = [f64]> + Default;

    /// The store's active rows, watermarks and dead pages.
    fn active(&self) -> &ActiveSet;

    /// Mutable [`active`](PageSource::active).
    fn active_mut(&mut self) -> &mut ActiveSet;

    /// Page `page` of column `dim`.
    fn column_page(&mut self, dim: usize, page: usize) -> Self::Page;

    /// The row id of `entry`.
    fn entry_row(entry: Self::Entry) -> u32;

    /// The value of `entry`, an entry of column `dim`.
    fn entry_value(&self, dim: usize, entry: Self::Entry) -> f64;

    /// The first and the last value of page `page` of column `dim`,
    /// read without fetching the page.
    fn fences(&self, dim: usize, page: usize) -> (f64, f64);

    /// The page of labels that holds `row`, and the rows it holds.
    fn labels_at(&mut self, row: usize) -> (Self::Floats, Range<usize>);

    /// The page of points that holds `row`, and the rows it holds.
    fn points_at(&mut self, row: usize) -> (Self::Floats, Range<usize>);

    /// [`ColumnAccess::label_sum`]: the labels of `rows`, repeats
    /// included, summed in the given order from `-0.0`.
    fn sum_labels(&mut self, rows: &[u32]) -> f64;
}

/// What the search knows of a pool's active rows: the resident bitset,
/// and per column the watermarks and the dead pages. A [`PageSource`]
/// holds one, built by [`ActiveSet::new`].
#[derive(Debug)]
pub struct ActiveSet {
    n: usize,
    page_rows: usize,
    cols: Vec<Marks>,
    /// Bit `r % 64` of word `r / 64` is set while row `r` is active, so
    /// ascending bit order is ascending row order; bits past `n` are
    /// clear.
    bits: Vec<u64>,
    n_active: usize,
}

/// One column's watermarks and dead pages.
#[derive(Debug, Clone)]
struct Marks {
    /// First rank that can still be active.
    lo: usize,
    /// One past the last rank that can still be active.
    hi: usize,
    /// Pages found with no active entry.
    dead: Vec<bool>,
}

impl ActiveSet {
    /// Every row of an `n`-row, `m`-column pool active, its columns
    /// paged at `page_rows` ranks a page.
    ///
    /// # Panics
    ///
    /// Panics when `page_rows` is 0.
    pub fn new(n: usize, m: usize, page_rows: usize) -> Self {
        assert!(page_rows > 0, "a page holds at least one row");
        let mut bits = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            bits[n / 64] = (1 << (n % 64)) - 1;
        }
        let pages = n.div_ceil(page_rows);
        let marks = Marks {
            lo: 0,
            hi: n,
            dead: vec![false; pages],
        };
        Self {
            n,
            page_rows,
            cols: vec![marks; m],
            bits,
            n_active: n,
        }
    }

    /// The ranks, or rows, of page `page`.
    pub(crate) fn page_range(&self, page: usize) -> Range<usize> {
        page * self.page_rows..((page + 1) * self.page_rows).min(self.n)
    }

    fn is_set(&self, row: u32) -> bool {
        self.bits[row as usize / 64] >> (row % 64) & 1 != 0
    }

    /// Clears `row`'s bit; returns 1 if it was set, else 0.
    fn clear(&mut self, row: u32) -> usize {
        let (word, bit) = (row as usize / 64, row % 64);
        let was = self.bits[word] >> bit & 1;
        self.bits[word] &= !(1 << bit);
        was as usize
    }

    /// The page of column `dim` that holds the `k`-th rank of its
    /// bracket, counted from the front (or from the `back`), and the
    /// ranks of that page from there to the page's far side, ascending.
    fn chunk(&self, dim: usize, back: bool, k: usize) -> Option<(usize, Range<usize>)> {
        let Marks { lo, hi, .. } = self.cols[dim];
        if k >= hi - lo {
            return None;
        }
        let rank = if back { hi - 1 - k } else { lo + k };
        let page = rank / self.page_rows;
        let ranks = self.page_range(page);
        Some(if back {
            (page, ranks.start.max(lo)..rank + 1)
        } else {
            (page, rank..ranks.end.min(hi))
        })
    }

    /// The next chunk of a scan of column `dim` whose page is not dead;
    /// `k` counts the ranks walked so far.
    fn next_live(&self, dim: usize, back: bool, k: &mut usize) -> Option<(usize, Range<usize>)> {
        loop {
            let (page, ranks) = self.chunk(dim, back, *k)?;
            *k += ranks.len();
            if !self.cols[dim].dead[page] {
                return Some((page, ranks));
            }
        }
    }
}

/// What a scan found in one page.
enum PageVisit {
    /// No active entry: the page is dead from now on.
    Dead,
    /// Every entry was visited, some of them active.
    Live,
    /// `f` asked to stop.
    Stopped,
}

/// Hands `f` the active ones of `entries`, in order, until it returns
/// `false`. Each block of up to 64 entries has its active ones gathered
/// branch-free before `f` sees any of them: a branch on the mask would
/// mispredict at inactive entries, and each misprediction discards the
/// loads the caller's `f` has in flight.
fn visit_page<'e, S: PageSource>(
    source: &S,
    dim: usize,
    mut entries: impl Iterator<Item = &'e S::Entry>,
    f: &mut dyn FnMut(f64, u32) -> bool,
) -> PageVisit
where
    S::Entry: 'e,
{
    const BLOCK: usize = 64;
    let active = source.active();
    let mut block = [S::Entry::default(); BLOCK];
    let mut any_active = false;
    loop {
        let (mut taken, mut kept) = (0, 0);
        for &entry in entries.by_ref().take(BLOCK) {
            block[kept] = entry;
            kept += usize::from(active.is_set(S::entry_row(entry)));
            taken += 1;
        }
        any_active |= kept > 0;
        for &entry in &block[..kept] {
            if !f(source.entry_value(dim, entry), S::entry_row(entry)) {
                return PageVisit::Stopped;
            }
        }
        if taken < BLOCK {
            return if any_active {
                PageVisit::Live
            } else {
                PageVisit::Dead
            };
        }
    }
}

/// The active entries of column `dim`, front to back or `back` to
/// front, handed to `f` until it returns `false`.
fn scan<S: PageSource>(
    source: &mut S,
    dim: usize,
    back: bool,
    f: &mut dyn FnMut(f64, u32) -> bool,
) {
    let mut k = 0;
    while let Some((page, ranks)) = source.active().next_live(dim, back, &mut k) {
        let entries = source.column_page(dim, page);
        let base = page * source.active().page_rows;
        let entries = &entries[ranks.start - base..ranks.end - base];
        let visit = if back {
            visit_page(source, dim, entries.iter().rev(), f)
        } else {
            visit_page(source, dim, entries.iter(), f)
        };
        match visit {
            PageVisit::Stopped => return,
            PageVisit::Dead => source.active_mut().cols[dim].dead[page] = true,
            PageVisit::Live => {}
        }
    }
}

/// Deactivates every active row whose value in `dim` is strictly below
/// `bound`, or strictly `above` it, walking the column in from that
/// end; moves the watermark past the ranks it walked. Returns the number
/// of rows removed.
fn cut<S: PageSource>(source: &mut S, dim: usize, above: bool, bound: f64) -> usize {
    let beyond = |v: f64| if above { v > bound } else { v < bound };
    let mut removed = 0;
    let mut k = 0;
    'walk: while let Some((page, ranks)) = source.active().chunk(dim, above, k) {
        if source.active().cols[dim].dead[page] {
            // A dead page wholly beyond the bound is passed unread; one
            // that reaches it ends the cut, since the column is sorted.
            let (first, last) = source.fences(dim, page);
            if !beyond(if above { first } else { last }) {
                break;
            }
            k += ranks.len();
            continue;
        }
        let entries = source.column_page(dim, page);
        let base = page * source.active().page_rows;
        let entries = &entries[ranks.start - base..ranks.end - base];
        for i in 0..entries.len() {
            let entry = entries[if above { entries.len() - 1 - i } else { i }];
            if !beyond(source.entry_value(dim, entry)) {
                break 'walk;
            }
            removed += source.active_mut().clear(S::entry_row(entry));
            k += 1;
        }
    }
    let active = source.active_mut();
    let marks = &mut active.cols[dim];
    if above {
        marks.hi -= k;
    } else {
        marks.lo += k;
    }
    active.n_active -= removed;
    removed
}

impl<S: PageSource> ColumnAccess for S {
    fn m(&self) -> usize {
        self.active().cols.len()
    }

    fn n_rows(&self) -> usize {
        self.active().n
    }

    fn n_active(&self) -> usize {
        self.active().n_active
    }

    fn is_active(&mut self, row: u32) -> bool {
        self.active().is_set(row)
    }

    fn label(&mut self, row: u32) -> f64 {
        let (labels, rows) = self.labels_at(row as usize);
        labels[row as usize - rows.start]
    }

    fn label_sum(&mut self, rows: &[u32]) -> f64 {
        self.sum_labels(rows)
    }

    fn active_label_sum(&mut self) -> f64 {
        // -0.0 is the additive identity `Iterator::sum::<f64>` folds
        // from; starting at +0.0 would differ bitwise on empty or
        // all-negative-zero sums.
        let mut sum = -0.0;
        // The label page in hand and the rows `[start, end)` it holds.
        let (mut start, mut end) = (0, 0);
        let mut labels = S::Floats::default();
        for w in 0..self.active().bits.len() {
            let mut bits = self.active().bits[w];
            while bits != 0 {
                let row = w * 64 + bits.trailing_zeros() as usize;
                if row >= end {
                    let rows;
                    (labels, rows) = self.labels_at(row);
                    (start, end) = (rows.start, rows.end);
                }
                // The word's active rows in the page in hand, from `row` on.
                let held = if end - w * 64 >= 64 {
                    bits
                } else {
                    bits & ((1 << (end - w * 64)) - 1)
                };
                bits ^= held;
                let (mut held, labels) = (held >> (row - w * 64), &labels[row - start..]);
                while held != 0 {
                    sum += labels[held.trailing_zeros() as usize];
                    held &= held - 1;
                }
            }
        }
        sum
    }

    fn scan_active_front(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        scan(self, dim, false, f);
    }

    fn scan_active_back(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        scan(self, dim, true, f);
    }

    fn scan_column_points(&mut self, dim: usize, f: &mut PointVisitor<'_>) {
        let (page_rows, m) = (self.active().page_rows, self.m());
        // A direct loop over the ranks, no block gather: BestInterval,
        // the one caller, never deactivates a row, so the bits are read
        // only once some row is inactive.
        let every = self.n_active() == self.n_rows();
        let mut k = 0;
        while let Some((page, ranks)) = self.active().next_live(dim, false, &mut k) {
            let entries = self.column_page(dim, page);
            let base = page * page_rows;
            let mut any_active = false;
            for &entry in &entries[ranks.start - base..ranks.end - base] {
                let row = Self::entry_row(entry);
                if every || self.active().is_set(row) {
                    any_active = true;
                    let value = self.entry_value(dim, entry);
                    let (points, rows) = self.points_at(row as usize);
                    let at = row as usize - rows.start;
                    let label = self.label(row);
                    f(value, row, &points[at * m..(at + 1) * m], label);
                }
            }
            if !any_active {
                self.active_mut().cols[dim].dead[page] = true;
            }
        }
    }

    fn scan_rows(&mut self, f: &mut dyn FnMut(u32, &[f64], f64)) {
        let m = self.m();
        let mut row = 0;
        while row < self.n_rows() {
            let (points, rows) = self.points_at(row);
            let (labels, _) = self.labels_at(row);
            row = rows.end;
            for (row, (point, &label)) in rows.zip(points.chunks_exact(m).zip(labels.iter())) {
                f(row as u32, point, label);
            }
        }
    }

    fn deactivate_below(&mut self, dim: usize, bound: f64) -> usize {
        cut(self, dim, false, bound)
    }

    fn deactivate_above(&mut self, dim: usize, bound: f64) -> usize {
        cut(self, dim, true, bound)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnAccess, Dataset, SortedView, ViewAccess};

    fn toy() -> Dataset {
        // Column 0: 3 1 2 1 0 ; column 1: 5 4 3 2 1
        Dataset::new(
            vec![3.0, 5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0, 1.0, 0.0],
            2,
        )
        .unwrap()
    }

    fn store(d: &Dataset) -> ViewAccess<'_> {
        ViewAccess::new(d, SortedView::new(d))
    }

    /// The active rows of column `j`, front to back.
    fn active(a: &mut ViewAccess<'_>, j: usize) -> Vec<u32> {
        let mut rows = Vec::new();
        a.scan_active_front(j, &mut |_, row| {
            rows.push(row);
            true
        });
        rows
    }

    #[test]
    fn low_cut_removes_the_strict_prefix() {
        let d = toy();
        let mut a = store(&d);
        assert_eq!(a.n_active(), 5);
        // Lower bound 1.0 on dim 0: only row 4 (value 0) goes.
        assert_eq!(a.deactivate_below(0, 1.0), 1);
        assert_eq!(a.n_active(), 4);
        assert!(!a.is_active(4));
        assert_eq!(active(&mut a, 0), [1, 3, 2, 0]);
        assert_eq!(active(&mut a, 1), [3, 2, 1, 0]);
    }

    #[test]
    fn high_cut_removes_the_strict_suffix() {
        let d = toy();
        let mut a = store(&d);
        assert_eq!(a.deactivate_above(1, 3.0), 2); // rows 0 (5) and 1 (4)
        assert_eq!(a.n_active(), 3);
        assert_eq!(active(&mut a, 0), [4, 3, 2]);
    }

    #[test]
    fn ties_at_the_bound_survive() {
        let d = Dataset::new(vec![1.0, 1.0, 1.0, 2.0, 3.0], vec![0.0; 5], 1).unwrap();
        let mut a = store(&d);
        assert_eq!(a.deactivate_below(0, 1.0), 0); // nothing strictly below
        assert_eq!(a.n_active(), 5);
        assert_eq!(a.deactivate_above(0, 1.0), 2);
        assert_eq!(active(&mut a, 0), [0, 1, 2]);
    }

    #[test]
    fn repeated_cuts_compose() {
        let d = toy();
        let mut a = store(&d);
        a.deactivate_below(0, 1.0);
        a.deactivate_above(1, 3.0);
        // Survivors: rows with x0 >= 1 and x1 <= 3 -> rows 2, 3.
        assert_eq!(a.n_active(), 2);
        assert_eq!(active(&mut a, 0), [3, 2]);
        assert_eq!(active(&mut a, 1), [3, 2]);
        assert_eq!(a.deactivate_above(1, 2.0), 1); // row 2 (3)
        assert_eq!(active(&mut a, 0), [3]);
    }

    #[test]
    fn cuts_on_a_rebuilt_view_match_the_fresh_one() {
        let d = toy();
        let reference = SortedView::new(&d);
        let rebuilt = SortedView::from_presorted_columns(reference.clone().into_columns(), d.n())
            .expect("valid");
        let mut a = ViewAccess::new(&d, reference);
        let mut b = ViewAccess::new(&d, rebuilt);
        assert_eq!(b.n_active(), d.n());
        assert_eq!(a.deactivate_below(0, 1.0), b.deactivate_below(0, 1.0));
        assert_eq!(active(&mut a, 1), active(&mut b, 1));
    }

    #[test]
    fn an_empty_pool_has_no_active_rows() {
        let d = Dataset::empty(2).unwrap();
        let mut a = store(&d);
        assert_eq!(a.n_active(), 0);
        assert_eq!(a.active_label_sum().to_bits(), (-0.0f64).to_bits());
        assert!(active(&mut a, 0).is_empty());
        assert_eq!(a.deactivate_below(1, 0.5), 0);
    }
}
