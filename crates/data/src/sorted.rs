//! Presorted columnar index over a [`Dataset`].
//!
//! The paper's §7 complexity analysis assumes every input dimension is
//! sorted **once** — `O(M·N log N)` — after which each PRIM peeling step
//! touches each surviving point a constant number of times, for
//! `O(M·N/α)` total peeling work. [`SortedView`] is that index: one
//! argsorted row-id array per dimension plus a row-membership mask,
//! maintained under subsetting so consumers never re-sort.
//!
//! Deactivation is lazy, as in the out-of-core paged store: a cut
//! clears mask bits and trims the end of the column it cut; every other
//! column keeps the deactivated rows as *stale* entries until more than
//! half of its live entries are stale, and only then is compacted.
//! Each compaction drops more entries than it keeps, so all of them
//! together cost `O(M·N)` over any sequence of cuts, not `O(M·n)` per
//! cut.
//!
//! Ordering is total and deterministic: rows are sorted by
//! `(value, row id)` (`f64::total_cmp` then index). Consumers that sum
//! labels in column order therefore produce **bit-identical** floating
//! point results to a reference that sorts fresh `(value, row)` pairs
//! with the same key — the property the `naive`-vs-optimized
//! equivalence tests rely on.

use std::ops::Range;

use crate::{DataError, Dataset};

/// Per-dimension argsorted row indices plus a membership mask, built
/// once in `O(M·N log N)`. A cut costs the entries it trims, one pass
/// over the per-column counters, and compactions that total `O(M·N)`
/// over the view's lifetime; scans skip the stale entries.
///
/// The view stores row *indices only*; callers pass the owning
/// [`Dataset`] back in when values are needed. All methods assume the
/// same dataset (same shape and order) is used throughout the view's
/// lifetime.
#[derive(Debug, Clone)]
pub struct SortedView {
    cols: Vec<Column>,
    /// Membership mask over the original rows.
    active: Vec<bool>,
    n_active: usize,
}

/// One dimension's sorted row ids.
#[derive(Debug, Clone)]
struct Column {
    /// Row ids sorted by `(value, row)`; `rows[lo..]` are the live
    /// entries: every active row, plus `stale` deactivated ones.
    rows: Vec<u32>,
    /// Entries before `lo` were trimmed by low cuts (high cuts
    /// truncate `rows`).
    lo: usize,
    /// Deactivated rows among the live entries.
    stale: usize,
}

impl Column {
    fn fresh(rows: Vec<u32>) -> Self {
        Self {
            rows,
            lo: 0,
            stale: 0,
        }
    }

    fn live(&self) -> &[u32] {
        &self.rows[self.lo..]
    }

    /// Drops the trimmed and stale entries, keeping the order.
    fn compact(&mut self, active: &[bool]) {
        // Branch-free: about half the entries go, in no pattern a
        // branch predictor could follow.
        let mut kept = 0;
        for at in self.lo..self.rows.len() {
            let row = self.rows[at];
            self.rows[kept] = row;
            kept += usize::from(active[row as usize]);
        }
        self.rows.truncate(kept);
        self.lo = 0;
        self.stale = 0;
    }
}

impl SortedView {
    /// Builds the index: argsorts every dimension by `(value, row id)`.
    ///
    /// # Panics
    ///
    /// Panics when the dataset has more than `u32::MAX` rows.
    pub fn new(d: &Dataset) -> Self {
        let n = d.n();
        assert!(n <= u32::MAX as usize, "dataset too large for u32 row ids");
        let cols = (0..d.m())
            .map(|j| Column::fresh(argsort_stable(n, |i| ord_key(d.value(i, j)))))
            .collect();
        Self {
            cols,
            active: vec![true; n],
            n_active: n,
        }
    }

    /// Builds the index from externally presorted columns — the
    /// entry point of out-of-core construction, where each column's
    /// `(value, row id)` order was produced by merging spilled
    /// chunk-local runs instead of one in-memory argsort.
    ///
    /// `cols[j]` must list **every** row id `0..n` exactly once, in
    /// ascending `(value_j, row id)` order. The permutation property is
    /// validated (`O(M·n)`); the sort order itself is the caller's
    /// contract — it cannot be checked without the value buffer, which
    /// out-of-core callers deliberately do not hold.
    ///
    /// # Errors
    ///
    /// [`DataError::NotAPermutation`] when a column's length is not `n`
    /// or a row id is missing, duplicated, or out of range.
    pub fn from_presorted_columns(cols: Vec<Vec<u32>>, n: usize) -> Result<Self, DataError> {
        let mut seen = vec![false; n];
        for (j, col) in cols.iter().enumerate() {
            if col.len() != n {
                return Err(DataError::NotAPermutation { column: j });
            }
            seen.iter_mut().for_each(|s| *s = false);
            for &row in col {
                if (row as usize) >= n || seen[row as usize] {
                    return Err(DataError::NotAPermutation { column: j });
                }
                seen[row as usize] = true;
            }
        }
        Ok(Self {
            cols: cols.into_iter().map(Column::fresh).collect(),
            active: vec![true; n],
            n_active: n,
        })
    }

    /// Number of dimensions indexed.
    pub fn m(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows still active.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// `true` when row `i` is still active.
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// The live entries of dimension `j`, sorted ascending by
    /// `(value, row id)`: every active row, interleaved with the
    /// deactivated rows no compaction has dropped yet. On a view no
    /// cut has touched, that is every row.
    pub fn column(&self, j: usize) -> &[u32] {
        self.cols[j].live()
    }

    /// Hands `f` the active rows of dimension `j` front to back —
    /// ascending `(value, row id)` — until it returns `false` or the
    /// column ends.
    pub(crate) fn scan_front(&self, j: usize, f: impl FnMut(u32) -> bool) {
        let col = &self.cols[j];
        self.visit_active(col.stale > 0, col.live().iter(), f);
    }

    /// [`scan_front`](Self::scan_front) from the other end: descending
    /// `(value, row id)`.
    pub(crate) fn scan_back(&self, j: usize, f: impl FnMut(u32) -> bool) {
        let col = &self.cols[j];
        self.visit_active(col.stale > 0, col.live().iter().rev(), f);
    }

    /// Hands `f` the active ones of `rows` in order until it returns
    /// `false`; the mask is read only when `stale` says some are not.
    fn visit_active<'r>(
        &self,
        stale: bool,
        mut rows: impl Iterator<Item = &'r u32>,
        mut f: impl FnMut(u32) -> bool,
    ) {
        if !stale {
            for &row in rows {
                if !f(row) {
                    return;
                }
            }
            return;
        }
        // Each block's active rows are gathered branch-free before `f`
        // sees them: a branch on the mask would mispredict at stale
        // entries, and each misprediction discards the value loads the
        // caller's `f` has in flight.
        const BLOCK: usize = 64;
        let mut block = [0u32; BLOCK];
        loop {
            let (mut taken, mut kept) = (0, 0);
            for &row in rows.by_ref().take(BLOCK) {
                block[kept] = row;
                kept += usize::from(self.active[row as usize]);
                taken += 1;
            }
            for &row in &block[..kept] {
                if !f(row) {
                    return;
                }
            }
            if taken < BLOCK {
                return;
            }
        }
    }

    /// Consumes the view, returning every column's sorted active rows —
    /// for consumers that only need the initial argsort (no
    /// subsetting) and want to avoid copying it.
    pub fn into_columns(mut self) -> Vec<Vec<u32>> {
        for col in &mut self.cols {
            if col.lo > 0 || col.stale > 0 {
                col.compact(&self.active);
            }
        }
        self.cols.into_iter().map(|col| col.rows).collect()
    }

    /// Deactivates every active row whose value in `dim` is strictly
    /// below `bound` (a PRIM "low" cut: the new lower bound is
    /// inclusive). Returns the number of rows removed.
    pub fn retain_at_least(&mut self, d: &Dataset, dim: usize, bound: f64) -> usize {
        let col = &self.cols[dim];
        let trimmed = col
            .live()
            .iter()
            .take_while(|&&row| d.value(row as usize, dim) < bound)
            .count();
        self.cut(dim, col.lo..col.lo + trimmed)
    }

    /// Deactivates every active row whose value in `dim` is strictly
    /// above `bound` (a PRIM "high" cut). Returns the number of rows
    /// removed.
    pub fn retain_at_most(&mut self, d: &Dataset, dim: usize, bound: f64) -> usize {
        let col = &self.cols[dim];
        let trimmed = col
            .live()
            .iter()
            .rev()
            .take_while(|&&row| d.value(row as usize, dim) > bound)
            .count();
        let end = col.rows.len();
        self.cut(dim, end - trimmed..end)
    }

    /// The one deactivation path. `trim` is a prefix or a suffix of
    /// `dim`'s live entries — all of them beyond the cut's bound, the
    /// column being sorted — so their mask bits are cleared and they
    /// leave the column; every other column counts the newly
    /// deactivated rows as stale, and any column whose live entries are
    /// now more than half stale is compacted.
    fn cut(&mut self, dim: usize, trim: Range<usize>) -> usize {
        let col = &mut self.cols[dim];
        let mut removed = 0;
        for &row in &col.rows[trim.clone()] {
            removed += usize::from(std::mem::replace(&mut self.active[row as usize], false));
        }
        col.stale -= trim.len() - removed;
        if trim.start == col.lo {
            col.lo = trim.end;
        } else {
            col.rows.truncate(trim.start);
        }
        if removed > 0 {
            self.n_active -= removed;
            for (j, col) in self.cols.iter_mut().enumerate() {
                if j != dim {
                    col.stale += removed;
                }
                if 2 * col.stale > col.live().len() {
                    col.compact(&self.active);
                }
            }
        }
        removed
    }
}

/// Order-preserving bit mapping: `ord_key(a) < ord_key(b)` iff
/// `a.total_cmp(&b) == Less` (sign-magnitude flip, the same order
/// `f64::total_cmp` implements).
///
/// Public so out-of-core sorted-run producers (`reds-stream`) key their
/// spill records with **exactly** the order `SortedView` sorts by — the
/// k-way merge of chunk runs is then bit-identical to the in-memory
/// argsort.
#[inline]
pub fn ord_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`ord_key`]: recovers the exact `f64` bits a key was
/// built from (the mapping is a bijection on the 64-bit space).
///
/// Out-of-core column readers rely on this: a `(key, row)` record
/// carries the value itself, so sorted-column scans never need to
/// touch the row-major point pages.
#[inline]
pub fn ord_key_inverse(key: u64) -> f64 {
    let b = if key & (1 << 63) != 0 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(b)
}

/// Stable radix argsort: returns the row ids `0..n` ordered by
/// `(key(row), row)`.
///
/// The sort carries `(top 32 bits of the key, row)` pairs, packed in
/// one `u64` each. One sequential pass calls `key` for every row and
/// builds the histograms of all four 8-bit digits of the top half;
/// an LSD pass then runs for each digit on which the keys differ.
/// Each run of equal top halves leaves those passes in row order,
/// and a fix-up orders it by the low 32 bits, calling `key` again for
/// its rows only. For [`ord_key`]s of `f64`s, the top half holds the
/// sign, the exponent and 20 mantissa bits, so runs are rare on
/// continuous data, and on heavily tied data they are already in
/// order. On a uniform `[0, 1)` column of 10⁵ rows all four passes
/// run; three when no value lies below 2⁻¹⁵, whose keys alone differ
/// in the top byte. Scratch is 16 bytes per row while the passes run,
/// and 12 with the returned ids; a fix-up of a run takes it from the
/// same 16.
///
/// Public so chunk-local run sorting (`reds-stream`) shares the exact
/// ordering (and tie-breaking) of [`SortedView::new`].
///
/// # Panics
///
/// Panics when `n` exceeds `u32::MAX`.
pub fn argsort_stable(n: usize, key: impl Fn(usize) -> u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "too many rows for u32 row ids");
    if n < 64 {
        // Radix setup costs more than a small comparison sort.
        let mut pairs: Vec<(u64, u32)> = (0..n).map(|i| (key(i), i as u32)).collect();
        pairs.sort_unstable();
        return pairs.iter().map(|&(_, row)| row).collect();
    }
    let mut hist = [[0usize; 256]; 4];
    let mut pairs: Vec<u64> = (0..n)
        .map(|i| {
            let top = key(i) >> 32;
            for (digit, h) in hist.iter_mut().enumerate() {
                h[((top >> (8 * digit)) & 255) as usize] += 1;
            }
            (top << 32) | i as u64
        })
        .collect();
    let mut tmp = vec![0u64; n];
    for (digit, h) in hist.iter().enumerate() {
        if h.contains(&n) {
            continue; // every key shares this digit — nothing to reorder
        }
        let shift = 32 + 8 * digit;
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for (o, &count) in offsets.iter_mut().zip(h) {
            *o = acc;
            acc += count;
        }
        for &p in &pairs {
            let bucket = ((p >> shift) & 255) as usize;
            tmp[offsets[bucket]] = p;
            offsets[bucket] += 1;
        }
        std::mem::swap(&mut pairs, &mut tmp);
    }
    for run in pairs.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            order_by_low_half(run, &mut tmp[..run.len()], &key);
        }
    }
    drop(tmp);
    pairs.iter().map(|&p| p as u32).collect()
}

/// The fix-up of [`argsort_stable`]: `run` holds pairs of one top half
/// in row order; reorders them by `(low half, row)`, with `scratch` of
/// the same length.
fn order_by_low_half(run: &mut [u64], scratch: &mut [u64], key: &impl Fn(usize) -> u64) {
    const LOW: u64 = 0xFFFF_FFFF;
    for (s, &p) in scratch.iter_mut().zip(run.iter()) {
        *s = (key((p & LOW) as usize) << 32) | (p & LOW);
    }
    if scratch.is_sorted() {
        return; // ties, or already in order
    }
    scratch.sort_unstable();
    let top = run[0] & !LOW;
    for (p, &s) in run.iter_mut().zip(scratch.iter()) {
        *p = top | (s & LOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ord_key_round_trips_exact_bits() {
        for v in [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            let back = ord_key_inverse(ord_key(v));
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn ord_key_matches_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(ord_key(a).cmp(&ord_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    /// The comparison oracle: rows by `(value.total_cmp, row id)`.
    fn oracle(vals: &[f64]) -> Vec<u32> {
        let mut rows: Vec<u32> = (0..vals.len() as u32).collect();
        rows.sort_by(|&a, &b| {
            vals[a as usize]
                .total_cmp(&vals[b as usize])
                .then(a.cmp(&b))
        });
        rows
    }

    /// Columns that stress each part of the sort, `n` rows each.
    fn sort_cases(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        // 0.75 has zero low bits, so up to 2³² neighbours above it share
        // its top half; rows hold them in descending low-half order.
        let near = |base: f64, k: usize| f64::from_bits(base.to_bits() + k as u64);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 3.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1e-5, // below 2⁻¹⁵
            2f64.powi(-16),
            3e-10,
            -2e-7,
        ];
        vec![
            (
                "ties mod 83",
                (0..n).map(|i| ((i * 7919) % 83) as f64 / 83.0).collect(),
            ),
            (
                "shared top half, descending low half",
                (0..n).map(|i| near(0.75, n - i)).collect(),
            ),
            (
                "interleaved neighbour runs",
                (0..n)
                    .map(|i| near([0.75, -0.75, 3.0][i % 3], (n - i) * 7 % 101))
                    .collect(),
            ),
            (
                "specials among uniforms",
                (0..n)
                    .map(|i| {
                        if i % 3 == 0 {
                            specials[i / 3 % specials.len()]
                        } else {
                            rng.gen()
                        }
                    })
                    .collect(),
            ),
            (
                "specials only",
                (0..n).map(|i| specials[(i * 5) % specials.len()]).collect(),
            ),
            (
                "heavy ties",
                (0..n)
                    .map(|_| [0.1, 0.2, 0.3][rng.gen_range(0..3usize)])
                    .collect(),
            ),
            ("all equal", vec![0.625; n]),
            ("uniform", (0..n).map(|_| rng.gen()).collect()),
        ]
    }

    #[test]
    fn radix_argsort_matches_comparison_sort() {
        for n in [0, 1, 2, 63, 64, 65, 500, 4099] {
            for (name, vals) in sort_cases(n, n as u64) {
                let radix = argsort_stable(vals.len(), |i| ord_key(vals[i]));
                assert_eq!(radix, oracle(&vals), "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn sorted_view_matches_the_comparison_oracle() {
        let n = 10_000;
        let cases = sort_cases(n, 9);
        let m = cases.len();
        let mut points = vec![0.0; n * m];
        for (j, (_, vals)) in cases.iter().enumerate() {
            for (i, &v) in vals.iter().enumerate() {
                points[i * m + j] = v;
            }
        }
        let d = Dataset::new(points, vec![0.0; n], m).unwrap();
        let v = SortedView::new(&d);
        for (j, (name, vals)) in cases.iter().enumerate() {
            assert_eq!(v.column(j), &oracle(vals)[..], "{name}");
        }
    }

    fn toy() -> Dataset {
        // Column 0: 3 1 2 1 0 ; column 1: 5 4 3 2 1
        Dataset::new(
            vec![3.0, 5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0, 1.0, 0.0],
            2,
        )
        .unwrap()
    }

    fn active(v: &SortedView, j: usize) -> Vec<u32> {
        let live = v.column(j).iter().copied();
        live.filter(|&row| v.is_active(row as usize)).collect()
    }

    #[test]
    fn columns_are_sorted_with_ties_by_row() {
        let d = toy();
        let v = SortedView::new(&d);
        assert_eq!(v.column(0), &[4, 1, 3, 2, 0]); // values 0 1 1 2 3, tie 1@rows{1,3}
        assert_eq!(v.column(1), &[4, 3, 2, 1, 0]);
        assert_eq!(v.n_active(), 5);
        assert_eq!(v.m(), 2);
    }

    #[test]
    fn low_cut_removes_the_strict_prefix() {
        let d = toy();
        let mut v = SortedView::new(&d);
        // Lower bound 1.0 on dim 0: only row 4 (value 0) goes.
        assert_eq!(v.retain_at_least(&d, 0, 1.0), 1);
        assert_eq!(v.n_active(), 4);
        assert!(!v.is_active(4));
        assert_eq!(v.column(0), &[1, 3, 2, 0]); // trimmed
        assert_eq!(active(&v, 1), &[3, 2, 1, 0]);
        assert_eq!(v.column(1), &[4, 3, 2, 1, 0]); // 1 stale of 5: kept
    }

    #[test]
    fn high_cut_removes_the_strict_suffix() {
        let d = toy();
        let mut v = SortedView::new(&d);
        assert_eq!(v.retain_at_most(&d, 1, 3.0), 2); // rows 0 (5) and 1 (4)
        assert_eq!(v.n_active(), 3);
        assert_eq!(active(&v, 0), &[4, 3, 2]);
    }

    #[test]
    fn ties_at_the_bound_survive() {
        let d = Dataset::new(vec![1.0, 1.0, 1.0, 2.0, 3.0], vec![0.0; 5], 1).unwrap();
        let mut v = SortedView::new(&d);
        assert_eq!(v.retain_at_least(&d, 0, 1.0), 0); // nothing strictly below
        assert_eq!(v.n_active(), 5);
        assert_eq!(v.retain_at_most(&d, 0, 1.0), 2);
        assert_eq!(active(&v, 0), &[0, 1, 2]);
    }

    #[test]
    fn repeated_cuts_compose() {
        let d = toy();
        let mut v = SortedView::new(&d);
        v.retain_at_least(&d, 0, 1.0);
        v.retain_at_most(&d, 1, 3.0);
        // Survivors: rows with x0 >= 1 and x1 <= 3 -> rows 2, 3.
        assert_eq!(v.n_active(), 2);
        assert_eq!(active(&v, 0), &[3, 2]);
        assert_eq!(active(&v, 1), &[3, 2]);
        // Exactly half of column 0's live entries are stale: kept.
        assert_eq!(v.column(0), &[1, 3, 2, 0]);
        assert_eq!(v.clone().into_columns(), vec![vec![3, 2], vec![3, 2]]);
        // One more stale entry tips it over: compacted.
        assert_eq!(v.retain_at_most(&d, 1, 2.0), 1); // row 2 (3)
        assert_eq!(v.column(0), &[3]);
    }

    #[test]
    fn presorted_columns_reconstruct_the_view() {
        let d = toy();
        let reference = SortedView::new(&d);
        let rebuilt = SortedView::from_presorted_columns(reference.clone().into_columns(), d.n())
            .expect("valid");
        assert_eq!(rebuilt.column(0), reference.column(0));
        assert_eq!(rebuilt.column(1), reference.column(1));
        assert_eq!(rebuilt.n_active(), d.n());
        // Cuts behave identically on the rebuilt view.
        let mut a = reference.clone();
        let mut b = rebuilt;
        assert_eq!(a.retain_at_least(&d, 0, 1.0), b.retain_at_least(&d, 0, 1.0));
        assert_eq!(active(&a, 1), active(&b, 1));
    }

    #[test]
    fn invalid_presorted_columns_are_rejected() {
        // Wrong length.
        assert!(matches!(
            SortedView::from_presorted_columns(vec![vec![0, 1]], 3),
            Err(DataError::NotAPermutation { column: 0 })
        ));
        // Duplicate id (second column).
        assert!(matches!(
            SortedView::from_presorted_columns(vec![vec![0, 1, 2], vec![0, 0, 2]], 3),
            Err(DataError::NotAPermutation { column: 1 })
        ));
        // Out-of-range id.
        assert!(matches!(
            SortedView::from_presorted_columns(vec![vec![0, 3, 2]], 3),
            Err(DataError::NotAPermutation { column: 0 })
        ));
        // Empty is fine.
        assert!(SortedView::from_presorted_columns(vec![Vec::new()], 0).is_ok());
    }

    #[test]
    fn empty_dataset_yields_empty_view() {
        let d = Dataset::empty(2).unwrap();
        let v = SortedView::new(&d);
        assert_eq!(v.n_active(), 0);
        assert!(v.column(0).is_empty());
    }
}
