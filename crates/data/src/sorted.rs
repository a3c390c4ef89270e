//! Presorted columnar index over a [`Dataset`].
//!
//! The paper's §7 complexity analysis assumes every input dimension is
//! sorted **once** — `O(M·N log N)` — after which each PRIM peeling step
//! touches each surviving point a constant number of times, for
//! `O(M·N/α)` total peeling work. [`SortedView`] is that sort: one
//! argsorted row-id array per dimension. The search over it (the active
//! rows, the cuts and the scans) is the sorted-column store that
//! [`ViewAccess`](crate::ViewAccess) runs over the view's columns.
//!
//! Ordering is total and deterministic: rows are sorted by
//! `(value, row id)` (`f64::total_cmp` then index). Consumers that sum
//! labels in column order therefore produce **bit-identical** floating
//! point results to a reference that sorts fresh `(value, row)` pairs
//! with the same key — the property the `naive`-vs-optimized
//! equivalence tests rely on.

use crate::{DataError, Dataset};

/// Per-dimension argsorted row indices, built once in `O(M·N log N)`.
///
/// The view stores row *indices only*; callers pass the owning
/// [`Dataset`] back in when values are needed.
#[derive(Debug, Clone)]
pub struct SortedView {
    /// Row ids of each dimension, sorted by `(value, row)`.
    cols: Vec<Vec<u32>>,
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
            .map(|j| argsort_stable(n, |i| ord_key(d.value(i, j))))
            .collect();
        Self { cols }
    }

    /// Builds the index from externally presorted columns, such as
    /// `covering`'s: each round filters one full argsort down to the
    /// rows still uncovered instead of sorting them again.
    ///
    /// `cols[j]` must list **every** row id `0..n` exactly once, in
    /// ascending `(value_j, row id)` order. The permutation property is
    /// validated (`O(M·n)`); the sort order itself is the caller's
    /// contract, which is not checked against the values.
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
        Ok(Self { cols })
    }

    /// Number of dimensions indexed.
    pub fn m(&self) -> usize {
        self.cols.len()
    }

    /// Every row id of dimension `j`, sorted ascending by
    /// `(value, row id)`.
    pub fn column(&self, j: usize) -> &[u32] {
        &self.cols[j]
    }

    /// Consumes the view, returning every column's sorted row ids — for
    /// consumers that own the argsort from here on and want to avoid
    /// copying it.
    pub fn into_columns(self) -> Vec<Vec<u32>> {
        self.cols
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

    #[test]
    fn columns_are_sorted_with_ties_by_row() {
        let d = toy();
        let v = SortedView::new(&d);
        assert_eq!(v.column(0), &[4, 1, 3, 2, 0]); // values 0 1 1 2 3, tie 1@rows{1,3}
        assert_eq!(v.column(1), &[4, 3, 2, 1, 0]);
        assert_eq!(v.m(), 2);
    }

    #[test]
    fn presorted_columns_reconstruct_the_view() {
        let d = toy();
        let reference = SortedView::new(&d);
        let rebuilt = SortedView::from_presorted_columns(reference.clone().into_columns(), d.n())
            .expect("valid");
        assert_eq!(rebuilt.column(0), reference.column(0));
        assert_eq!(rebuilt.column(1), reference.column(1));
        assert_eq!(rebuilt.m(), reference.m());
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
        assert_eq!(v.m(), 2);
        assert!(v.column(0).is_empty());
    }
}
