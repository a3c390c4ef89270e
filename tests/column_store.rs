//! The one sorted-column store against an eager oracle.
//!
//! Both pool backings run the search of `reds_data`'s store; they
//! differ only in how they read a page. So the oracle shares no code
//! with the store: each column is argsorted afresh with a comparison
//! sort, and a `Vec<bool>` mask takes every cut directly. Seeded cut
//! sequences run over the in-memory `ViewAccess` and over `OocPool` at
//! page sizes 1, 3 and 64 with a cache below one page, and after every
//! cut each store must match the oracle bit for bit: the rows removed,
//! the active count and rows, the active label sum and the label sum of
//! given rows, full and early-stopping scans from both ends, and the
//! column point scan.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::data::{ColumnAccess, Dataset, SortedView, ViewAccess};
use reds_ooc::{OocConfig, OocPool};
use reds_stream::{PoolBuilder, StreamConfig};

/// The eager reference: the columns argsorted afresh by
/// `(value, row)`, filtered through a mask that each cut updates
/// directly.
struct Eager<'a> {
    d: &'a Dataset,
    cols: Vec<Vec<u32>>,
    active: Vec<bool>,
}

impl<'a> Eager<'a> {
    fn new(d: &'a Dataset) -> Self {
        let cols = (0..d.m())
            .map(|j| {
                let mut rows: Vec<u32> = (0..d.n() as u32).collect();
                rows.sort_by(|&a, &b| {
                    let (va, vb) = (d.value(a as usize, j), d.value(b as usize, j));
                    va.total_cmp(&vb).then(a.cmp(&b))
                });
                rows
            })
            .collect();
        Self {
            d,
            cols,
            active: vec![true; d.n()],
        }
    }

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

    /// The labels of `rows`, summed in order from −0.0.
    fn label_sum(&self, rows: impl Iterator<Item = u32>) -> f64 {
        rows.fold(-0.0, |sum, row| sum + self.d.label(row as usize))
    }
}

/// `(value bits, row)` of the first `take` entries a scan hands out.
fn scan(a: &mut dyn ColumnAccess, dim: usize, back: bool, take: usize) -> Vec<(u64, u32)> {
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

/// Checks `a` against the oracle; `takes` are the lengths of the
/// early-stopping scans, one per dimension, and `points` the dimension
/// whose column point scan is checked, if any.
fn assert_matches(
    a: &mut dyn ColumnAccess,
    eager: &Eager<'_>,
    takes: &[usize],
    points: Option<usize>,
    what: &str,
) {
    let d = eager.d;
    let n_active = eager.active.iter().filter(|&&on| on).count();
    assert_eq!(a.n_active(), n_active, "{what}: n_active");
    for (row, &on) in eager.active.iter().enumerate() {
        assert_eq!(a.is_active(row as u32), on, "{what}: row {row}");
    }
    let want = eager.label_sum((0..d.n() as u32).filter(|&row| eager.active[row as usize]));
    assert_eq!(
        a.active_label_sum().to_bits(),
        want.to_bits(),
        "{what}: active label sum"
    );
    for (dim, &take) in takes.iter().enumerate() {
        let want = eager.entries(dim);
        let back: Vec<_> = want.iter().rev().copied().collect();
        assert_eq!(scan(a, dim, false, usize::MAX), want, "{what}: front {dim}");
        assert_eq!(scan(a, dim, true, usize::MAX), back, "{what}: back {dim}");
        // Scans that stop early, inside and across gather blocks and
        // pages.
        let front = scan(a, dim, false, take);
        assert_eq!(front, want[..take.min(want.len())], "{what}: front {dim}");
        let tail = scan(a, dim, true, take);
        assert_eq!(tail, back[..take.min(back.len())], "{what}: back {dim}");
        // The labels of the rows a scan handed out, as PRIM sums them.
        let rows: Vec<u32> = front.iter().chain(&tail).map(|&(_, row)| row).collect();
        assert_eq!(
            a.label_sum(&rows).to_bits(),
            eager.label_sum(rows.iter().copied()).to_bits(),
            "{what}: label sum {dim}"
        );
        if points != Some(dim) {
            continue;
        }
        let mut seen = Vec::new();
        a.scan_column_points(dim, &mut |v, row, point, label| {
            assert_eq!(point, d.point(row as usize), "{what}: point of row {row}");
            seen.push((v.to_bits(), row, label.to_bits()));
        });
        let want: Vec<_> = want
            .iter()
            .map(|&(v, row)| (v, row, d.label(row as usize).to_bits()))
            .collect();
        assert_eq!(seen, want, "{what}: column points {dim}");
    }
}

/// A pool with ties, ±0.0, a few-valued column, and probability labels
/// (so the summation order shows in the bits).
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reds-column-store-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `d` as a pool artifact paged at `page_rows` records, and
/// opens it with a cache below one page of any kind.
fn paged(d: &Dataset, dir: &Path, page_rows: u32) -> OocPool {
    let path = dir.join(format!("pool-{page_rows}.redsart"));
    let mut b = PoolBuilder::new(d.m(), &StreamConfig::new()).unwrap();
    b.push_chunk(d.points(), d.labels()).unwrap();
    b.finish_art(&path, page_rows).unwrap();
    OocPool::open(&path, &OocConfig::new().with_cache_bytes(4)).unwrap()
}

/// Runs `cuts` cuts drawn from `rng` over the in-memory store and the
/// paged ones at `page_sizes`, comparing each with the oracle after
/// every cut; `dims` picks the cut dimension.
fn run_cuts(
    tag: &str,
    d: &Dataset,
    mut rng: StdRng,
    cuts: usize,
    page_sizes: &[u32],
    mut dims: impl FnMut(&mut StdRng) -> usize,
) {
    let dir = scratch_dir(tag);
    let mut stores: Vec<(String, Box<dyn ColumnAccess + '_>)> = vec![(
        "in memory".into(),
        Box::new(ViewAccess::new(d, SortedView::new(d))),
    )];
    for &page_rows in page_sizes {
        let pool = paged(d, &dir, page_rows);
        stores.push((format!("paged at {page_rows}"), Box::new(pool)));
    }
    let mut eager = Eager::new(d);
    for step in 0..cuts {
        let dim = dims(&mut rng);
        let below = rng.gen_bool(0.5);
        let entries = eager.entries(dim);
        if entries.is_empty() {
            break;
        }
        // A bound at a small random rank from the cut's end, now and
        // then one that removes nothing.
        let rank = rng.gen_range(0..entries.len().min(d.n() / 20 + 2));
        let at = if below {
            rank
        } else {
            entries.len() - 1 - rank
        };
        let bound = f64::from_bits(entries[at].0);
        let removed = eager.cut(dim, below, bound);
        let takes: Vec<usize> = (0..d.m())
            .map(|j| rng.gen_range(1..=eager.entries(j).len().max(1)))
            .collect();
        // Every tenth cut, the point scan of the column just cut.
        let points = (step % 10 == 9).then_some(dim);
        for (name, store) in &mut stores {
            let what = format!("{tag}, {name}, cut {step}");
            let got = if below {
                store.deactivate_below(dim, bound)
            } else {
                store.deactivate_above(dim, bound)
            };
            assert_eq!(got, removed, "{what}: removed");
            assert_matches(store.as_mut(), &eager, &takes, points, &what);
        }
    }
    drop(stores);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_cut_sequences_match_the_eager_reference() {
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 64 + 97 * seed as usize;
        let d = random_pool(&mut rng, n, 4);
        run_cuts(&format!("seed {seed}"), &d, rng, 60, &[1, 3, 64], |rng| {
            rng.gen_range(0..4)
        });
    }
}

/// Cuts on one input only, as PRIM makes when one input carries the
/// concept: the other columns gather inactive rows all along.
#[test]
fn cuts_on_one_dimension_match_the_eager_reference() {
    let mut rng = StdRng::seed_from_u64(99);
    let d = random_pool(&mut rng, 3000, 4);
    run_cuts("one dimension", &d, rng, 80, &[3, 64], |_| 0);
}

/// A pool larger than one in-memory page whose second column is the
/// first reversed: peeling the first from both ends deactivates whole
/// pages at the ends of the second, so scans of it skip dead pages and
/// its cuts pass them by their fences.
#[test]
fn dead_pages_are_skipped_and_passed_by_their_fences() {
    let n = 3 * 4096 + 100;
    let mut rng = StdRng::seed_from_u64(7);
    let mut points = Vec::with_capacity(3 * n);
    for _ in 0..n {
        let x: f64 = rng.gen();
        points.extend([x, -x, (x * 7.0).floor()]);
    }
    let labels = (0..n).map(|_| rng.gen::<f64>()).collect();
    let d = Dataset::new(points, labels, 3).unwrap();
    let mut dims = [0, 0, 0, 0, 0, 0, 1, 1, 2, 1].into_iter().cycle();
    run_cuts("dead pages", &d, rng, 60, &[64], move |_| {
        dims.next().unwrap()
    });
}
