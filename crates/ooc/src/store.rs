//! [`OocPool`]: the paged source of the sorted-column store.
//!
//! Opens a `.redsart` pool artifact (streaming-verified, then read by
//! position), decodes its DATASET and COLUMN headers with the decoders
//! `reds-art`'s in-memory reader uses, validates that every column is
//! fully merged and carries a page index, and reads the store's pages
//! from it: rank `r` of a column lives in record page `r / page_rows`
//! at a fixed byte offset, one `pread` away, and each page's min/max
//! fences come from the artifact's page index. The search itself —
//! watermarks, dead pages, the resident bitset — is `reds-data`'s, the
//! one the in-memory [`ViewAccess`](reds_data::ViewAccess) runs, so
//! every visit order matches it exactly; the equivalence tests drive
//! both through identical cut sequences and require bit-identical
//! observations.

use std::ops::Range;
use std::path::Path;
use std::rc::Rc;

use reds_art::{
    ArtScan, ColumnHeader, DatasetHeader, PageIndex, ScanSection, SECTION_COLUMN, SECTION_DATASET,
    SECTION_PAGE_INDEX,
};
use reds_data::{ord_key_inverse, ActiveSet, ColumnAccess, PageSource};

use crate::cache::{Page, PageCache, Rec};
use crate::{OocConfig, OocError};

/// Why a read that passed full verification at open time can still be
/// trusted to succeed: the only failures left are catastrophic
/// filesystem ones, which have no better answer than stopping.
const READ_EXPECT: &str = "verified pool artifact became unreadable mid-search";

/// Cache / I/O counters of an [`OocPool`], for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocStats {
    /// Page fetches served from the cache.
    pub cache_hits: u64,
    /// Page fetches that went to disk.
    pub cache_misses: u64,
    /// Pages dropped from the cache to make room for a miss.
    pub evictions: u64,
    /// Bytes the misses read from the artifact with `pread`: 12 per
    /// column record, 8 per label and `8·m` per point.
    pub bytes_read: u64,
}

/// Scratch of [`OocPool`]'s [`PageSource::sum_labels`], kept between
/// calls.
#[derive(Default)]
struct LabelGather {
    /// Per label page: the call's rows in it, then the end of its
    /// bucket in `order`. All zero between calls.
    fill: Vec<u32>,
    /// The label pages the call touches, in order of first touch.
    pages: Vec<u32>,
    /// Positions in the call's rows, bucketed by label page.
    order: Vec<u32>,
    /// The label at each position.
    labels: Vec<f64>,
}

/// An out-of-core pool: [`ColumnAccess`] served from a verified
/// `.redsart` artifact through a budgeted page cache, with a resident
/// membership bitset. See the [crate docs](crate).
pub struct OocPool {
    scan: ArtScan,
    n: usize,
    m: usize,
    page_rows: usize,
    /// Pages per column, and of the label and point arrays.
    col_pages: usize,
    points_off: u64,
    labels_off: u64,
    /// Absolute file offset of each column's first 12-byte record.
    records_off: Vec<u64>,
    /// Each column's per-page (min value, max value) fences.
    fences: Vec<Vec<(f64, f64)>>,
    cache: PageCache,
    active: ActiveSet,
    bytes_read: u64,
    gather: LabelGather,
}

/// `OocPool` is a [`ColumnAccess`] store through `reds-data`'s one
/// impl for every [`PageSource`].
const _: fn(&mut OocPool) -> &mut dyn ColumnAccess = |pool| pool;

fn unsupported(msg: impl Into<String>) -> OocError {
    OocError::Unsupported(msg.into())
}

impl OocPool {
    /// Opens and validates a pool artifact written by
    /// `reds_stream::PoolBuilder::finish_art` or `finish_scratch_art`
    /// (the same bytes), with every row active.
    pub fn open(path: &Path, cfg: &OocConfig) -> Result<Self, OocError> {
        let scan = ArtScan::open(path)?;
        let mut dataset: Option<ScanSection> = None;
        let mut col_secs: Vec<ScanSection> = Vec::new();
        let mut idx_secs: Vec<ScanSection> = Vec::new();
        for &s in scan.sections() {
            match s.kind {
                SECTION_DATASET if dataset.is_none() => dataset = Some(s),
                SECTION_DATASET => return Err(unsupported("multiple dataset sections")),
                SECTION_COLUMN => col_secs.push(s),
                SECTION_PAGE_INDEX => idx_secs.push(s),
                _ => {}
            }
        }
        let dataset = dataset.ok_or_else(|| unsupported("no dataset section"))?;
        let head = DatasetHeader::read(dataset.len, |at, buf| {
            scan.read_exact_at(buf, dataset.offset + at)
        })?;
        let (n, m) = (head.n(), head.m());
        if n == 0 || m == 0 {
            return Err(unsupported(format!(
                "dataset section holds an n = {n}, m = {m} pool"
            )));
        }
        let points_off = dataset.offset + DatasetHeader::LEN as u64;
        let labels_off = dataset.offset + head.labels_at();

        // Columns: exactly one fully merged section per dimension.
        let mut records: Vec<Option<u64>> = vec![None; m];
        for s in &col_secs {
            let head = ColumnHeader::read(s.len, |at, buf| scan.read_exact_at(buf, s.offset + at))?;
            let col = head.column();
            if col >= m {
                return Err(unsupported(format!("column {col} of an m = {m} pool")));
            }
            if head.runs().len() != 1 {
                return Err(unsupported(format!(
                    "column {col} holds {} runs; the out-of-core store needs fully \
                     merged (rank-addressable) columns",
                    head.runs().len()
                )));
            }
            if head.n_rows() != n {
                return Err(unsupported(format!(
                    "column {col} sorts {} rows, dataset has {n}",
                    head.n_rows()
                )));
            }
            if records[col].replace(s.offset + head.records_at()).is_some() {
                return Err(unsupported(format!("column {col} appears twice")));
            }
        }

        // Page indexes: one per column, all at the same page size.
        let mut indexes: Vec<Option<PageIndex>> = (0..m).map(|_| None).collect();
        let mut page_rows: Option<u32> = None;
        for s in &idx_secs {
            let mut payload = vec![0u8; s.len as usize];
            scan.read_exact_at(&mut payload, s.offset)?;
            let idx = PageIndex::parse(&payload)?;
            let col = idx.column as usize;
            if col >= m {
                return Err(unsupported(format!(
                    "page index for column {col} of m = {m}"
                )));
            }
            if *page_rows.get_or_insert(idx.page_rows) != idx.page_rows {
                return Err(unsupported("columns are paged at different page sizes"));
            }
            if idx.fences.len() != n.div_ceil(idx.page_rows as usize) {
                return Err(unsupported(format!(
                    "column {col} page index covers {} pages of {} rows for an n = {n} pool",
                    idx.fences.len(),
                    idx.page_rows
                )));
            }
            if indexes[col].replace(idx).is_some() {
                return Err(unsupported(format!("column {col} has two page indexes")));
            }
        }
        let page_rows =
            page_rows.ok_or_else(|| unsupported("artifact has no page indexes"))? as usize;
        let col_pages = n.div_ceil(page_rows);

        let mut records_off = Vec::with_capacity(m);
        let mut fences = Vec::with_capacity(m);
        for (col, (off, idx)) in records.into_iter().zip(indexes).enumerate() {
            records_off.push(
                off.ok_or_else(|| unsupported(format!("column {col} has no column section")))?,
            );
            let idx = idx.ok_or_else(|| unsupported(format!("column {col} has no page index")))?;
            fences.push(
                idx.fences
                    .iter()
                    .map(|&(lo, hi)| (ord_key_inverse(lo), ord_key_inverse(hi)))
                    .collect(),
            );
        }

        Ok(Self {
            scan,
            n,
            m,
            page_rows,
            col_pages,
            points_off,
            labels_off,
            records_off,
            fences,
            // Sized from the validated page indexes, which already hold
            // `m·col_pages` fences of 16 bytes each.
            cache: PageCache::new(cfg.cache_bytes, (m + 2) * col_pages),
            active: ActiveSet::new(n, m, page_rows),
            bytes_read: 0,
            gather: LabelGather {
                fill: vec![0; col_pages],
                ..LabelGather::default()
            },
        })
    }

    /// Records per page (the artifact's page-index granularity).
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Cache counters.
    pub fn stats(&self) -> OocStats {
        OocStats {
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            evictions: self.cache.evictions,
            bytes_read: self.bytes_read,
        }
    }

    /// Cache page `id`, read from disk on a miss. Ids are dense: column
    /// `c`'s record pages are `c·col_pages..(c+1)·col_pages`, then come
    /// the label pages, then the point pages.
    fn page(&mut self, id: usize) -> &Page {
        let slot = match self.cache.get(id) {
            Some(slot) => slot,
            None => {
                let page = self.read_page(id);
                self.cache.insert(id, page)
            }
        };
        self.cache.page(slot)
    }

    fn read_page(&mut self, id: usize) -> Page {
        let (array, page) = (id / self.col_pages, id % self.col_pages);
        let base = page * self.page_rows;
        let rows = self.page_rows.min(self.n - base);
        // Bytes per row and where the array starts: a column's 12-byte
        // records, the labels, or the packed points.
        let (width, start) = match array {
            c if c < self.m => (12, self.records_off[c]),
            c if c == self.m => (8, self.labels_off),
            _ => (8 * self.m, self.points_off),
        };
        let mut buf = vec![0u8; rows * width];
        self.scan
            .read_exact_at(&mut buf, start + (base * width) as u64)
            .expect(READ_EXPECT);
        self.bytes_read += buf.len() as u64;
        let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        if array < self.m {
            Page::Records(
                buf.chunks_exact(12)
                    .map(|r| Rec {
                        value: ord_key_inverse(word(r)),
                        row: u32::from_le_bytes(r[8..12].try_into().expect("4 bytes")),
                    })
                    .collect(),
            )
        } else {
            Page::Floats(
                buf.chunks_exact(8)
                    .map(|b| f64::from_bits(word(b)))
                    .collect(),
            )
        }
    }

    fn labels_id(&self, page: usize) -> usize {
        self.m * self.col_pages + page
    }

    /// The page of `array` (`m`: the labels, `m + 1`: the points) that
    /// holds `row`, and the rows it holds.
    fn row_page(&mut self, array: usize, row: usize) -> (Rc<[f64]>, Range<usize>) {
        let page = row / self.page_rows;
        let start = page * self.page_rows;
        let floats = self.page(array * self.col_pages + page).floats().clone();
        (floats, start..(start + self.page_rows).min(self.n))
    }
}

impl PageSource for OocPool {
    type Entry = Rec;
    type Page = Rc<[Rec]>;
    type Floats = Rc<[f64]>;

    fn active(&self) -> &ActiveSet {
        &self.active
    }

    fn active_mut(&mut self) -> &mut ActiveSet {
        &mut self.active
    }

    fn column_page(&mut self, dim: usize, page: usize) -> Rc<[Rec]> {
        self.page(dim * self.col_pages + page).records().clone()
    }

    fn entry_row(entry: Rec) -> u32 {
        entry.row
    }

    fn entry_value(&self, _dim: usize, entry: Rec) -> f64 {
        entry.value
    }

    fn fences(&self, dim: usize, page: usize) -> (f64, f64) {
        self.fences[dim][page]
    }

    fn labels_at(&mut self, row: usize) -> (Rc<[f64]>, Range<usize>) {
        self.row_page(self.m, row)
    }

    fn points_at(&mut self, row: usize) -> (Rc<[f64]>, Range<usize>) {
        self.row_page(self.m + 1, row)
    }

    fn sum_labels(&mut self, rows: &[u32]) -> f64 {
        // The rows are bucketed by label page (a counting sort), so each
        // page is fetched once and read in place; the labels land at
        // their positions and are summed in the given order.
        let page_rows = self.page_rows;
        let mut g = std::mem::take(&mut self.gather);
        for &row in rows {
            let p = row as usize / page_rows;
            if g.fill[p] == 0 {
                g.pages.push(p as u32);
            }
            g.fill[p] += 1;
        }
        let mut end = 0;
        for &p in &g.pages {
            let count = std::mem::replace(&mut g.fill[p as usize], end);
            end += count;
        }
        g.order.resize(rows.len(), 0);
        for (i, &row) in rows.iter().enumerate() {
            let slot = &mut g.fill[row as usize / page_rows];
            g.order[*slot as usize] = i as u32;
            *slot += 1;
        }
        g.labels.resize(rows.len(), 0.0);
        let mut from = 0;
        for &p in &g.pages {
            let to = std::mem::replace(&mut g.fill[p as usize], 0) as usize;
            let base = p as usize * page_rows;
            let labels = self.page(self.labels_id(p as usize)).floats();
            for &i in &g.order[from..to] {
                g.labels[i as usize] = labels[rows[i as usize] as usize - base];
            }
            from = to;
        }
        g.pages.clear();
        let sum = g.labels.iter().fold(-0.0, |sum, &y| sum + y);
        self.gather = g;
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reds_data::{Dataset, SortedView, ViewAccess};
    use reds_stream::{PoolBuilder, StreamConfig};

    /// Values with heavy ties, negatives, and -0.0/0.0 pairs.
    fn demo(n: usize, m: usize) -> Dataset {
        let points: Vec<f64> = (0..n * m)
            .map(|i| match (i * 7919) % 11 {
                0 => -0.0,
                1 => 0.0,
                k => (k as f64 - 5.0) / 3.0,
            })
            .collect();
        let labels: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        Dataset::new(points, labels, m).unwrap()
    }

    fn write_art(d: &Dataset, page_rows: u32, tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reds-ooc-store-{}-{tag}-{page_rows}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        let mut b = PoolBuilder::new(d.m(), &StreamConfig::new()).unwrap();
        // Odd chunking on purpose — merged order must not depend on it.
        let mut row = 0;
        while row < d.n() {
            let take = 17.min(d.n() - row);
            b.push_chunk(
                &d.points()[row * d.m()..(row + take) * d.m()],
                &d.labels()[row..row + take],
            )
            .unwrap();
            row += take;
        }
        b.finish_art(&path, page_rows).unwrap();
        path
    }

    fn front(a: &mut dyn ColumnAccess, dim: usize) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        a.scan_active_front(dim, &mut |v, r| {
            out.push((v, r));
            true
        });
        out
    }

    fn back(a: &mut dyn ColumnAccess, dim: usize) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        a.scan_active_back(dim, &mut |v, r| {
            out.push((v, r));
            true
        });
        out
    }

    fn assert_same_state(ooc: &mut OocPool, mem: &mut ViewAccess<'_>, what: &str) {
        assert_eq!(ooc.n_active(), mem.n_active(), "{what}: n_active");
        assert_eq!(
            ooc.active_label_sum().to_bits(),
            mem.active_label_sum().to_bits(),
            "{what}: label sum"
        );
        for row in 0..ooc.n_rows() as u32 {
            assert_eq!(ooc.is_active(row), mem.is_active(row), "{what}: row {row}");
        }
        for dim in 0..ooc.m() {
            assert_eq!(front(ooc, dim), front(mem, dim), "{what}: front dim {dim}");
            assert_eq!(back(ooc, dim), back(mem, dim), "{what}: back dim {dim}");
        }
    }

    #[test]
    fn fresh_pool_matches_view_access_in_every_order() {
        let d = demo(157, 3);
        for page_rows in [1u32, 7, 64, 157, 400] {
            let path = write_art(&d, page_rows, "fresh");
            let mut ooc = OocPool::open(&path, &OocConfig::new()).unwrap();
            let mut mem = ViewAccess::new(&d, SortedView::new(&d));
            assert_eq!(ooc.page_rows(), page_rows as usize);
            assert_same_state(&mut ooc, &mut mem, &format!("page_rows {page_rows}"));
            // scan_rows ignores the mask and hands exact points.
            let mut rows = 0;
            ooc.scan_rows(&mut |row, point, label| {
                assert_eq!(point, d.point(row as usize));
                assert_eq!(label, d.label(row as usize));
                rows += 1;
            });
            assert_eq!(rows, d.n());
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn cut_sequences_match_under_pathological_page_sizes_and_tiny_cache() {
        let d = demo(211, 3);
        let cuts: Vec<(usize, bool, f64)> = vec![
            (0, true, -1.0),
            (1, false, 1.2),
            (0, true, 0.0), // lands on the -0.0 / 0.0 tie boundary
            (2, false, 0.4),
            (1, true, -0.3),
            (0, false, 0.9),
            (2, true, 2.5), // cuts everything below a high bound
        ];
        for page_rows in [1u32, 3, 50, 300] {
            // 256-byte cache: nearly every fetch is a miss — correctness
            // must not depend on residency.
            for cache_bytes in [256usize, 1 << 20] {
                let path = write_art(&d, page_rows, "cuts");
                let cfg = OocConfig::new().with_cache_bytes(cache_bytes);
                let mut ooc = OocPool::open(&path, &cfg).unwrap();
                let mut mem = ViewAccess::new(&d, SortedView::new(&d));
                for (i, &(dim, below, bound)) in cuts.iter().enumerate() {
                    let (a, b) = if below {
                        (
                            ooc.deactivate_below(dim, bound),
                            mem.deactivate_below(dim, bound),
                        )
                    } else {
                        (
                            ooc.deactivate_above(dim, bound),
                            mem.deactivate_above(dim, bound),
                        )
                    };
                    assert_eq!(a, b, "cut {i} removal count (page_rows {page_rows})");
                    assert_same_state(
                        &mut ooc,
                        &mut mem,
                        &format!("after cut {i}, page_rows {page_rows}, cache {cache_bytes}"),
                    );
                }
                std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
            }
        }
    }

    #[test]
    fn column_point_scan_matches_and_serves_full_rows() {
        let d = demo(90, 2);
        let path = write_art(&d, 8, "points");
        let mut ooc = OocPool::open(&path, &OocConfig::new()).unwrap();
        let mut mem = ViewAccess::new(&d, SortedView::new(&d));
        ooc.deactivate_below(0, 0.2);
        mem.deactivate_below(0, 0.2);
        for dim in 0..d.m() {
            let mut got = Vec::new();
            ooc.scan_column_points(dim, &mut |v, row, point, label| {
                got.push((v, row, point.to_vec(), label));
            });
            let mut want = Vec::new();
            mem.scan_column_points(dim, &mut |v, row, point, label| {
                want.push((v, row, point.to_vec(), label));
            });
            assert_eq!(got, want, "dim {dim}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn artifact_without_page_index_is_rejected() {
        // A model artifact has no column/page-index sections at all.
        let d = demo(20, 2);
        let path = write_art(&d, 4, "reject");
        // Truncate the mask requirement instead: open against a file
        // missing page indexes. Build one via ArtWriter without them.
        let dir = path.parent().unwrap();
        let bare = dir.join("bare.redsart");
        {
            let mut w = reds_art::ArtWriter::create(&bare).unwrap();
            w.begin_section(SECTION_DATASET).unwrap();
            w.write(&2u64.to_le_bytes()).unwrap();
            w.write(&1u64.to_le_bytes()).unwrap();
            for v in [0.5f64, 0.25, 1.0, 0.0] {
                w.write(&v.to_bits().to_le_bytes()).unwrap();
            }
            w.end_section().unwrap();
            w.finish().unwrap();
        }
        match OocPool::open(&bare, &OocConfig::new()) {
            Err(OocError::Unsupported(msg)) => {
                assert!(msg.contains("page index"), "got: {msg}")
            }
            Err(other) => panic!("expected Unsupported, got {other:?}"),
            Ok(_) => panic!("expected Unsupported, got a pool"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Copies the pool artifact at `from` to `to` section by section, so
    /// every checksum stays valid, passing each COLUMN payload through
    /// `edit`.
    fn rewrite_columns(from: &Path, to: &Path, edit: impl Fn(&mut Vec<u8>)) {
        let scan = ArtScan::open(from).unwrap();
        let mut w = reds_art::ArtWriter::create(to).unwrap();
        for s in scan.sections() {
            let mut payload = vec![0u8; s.len as usize];
            scan.read_exact_at(&mut payload, s.offset).unwrap();
            if s.kind == SECTION_COLUMN {
                edit(&mut payload);
            }
            w.section(s.kind, &payload).unwrap();
        }
        w.finish().unwrap();
    }

    /// The format requires a zero COLUMN `reserved` word and zero
    /// padding after the records; the paged store refuses a checksummed
    /// artifact breaking either.
    #[test]
    fn column_header_violations_are_refused() {
        use reds_art::ArtError;

        // Odd n: 12·n record bytes end 4 bytes short of an 8-byte
        // boundary, so each column payload ends in 4 padding bytes.
        let d = demo(21, 2);
        let path = write_art(&d, 8, "header-rules");
        let edited = path.with_file_name("edited.redsart");
        // The untouched copy opens, so only the edits are refused.
        rewrite_columns(&path, &edited, |_| {});
        assert!(OocPool::open(&edited, &OocConfig::new()).is_ok());
        let refused = |what: &str| {
            assert!(
                matches!(
                    OocPool::open(&edited, &OocConfig::new()),
                    Err(OocError::Art(ArtError::Corrupt(_)))
                ),
                "OocPool accepted {what}"
            );
        };
        rewrite_columns(&path, &edited, |p| p[4] = 1);
        refused("reserved = 1");
        rewrite_columns(&path, &edited, |p| *p.last_mut().unwrap() = 1);
        refused("nonzero padding");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Writers produce one merged run per column. A column split into
    /// two sorted runs is well-formed (`ColumnHeader` accepts it), but
    /// the store addresses records by rank and refuses it by name.
    #[test]
    fn multi_run_columns_are_unsupported() {
        let d = demo(21, 2);
        let path = write_art(&d, 8, "two-runs");
        let edited = path.with_file_name("edited.redsart");
        // Run count 1 → 2 and the one run length n → (8, n − 8): the run
        // table grows by 8 bytes, so the records and padding only move.
        rewrite_columns(&path, &edited, |p| {
            let n = u64::from_le_bytes(p[8..16].try_into().unwrap());
            let mut split = p[..16].to_vec();
            for word in [2, 8, n - 8] {
                split.extend_from_slice(&u64::to_le_bytes(word));
            }
            split.extend_from_slice(&p[32..]);
            *p = split;
        });
        let scan = ArtScan::open(&edited).unwrap();
        for s in scan.sections().iter().filter(|s| s.kind == SECTION_COLUMN) {
            let head = ColumnHeader::read(s.len, |at, buf| scan.read_exact_at(buf, s.offset + at));
            assert_eq!(head.unwrap().runs(), [8, 13], "the split is well-formed");
        }
        match OocPool::open(&edited, &OocConfig::new()) {
            Err(OocError::Unsupported(msg)) => assert!(msg.contains("holds 2 runs"), "got: {msg}"),
            Err(other) => panic!("expected Unsupported, got {other:?}"),
            Ok(_) => panic!("a two-run column opened"),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn stats_count_evictions_and_the_bytes_each_miss_read() {
        // Five full pages per array: a column record page reads 12 bytes
        // a row, a label page 8 and a point page 8·m.
        let (page_rows, m) = (16, 3);
        let d = demo(5 * page_rows, m);
        let path = write_art(&d, page_rows as u32, "stats");
        let (records, labels) = (12 * page_rows as u64, 8 * page_rows as u64);

        // A cache that holds the whole pool: each page misses once and
        // stays, so nothing is evicted.
        let mut ooc = OocPool::open(&path, &OocConfig::new()).unwrap();
        for _ in 0..2 {
            for dim in 0..m {
                front(&mut ooc, dim);
            }
            ooc.scan_rows(&mut |_, _, _| {});
        }
        let s = ooc.stats();
        assert_eq!(s.cache_misses, 5 * (m as u64 + 2));
        assert_eq!(s.bytes_read, (d.n() * (12 * m + 8 + 8 * m)) as u64);
        assert_eq!(s.evictions, 0);
        assert_eq!(ooc.cache.resident() as u64, s.cache_misses);

        // Room for one record page (16 bytes a row in memory) or two
        // label pages: every operation below reads pages of one kind.
        let cfg = OocConfig::new().with_cache_bytes(2 * 8 * page_rows);
        let mut ooc = OocPool::open(&path, &cfg).unwrap();
        let rows: Vec<u32> = (0..d.n() as u32).rev().step_by(3).collect();
        for step in 0..12 {
            let before = ooc.stats();
            let page_bytes = match step % 4 {
                0 => {
                    front(&mut ooc, step % m);
                    records
                }
                1 => {
                    ooc.active_label_sum();
                    labels
                }
                2 => {
                    back(&mut ooc, step % m);
                    records
                }
                _ => {
                    ooc.label_sum(&rows);
                    labels
                }
            };
            let after = ooc.stats();
            let missed = after.cache_misses - before.cache_misses;
            assert!(missed > 0, "step {step} hit every page");
            assert_eq!(
                after.bytes_read - before.bytes_read,
                missed * page_bytes,
                "step {step}"
            );
            assert_eq!(
                after.evictions,
                after.cache_misses - ooc.cache.resident() as u64,
                "step {step}"
            );
        }
        assert!(ooc.stats().evictions > 0);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// `label_sum` is `label` folded from −0.0 in the given order,
        /// bit for bit, on both backings: over rows with repeats, in
        /// descending order and none at all (−0.0 itself), with
        /// probability labels (so the order shows in the bits), at page
        /// sizes of 1, 3, 7 and more than `n` rows, with a cache smaller
        /// than one page and one larger than the pool.
        #[test]
        fn label_sum_folds_labels_in_the_given_order(
            n in 1usize..300,
            page_pick in 0usize..4,
            big_cache in prop::bool::ANY,
            raw in prop::collection::vec(0u32..u32::MAX, 1..200),
            case in 0u64..u64::MAX,
        ) {
            let page_rows = [1, 3, 7, n + 1 + (case % 50) as usize][page_pick] as u32;
            let points: Vec<f64> = (0..2 * n).map(|i| ((i * 7919) % 13) as f64).collect();
            let labels: Vec<f64> = (0..n)
                .map(|i| ((i as u64 ^ case).wrapping_mul(2654435761) % 1000) as f64 / 997.0)
                .collect();
            let d = Dataset::new(points, labels, 2).unwrap();
            let dir = std::env::temp_dir()
                .join(format!("reds-ooc-labelsum-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("pool.redsart");
            let mut b = PoolBuilder::new(2, &StreamConfig::new()).unwrap();
            b.push_chunk(d.points(), d.labels()).unwrap();
            b.finish_art(&path, page_rows).unwrap();
            let cache_bytes = if big_cache { 1 << 22 } else { 4 };
            let cfg = OocConfig::new().with_cache_bytes(cache_bytes);
            let mut ooc = OocPool::open(&path, &cfg).unwrap();
            let mut mem = ViewAccess::new(&d, SortedView::new(&d));

            let rows: Vec<u32> = raw.iter().map(|&r| r % n as u32).collect();
            let mut descending = rows.clone();
            descending.sort_unstable_by(|a, b| b.cmp(a));
            let twice: Vec<u32> = rows.iter().chain(&rows).copied().collect();
            for seq in [rows, descending, twice, Vec::new()] {
                let want = seq.iter().fold(-0.0, |sum: f64, &r| sum + d.label(r as usize));
                let stores: [&mut dyn ColumnAccess; 2] = [&mut ooc, &mut mem];
                for store in stores {
                    let folded = seq.iter().fold(-0.0, |sum: f64, &r| sum + store.label(r));
                    prop_assert_eq!(folded.to_bits(), want.to_bits());
                    prop_assert_eq!(store.label_sum(&seq).to_bits(), want.to_bits());
                }
            }
            prop_assert_eq!(ooc.label_sum(&[]).to_bits(), (-0.0f64).to_bits());
            prop_assert_eq!(mem.label_sum(&[]).to_bits(), (-0.0f64).to_bits());
            drop(ooc);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The paged store and the in-memory view stay bit-identical
        /// across arbitrary peel sequences, page sizes, tie layouts,
        /// and cache budgets — the membership mask, the label sums,
        /// and every scan order.
        #[test]
        fn arbitrary_peels_stay_bit_identical(
            n in 1usize..120,
            m in 1usize..4,
            page_rows in 1u32..140,
            cache_kb in 0usize..3,
            tie_mod in 2u64..12,
            cuts in prop::collection::vec(
                (0usize..4, prop::bool::ANY, -6i32..6),
                0..12
            ),
            case in 0u64..u64::MAX,
        ) {
            let points: Vec<f64> = (0..n * m)
                .map(|i| {
                    let k = (i as u64 * 2654435761) % tie_mod;
                    (k as f64 - tie_mod as f64 / 2.0) / 2.0
                })
                .collect();
            let labels: Vec<f64> =
                (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
            let d = Dataset::new(points, labels, m).unwrap();
            let dir = std::env::temp_dir()
                .join(format!("reds-ooc-prop-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("pool.redsart");
            let mut b = PoolBuilder::new(m, &StreamConfig::new()).unwrap();
            b.push_chunk(d.points(), d.labels()).unwrap();
            b.finish_art(&path, page_rows).unwrap();
            let cfg = OocConfig::new().with_cache_bytes(cache_kb << 10);
            let mut ooc = OocPool::open(&path, &cfg).unwrap();
            let mut mem = ViewAccess::new(&d, SortedView::new(&d));
            for &(dim_raw, below, bound_raw) in &cuts {
                let dim = dim_raw % m;
                let bound = bound_raw as f64 / 4.0;
                let (a, b) = if below {
                    (ooc.deactivate_below(dim, bound), mem.deactivate_below(dim, bound))
                } else {
                    (ooc.deactivate_above(dim, bound), mem.deactivate_above(dim, bound))
                };
                prop_assert_eq!(a, b);
                prop_assert_eq!(ooc.n_active(), mem.n_active());
                prop_assert_eq!(
                    ooc.active_label_sum().to_bits(),
                    mem.active_label_sum().to_bits()
                );
                for row in 0..n as u32 {
                    prop_assert_eq!(ooc.is_active(row), mem.is_active(row));
                }
                for dim in 0..m {
                    prop_assert_eq!(front(&mut ooc, dim), front(&mut mem, dim));
                    prop_assert_eq!(back(&mut ooc, dim), back(&mut mem, dim));
                }
            }
            drop(ooc);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
