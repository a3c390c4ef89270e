//! Chunk-folding construction of the streamed pool.
//!
//! [`PoolBuilder`] is the per-column accumulator the pipeline folds
//! into: each pushed chunk is radix-argsorted locally per column
//! (`O(chunk)` scratch), spilled as one sorted run per column, and its
//! raw points/labels appended to the data spill. A chunk with at least
//! two workers' worth of sorting (`10⁴` row-columns, about 0.5 ms, per
//! worker) sorts its columns on `reds-par` workers, each taking a
//! contiguous block of columns and holding one column's sort scratch
//! (16 bytes per row) at a time; the runs are the same bytes either
//! way. Nothing proportional to the total row count `L` is held in
//! memory, whichever finisher the caller picks:
//!
//! * [`PoolBuilder::finish_stats`] — stream the merge into a
//!   [`Checksum`] digest: `O(chunk + runs)` peak memory end to end,
//!   used by the peak-RSS benches and as the equivalence witness
//!   against the in-memory pool ([`digest_pool`]);
//! * [`PoolBuilder::finish_art`] and [`PoolBuilder::finish_scratch_art`]
//!   — stream the merge into a `.redsart` pool artifact, synced to disk
//!   or, for a scratch artifact the same run reads and deletes, not.

use std::path::Path;
use std::sync::Mutex;

use reds_art::{
    ArtWriter, Checksum, PageIndex, SECTION_COLUMN, SECTION_DATASET, SECTION_PAGE_INDEX,
};
use reds_data::{argsort_stable, ord_key};

use crate::spill::{ColumnRuns, FloatSpill, RunWriter, SpillDir};
use crate::{StreamConfig, StreamError};

/// Summary of a digest-only streamed construction.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Rows streamed (`L`).
    pub rows: u64,
    /// Input columns (`M`).
    pub m: usize,
    /// Sum of the pseudo-labels (hard labels: the positive count).
    pub label_sum: f64,
    /// Rows with label > 0.5 (hard positives).
    pub positives: u64,
    /// [`Checksum`] digest over every column's merged row order and
    /// every label's bits, as little-endian bytes — equals
    /// [`digest_pool`] of the in-memory result.
    pub digest: u64,
    /// Sorted runs spilled per column.
    pub runs_per_column: usize,
    /// Total bytes written to the spill store.
    pub spilled_bytes: u64,
}

/// Bytes the pool digest buffers before each [`Checksum::update`]: the
/// checksum runs at memory speed on blocks, while one call per 4-byte
/// row id would cost more than the whole hash.
const DIGEST_BLOCK: usize = 16 * 1024;

/// Bytes of 12-byte column records [`PoolBuilder::finish_art`] collects
/// before each [`ArtWriter::write`] (4096 records, 48 KiB).
const WRITE_BLOCK_BYTES: usize = 4096 * 12;

/// Row-columns of sorting that pay for one sort worker: about 0.5 ms at
/// the 50–60 ns a row-column takes (key gather, radix argsort, run
/// encoding) — the share per worker at which `label_dataset` fans out
/// too. A chunk fans out across `n·m / SORT_PER_WORKER` workers, at most
/// one per column and `reds_par::max_threads()` in all; the calling
/// thread is one of them, so `w` workers spawn `w − 1` threads.
const SORT_PER_WORKER: usize = 10_000;

/// The pool digest: a [`Checksum`] fed through a block buffer.
struct PoolDigest {
    sum: Checksum,
    buf: Vec<u8>,
}

impl PoolDigest {
    fn new() -> Self {
        Self {
            sum: Checksum::new(),
            buf: Vec::with_capacity(DIGEST_BLOCK),
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= DIGEST_BLOCK {
            self.sum.update(&self.buf);
            self.buf.clear();
        }
    }

    fn finish(mut self) -> u64 {
        self.sum.update(&self.buf);
        self.sum.finish()
    }
}

/// Digest of an in-memory pool: every column's row-id order, then every
/// label's bit pattern, as little-endian bytes through one
/// [`Checksum`]. The streamed [`PoolBuilder::finish_stats`] computes
/// the same value without materializing either — equality of digests
/// is the cheap bit-identity witness the benches assert.
pub fn digest_pool(columns: &[Vec<u32>], labels: &[f64]) -> u64 {
    let mut digest = PoolDigest::new();
    for col in columns {
        for &row in col {
            digest.update(&row.to_le_bytes());
        }
    }
    for &label in labels {
        digest.update(&label.to_le_bytes());
    }
    digest.finish()
}

/// The streaming accumulator: push chunks, then finish.
pub struct PoolBuilder {
    m: usize,
    rows: usize,
    /// Held for its drop: the spill store goes when the builder does.
    _spill: SpillDir,
    columns: Vec<RunWriter>,
    points: FloatSpill,
    labels: FloatSpill,
    label_sum: f64,
    positives: u64,
}

impl PoolBuilder {
    /// Creates the builder and its spill store.
    pub fn new(m: usize, cfg: &StreamConfig) -> Result<Self, StreamError> {
        if m == 0 {
            return Err(StreamError::ShapeMismatch { len: 0, m: 0 });
        }
        let spill = SpillDir::create_in(cfg.spill_dir.as_deref())?;
        let columns = (0..m)
            .map(|j| RunWriter::create(spill.path(), j))
            .collect::<Result<Vec<_>, _>>()?;
        let points = FloatSpill::create(spill.path(), "pool.points")?;
        let labels = FloatSpill::create(spill.path(), "pool.labels")?;
        Ok(Self {
            m,
            rows: 0,
            _spill: spill,
            columns,
            points,
            labels,
            label_sum: 0.0,
            positives: 0,
        })
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Folds one pseudo-labeled chunk into the accumulators: NaN
    /// validation, per-column chunk-local argsort spilled as one run
    /// each, raw points and labels appended to the data spill.
    pub fn push_chunk(&mut self, points: &[f64], labels: &[f64]) -> Result<(), StreamError> {
        let m = self.m;
        if !points.len().is_multiple_of(m) || points.len() / m != labels.len() {
            return Err(StreamError::ShapeMismatch {
                len: points.len(),
                m,
            });
        }
        let n = labels.len();
        if n == 0 {
            return Ok(());
        }
        if self.rows + n > u32::MAX as usize {
            return Err(StreamError::TooManyRows {
                rows: self.rows + n,
            });
        }
        // Datasets reject NaN coordinates; catch it here with the
        // *global* row index so streamed and monolithic paths report
        // the same position.
        if let Some(at) = points.iter().position(|v| v.is_nan()) {
            return Err(StreamError::NanInPoint {
                row: self.rows + at / m,
                column: at % m,
            });
        }
        let base = self.rows as u32;
        // Sorts the columns from `first` on into `writers`.
        let sort = |first: usize, writers: &mut [RunWriter]| {
            for (j, writer) in (first..).zip(writers) {
                let key = |local: usize| ord_key(points[local * m + j]);
                // Local ranks sorted by (key, local rank); adding the
                // chunk base preserves the tie order globally because
                // all rows of this chunk follow all previously pushed
                // rows.
                let order = argsort_stable(n, key);
                writer.push_run(
                    order
                        .iter()
                        .map(|&local| (key(local as usize), base + local)),
                )?;
            }
            Ok::<(), StreamError>(())
        };
        let workers = (n * m / SORT_PER_WORKER).min(m);
        if workers < 2 {
            sort(0, &mut self.columns)?;
        } else {
            // The first failing column's error, whichever worker hit it.
            let failed: Mutex<Option<(usize, StreamError)>> = Mutex::new(None);
            reds_par::par_fill_chunks(&mut self.columns, m.div_ceil(workers), |first, writers| {
                if let Err(e) = sort(first, writers) {
                    let mut slot = failed.lock().expect("no poisoned locks");
                    if slot.as_ref().is_none_or(|&(at, _)| first < at) {
                        *slot = Some((first, e));
                    }
                }
            });
            if let Some((_, e)) = failed.into_inner().expect("no poisoned locks") {
                return Err(e);
            }
        }
        self.points.append(points)?;
        self.labels.append(labels)?;
        for &y in labels {
            self.label_sum += y;
            if y > 0.5 {
                self.positives += 1;
            }
        }
        self.rows += n;
        Ok(())
    }

    fn merged_columns(
        columns: Vec<RunWriter>,
        rows: usize,
    ) -> Result<(Vec<ColumnRuns>, usize, u64), StreamError> {
        let mut runs = Vec::with_capacity(columns.len());
        let mut spilled = 0u64;
        let mut max_runs = 0usize;
        for writer in columns {
            let col = writer.into_runs()?;
            if col.total_rows() != rows as u64 {
                return Err(StreamError::CorruptSpill {
                    column: runs.len(),
                    detail: format!(
                        "run store holds {} rows, builder pushed {rows}",
                        col.total_rows()
                    ),
                });
            }
            spilled += col.spilled_bytes();
            max_runs = max_runs.max(col.run_count());
            runs.push(col);
        }
        Ok((runs, max_runs, spilled))
    }

    /// Merges the spilled runs into a digest without materializing
    /// anything of size `O(L)` — peak memory stays bounded by
    /// `O(chunk + runs)`.
    pub fn finish_stats(self) -> Result<StreamStats, StreamError> {
        if self.rows == 0 {
            return Err(StreamError::ZeroRows);
        }
        let rows = self.rows;
        let (runs, runs_per_column, mut spilled) = Self::merged_columns(self.columns, rows)?;
        let mut digest = PoolDigest::new();
        for col in &runs {
            let mut emitted = 0u64;
            col.merge(|row, _key| {
                digest.update(&row.to_le_bytes());
                emitted += 1;
            })?;
            debug_assert_eq!(emitted, rows as u64);
        }
        spilled += self.points.spilled_bytes() + self.labels.spilled_bytes();
        self.labels.for_each_block(|bytes| {
            digest.update(bytes);
            Ok(())
        })?;
        Ok(StreamStats {
            rows: rows as u64,
            m: self.m,
            label_sum: self.label_sum,
            positives: self.positives,
            digest: digest.finish(),
            runs_per_column,
            spilled_bytes: spilled,
        })
    }

    /// Merges the spilled runs directly into a `.redsart` artifact at
    /// `path`: one fully merged (single-run, rank-addressable)
    /// [`SECTION_COLUMN`] per input column, one
    /// [`SECTION_PAGE_INDEX`] of per-page min/max key fences at
    /// `page_rows` records per page (the out-of-core reader's skip
    /// structure — see [`PageIndex`]), plus one [`SECTION_DATASET`]
    /// streamed straight from the data spill — at no point does an
    /// `O(L)` row-order or point buffer exist in memory (the fences
    /// are `O(L / page_rows)`). The returned stats (digest included)
    /// equal [`PoolBuilder::finish_stats`] of the same pushes. The
    /// artifact is synced to disk before this returns
    /// ([`ArtWriter::finish`]).
    pub fn finish_art(self, path: &Path, page_rows: u32) -> Result<StreamStats, StreamError> {
        self.write_art(path, page_rows, ArtWriter::finish)
    }

    /// [`PoolBuilder::finish_art`] for a scratch artifact: the same
    /// bytes, sealed without the sync ([`ArtWriter::finish_scratch`]).
    /// Only for a file that the process writing it also reads and
    /// deletes, such as the paged backing's pool, which a crash would
    /// orphan unread anyway.
    pub fn finish_scratch_art(
        self,
        path: &Path,
        page_rows: u32,
    ) -> Result<StreamStats, StreamError> {
        self.write_art(path, page_rows, ArtWriter::finish_scratch)
    }

    fn write_art(
        self,
        path: &Path,
        page_rows: u32,
        seal: fn(ArtWriter) -> Result<(), reds_art::ArtError>,
    ) -> Result<StreamStats, StreamError> {
        if self.rows == 0 {
            return Err(StreamError::ZeroRows);
        }
        if page_rows == 0 {
            return Err(StreamError::CorruptSpill {
                column: 0,
                detail: "page_rows must be positive".into(),
            });
        }
        let rows = self.rows;
        let (runs, runs_per_column, mut spilled) = Self::merged_columns(self.columns, rows)?;
        let mut writer = ArtWriter::create(path)?;
        let mut digest = PoolDigest::new();
        let mut fences: Vec<(u64, u64)> = Vec::with_capacity(rows.div_ceil(page_rows as usize));
        let mut records: Vec<u8> = Vec::with_capacity(WRITE_BLOCK_BYTES);
        for (j, col) in runs.iter().enumerate() {
            writer.begin_section(SECTION_COLUMN)?;
            writer.write(&(j as u32).to_le_bytes())?;
            writer.write(&0u32.to_le_bytes())?; // reserved
            writer.write(&(rows as u64).to_le_bytes())?;
            writer.write(&1u64.to_le_bytes())?; // run count: fully merged
            writer.write(&(rows as u64).to_le_bytes())?; // the run's length

            // `merge`'s emit callback is infallible; park the first
            // block-write error and surface it right after.
            let mut write_err: Option<reds_art::ArtError> = None;
            fences.clear();
            // Records left in the current page; 0 opens the next one.
            let mut page_left = 0u32;
            col.merge(|row, key| {
                digest.update(&row.to_le_bytes());
                // Records arrive in ascending key order, so the page's
                // min is its first key and its max its latest.
                if page_left == 0 {
                    fences.push((key, key));
                    page_left = page_rows;
                } else if let Some(last) = fences.last_mut() {
                    last.1 = key;
                }
                page_left -= 1;
                records.extend_from_slice(&key.to_le_bytes());
                records.extend_from_slice(&row.to_le_bytes());
                if records.len() == WRITE_BLOCK_BYTES {
                    if write_err.is_none() {
                        write_err = writer.write(&records).err();
                    }
                    records.clear();
                }
            })?;
            if let Some(e) = write_err {
                return Err(e.into());
            }
            writer.write(&records)?;
            records.clear();
            writer.pad_to_8()?;
            writer.end_section()?;
            writer.section(
                SECTION_PAGE_INDEX,
                &PageIndex::encode(j as u32, page_rows, &fences),
            )?;
        }
        spilled += self.points.spilled_bytes() + self.labels.spilled_bytes();
        // The spill files hold the exact little-endian `f64` bytes the
        // DATASET section stores: copy them over block by block.
        writer.begin_section(SECTION_DATASET)?;
        writer.write(&(rows as u64).to_le_bytes())?;
        writer.write(&(self.m as u64).to_le_bytes())?;
        self.points
            .for_each_block(|bytes| Ok(writer.write(bytes)?))?;
        self.labels.for_each_block(|bytes| {
            digest.update(bytes);
            Ok(writer.write(bytes)?)
        })?;
        writer.end_section()?;
        seal(writer)?;
        Ok(StreamStats {
            rows: rows as u64,
            m: self.m,
            label_sum: self.label_sum,
            positives: self.positives,
            digest: digest.finish(),
            runs_per_column,
            spilled_bytes: spilled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reds_art::{ArtFile, ArtScan, ColumnHeader};
    use reds_data::{Dataset, SortedView};

    fn demo_points(n: usize, m: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-random-ish values with ties.
        let points: Vec<f64> = (0..n * m)
            .map(|i| ((i * 7919) % 97) as f64 / 97.0)
            .collect();
        let labels: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        (points, labels)
    }

    fn build_chunked(
        points: &[f64],
        labels: &[f64],
        m: usize,
        chunk: usize,
    ) -> Result<PoolBuilder, StreamError> {
        let mut builder = PoolBuilder::new(m, &StreamConfig::new())?;
        let mut row = 0;
        while row < labels.len() {
            let take = chunk.min(labels.len() - row);
            builder.push_chunk(&points[row * m..(row + take) * m], &labels[row..row + take])?;
            row += take;
        }
        Ok(builder)
    }

    /// The in-memory pool of `points` and `labels` and its digest.
    fn in_memory(points: &[f64], labels: &[f64], m: usize) -> (Dataset, u64) {
        let d = Dataset::new(points.to_vec(), labels.to_vec(), m).unwrap();
        let digest = digest_pool(&SortedView::new(&d).into_columns(), d.labels());
        (d, digest)
    }

    #[test]
    fn finish_art_matches_the_in_memory_pool_for_any_chunking() {
        let m = 3;
        let n = 157;
        let (points, labels) = demo_points(n, m);
        let (reference, ref_digest) = in_memory(&points, &labels, m);
        let dir = std::env::temp_dir().join(format!("reds-stream-chunks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        for chunk in [1usize, 2, 13, 64, n, n + 9] {
            let stats = build_chunked(&points, &labels, m, chunk)
                .unwrap()
                .finish_art(&path, 16)
                .unwrap();
            assert_eq!(stats.digest, ref_digest, "chunk = {chunk}");
            let dataset = ArtFile::open(&path).unwrap().dataset().unwrap();
            assert_eq!(dataset, reference, "chunk = {chunk}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_mode_agrees_with_in_memory_digest() {
        let m = 2;
        let n = 201;
        let (points, labels) = demo_points(n, m);
        let (_, ref_digest) = in_memory(&points, &labels, m);
        for chunk in [1usize, 37, 500] {
            let stats = build_chunked(&points, &labels, m, chunk)
                .unwrap()
                .finish_stats()
                .unwrap();
            assert_eq!(stats.digest, ref_digest, "chunk = {chunk}");
            assert_eq!(stats.rows, n as u64);
            assert_eq!(
                stats.positives,
                labels.iter().filter(|&&y| y > 0.5).count() as u64
            );
        }
    }

    #[test]
    fn finish_art_stats_equal_finish_stats() {
        let m = 3;
        let n = 157;
        let (points, labels) = demo_points(n, m);
        let ref_stats = build_chunked(&points, &labels, m, 13)
            .unwrap()
            .finish_stats()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("reds-stream-art-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        let stats = build_chunked(&points, &labels, m, 13)
            .unwrap()
            .finish_art(&path, 16)
            .unwrap();
        // Same digest and counters as digest mode: the equivalence
        // witness the benches rely on.
        assert_eq!(stats, ref_stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn art_page_index_fences_match_the_merged_records() {
        let m = 2;
        let n = 157;
        let (points, labels) = demo_points(n, m);
        let dir = std::env::temp_dir().join(format!("reds-stream-pidx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for page_rows in [1u32, 7, 64, n as u32, n as u32 + 100] {
            let path = dir.join(format!("pool-{page_rows}.redsart"));
            build_chunked(&points, &labels, m, 13)
                .unwrap()
                .finish_art(&path, page_rows)
                .unwrap();
            let scan = ArtScan::open(&path).unwrap();
            // The page indexes, read and parsed as `OocPool::open` does.
            let indexes: Vec<PageIndex> = scan
                .sections()
                .iter()
                .filter(|s| s.kind == SECTION_PAGE_INDEX)
                .map(|s| {
                    let mut payload = vec![0u8; s.len as usize];
                    scan.read_exact_at(&mut payload, s.offset).unwrap();
                    PageIndex::parse(&payload).unwrap()
                })
                .collect();
            assert_eq!(indexes.len(), m, "page_rows = {page_rows}");
            // Where each column's one merged run starts, and the key of
            // its record `rank`.
            let mut records_at = vec![0u64; m];
            for s in scan.sections().iter().filter(|s| s.kind == SECTION_COLUMN) {
                let head =
                    ColumnHeader::read(s.len, |at, buf| scan.read_exact_at(buf, s.offset + at));
                let head = head.unwrap();
                records_at[head.column()] = s.offset + head.records_at();
            }
            let key = |j: usize, rank: usize| {
                let mut bytes = [0u8; 8];
                scan.read_exact_at(&mut bytes, records_at[j] + 12 * rank as u64)
                    .unwrap();
                u64::from_le_bytes(bytes)
            };
            for idx in indexes {
                assert_eq!(idx.page_rows, page_rows);
                assert_eq!(idx.fences.len(), n.div_ceil(page_rows as usize));
                let j = idx.column as usize;
                for (p, &(min, max)) in idx.fences.iter().enumerate() {
                    let lo = p * page_rows as usize;
                    let hi = (lo + page_rows as usize).min(n) - 1;
                    assert_eq!(min, key(j, lo), "page_rows {page_rows} page {p}");
                    assert_eq!(max, key(j, hi), "page_rows {page_rows} page {p}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_page_rows_is_rejected() {
        let m = 2;
        let (points, labels) = demo_points(20, m);
        let dir = std::env::temp_dir().join(format!("reds-stream-zpr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        let err = build_chunked(&points, &labels, m, 7)
            .unwrap()
            .finish_art(&path, 0)
            .unwrap_err();
        assert!(matches!(err, StreamError::CorruptSpill { .. }));
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_merge_leaves_no_orphaned_artifact() {
        // Satellite: a k-way merge that dies mid-write must not leave a
        // torn `.redsart` next to the caller's outputs. Corrupting one
        // column's run-store magic makes `merge` fail *after* the
        // writer has streamed earlier columns; the writer's RAII
        // cleanup must then unlink the partial file.
        let m = 3;
        // Enough rows that each column's run store exceeds its write
        // buffer — the magic header must be on disk to corrupt it.
        let (points, labels) = demo_points(1200, m);
        let parent =
            std::env::temp_dir().join(format!("reds-stream-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&parent).unwrap();
        let cfg = StreamConfig::new().with_spill_dir(&parent);
        let mut builder = PoolBuilder::new(m, &cfg).unwrap();
        builder.push_chunk(&points, &labels).unwrap();
        // Corrupt the *last* column's spilled run file so columns 0..2
        // merge (and hit the artifact) before the failure. In-place
        // write (no truncation) — the builder's handle stays valid.
        let spill_dir = std::fs::read_dir(&parent)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.is_dir())
            .expect("spill dir exists under the caller-provided parent");
        let run_file = spill_dir.join(format!("col{}.runs", m - 1));
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&run_file)
                .unwrap();
            assert!(
                f.metadata().unwrap().len() > 0,
                "run store has flushed bytes to corrupt"
            );
            f.write_at(&[0xff], 0).unwrap(); // break the run-store magic
        }
        let art_path = parent.join("pool.redsart");
        let err = builder.finish_art(&art_path, 16).unwrap_err();
        assert!(matches!(err, StreamError::CorruptSpill { .. }));
        assert!(
            !art_path.exists(),
            "failed merge left an orphaned artifact behind"
        );
        std::fs::remove_dir_all(&parent).unwrap();
    }

    #[test]
    fn finish_art_bytes_do_not_depend_on_the_sort_workers() {
        // 8192-row chunks of M = 5 fan out (4 workers' worth of
        // sorting each), the last 3616-row chunk stays serial; so do
        // all the 1000-row chunks, whose artifact is the same pool.
        let m = 5;
        let (points, labels) = demo_points(20_000, m);
        let dir = std::env::temp_dir().join(format!("reds-stream-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for (threads, chunk) in [(1, 8192), (3, 8192), (3, 1000)] {
            reds_par::set_max_threads(Some(threads));
            let path = dir.join(format!("pool-{threads}-{chunk}.redsart"));
            let built =
                build_chunked(&points, &labels, m, chunk).and_then(|b| b.finish_art(&path, 64));
            reds_par::set_max_threads(None);
            built.unwrap();
            files.push(std::fs::read(&path).unwrap());
        }
        assert!(
            files[0] == files[1],
            "1 and 3 sort workers wrote different bytes"
        );
        assert!(
            files[1] == files[2],
            "the fanned-out and the serial fold wrote different bytes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_art_bytes_are_pinned() {
        // The whole-file checksum of one small pool artifact, as the
        // format and the heap merge first wrote it: any change to the
        // merge order, the block I/O or the sealing shows here. The
        // scratch artifact is the same bytes, unsynced.
        let (points, labels) = demo_points(157, 3);
        let dir = std::env::temp_dir().join(format!("reds-stream-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        for scratch in [false, true] {
            let builder = build_chunked(&points, &labels, 3, 13).unwrap();
            let stats = if scratch {
                builder.finish_scratch_art(&path, 16)
            } else {
                builder.finish_art(&path, 16)
            };
            stats.unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let mut sum = Checksum::new();
            sum.update(&bytes);
            assert_eq!(bytes.len(), 11_600);
            assert_eq!(sum.finish(), 0x2d31_f442_0898_62e1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nan_reports_the_global_row() {
        let m = 2;
        let mut builder = PoolBuilder::new(m, &StreamConfig::new()).unwrap();
        builder
            .push_chunk(&[0.1, 0.2, 0.3, 0.4], &[0.0, 1.0])
            .unwrap();
        let err = builder
            .push_chunk(&[0.5, f64::NAN], &[1.0])
            .expect_err("NaN must be rejected");
        assert!(matches!(err, StreamError::NanInPoint { row: 2, column: 1 }));
    }

    #[test]
    fn empty_builder_errors_instead_of_building_nothing() {
        let builder = PoolBuilder::new(2, &StreamConfig::new()).unwrap();
        assert!(matches!(builder.finish_stats(), Err(StreamError::ZeroRows)));
        let path = std::env::temp_dir().join(format!("reds-stream-empty-{}", std::process::id()));
        let builder = PoolBuilder::new(2, &StreamConfig::new()).unwrap();
        let err = builder.finish_art(&path, 16);
        assert!(matches!(err, Err(StreamError::ZeroRows)));
        assert!(!path.exists());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut builder = PoolBuilder::new(3, &StreamConfig::new()).unwrap();
        assert!(matches!(
            builder.push_chunk(&[0.0; 7], &[0.0, 0.0]),
            Err(StreamError::ShapeMismatch { len: 7, m: 3 })
        ));
    }
}
