//! Temp-file spill store for out-of-core sorting.
//!
//! Layout: one directory per streaming session ([`SpillDir`], removed
//! on drop — panics and early errors included), holding
//!
//! * `col<j>.runs` — the sorted runs of column `j`: a fixed header
//!   followed by 12-byte records `(key: u64 LE, row: u32 LE)`, one
//!   ascending `(key, row)` run per pushed chunk;
//! * `pool.points` / `pool.labels` — the raw row-major point buffer and
//!   the pseudo-labels, appended chunk by chunk as little-endian `f64`.
//!
//! Bytes move in blocks, never one `write_all` or `read_exact` per
//! value: a run or a slice of values is encoded into a block of at most
//! 32 KiB and written with one call, and each merge cursor refills a
//! block of at most 32 KiB of its run with one positioned read and
//! decodes records from it. A column's runs merge through one
//! tournament (loser) tree over the runs' heads, each packed into a
//! `u128` as `key << 32 | row` (`Tournament`): a pop replays one
//! leaf-to-root path of `⌈log₂ runs⌉` compares whose outcome only
//! selects values, so the loop has no data-dependent branch.
//!
//! Readers re-validate lengths against the writer's bookkeeping; any
//! mismatch (a truncated file, a foreign file, a bad header) surfaces
//! as [`StreamError::CorruptSpill`] instead of a panic or garbage data.

use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::StreamError;

/// Magic prefix of a run file (8 bytes, version-tagged).
const RUN_MAGIC: &[u8; 8] = b"RSRUNS01";
/// Magic prefix of the point / label spill files.
const POOL_MAGIC: &[u8; 8] = b"RSPOOL01";
/// Header size shared by all spill files: magic + 8 reserved bytes.
const HEADER_LEN: u64 = 16;
/// Bytes per sorted-run record: `u64` key + `u32` row id.
const RECORD_LEN: u64 = 12;
/// Records per run block: the most whole records in 32 KiB (32 760
/// bytes), both for writing a run and for each merge cursor.
const RUN_BLOCK_RECORDS: usize = 32 * 1024 / RECORD_LEN as usize;
/// `f64` values per [`FloatSpill::append`] block (32 KiB).
const VALUE_BLOCK: usize = 32 * 1024 / 8;
/// Bytes per [`FloatSpill::for_each_block`] block.
const READ_BLOCK: usize = 64 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// An RAII-guarded spill directory: created unique per streaming
/// session, removed (with everything in it) when dropped — whether the
/// pipeline finished, errored early, or panicked mid-chunk.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh spill directory under `parent` (the system temp
    /// directory when `None`).
    pub fn create_in(parent: Option<&Path>) -> Result<Self, StreamError> {
        let parent = parent
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        std::fs::create_dir_all(&parent)?;
        let pid = std::process::id();
        loop {
            let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
            let candidate = parent.join(format!("reds-stream-{pid}-{seq}"));
            match std::fs::create_dir(&candidate) {
                Ok(()) => return Ok(Self { path: candidate }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: cleanup must never turn an unwind into an abort.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn write_header(file: &mut impl Write, magic: &[u8; 8]) -> Result<(), StreamError> {
    let mut head = [0u8; HEADER_LEN as usize];
    head[..8].copy_from_slice(magic);
    file.write_all(&head)?;
    Ok(())
}

fn check_header(reader: &mut impl Read, magic: &[u8; 8], column: usize) -> Result<(), StreamError> {
    let mut head = [0u8; HEADER_LEN as usize];
    reader
        .read_exact(&mut head)
        .map_err(|e| StreamError::CorruptSpill {
            column,
            detail: format!("header unreadable: {e}"),
        })?;
    if &head[..8] != magic {
        return Err(StreamError::CorruptSpill {
            column,
            detail: "bad magic — not a reds-stream spill file".to_string(),
        });
    }
    Ok(())
}

/// Writer for one column's sorted runs.
pub(crate) struct RunWriter {
    path: PathBuf,
    /// Unbuffered: [`RunWriter::push_run`] writes whole blocks.
    writer: File,
    /// Record count of every completed run, in push order.
    run_lens: Vec<u64>,
    column: usize,
}

impl RunWriter {
    pub(crate) fn create(dir: &Path, column: usize) -> Result<Self, StreamError> {
        let path = dir.join(format!("col{column}.runs"));
        let mut writer = File::create(&path)?;
        write_header(&mut writer, RUN_MAGIC)?;
        Ok(Self {
            path,
            writer,
            run_lens: Vec::new(),
            column,
        })
    }

    /// Appends one ascending `(key, row)` run, encoded into blocks of
    /// [`RUN_BLOCK_RECORDS`] records, one `write_all` each.
    pub(crate) fn push_run(
        &mut self,
        mut records: impl Iterator<Item = (u64, u32)>,
    ) -> Result<(), StreamError> {
        let mut block = [0u8; RUN_BLOCK_RECORDS * RECORD_LEN as usize];
        let mut n = 0u64;
        loop {
            // `zip` asks the block for a slot first, so a full block
            // leaves the next record in `records`.
            let mut filled = 0;
            for (slot, (key, row)) in block
                .chunks_exact_mut(RECORD_LEN as usize)
                .zip(&mut records)
            {
                slot[..8].copy_from_slice(&key.to_le_bytes());
                slot[8..].copy_from_slice(&row.to_le_bytes());
                filled += RECORD_LEN as usize;
            }
            if filled == 0 {
                break;
            }
            self.writer.write_all(&block[..filled])?;
            n += (filled / RECORD_LEN as usize) as u64;
        }
        if n > 0 {
            self.run_lens.push(n);
        }
        Ok(())
    }

    /// Closes the file and checks its length for merging.
    pub(crate) fn into_runs(self) -> Result<ColumnRuns, StreamError> {
        drop(self.writer);
        let total: u64 = self.run_lens.iter().sum();
        let expected = HEADER_LEN + total * RECORD_LEN;
        let actual = std::fs::metadata(&self.path)?.len();
        if actual != expected {
            return Err(StreamError::CorruptSpill {
                column: self.column,
                detail: format!("file is {actual} bytes, expected {expected}"),
            });
        }
        Ok(ColumnRuns {
            path: self.path,
            run_lens: self.run_lens,
            column: self.column,
        })
    }
}

/// A column's completed run store, ready for merging.
#[derive(Debug)]
pub(crate) struct ColumnRuns {
    path: PathBuf,
    run_lens: Vec<u64>,
    column: usize,
}

/// A drained run's head: above every packed record, whose key takes
/// the upper 64 and whose row the lower 32 of the low 96 bits.
const EXHAUSTED: u128 = u128::MAX;

/// Packs a record so that `u128` order is `(key, row)` order.
#[inline]
fn pack(key: u64, row: u32) -> u128 {
    (key as u128) << 32 | row as u128
}

/// One run's read position: a block of its records and where the rest
/// starts in the run file.
struct RunCursor {
    /// File offset of the first record not yet in `block`.
    next: u64,
    /// Records of the run not yet in `block`.
    unread: u64,
    /// At most [`RUN_BLOCK_RECORDS`] records.
    block: Vec<u8>,
    /// Byte offset of the next record to decode in `block`.
    at: usize,
}

impl RunCursor {
    fn new(offset: u64, len: u64) -> Self {
        Self {
            next: offset,
            unread: len,
            block: Vec::new(),
            at: 0,
        }
    }

    /// The run's next record, packed, or [`EXHAUSTED`].
    #[inline]
    fn pop(&mut self, file: &File, column: usize) -> Result<u128, StreamError> {
        if self.at == self.block.len() {
            if self.unread == 0 {
                return Ok(EXHAUSTED);
            }
            self.refill(file, column)?;
        }
        let rec = &self.block[self.at..self.at + RECORD_LEN as usize];
        self.at += RECORD_LEN as usize;
        let key = u64::from_le_bytes(rec[..8].try_into().expect("8-byte slice"));
        let row = u32::from_le_bytes(rec[8..].try_into().expect("4-byte slice"));
        Ok(pack(key, row))
    }

    #[cold]
    fn refill(&mut self, file: &File, column: usize) -> Result<(), StreamError> {
        let records = self.unread.min(RUN_BLOCK_RECORDS as u64);
        self.block.resize((records * RECORD_LEN) as usize, 0);
        file.read_exact_at(&mut self.block, self.next)
            .map_err(|e| StreamError::CorruptSpill {
                column,
                detail: format!("run truncated mid-record: {e}"),
            })?;
        self.next += records * RECORD_LEN;
        self.unread -= records;
        self.at = 0;
        Ok(())
    }
}

/// A tournament (loser) tree over the heads of `k` sorted runs, for
/// every `k ≥ 1`. The leaves are padded to a power of two with
/// [`EXHAUSTED`] heads; inner node `n` (children `2n` and `2n + 1`,
/// leaf `i` at `leaves + i`) keeps the leaf that lost the match there,
/// and the overall winner sits above the root.
struct Tournament {
    /// Each leaf's current head, packed by [`pack`].
    heads: Vec<u128>,
    /// `nodes[0]` is the winning leaf; `nodes[n]` for `n ≥ 1` the leaf
    /// that lost at inner node `n`.
    nodes: Vec<usize>,
}

impl Tournament {
    fn new(mut heads: Vec<u128>) -> Self {
        let leaves = heads.len().next_power_of_two();
        heads.resize(leaves, EXHAUSTED);
        // Winner of every subtree, bottom-up, once.
        let mut winner = vec![0; 2 * leaves];
        for (i, w) in winner[leaves..].iter_mut().enumerate() {
            *w = i;
        }
        let mut nodes = vec![0; leaves];
        for n in (1..leaves).rev() {
            let (a, b) = (winner[2 * n], winner[2 * n + 1]);
            (winner[n], nodes[n]) = if heads[b] < heads[a] { (b, a) } else { (a, b) };
        }
        nodes[0] = winner[1];
        Self { heads, nodes }
    }

    /// The winning leaf and its head.
    #[inline]
    fn winner(&self) -> (usize, u128) {
        let w = self.nodes[0];
        (w, self.heads[w])
    }

    /// Gives the winning leaf a new head and replays its path to the
    /// root. Live heads are distinct (every row id is), so the smaller
    /// one wins each match outright, and which of two [`EXHAUSTED`]
    /// heads wins does not matter; the outcome only selects values
    /// (compiled to conditional moves, not jumps).
    #[inline]
    fn replace_winner(&mut self, head: u128) {
        let mut w = self.nodes[0];
        self.heads[w] = head;
        let mut wh = head;
        let mut n = (self.heads.len() + w) / 2;
        while n > 0 {
            let l = self.nodes[n];
            let lh = self.heads[l];
            let lost = lh < wh;
            self.nodes[n] = if lost { w } else { l };
            w = if lost { l } else { w };
            wh = if lost { lh } else { wh };
            n /= 2;
        }
        self.nodes[0] = w;
    }
}

impl ColumnRuns {
    pub(crate) fn run_count(&self) -> usize {
        self.run_lens.len()
    }

    pub(crate) fn total_rows(&self) -> u64 {
        self.run_lens.iter().sum()
    }

    pub(crate) fn spilled_bytes(&self) -> u64 {
        HEADER_LEN + self.total_rows() * RECORD_LEN
    }

    /// K-way merges the runs in ascending `(key, row)` order, calling
    /// `emit(row, key)` once per record.
    ///
    /// Each run was written ascending by `(key, local rank)` with
    /// globally increasing row ids across runs, so the tournament on
    /// `(key, row)` reproduces **exactly** the order a monolithic
    /// `(key, row)` argsort would — including every tie.
    pub(crate) fn merge(&self, mut emit: impl FnMut(u32, u64)) -> Result<(), StreamError> {
        let mut file = File::open(&self.path)?;
        // Validate the header once (catches foreign / clobbered files).
        check_header(&mut file, RUN_MAGIC, self.column)?;
        // One block per run: memory is O(runs), not O(rows).
        let mut offset = HEADER_LEN;
        let mut cursors: Vec<RunCursor> = self
            .run_lens
            .iter()
            .map(|&len| {
                let cursor = RunCursor::new(offset, len);
                offset += len * RECORD_LEN;
                cursor
            })
            .collect();
        let heads = cursors
            .iter_mut()
            .map(|c| c.pop(&file, self.column))
            .collect::<Result<Vec<_>, _>>()?;
        let mut tree = Tournament::new(heads);
        for _ in 0..self.total_rows() {
            let (run, head) = tree.winner();
            emit(head as u32, (head >> 32) as u64);
            tree.replace_winner(cursors[run].pop(&file, self.column)?);
        }
        Ok(())
    }
}

/// Append-only spill of `f64` values (the raw points or the labels).
pub(crate) struct FloatSpill {
    path: PathBuf,
    /// Unbuffered: [`FloatSpill::append`] writes whole blocks.
    writer: File,
    values: u64,
}

impl FloatSpill {
    pub(crate) fn create(dir: &Path, name: &str) -> Result<Self, StreamError> {
        let path = dir.join(name);
        let mut writer = File::create(&path)?;
        write_header(&mut writer, POOL_MAGIC)?;
        Ok(Self {
            path,
            writer,
            values: 0,
        })
    }

    /// Appends `values` as little-endian bytes, in blocks of
    /// [`VALUE_BLOCK`] values, one `write_all` each.
    pub(crate) fn append(&mut self, values: &[f64]) -> Result<(), StreamError> {
        let mut block = [0u8; 8 * VALUE_BLOCK];
        for chunk in values.chunks(VALUE_BLOCK) {
            for (slot, v) in block.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            self.writer.write_all(&block[..8 * chunk.len()])?;
        }
        self.values += values.len() as u64;
        Ok(())
    }

    pub(crate) fn spilled_bytes(&self) -> u64 {
        HEADER_LEN + self.values * 8
    }

    /// Reads the whole spill back (bit-exact round trip) — the final
    /// materialization step, after the bounded-memory phase.
    pub(crate) fn into_vec(self) -> Result<Vec<f64>, StreamError> {
        let mut out = Vec::with_capacity(self.values as usize);
        self.for_each_block(|bytes| {
            out.extend(
                bytes
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
            );
            Ok(())
        })?;
        Ok(out)
    }

    /// Streams the values' little-endian bytes — exactly the bytes
    /// after the header — through `visit` in blocks of at most
    /// [`READ_BLOCK`] bytes, without materializing them, after checking
    /// the file's length against the values appended.
    pub(crate) fn for_each_block(
        self,
        mut visit: impl FnMut(&[u8]) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        drop(self.writer);
        let expected = HEADER_LEN + self.values * 8;
        let actual = std::fs::metadata(&self.path)?.len();
        if actual != expected {
            return Err(StreamError::CorruptSpill {
                column: 0,
                detail: format!(
                    "pool spill {} is {actual} bytes, expected {expected}",
                    self.path.display()
                ),
            });
        }
        let mut file = File::open(&self.path)?;
        check_header(&mut file, POOL_MAGIC, 0)?;
        let mut buf = vec![0u8; READ_BLOCK];
        let mut remaining = self.values * 8;
        while remaining > 0 {
            let block = &mut buf[..remaining.min(READ_BLOCK as u64) as usize];
            file.read_exact(block)
                .map_err(|e| StreamError::CorruptSpill {
                    column: 0,
                    detail: format!("pool spill truncated: {e}"),
                })?;
            visit(block)?;
            remaining -= block.len() as u64;
        }
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reds_data::argsort_stable;

    /// Spills `runs` (each a slice of keys, rows numbered on from the
    /// runs before it) as one sorted run each, merges them, and checks
    /// the merge against the argsort of the concatenated keys.
    fn merge_matches_argsort(runs: &[&[u64]]) {
        let dir = SpillDir::create_in(None).unwrap();
        let mut writer = RunWriter::create(dir.path(), 0).unwrap();
        let mut all: Vec<u64> = Vec::new();
        for run in runs {
            let base = all.len() as u32;
            let order = argsort_stable(run.len(), |i| run[i]);
            writer
                .push_run(order.iter().map(|&i| (run[i as usize], base + i)))
                .unwrap();
            all.extend_from_slice(run);
        }
        let runs = writer.into_runs().unwrap();
        let mut merged = Vec::new();
        runs.merge(|row, key| merged.push((row, key))).unwrap();
        let want: Vec<(u32, u64)> = argsort_stable(all.len(), |i| all[i])
            .into_iter()
            .map(|row| (row, all[row as usize]))
            .collect();
        assert_eq!(merged, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn merge_is_the_argsort_of_the_concatenated_runs(
            lens in prop::collection::vec(1usize..50, 31),
            keys in prop::collection::vec(0u64..7, 31 * 50),
        ) {
            // Seven distinct keys over up to 1550 rows: ties within and
            // across runs everywhere.
            for k in [1usize, 2, 3, 5, 8, 31] {
                let mut at = 0;
                let runs: Vec<&[u64]> = lens[..k]
                    .iter()
                    .map(|&len| {
                        at += len;
                        &keys[at - len..at]
                    })
                    .collect();
                merge_matches_argsort(&runs);
            }
        }
    }

    #[test]
    fn merge_refills_cursors_across_block_boundaries() {
        // Runs longer than one cursor block, one exactly a block, and
        // short ones, all drawing from the same 5 keys.
        let lens = [2 * RUN_BLOCK_RECORDS + 1, RUN_BLOCK_RECORDS, 1, 7, 3001];
        let keys: Vec<u64> = (0..lens.iter().sum::<usize>())
            .map(|i| (i as u64 * 7919) % 5)
            .collect();
        let mut at = 0;
        let runs: Vec<&[u64]> = lens
            .iter()
            .map(|&len| {
                at += len;
                &keys[at - len..at]
            })
            .collect();
        merge_matches_argsort(&runs);
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create_in(None).expect("create");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("junk"), b"x").unwrap();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "spill dir must be cleaned up");
    }

    #[test]
    fn spill_dir_is_removed_when_the_pipeline_panics() {
        let observed = std::panic::catch_unwind(|| {
            let dir = SpillDir::create_in(None).expect("create");
            let path = dir.path().to_path_buf();
            std::fs::write(path.join("run"), b"data").unwrap();
            panic!("mid-stream failure at {}", path.display());
        });
        let err = observed.expect_err("the closure panics");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload carries the path");
        let path = PathBuf::from(msg.rsplit_once(" at ").expect("marker").1);
        assert!(!path.exists(), "unwinding must remove the spill dir");
    }

    #[test]
    fn runs_merge_in_global_key_row_order() {
        let dir = SpillDir::create_in(None).unwrap();
        let mut writer = RunWriter::create(dir.path(), 0).unwrap();
        // Two runs with interleaved keys and a cross-run tie on key 5.
        writer
            .push_run([(1u64, 0u32), (5, 2), (9, 1)].into_iter())
            .unwrap();
        writer
            .push_run([(2u64, 3u32), (5, 4), (5, 5)].into_iter())
            .unwrap();
        let runs = writer.into_runs().unwrap();
        assert_eq!(runs.run_count(), 2);
        assert_eq!(runs.total_rows(), 6);
        let mut order = Vec::new();
        runs.merge(|row, _key| order.push(row)).unwrap();
        assert_eq!(order, vec![0, 3, 2, 4, 5, 1]);
    }

    #[test]
    fn truncated_run_is_a_structured_error_not_a_panic() {
        let dir = SpillDir::create_in(None).unwrap();
        let mut writer = RunWriter::create(dir.path(), 3).unwrap();
        writer.push_run((0..100u64).map(|i| (i, i as u32))).unwrap();
        let path = dir.path().join("col3.runs");
        let runs = writer.into_runs().unwrap();
        // Chop the tail off after the writer's bookkeeping was taken.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(HEADER_LEN + 50 * RECORD_LEN + 5).unwrap();
        drop(file);
        let err = runs.merge(|_, _| {}).unwrap_err();
        match err {
            StreamError::CorruptSpill { column: 3, detail } => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected CorruptSpill, got {other}"),
        }
    }

    #[test]
    fn length_mismatch_is_detected_at_reopen() {
        let dir = SpillDir::create_in(None).unwrap();
        let mut writer = RunWriter::create(dir.path(), 1).unwrap();
        writer.push_run([(7u64, 0u32)].into_iter()).unwrap();
        let path = dir.path().join("col1.runs");
        writer.writer.flush().unwrap();
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"garbage")
            .unwrap();
        let err = writer.into_runs().unwrap_err();
        assert!(matches!(err, StreamError::CorruptSpill { column: 1, .. }));
    }

    #[test]
    fn foreign_file_fails_the_magic_check() {
        let dir = SpillDir::create_in(None).unwrap();
        let path = dir.path().join("col0.runs");
        let mut writer = RunWriter::create(dir.path(), 0).unwrap();
        writer.push_run([(1u64, 0u32)].into_iter()).unwrap();
        let runs = writer.into_runs().unwrap();
        // Overwrite the header with a foreign magic, keep the length.
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all(b"NOTREDS!").unwrap();
        drop(file);
        let err = runs.merge(|_, _| {}).unwrap_err();
        assert!(matches!(err, StreamError::CorruptSpill { column: 0, .. }));
    }

    #[test]
    fn float_spill_round_trips_bits() {
        let dir = SpillDir::create_in(None).unwrap();
        let mut spill = FloatSpill::create(dir.path(), "pool.points").unwrap();
        let values = [0.1, -0.0, f64::INFINITY, 1e-300, 42.0];
        spill.append(&values).unwrap();
        spill.append(&values[..2]).unwrap();
        let back = spill.into_vec().unwrap();
        assert_eq!(back.len(), 7);
        for (a, b) in values.iter().chain(&values[..2]).zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn float_spill_blocks_are_the_spilled_bytes() {
        let dir = SpillDir::create_in(None).unwrap();
        // 10 000 values: one full 64 KiB block and a partial one.
        let values: Vec<f64> = (0..10_000).map(|i| i as f64 * -0.5).collect();
        let mut spill = FloatSpill::create(dir.path(), "pool.points").unwrap();
        spill.append(&values).unwrap();
        let mut blocks = Vec::new();
        spill
            .for_each_block(|b| {
                blocks.push(b.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(
            blocks.iter().map(Vec::len).collect::<Vec<_>>(),
            [65_536, 14_464]
        );
        let expected: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(blocks.concat(), expected);

        let mut spill = FloatSpill::create(dir.path(), "pool.labels").unwrap();
        spill.append(&values).unwrap();
        spill.writer.flush().unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(spill.path())
            .unwrap();
        file.set_len(HEADER_LEN + 70_000).unwrap();
        drop(file);
        assert!(matches!(
            spill.for_each_block(|_| Ok(())),
            Err(StreamError::CorruptSpill { .. })
        ));
    }

    #[test]
    fn truncated_float_spill_is_a_structured_error() {
        let dir = SpillDir::create_in(None).unwrap();
        let mut spill = FloatSpill::create(dir.path(), "pool.labels").unwrap();
        spill.append(&vec![1.0; 64]).unwrap();
        spill.writer.flush().unwrap();
        let path = spill.path().to_path_buf();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(HEADER_LEN + 10).unwrap();
        drop(file);
        assert!(matches!(
            spill.into_vec(),
            Err(StreamError::CorruptSpill { .. })
        ));
    }
}
