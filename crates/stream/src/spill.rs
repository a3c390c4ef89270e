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
//! Readers re-validate lengths against the writer's bookkeeping; any
//! mismatch (a truncated file, a foreign file, a bad header) surfaces
//! as [`StreamError::CorruptSpill`] instead of a panic or garbage data.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
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
    file.write_all(magic)?;
    file.write_all(&[0u8; 8])?;
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
    writer: BufWriter<File>,
    /// Record count of every completed run, in push order.
    run_lens: Vec<u64>,
    column: usize,
}

impl RunWriter {
    pub(crate) fn create(dir: &Path, column: usize) -> Result<Self, StreamError> {
        let path = dir.join(format!("col{column}.runs"));
        let mut writer = BufWriter::new(File::create(&path)?);
        write_header(&mut writer, RUN_MAGIC)?;
        Ok(Self {
            path,
            writer,
            run_lens: Vec::new(),
            column,
        })
    }

    /// Appends one ascending `(key, row)` run.
    pub(crate) fn push_run(
        &mut self,
        records: impl Iterator<Item = (u64, u32)>,
    ) -> Result<(), StreamError> {
        let mut n = 0u64;
        let mut buf = [0u8; RECORD_LEN as usize];
        for (key, row) in records {
            buf[..8].copy_from_slice(&key.to_le_bytes());
            buf[8..].copy_from_slice(&row.to_le_bytes());
            self.writer.write_all(&buf)?;
            n += 1;
        }
        if n > 0 {
            self.run_lens.push(n);
        }
        Ok(())
    }

    /// Flushes and reopens the runs for merging.
    pub(crate) fn into_runs(mut self) -> Result<ColumnRuns, StreamError> {
        self.writer.flush()?;
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

struct RunCursor {
    reader: BufReader<File>,
    remaining: u64,
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

    fn read_record(&self, cursor: &mut RunCursor) -> Result<(u64, u32), StreamError> {
        let mut buf = [0u8; RECORD_LEN as usize];
        cursor
            .reader
            .read_exact(&mut buf)
            .map_err(|e| StreamError::CorruptSpill {
                column: self.column,
                detail: format!("run truncated mid-record: {e}"),
            })?;
        let key = u64::from_le_bytes(buf[..8].try_into().expect("8-byte slice"));
        let row = u32::from_le_bytes(buf[8..].try_into().expect("4-byte slice"));
        Ok((key, row))
    }

    /// K-way merges the runs in ascending `(key, row)` order, calling
    /// `emit(row, key)` once per record.
    ///
    /// Each run was written ascending by `(key, local rank)` with
    /// globally increasing row ids across runs, so an ordinary binary
    /// heap on `(key, row)` reproduces **exactly** the order a
    /// monolithic `(key, row)` argsort would — including every tie.
    pub(crate) fn merge(&self, mut emit: impl FnMut(u32, u64)) -> Result<(), StreamError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Validate the header once (catches foreign / clobbered files).
        let mut head_file = File::open(&self.path)?;
        check_header(&mut head_file, RUN_MAGIC, self.column)?;
        drop(head_file);

        // One bounded reader per run; memory is O(runs), not O(rows).
        let mut cursors = Vec::with_capacity(self.run_lens.len());
        let mut offset = HEADER_LEN;
        for &len in &self.run_lens {
            let mut file = File::open(&self.path)?;
            file.seek(SeekFrom::Start(offset))?;
            cursors.push(RunCursor {
                reader: BufReader::with_capacity(32 * 1024, file),
                remaining: len,
            });
            offset += len * RECORD_LEN;
        }
        let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if cursor.remaining > 0 {
                cursor.remaining -= 1;
                let (key, row) = self.read_record(cursor)?;
                heap.push(Reverse((key, row, i)));
            }
        }
        while let Some(Reverse((key, row, i))) = heap.pop() {
            emit(row, key);
            let cursor = &mut cursors[i];
            if cursor.remaining > 0 {
                cursor.remaining -= 1;
                let (key, row) = self.read_record(cursor)?;
                heap.push(Reverse((key, row, i)));
            }
        }
        Ok(())
    }
}

/// Append-only spill of `f64` values (the raw points or the labels).
pub(crate) struct FloatSpill {
    path: PathBuf,
    writer: BufWriter<File>,
    values: u64,
}

impl FloatSpill {
    pub(crate) fn create(dir: &Path, name: &str) -> Result<Self, StreamError> {
        let path = dir.join(name);
        let mut writer = BufWriter::new(File::create(&path)?);
        write_header(&mut writer, POOL_MAGIC)?;
        Ok(Self {
            path,
            writer,
            values: 0,
        })
    }

    pub(crate) fn append(&mut self, values: &[f64]) -> Result<(), StreamError> {
        for &v in values {
            self.writer.write_all(&v.to_le_bytes())?;
        }
        self.values += values.len() as u64;
        Ok(())
    }

    pub(crate) fn spilled_bytes(&self) -> u64 {
        HEADER_LEN + self.values * 8
    }

    /// Flushes and reads the whole spill back (bit-exact round trip) —
    /// the final materialization step, after the bounded-memory phase.
    pub(crate) fn into_vec(mut self) -> Result<Vec<f64>, StreamError> {
        self.writer.flush()?;
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
        let mut reader = BufReader::with_capacity(256 * 1024, File::open(&self.path)?);
        check_header(&mut reader, POOL_MAGIC, 0)?;
        let mut out = Vec::with_capacity(self.values as usize);
        let mut buf = [0u8; 8];
        for _ in 0..self.values {
            reader
                .read_exact(&mut buf)
                .map_err(|e| StreamError::CorruptSpill {
                    column: 0,
                    detail: format!("pool spill truncated: {e}"),
                })?;
            out.push(f64::from_le_bytes(buf));
        }
        Ok(out)
    }

    /// Flushes and streams the values' little-endian bytes — exactly
    /// the bytes after the header — through `visit` in blocks of at
    /// most 64 KiB, without materializing them.
    pub(crate) fn for_each_block(
        mut self,
        mut visit: impl FnMut(&[u8]) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        self.writer.flush()?;
        drop(self.writer);
        let mut file = File::open(&self.path)?;
        check_header(&mut file, POOL_MAGIC, 0)?;
        let mut buf = vec![0u8; 64 * 1024];
        let mut remaining = self.values * 8;
        while remaining > 0 {
            let block = &mut buf[..remaining.min(64 * 1024) as usize];
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
