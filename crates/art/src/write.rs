//! Streaming `.redsart` writer.
//!
//! Packing is an offline step, so the writer favours simplicity and
//! robustness: payloads stream through a `BufWriter` behind a
//! placeholder header, the table of contents is appended at the end,
//! the header is patched, and the whole-file checksum is computed in a
//! final sequential re-read (with the checksum field still zero) and
//! patched in. A crash mid-write leaves a file that fails every
//! checksum — never a half-valid artifact. [`ArtWriter::finish`] then
//! syncs the file to disk; [`ArtWriter::finish_scratch`], for a file
//! its own process reads and deletes, leaves that to the OS.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use reds_data::Dataset;
use reds_metamodel::{FlatTree, SavedModel};

use crate::layout::{
    FAMILY_FOREST, FAMILY_GBDT, FAMILY_SVM, HEADER_LEN, MAGIC, SECTION_DATASET, SECTION_META,
    SECTION_MODEL, SUM_FIELD_OFFSET, TOC_ENTRY_LEN, VERSION,
};
use crate::{ArtError, Checksum};

struct TocEntry {
    kind: u32,
    offset: u64,
    len: u64,
    sum: u64,
}

struct OpenSection {
    kind: u32,
    start: u64,
    sum: Checksum,
}

/// Streams sections into a `.redsart` file; [`ArtWriter::finish`]
/// seals it (TOC, header, whole-file checksum).
///
/// A writer dropped before a successful `finish` — an early error
/// return or a panic mid-write — **removes its partial file**: a
/// half-written artifact would fail every checksum anyway, so nothing
/// is lost, and no torn `.redsart` orphans accumulate next to the
/// caller's outputs.
pub struct ArtWriter {
    /// `None` only transiently inside [`ArtWriter::finish`].
    out: Option<BufWriter<File>>,
    path: PathBuf,
    offset: u64,
    toc: Vec<TocEntry>,
    cur: Option<OpenSection>,
    finished: bool,
}

impl Drop for ArtWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Close the handle before unlinking; best effort — cleanup
            // must never turn an unwind into an abort.
            self.out = None;
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl ArtWriter {
    /// Creates (truncating) `path` and writes the placeholder header.
    pub fn create(path: &Path) -> Result<Self, ArtError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(Self {
            out: Some(out),
            path: path.to_path_buf(),
            offset: HEADER_LEN as u64,
            toc: Vec::new(),
            cur: None,
            finished: false,
        })
    }

    fn out(&mut self) -> &mut BufWriter<File> {
        self.out.as_mut().expect("writer already finished")
    }

    /// Opens a new section of `kind`. Sections cannot nest.
    pub fn begin_section(&mut self, kind: u32) -> Result<(), ArtError> {
        assert!(self.cur.is_none(), "section already open");
        debug_assert_eq!(self.offset % 8, 0, "sections start 8-aligned");
        self.cur = Some(OpenSection {
            kind,
            start: self.offset,
            sum: Checksum::new(),
        });
        Ok(())
    }

    /// Appends payload bytes to the open section. Each call checksums
    /// its bytes and hands them to a `BufWriter`, so a few large blocks
    /// cost less than many small writes.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), ArtError> {
        let cur = self.cur.as_mut().expect("no open section");
        cur.sum.update(bytes);
        self.out
            .as_mut()
            .expect("writer already finished")
            .write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends little-endian `f64`s to the open section.
    pub fn write_f64s(&mut self, vals: &[f64]) -> Result<(), ArtError> {
        let mut buf = [0u8; 8 * 256];
        for chunk in vals.chunks(256) {
            for (slot, v) in buf.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            self.write(&buf[..8 * chunk.len()])?;
        }
        Ok(())
    }

    /// Zero-pads the open section so the *next* in-section offset is a
    /// multiple of 8 — used between a `u32` array and an `f64` array.
    pub fn pad_to_8(&mut self) -> Result<(), ArtError> {
        let cur = self.cur.as_ref().expect("no open section");
        let section_pos = self.offset - cur.start;
        let rem = (section_pos % 8) as usize;
        if rem != 0 {
            self.write(&[0u8; 7][..8 - rem])?;
        }
        Ok(())
    }

    /// Closes the open section: records its TOC entry and zero-pads
    /// the file so the next section starts 8-aligned. The padding is
    /// outside the section payload (not checksummed per-section — the
    /// whole-file checksum still covers it).
    pub fn end_section(&mut self) -> Result<(), ArtError> {
        let cur = self.cur.take().expect("no open section");
        self.toc.push(TocEntry {
            kind: cur.kind,
            offset: cur.start,
            len: self.offset - cur.start,
            sum: cur.sum.finish(),
        });
        let rem = (self.offset % 8) as usize;
        if rem != 0 {
            let pad = [0u8; 7];
            self.out().write_all(&pad[..8 - rem])?;
            self.offset += (8 - rem) as u64;
        }
        Ok(())
    }

    /// Convenience: a whole section from one in-memory payload.
    pub fn section(&mut self, kind: u32, payload: &[u8]) -> Result<(), ArtError> {
        self.begin_section(kind)?;
        self.write(payload)?;
        self.end_section()
    }

    /// Writes the TOC, patches the header, computes the whole-file
    /// checksum in a sequential re-read, patches it in, and syncs the
    /// file to disk. Only a writer that returns `Ok` from here (or from
    /// [`ArtWriter::finish_scratch`]) leaves a file on disk; every
    /// other exit path (error, panic, plain drop) removes the partial
    /// artifact.
    pub fn finish(mut self) -> Result<(), ArtError> {
        self.seal()?.sync_all()?;
        self.finished = true;
        Ok(())
    }

    /// [`ArtWriter::finish`] without the final `sync_all`: the same
    /// bytes, left for the OS to write back. For a scratch artifact
    /// that the process writing it also reads and deletes — after a
    /// crash nothing would read it again, so durability buys nothing.
    /// A file someone may keep (a packed model, a caller-named pool)
    /// takes [`ArtWriter::finish`].
    pub fn finish_scratch(mut self) -> Result<(), ArtError> {
        self.seal()?;
        self.finished = true;
        Ok(())
    }

    /// Writes the TOC and the header, then patches in the whole-file
    /// checksum; returns the file, not yet synced.
    fn seal(&mut self) -> Result<File, ArtError> {
        assert!(self.cur.is_none(), "unclosed section");
        let mut out = self.out.take().expect("writer already finished");
        let toc_offset = self.offset;
        for e in &self.toc {
            out.write_all(&e.kind.to_le_bytes())?;
            out.write_all(&0u32.to_le_bytes())?;
            out.write_all(&e.offset.to_le_bytes())?;
            out.write_all(&e.len.to_le_bytes())?;
            out.write_all(&e.sum.to_le_bytes())?;
        }
        let file_len = toc_offset + (self.toc.len() * TOC_ENTRY_LEN) as u64;
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.toc.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&toc_offset.to_le_bytes());
        header[24..32].copy_from_slice(&file_len.to_le_bytes());
        // [32..40] (file sum) and [40..48] (reserved) stay zero for
        // the checksum pass below.
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&header)?;
        out.flush()?;
        let mut file = out.into_inner().map_err(|e| ArtError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        let mut sum = Checksum::new();
        {
            let mut reader = BufReader::new(&mut file);
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = reader.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                sum.update(&buf[..n]);
            }
        }
        file.seek(SeekFrom::Start(SUM_FIELD_OFFSET as u64))?;
        file.write_all(&sum.finish().to_le_bytes())?;
        Ok(file)
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn push_tree(buf: &mut Vec<u8>, tree: &FlatTree) {
    let n = tree.n_nodes();
    push_u64(buf, n as u64);
    for i in 0..n {
        push_u32(buf, tree.feature(i));
    }
    push_pad8(buf);
    for i in 0..n {
        push_f64(buf, tree.value(i));
    }
    for i in 0..n {
        push_u32(buf, tree.right(i));
    }
    push_pad8(buf);
}

/// Encodes a model section payload from a `reds-json`-level model.
fn encode_model(model: &SavedModel) -> Vec<u8> {
    let mut buf = Vec::new();
    match model {
        SavedModel::Forest(f) => {
            push_u32(&mut buf, FAMILY_FOREST);
            push_u32(&mut buf, f.m() as u32);
            push_u64(&mut buf, f.n_trees() as u64);
            for tree in f.trees() {
                push_tree(&mut buf, tree.flat());
            }
        }
        SavedModel::Gbdt(g) => {
            push_u32(&mut buf, FAMILY_GBDT);
            push_u32(&mut buf, g.m() as u32);
            push_f64(&mut buf, g.base_score());
            push_f64(&mut buf, g.eta());
            push_u64(&mut buf, g.n_trees() as u64);
            for arena in g.arenas() {
                push_tree(&mut buf, arena);
            }
        }
        SavedModel::Svm(s) => {
            push_u32(&mut buf, FAMILY_SVM);
            push_u32(&mut buf, s.m() as u32);
            push_f64(&mut buf, s.gamma());
            push_f64(&mut buf, s.bias());
            push_u64(&mut buf, s.n_support() as u64);
            for &c in s.support_coef() {
                push_f64(&mut buf, c);
            }
            for &v in s.support_points() {
                push_f64(&mut buf, v);
            }
        }
    }
    buf
}

/// Everything a packed model artifact records besides the model and
/// training data themselves — mirrors the `reds-serve` JSON artifact
/// metadata.
pub struct ModelArtifactSpec<'a> {
    /// Benchmark-function name the model was fitted against.
    pub function: &'a str,
    /// Training RNG seed.
    pub seed: u64,
    /// Pseudo-labeling pool RNG seed.
    pub pool_seed: u64,
    /// Pool design code (1 = uniform — the only design so far).
    pub pool_design: u32,
    /// The fitted model.
    pub model: &'a SavedModel,
    /// The training dataset (serves `discover` requests).
    pub train: &'a Dataset,
}

/// The `FAMILY_*` code of a model.
pub(crate) fn family_code(model: &SavedModel) -> u32 {
    match model {
        SavedModel::Forest(_) => FAMILY_FOREST,
        SavedModel::Gbdt(_) => FAMILY_GBDT,
        SavedModel::Svm(_) => FAMILY_SVM,
    }
}

/// Packs a complete model artifact (META + MODEL + DATASET sections)
/// to `path`. The encoding preserves every bit of the model arrays, so
/// loading back through [`PackedArtifact`](crate::PackedArtifact)
/// predicts bit-identically to the in-memory model.
pub fn write_model_artifact(path: &Path, spec: &ModelArtifactSpec<'_>) -> Result<(), ArtError> {
    let mut w = ArtWriter::create(path)?;

    let mut meta = Vec::new();
    push_u32(&mut meta, family_code(spec.model));
    push_u32(&mut meta, spec.model.m() as u32);
    push_u64(&mut meta, spec.seed);
    push_u64(&mut meta, spec.pool_seed);
    push_u32(&mut meta, spec.pool_design);
    push_u32(&mut meta, spec.function.len() as u32);
    meta.extend_from_slice(spec.function.as_bytes());
    w.section(SECTION_META, &meta)?;

    w.section(SECTION_MODEL, &encode_model(spec.model))?;

    w.begin_section(SECTION_DATASET)?;
    let mut head = Vec::new();
    push_u64(&mut head, spec.train.n() as u64);
    push_u64(&mut head, spec.train.m() as u64);
    w.write(&head)?;
    w.write_f64s(spec.train.points())?;
    w.write_f64s(spec.train.labels())?;
    w.end_section()?;

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reds-art-write-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.redsart")
    }

    #[test]
    fn dropped_writer_removes_its_partial_file() {
        let path = scratch("drop");
        let mut w = ArtWriter::create(&path).unwrap();
        w.begin_section(7).unwrap();
        w.write(b"half a section").unwrap();
        assert!(path.exists(), "file exists while the writer is live");
        drop(w);
        assert!(
            !path.exists(),
            "dropped-without-finish writer left an orphan"
        );
    }

    #[test]
    fn finished_writer_keeps_its_file() {
        let path = scratch("keep");
        let mut w = ArtWriter::create(&path).unwrap();
        w.section(7, b"payload").unwrap();
        w.finish().unwrap();
        assert!(path.exists());
        crate::ArtFile::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panic_mid_write_removes_the_partial_file() {
        let path = scratch("panic");
        let p = path.clone();
        let result = std::panic::catch_unwind(move || {
            let mut w = ArtWriter::create(&p).unwrap();
            w.begin_section(7).unwrap();
            w.write(b"about to unwind").unwrap();
            panic!("simulated failure mid-section");
        });
        assert!(result.is_err());
        assert!(!path.exists(), "unwound writer left an orphan");
    }
}
