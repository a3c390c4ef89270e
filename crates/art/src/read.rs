//! Verified memory-mapped `.redsart` reader.
//!
//! [`ArtFile::open`] runs the full verification chain before any
//! payload is exposed, in this order:
//!
//! 1. length ≥ header, magic, version (a version other than
//!    [`VERSION`](crate::VERSION) is [`ArtError::Unsupported`]);
//! 2. recorded file length == actual length (catches truncation and
//!    extension), and the table of contents ends exactly at the file
//!    end;
//! 3. whole-file [`Checksum`] (computed with the checksum field
//!    zeroed) — rejects **every** single-byte corruption, because each
//!    step of the checksum is a bijection in the word it consumes;
//! 4. table-of-contents bounds: 8-aligned section offsets inside the
//!    payload area, per-section payload checksums;
//! 5. on typed access, bounds-checked little-endian decoding plus the
//!    same structural validation the JSON loaders run
//!    (`FlatTree::from_parts` arena invariants, SVM/dataset shape
//!    checks, sorted-run checks).
//!
//! No check reads the zero padding between sections or anything between
//! the last section and the table of contents: those bytes are covered
//! by the whole-file checksum alone. (Alignment padding *inside* a
//! payload is checked when the payload is decoded.)
//!
//! Models and datasets decode into owned memory ([`ArtFile::model`]
//! yields the same [`SavedModel`] the `reds-json` loader does), so a
//! loaded model never reads the file again. Column sections stay
//! borrowed from the buffer and are read through it on demand.

use std::collections::BinaryHeap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use reds_data::Dataset;
use reds_metamodel::{FlatTree, Gbdt, RandomForest, SavedModel, Svm};

use crate::bytes::ArtBytes;
use crate::layout::{
    Cur, Header, TocEntry, FAMILY_FOREST, FAMILY_GBDT, FAMILY_SVM, HEADER_LEN, SECTION_COLUMN,
    SECTION_DATASET, SECTION_META, SECTION_MODEL, TOC_ENTRY_LEN,
};
use crate::{corrupt, ArtError, Checksum};

/// One table-of-contents entry, as exposed to callers.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Section kind code (`SECTION_*`; unknown kinds are tolerated for
    /// forward compatibility — they are checksummed but never parsed).
    pub kind: u32,
    /// Payload length in bytes.
    pub len: usize,
}

struct Section {
    kind: u32,
    range: Range<usize>,
}

/// A verified `.redsart` file, memory-mapped while it is open.
pub struct ArtFile {
    bytes: Arc<ArtBytes>,
    sections: Vec<Section>,
}

impl ArtFile {
    /// Maps `path` and runs the verification chain (see module docs).
    pub fn open(path: &Path) -> Result<Self, ArtError> {
        let bytes = Arc::new(ArtBytes::open(path)?);
        Self::from_bytes(bytes)
    }

    /// Verifies an already-loaded buffer (the mmap-free entry point,
    /// also used by the byte-mutation tests).
    pub fn from_bytes(bytes: Arc<ArtBytes>) -> Result<Self, ArtError> {
        let buf: &[u8] = &bytes;
        if buf.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file of {} bytes is shorter than the {HEADER_LEN}-byte header",
                buf.len()
            )));
        }
        let head: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header length");
        let header = Header::parse(head, buf.len() as u64)?;
        // Whole-file checksum, with the checksum field itself zeroed.
        let mut sum = Header::sum_start(head);
        sum.update(&buf[HEADER_LEN..]);
        header.verify(&sum)?;
        // Per-section bounds, alignment, and payload checksums.
        let toc = &buf[header.toc_offset as usize..];
        let mut sections = Vec::with_capacity(header.section_count);
        for (i, e) in toc.chunks_exact(TOC_ENTRY_LEN).enumerate() {
            let entry = TocEntry::parse(e, i, header.toc_offset)?;
            let range = entry.offset as usize..(entry.offset + entry.len) as usize;
            let mut sum = Checksum::new();
            sum.update(&buf[range.clone()]);
            entry.verify(i, &sum)?;
            sections.push(Section {
                kind: entry.kind,
                range,
            });
        }
        Ok(Self { bytes, sections })
    }

    /// The table of contents (unknown kinds included).
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|s| SectionInfo {
                kind: s.kind,
                len: s.range.len(),
            })
            .collect()
    }

    fn payload(&self, idx: usize) -> &[u8] {
        &self.bytes[self.sections[idx].range.clone()]
    }

    fn find_unique(&self, kind: u32, name: &str) -> Result<usize, ArtError> {
        let mut found = None;
        for (i, s) in self.sections.iter().enumerate() {
            if s.kind == kind {
                if found.is_some() {
                    return Err(ArtError::Unsupported(format!(
                        "multiple {name} sections (expected exactly one)"
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| ArtError::Unsupported(format!("no {name} section")))
    }

    /// Decodes the metadata section.
    pub fn meta(&self) -> Result<ArtMeta, ArtError> {
        let idx = self.find_unique(SECTION_META, "metadata")?;
        let mut cur = Cur::new(self.payload(idx));
        let family = cur.u32("meta family")?;
        let m = cur.u32("meta m")? as usize;
        let seed = cur.u64("meta seed")?;
        let pool_seed = cur.u64("meta pool seed")?;
        let pool_design = cur.u32("meta pool design")?;
        let function_len = cur.u32("meta function length")? as usize;
        let function = std::str::from_utf8(cur.take(function_len, "meta function name")?)
            .map_err(|_| corrupt("function name is not valid UTF-8"))?
            .to_string();
        cur.finish("metadata")?;
        Ok(ArtMeta {
            family,
            m,
            seed,
            pool_seed,
            pool_design,
            function,
        })
    }

    /// Decodes and validates the model section into an owned model —
    /// the same [`SavedModel`] the `reds-json` loader builds, so both
    /// formats predict through one code path.
    pub fn model(&self) -> Result<SavedModel, ArtError> {
        let idx = self.find_unique(SECTION_MODEL, "model")?;
        let mut cur = Cur::new(self.payload(idx));
        let family = cur.u32("model family")?;
        let m = cur.u32("model m")? as usize;
        let model = match family {
            FAMILY_FOREST => {
                let trees = decode_trees(&mut cur, m)?;
                SavedModel::Forest(RandomForest::from_arenas(trees, m).map_err(corrupt)?)
            }
            FAMILY_GBDT => {
                let base_score = cur.f64("base score")?;
                let eta = cur.f64("eta")?;
                let trees = decode_trees(&mut cur, m)?;
                SavedModel::Gbdt(Gbdt::from_arenas(base_score, eta, trees, m).map_err(corrupt)?)
            }
            FAMILY_SVM => {
                let gamma = cur.f64("gamma")?;
                let bias = cur.f64("bias")?;
                let n_sv = cur.count("support vector count")?;
                let coef = cur.array(n_sv, "coefficients", f64::from_le_bytes)?;
                let cells = n_sv
                    .checked_mul(m)
                    .ok_or_else(|| corrupt("support set size overflows"))?;
                let points = cur.array(cells, "support points", f64::from_le_bytes)?;
                SavedModel::Svm(Svm::from_parts(points, coef, bias, gamma, m).map_err(corrupt)?)
            }
            other => {
                return Err(ArtError::Unsupported(format!(
                    "unknown model family code {other}"
                )))
            }
        };
        cur.finish("model")?;
        Ok(model)
    }

    /// Decodes and validates the dataset section into an owned
    /// [`Dataset`].
    pub fn dataset(&self) -> Result<Dataset, ArtError> {
        let idx = self.find_unique(SECTION_DATASET, "dataset")?;
        let mut cur = Cur::new(self.payload(idx));
        let n = cur.count("dataset row count")?;
        let m = cur.count("dataset column count")?;
        let cells = n
            .checked_mul(m)
            .ok_or_else(|| corrupt("dataset size overflows"))?;
        let points = cur.array(cells, "dataset points", f64::from_le_bytes)?;
        let labels = cur.array(n, "dataset labels", f64::from_le_bytes)?;
        cur.finish("dataset")?;
        Dataset::new(points, labels, m).map_err(|e| corrupt(format!("dataset rejected: {e}")))
    }

    /// Decodes and validates every column section, in file order.
    pub fn columns(&self) -> Result<Vec<ColumnSection>, ArtError> {
        let mut out = Vec::new();
        for (i, s) in self.sections.iter().enumerate() {
            if s.kind == SECTION_COLUMN {
                out.push(ColumnSection::parse(
                    Arc::clone(&self.bytes),
                    self.sections[i].range.clone(),
                )?);
            }
        }
        Ok(out)
    }

    /// Decodes and validates every page-index section, in file order.
    pub fn page_indexes(&self) -> Result<Vec<crate::PageIndex>, ArtError> {
        let mut out = Vec::new();
        for s in &self.sections {
            if s.kind == crate::SECTION_PAGE_INDEX {
                out.push(crate::PageIndex::parse(&self.bytes[s.range.clone()])?);
            }
        }
        Ok(out)
    }
}

/// Decoded metadata section: which model this artifact holds and the
/// seeds that reproduce its pools.
#[derive(Debug, Clone)]
pub struct ArtMeta {
    /// Family code (`FAMILY_*`).
    pub family: u32,
    /// Input dimensionality.
    pub m: usize,
    /// Training RNG seed.
    pub seed: u64,
    /// Pseudo-labeling pool RNG seed.
    pub pool_seed: u64,
    /// Pool design code (1 = uniform).
    pub pool_design: u32,
    /// Benchmark-function name.
    pub function: String,
}

/// Decodes a tree count and that many consecutive tree arenas, each
/// validated for rows of width `m`. The count is untrusted: no
/// allocation is sized from it — the vector grows only as trees
/// actually decode, and every tree consumes at least its 8-byte header,
/// so a huge count simply truncates.
fn decode_trees(cur: &mut Cur<'_>, m: usize) -> Result<Vec<FlatTree>, ArtError> {
    let n_trees = cur.count("tree count")?;
    let mut trees = Vec::new();
    for _ in 0..n_trees {
        let n = cur.count("node count")?;
        let feature = cur.array(n, "features", u32::from_le_bytes)?;
        cur.align(8)?;
        let value = cur.array(n, "values", f64::from_le_bytes)?;
        let right = cur.array(n, "rights", u32::from_le_bytes)?;
        cur.align(8)?;
        // The same structural validation the JSON loaders run: this is
        // what makes a crafted file unable to loop `predict` or escape
        // the arena via a gather.
        trees.push(FlatTree::from_parts(feature, value, right, m).map_err(corrupt)?);
    }
    Ok(trees)
}

/// A complete model artifact decoded from a `.redsart` file — the
/// counterpart of the `reds-serve` JSON artifact. Everything is owned:
/// the file is mapped only while [`MappedArtifact::open`] verifies and
/// decodes it.
pub struct MappedArtifact {
    /// Benchmark-function name.
    pub function: String,
    /// Training RNG seed.
    pub seed: u64,
    /// Pool RNG seed.
    pub pool_seed: u64,
    /// Pool design code (1 = uniform).
    pub pool_design: u32,
    /// The decoded model.
    pub model: SavedModel,
    /// Owned training dataset (serves `discover`).
    pub train: Dataset,
}

impl MappedArtifact {
    /// Opens and cross-validates a packed model artifact: sections
    /// present exactly once, family/dimensionality consistent between
    /// metadata, model, and training data, training set non-empty.
    pub fn open(path: &Path) -> Result<Self, ArtError> {
        let file = ArtFile::open(path)?;
        let meta = file.meta()?;
        let model = file.model()?;
        let train = file.dataset()?;
        if meta.family != crate::write::family_code(&model) {
            return Err(corrupt("metadata family disagrees with the model section"));
        }
        if meta.m != model.m() || train.m() != model.m() {
            return Err(corrupt(format!(
                "dimensionality mismatch: meta m = {}, model m = {}, train m = {}",
                meta.m,
                model.m(),
                train.m()
            )));
        }
        if train.n() == 0 {
            return Err(corrupt("training set is empty"));
        }
        Ok(Self {
            function: meta.function,
            seed: meta.seed,
            pool_seed: meta.pool_seed,
            pool_design: meta.pool_design,
            model,
            train,
        })
    }
}

/// One column's sorted `(key u64, row u32)` runs, borrowed from the
/// mapping — the on-disk twin of `reds-stream`'s spill runs. With a
/// single merged run the records are **rank-addressable**: record `i`
/// is the `i`-th smallest `(key, row)` of the column.
pub struct ColumnSection {
    bytes: Arc<ArtBytes>,
    column: usize,
    n_rows: usize,
    /// Per-run byte ranges of the packed 12-byte records.
    runs: Vec<Range<usize>>,
}

impl ColumnSection {
    fn parse(bytes: Arc<ArtBytes>, range: Range<usize>) -> Result<Self, ArtError> {
        let base = range.start;
        let payload = &bytes[range.clone()];
        let mut cur = Cur::new(payload);
        let column = cur.u32("column index")? as usize;
        let reserved = cur.u32("column reserved")?;
        if reserved != 0 {
            return Err(corrupt("column reserved field must be zero"));
        }
        let n_rows = cur.count("column row count")?;
        let run_count = cur.count("run count")?;
        // Take the run-length table before allocating from its size.
        let table_bytes = run_count
            .checked_mul(8)
            .ok_or_else(|| corrupt("run table size overflows"))?;
        let table = cur.take(table_bytes, "run lengths")?;
        let mut runs = Vec::with_capacity(table.len() / 8);
        let mut total = 0usize;
        let mut pos = base + cur.pos();
        for chunk in table.chunks_exact(8) {
            let len = usize::try_from(u64::from_le_bytes(chunk.try_into().expect("8 bytes")))
                .map_err(|_| corrupt("run length does not fit this address space"))?;
            let byte_len = len
                .checked_mul(12)
                .ok_or_else(|| corrupt("run size overflows"))?;
            runs.push(pos..pos + byte_len);
            pos += byte_len;
            total = total
                .checked_add(len)
                .ok_or_else(|| corrupt("run lengths overflow"))?;
        }
        if total != n_rows {
            return Err(corrupt(format!(
                "run lengths sum to {total}, column records {n_rows} rows"
            )));
        }
        let record_bytes = n_rows
            .checked_mul(12)
            .ok_or_else(|| corrupt("record area overflows"))?;
        cur.take(record_bytes, "column records")?;
        cur.align(8)?;
        cur.finish("column")?;
        Ok(Self {
            bytes,
            column,
            n_rows,
            runs,
        })
    }

    /// Which dataset column these runs sort.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Total records across all runs.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of sorted runs (1 = fully merged, rank-addressable).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Record `i` of run `run` (packed little-endian decode — records
    /// are 12 bytes, so they are read byte-wise, not cast).
    pub fn record(&self, run: usize, i: usize) -> (u64, u32) {
        let r = &self.bytes[self.runs[run].clone()];
        let rec = &r[i * 12..(i + 1) * 12];
        let key = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
        let row = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
        (key, row)
    }

    /// The `rank`-th smallest `(key, row)` of a fully merged column.
    ///
    /// # Panics
    ///
    /// Panics when the column holds more than one run (merge first) or
    /// `rank` is out of range.
    pub fn rank(&self, rank: usize) -> (u64, u32) {
        assert_eq!(self.runs.len(), 1, "rank addressing needs a merged column");
        self.record(0, rank)
    }

    /// K-way-merges the runs in ascending `(key, row)` order, emitting
    /// rows — the exact algorithm (and therefore the exact order) of
    /// `reds-stream`'s spill merge. Validates along the way that every
    /// run is strictly increasing and every row is in range; a file
    /// violating that is rejected, not mis-merged.
    pub fn merged_order(&self) -> Result<Vec<u32>, ArtError> {
        let run_len = |r: usize| self.runs[r].len() / 12;
        let mut order = Vec::with_capacity(self.n_rows);
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32, usize)>> =
            BinaryHeap::with_capacity(self.runs.len());
        let mut cursors = vec![0usize; self.runs.len()];
        for (r, cursor) in cursors.iter_mut().enumerate() {
            if run_len(r) > 0 {
                let (key, row) = self.record(r, 0);
                heap.push(std::cmp::Reverse((key, row, r)));
                *cursor = 1;
            }
        }
        let mut last: Option<(u64, u32)> = None;
        while let Some(std::cmp::Reverse((key, row, r))) = heap.pop() {
            if (row as usize) >= self.n_rows {
                return Err(corrupt(format!(
                    "column {} references row {row} of {}",
                    self.column, self.n_rows
                )));
            }
            order.push(row);
            // Strictness across the merged stream implies strictness
            // within every run, and catches duplicated rows early
            // (each row id appears exactly once per column).
            if let Some(prev) = last {
                if prev >= (key, row) {
                    return Err(corrupt(format!(
                        "column {} runs are not strictly sorted",
                        self.column
                    )));
                }
            }
            last = Some((key, row));
            let i = cursors[r];
            if i < run_len(r) {
                let (k, w) = self.record(r, i);
                heap.push(std::cmp::Reverse((k, w, r)));
                cursors[r] = i + 1;
            }
        }
        Ok(order)
    }
}
