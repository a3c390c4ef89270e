//! Verified in-memory `.redsart` reader.
//!
//! [`ArtFile::open`] reads the file once into owned memory
//! ([`read_regular_file`]) and runs the full verification chain over
//! that copy before any payload is exposed, in this order:
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
//!    checks, sorted-run checks). DATASET and COLUMN headers go through
//!    [`DatasetHeader`] and [`ColumnHeader`], the decoders the paged
//!    store uses too.
//!
//! Steps 1–4 are the verifier in `layout.rs`, which
//! [`ArtScan`](crate::ArtScan) shares: one sequential pass over the
//! copy feeds the whole-file checksum and every section checksum.
//!
//! No check reads the zero padding between sections or anything between
//! the last section and the table of contents: those bytes are covered
//! by the whole-file checksum alone. (Alignment padding *inside* a
//! payload is checked when the payload is decoded.)
//!
//! Every decoder reads with `from_le_bytes`, so the buffer needs no
//! alignment. Because the checks run on the copy, a file rewritten
//! while it is read fails a checksum instead of faulting the process.
//! Models and datasets decode into owned memory ([`ArtFile::model`]
//! yields the same [`SavedModel`] the `reds-json` loader does), so a
//! loaded model never reads the file again.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use reds_data::Dataset;
use reds_metamodel::{FlatTree, Gbdt, RandomForest, SavedModel, Svm};

use crate::layout::{
    payload_reader, verify, ColumnHeader, Cur, DatasetHeader, FAMILY_FOREST, FAMILY_GBDT,
    FAMILY_SVM, HEADER_LEN, SECTION_COLUMN, SECTION_DATASET, SECTION_META, SECTION_MODEL,
    SECTION_PAGE_INDEX, VERIFY_BLOCK,
};
use crate::{corrupt, ArtError, PageIndex, ScanSection};

/// Opens a regular file and returns it with the length its metadata
/// reports. Anything else — a directory, a character device such as
/// `/dev/zero`, a FIFO — is refused before it is opened: opening a FIFO
/// blocks until a writer appears, and a device can stream unbounded
/// input. Both `.redsart` readers open their file here.
pub(crate) fn open_regular_file(path: &Path) -> std::io::Result<(File, u64)> {
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} is not a regular file", path.display()),
        ));
    }
    Ok((File::open(path)?, meta.len()))
}

/// Reads a whole regular file ([`open_regular_file`]) with one read of
/// exactly the length its metadata reports, so no path can stream
/// unbounded input into memory.
pub fn read_regular_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let (mut file, len) = open_regular_file(path)?;
    let len = usize::try_from(len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "file too large for this address space",
        )
    })?;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// A verified `.redsart` file, held in memory while it is open.
pub struct ArtFile {
    bytes: Vec<u8>,
    sections: Vec<ScanSection>,
}

impl ArtFile {
    /// Reads `path` once and runs the verification chain (see module
    /// docs) over that copy.
    pub fn open(path: &Path) -> Result<Self, ArtError> {
        Self::from_bytes(read_regular_file(path)?)
    }

    /// Runs the verification chain over a whole file's bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ArtError> {
        let sections = verify(bytes.len() as u64, payload_reader(&bytes), |visit| {
            bytes[HEADER_LEN..].chunks(VERIFY_BLOCK).for_each(visit);
            Ok(())
        })?;
        Ok(Self { bytes, sections })
    }

    /// The verified table of contents (unknown kinds included).
    pub fn sections(&self) -> &[ScanSection] {
        &self.sections
    }

    /// A verified section's payload (its bounds lie inside the file,
    /// which is in memory).
    fn payload(&self, s: &ScanSection) -> &[u8] {
        &self.bytes[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// The payload of the one section of `kind`.
    fn unique(&self, kind: u32, name: &str) -> Result<&[u8], ArtError> {
        let mut found = self.sections.iter().filter(|s| s.kind == kind);
        match (found.next(), found.next()) {
            (Some(s), None) => Ok(self.payload(s)),
            (None, _) => Err(ArtError::Unsupported(format!("no {name} section"))),
            (Some(_), Some(_)) => Err(ArtError::Unsupported(format!(
                "multiple {name} sections (expected exactly one)"
            ))),
        }
    }

    /// The payloads of every section of `kind`, in file order.
    fn all(&self, kind: u32) -> impl Iterator<Item = &[u8]> {
        self.sections
            .iter()
            .filter(move |s| s.kind == kind)
            .map(|s| self.payload(s))
    }

    /// Decodes the metadata section.
    pub fn meta(&self) -> Result<ArtMeta, ArtError> {
        let mut cur = Cur::new(self.unique(SECTION_META, "metadata")?);
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
        let mut cur = Cur::new(self.unique(SECTION_MODEL, "model")?);
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
        let payload = self.unique(SECTION_DATASET, "dataset")?;
        let head = DatasetHeader::read(payload.len() as u64, payload_reader(payload))?;
        let (n, m) = (head.n(), head.m());
        // The header checked that the two arrays fill the payload exactly.
        let mut cur = Cur::new(&payload[DatasetHeader::LEN..]);
        let points = cur.array(n * m, "dataset points", f64::from_le_bytes)?;
        let labels = cur.array(n, "dataset labels", f64::from_le_bytes)?;
        Dataset::new(points, labels, m).map_err(|e| corrupt(format!("dataset rejected: {e}")))
    }

    /// Decodes and validates every column section, in file order.
    pub fn columns(&self) -> Result<Vec<ColumnSection<'_>>, ArtError> {
        self.all(SECTION_COLUMN).map(ColumnSection::parse).collect()
    }

    /// Decodes and validates every page-index section, in file order.
    pub fn page_indexes(&self) -> Result<Vec<PageIndex>, ArtError> {
        self.all(SECTION_PAGE_INDEX).map(PageIndex::parse).collect()
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

/// A complete model artifact decoded from a `.redsart` file's bytes —
/// the counterpart of the `reds-serve` JSON artifact. Everything is
/// owned.
pub struct PackedArtifact {
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

impl PackedArtifact {
    /// Verifies, decodes and cross-validates a packed model artifact
    /// read whole into `bytes`: sections present exactly once,
    /// family/dimensionality consistent between metadata, model, and
    /// training data, training set non-empty.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ArtError> {
        let file = ArtFile::from_bytes(bytes)?;
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
/// [`ArtFile`] — the on-disk twin of `reds-stream`'s spill runs. With a
/// single merged run the records are **rank-addressable**: record `i`
/// is the `i`-th smallest `(key, row)` of the column.
pub struct ColumnSection<'a> {
    column: usize,
    n_rows: usize,
    /// Each run's packed 12-byte records.
    runs: Vec<&'a [u8]>,
}

impl<'a> ColumnSection<'a> {
    fn parse(payload: &'a [u8]) -> Result<Self, ArtError> {
        let header = ColumnHeader::read(payload.len() as u64, payload_reader(payload))?;
        // The header checked that the runs fill the record area.
        let mut records = &payload[header.records_at() as usize..];
        let runs = header
            .runs()
            .iter()
            .map(|&len| {
                let (run, rest) = records.split_at(12 * len);
                records = rest;
                run
            })
            .collect();
        Ok(Self {
            column: header.column(),
            n_rows: header.n_rows(),
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
        let rec = &self.runs[run][i * 12..(i + 1) * 12];
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
    /// rows — the order of `reds-stream`'s spill merge, which is the one
    /// total order of distinct `(key, row)` pairs. Validates along the
    /// way that every run is strictly increasing and every row is in
    /// range; a file violating that is rejected, not mis-merged.
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
