//! `reds-stream`: bounded-memory streaming for `L ≫ 10⁶` pseudo-labels.
//!
//! The REDS pipeline's asymptotic win (§7 of the paper) only pays off
//! at scale, but the in-memory path materializes the full `L × M`
//! unlabeled pool before a single pseudo-label is computed, then
//! argsorts every column with `O(L)` scratch on top. This crate
//! replaces that with a pipeline whose working set is bounded by the
//! *chunk* size, not by `L`:
//!
//! 1. [`ChunkSource`] generates the unlabeled pool in deterministic
//!    chunks. [`SamplerSource`] chains one `StdRng` through
//!    element-sequential samplers, so **any** chunking (including
//!    chunk = 1 and chunk ≥ L) reproduces the monolithic draw sequence
//!    bit for bit.
//! 2. Each chunk is pseudo-labeled by the caller's labeler (in
//!    `reds-core`, `Metamodel::hard_labels` or `predict_batch` on the
//!    chunk — which dispatch to `reds_metamodel::kernels`'
//!    runtime-selected scalar/AVX2 backend, bit-identical either way)
//!    and folded into per-column accumulators: chunk-local radix argsort
//!    runs spilled to a temp-file run store ([`PoolBuilder`]), plus the
//!    raw points/labels appended to a data spill — no `L × M` buffer
//!    ever exists during construction. A chunk with at least two
//!    workers' worth of sorting (`10⁴` row-columns, about 0.5 ms, per
//!    worker) sorts its columns on `reds-par` workers, each holding one
//!    column's keys and index scratch at a time; the spilled bytes do
//!    not depend on the thread count.
//! 3. The spilled runs are k-way merged per column into exactly the
//!    `(value, row id)` total order of `reds_data::SortedView` and
//!    written, with the points and labels, into a `.redsart` pool
//!    artifact ([`stream_scratch_art`], [`PoolBuilder::finish_art`])
//!    that `reds-ooc`'s paged store searches, or only digested
//!    ([`stream_scan`]). The merge is one branch-free tournament tree
//!    over the runs' heads, packed as `key << 32 | row`, for any run
//!    count.
//!
//! Spill files are written and read in blocks of at most 32 KiB
//! (64 KiB for the data spill's reads), not one call per value.
//!
//! Spill files live in an RAII-guarded temp directory ([`SpillDir`])
//! that is removed on drop — including panics and early errors — and a
//! truncated or corrupted run surfaces as
//! [`StreamError::CorruptSpill`], never a panic.
//!
//! Equivalence contract: for any chunk size, the pool artifact holds
//! the points, labels and column orders of the monolithic
//! generate-label-argsort path bit for bit (its digest equals
//! [`digest_pool`] of the in-memory pool), and the generator RNG handed
//! back is in the same state — so a paged `Reds::discover` run is
//! bit-identical to the in-memory one.

#![warn(missing_docs)]

mod build;
mod pipeline;
mod source;
mod spill;

pub use build::{digest_pool, PoolBuilder, StreamStats};
pub use pipeline::{stream_scan, stream_scratch_art, Labeling};
pub use source::{ChunkSource, SamplerSource, SliceSource, StreamSampler};
pub use spill::SpillDir;

use std::fmt;
use std::path::PathBuf;

/// Default chunk size: 65 536 rows. At the paper's `M = 12` this is a
/// ~6 MiB point buffer per chunk — large enough that `predict_batch`
/// amortizes its fan-out, small enough that a laptop streams `L = 10⁷`
/// comfortably.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Configuration of the streaming pipeline.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Rows per chunk. `0` (the `Default::default()` value) selects
    /// [`DEFAULT_CHUNK_ROWS`]; see
    /// [`StreamConfig::effective_chunk_rows`].
    pub chunk_rows: usize,
    /// Directory to create the spill directory in; `None` uses the
    /// system temp directory.
    pub spill_dir: Option<PathBuf>,
}

impl StreamConfig {
    /// Default configuration: [`DEFAULT_CHUNK_ROWS`] rows per chunk,
    /// spill under the system temp directory.
    pub fn new() -> Self {
        Self {
            chunk_rows: DEFAULT_CHUNK_ROWS,
            spill_dir: None,
        }
    }

    /// Sets the chunk size (rows per chunk).
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
    }

    /// Sets the parent directory for spill files.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// The effective chunk size: configured value, `0` mapped to the
    /// default (so `StreamConfig::default()` works out of the box).
    pub fn effective_chunk_rows(&self) -> usize {
        if self.chunk_rows == 0 {
            DEFAULT_CHUNK_ROWS
        } else {
            self.chunk_rows
        }
    }
}

/// Errors of the streaming pipeline.
#[derive(Debug)]
pub enum StreamError {
    /// Filesystem failure on the spill store.
    Io(std::io::Error),
    /// A spilled sort run is truncated or internally inconsistent.
    CorruptSpill {
        /// Column whose run store is damaged.
        column: usize,
        /// What went wrong.
        detail: String,
    },
    /// The requested sampler is a *global* design (e.g. Latin
    /// hypercube / the mixed-inputs design): every stratum placement
    /// depends on the total row count, so it cannot be generated in
    /// bounded-memory chunks with the same result. Use the in-memory
    /// path for these designs.
    UnstreamableSampler {
        /// Human-readable design name.
        name: &'static str,
    },
    /// A pool buffer's length is not a multiple of the declared width.
    ShapeMismatch {
        /// Buffer length.
        len: usize,
        /// Declared number of columns.
        m: usize,
    },
    /// An input coordinate was NaN (datasets reject NaN coordinates).
    NanInPoint {
        /// Global row of the offending coordinate.
        row: usize,
        /// Column of the offending coordinate.
        column: usize,
    },
    /// More rows than the `u32` row ids of `SortedView` can address.
    TooManyRows {
        /// Requested row count.
        rows: usize,
    },
    /// The chunk labeler returned the wrong number of labels for a
    /// chunk.
    Predict(String),
    /// The source produced no rows at all.
    ZeroRows,
    /// Writing a `.redsart` pool artifact failed.
    Art(reds_art::ArtError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "spill store I/O failure: {e}"),
            Self::CorruptSpill { column, detail } => {
                write!(f, "corrupt spill run for column {column}: {detail}")
            }
            Self::UnstreamableSampler { name } => write!(
                f,
                "the {name} design is global (stratified over all L rows) and cannot \
                 be streamed in chunks; use the in-memory pipeline for it"
            ),
            Self::ShapeMismatch { len, m } => {
                write!(
                    f,
                    "pool buffer of {len} values is not a multiple of m = {m}"
                )
            }
            Self::NanInPoint { row, column } => {
                write!(f, "NaN input coordinate at row {row}, column {column}")
            }
            Self::TooManyRows { rows } => {
                write!(f, "{rows} rows exceed the u32 row-id space of SortedView")
            }
            Self::Predict(msg) => write!(f, "chunk labeling failed: {msg}"),
            Self::ZeroRows => write!(f, "the chunk source produced no rows"),
            Self::Art(e) => write!(f, "pool artifact failure: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Art(e) => Some(e),
            _ => None,
        }
    }
}

impl From<reds_art::ArtError> for StreamError {
    fn from(e: reds_art::ArtError) -> Self {
        Self::Art(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
