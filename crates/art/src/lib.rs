//! `reds-art` — the `.redsart` binary artifact container.
//!
//! A versioned, checksummed, 8-byte-aligned binary format holding the
//! two data shapes the REDS hot paths are built on:
//!
//! * **model sections** — [`FlatTree`](reds_metamodel::FlatTree)
//!   structure-of-arrays arenas (feature `u32`, value `f64`, right
//!   `u32`) plus forest/GBDT/SVM metadata, which decode straight into
//!   the arenas the prediction kernels walk;
//! * **column sections** — `(key u64, row u32)` sorted runs in exactly
//!   the record layout `reds-stream` spills, rank-addressable when
//!   merged to a single run.
//!
//! The reader ([`ArtFile::open`]) memory-maps the file and refuses to
//! expose a single byte of payload before the full verification chain
//! passes: magic, version, recorded-vs-actual length, a whole-file
//! [`Checksum`], per-section bounds/alignment/checksums, and then the
//! same structural validation `reds-json` loading performs
//! (`FlatTree` invariants via
//! [`FlatTree::from_parts`](reds_metamodel::FlatTree::from_parts),
//! shape checks on SVM/dataset buffers). A crafted `.redsart` can no
//! more loop `predict` or read out of bounds than a crafted JSON model
//! document can — and because every step of the checksum is a
//! bijection in the word it consumes, *any* single-byte corruption of
//! a valid file is guaranteed to change the whole-file digest and be
//! rejected.
//!
//! `reds-json` remains the interchange format; `.redsart` is the
//! deployment format. Opening one reads every byte twice for the
//! checksums (whole file, then per section) and decodes the model with no JSON parsing into the same
//! owned [`SavedModel`](reds_metamodel::SavedModel) the JSON loader
//! builds, so a loaded model never reads its file again.
//!
//! See `docs/artifact-format.md` for the byte-level layout.

#![warn(missing_docs)]

mod bytes;
mod checksum;
mod layout;
mod read;
mod scan;
mod write;

pub use bytes::ArtBytes;
pub use checksum::Checksum;
pub use layout::{
    FAMILY_FOREST, FAMILY_GBDT, FAMILY_SVM, HEADER_LEN, MAGIC, SECTION_COLUMN, SECTION_DATASET,
    SECTION_META, SECTION_MODEL, SECTION_PAGE_INDEX, TOC_ENTRY_LEN, VERSION,
};
pub use read::{ArtFile, ArtMeta, ColumnSection, MappedArtifact, SectionInfo};
pub use scan::{ArtScan, PageIndex, ScanSection, DEFAULT_PAGE_ROWS};
pub use write::{write_model_artifact, ArtWriter, ModelArtifactSpec};

/// Structured failure while writing, opening, or validating a
/// `.redsart` file. Every malformed input surfaces as one of these —
/// the readers never panic on file contents.
#[derive(Debug)]
pub enum ArtError {
    /// Underlying filesystem / mapping failure.
    Io(std::io::Error),
    /// The bytes violate the format: truncated, bad magic, checksum
    /// mismatch, out-of-bounds section, or a payload failing the same
    /// structural validation the JSON loaders enforce.
    Corrupt(String),
    /// Well-formed but not loadable here: unsupported version, or a
    /// required section is missing/duplicated.
    Unsupported(String),
}

impl std::fmt::Display for ArtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            ArtError::Unsupported(msg) => write!(f, "unsupported artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtError {}

impl From<std::io::Error> for ArtError {
    fn from(e: std::io::Error) -> Self {
        ArtError::Io(e)
    }
}

/// Shorthand for a [`ArtError::Corrupt`] constructor.
pub(crate) fn corrupt(msg: impl Into<String>) -> ArtError {
    ArtError::Corrupt(msg.into())
}
