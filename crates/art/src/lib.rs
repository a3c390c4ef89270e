//! `reds-art` — the `.redsart` binary artifact container.
//!
//! A versioned, checksummed, 8-byte-aligned binary format holding the
//! two data shapes the REDS hot paths are built on:
//!
//! * **model sections** — [`FlatTree`](reds_metamodel::FlatTree)
//!   structure-of-arrays arenas (feature `u32`, value `f64`, right
//!   `u32`) plus forest/GBDT/SVM metadata, which decode straight into
//!   the arenas the prediction kernels walk;
//! * **pool sections** — a pseudo-labeled pool's points and labels, and
//!   per column one fully merged run of `(key u64, row u32)` records
//!   in exactly the layout `reds-stream` spills (rank-addressable: record
//!   `i` is the column's `i`-th smallest), with its page-index fences.
//!
//! Two readers share one verifier — magic, version,
//! recorded-vs-actual length, a whole-file [`Checksum`],
//! per-section bounds/alignment/checksums — and one decoder per section
//! header ([`DatasetHeader`], [`ColumnHeader`], [`PageIndex`]). Which
//! reader runs is the consumer's choice:
//!
//! * [`ArtFile::open`] reads the file once into owned memory and
//!   verifies that copy, for consumers that decode a whole artifact
//!   (a served model). It then runs the same structural
//!   validation `reds-json` loading performs (`FlatTree` invariants via
//!   [`FlatTree::from_parts`](reds_metamodel::FlatTree::from_parts),
//!   shape checks on SVM/dataset buffers);
//! * [`ArtScan::open`] verifies by streaming and then reads by
//!   position, for the bounded-memory paged store, the one reader of
//!   COLUMN sections.
//!
//! A crafted `.redsart` can no more loop `predict` or read out of
//! bounds than a crafted JSON model document can — and because every
//! step of the checksum is a bijection in the word it consumes, *any*
//! single-byte corruption of a valid file is guaranteed to change the
//! whole-file digest and be rejected.
//!
//! `reds-json` remains the interchange format; `.redsart` is the
//! deployment format. Opening one reads every byte once for the
//! checksums (one pass feeds the whole-file sum and every section sum)
//! and decodes the model with no JSON parsing into the same owned
//! [`SavedModel`](reds_metamodel::SavedModel) the JSON loader builds,
//! so a loaded model never reads its file again. The crate has no
//! `unsafe` code.
//!
//! See `docs/artifact-format.md` for the byte-level layout.

#![warn(missing_docs)]

mod checksum;
mod layout;
mod read;
mod scan;
mod write;

pub use checksum::Checksum;
pub use layout::{
    ColumnHeader, DatasetHeader, FAMILY_FOREST, FAMILY_GBDT, FAMILY_SVM, HEADER_LEN, MAGIC,
    SECTION_COLUMN, SECTION_DATASET, SECTION_META, SECTION_MODEL, SECTION_PAGE_INDEX,
    TOC_ENTRY_LEN, VERSION,
};
pub use read::{read_regular_file, ArtFile, ArtMeta, PackedArtifact};
pub use scan::{ArtScan, PageIndex, ScanSection, DEFAULT_PAGE_ROWS};
pub use write::{write_model_artifact, ArtWriter, ModelArtifactSpec};

/// Structured failure while writing, opening, or validating a
/// `.redsart` file. Every malformed input surfaces as one of these —
/// the readers never panic on file contents.
#[derive(Debug)]
pub enum ArtError {
    /// Underlying filesystem failure.
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
